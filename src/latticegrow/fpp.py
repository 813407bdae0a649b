"""Exact finite-volume first-passage percolation.

``fpp_dijkstra`` realizes the passage-time infimum exactly on a truncated
box of Z^d: for every settled vertex the reported value is the minimum total
edge weight over all paths staying inside the box.  Boxes do not auto-grow;
instead a boundary-hit flag reports whether truncation could have biased any
value at or below the solve's horizon, which callers use either to certify
exactness (flag off means enlarging the box cannot change anything) or to
propagate a warning.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._output import write_csv
from .weights import WeightField

__all__ = [
    "LatticeBox",
    "PassageTimeMap",
    "Geodesic",
    "GreedyPath",
    "fpp_dijkstra",
    "fpp_ball",
    "fpp_geodesic",
    "wandering_deviation",
    "greedy_forward_path",
    "lattice_point",
    "unit_steps",
]

Vertex = tuple


def lattice_point(x) -> Vertex:
    """Map a real point to its lattice representative by componentwise floor."""
    return tuple(int(math.floor(c)) for c in x)


def unit_steps(d: int) -> list:
    """The 2d nearest-neighbour steps of Z^d, ordered +e1, -e1, +e2, -e2, ..."""
    return [tuple(s * int(i == j) for i in range(d)) for j in range(d) for s in (1, -1)]


@dataclass(frozen=True)
class LatticeBox:
    """The box [-radius, radius]^d intersected with Z^d."""

    dimension: int
    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"box radius must be >= 1, got {self.radius}")
        if self.dimension < 1:
            raise ValueError(f"box dimension must be >= 1, got {self.dimension}")

    def contains(self, v) -> bool:
        return all(abs(int(vi)) <= self.radius for vi in v)

    def vertex_count(self) -> int:
        return (2 * self.radius + 1) ** self.dimension

    def corner(self) -> Vertex:
        """The lowest vertex of the box."""
        return (-self.radius,) * self.dimension

    def padded_index(self, v) -> tuple:
        """Index of vertex v in the padded box: v - corner + 1."""
        return tuple(int(a) - c + 1 for a, c in zip(v, self.corner()))

    def padded_weights(self, field: WeightField) -> np.ndarray:
        """Weights of the box's edges, on the box grown by one layer of padding.

        Entry [j, *padded_index(x)] is the weight of the edge {x, x + e_j};
        edges with an endpoint outside the box weigh inf, so a solver reading
        this array never leaves the box.  The one window array that Dijkstra,
        geodesic backtracking and the brute-force oracle all read.
        """
        n = 2 * self.radius + 1
        w = field.edge_window(tuple(c - 1 for c in self.corner()), (n + 2,) * self.dimension)
        for k in range(self.dimension):
            face = np.moveaxis(w, k + 1, 1)
            face[:, [0, n + 1]] = math.inf
            face[k, n] = math.inf
        return w


@dataclass
class PassageTimeMap:
    """Finite table of passage times T(source, .) from one Dijkstra solve.

    times maps each settled vertex to its exact in-box passage time; order
    records the settling sequence (used by the infection-order coupling).
    horizon is the largest t for which the ball B(t) is fully settled, and
    boundary_hit reports whether any vertex on the box face settled with
    time at or below that horizon.
    """

    source: Vertex
    box: LatticeBox
    times: dict = dc_field(default_factory=dict)
    order: list = dc_field(default_factory=list)
    horizon: float = math.inf
    boundary_hit: bool = False

    def time_to(self, v) -> float:
        v = tuple(v)
        if v not in self.times:
            raise KeyError(f"vertex {v} was not settled")
        return self.times[v]

    def to_csv(self, path) -> None:
        d = self.box.dimension
        coords = np.array(self.order, dtype=np.int64).reshape(-1, d)
        write_csv(path, [f"x{i + 1}" for i in range(d)] + ["T"],
                  [*coords.T, [self.times[v] for v in self.order]])


def fpp_dijkstra(
    field: WeightField,
    source,
    box: LatticeBox,
    *,
    time_budget: float | None = None,
    target=None,
    max_settled: int | None = None,
) -> PassageTimeMap:
    """Single-source shortest passage times on the box, with optional stops.

    Stop criteria (any combination): settle everything with T <= time_budget,
    stop once target settles, or stop after max_settled vertices.  With no
    criterion the whole box is settled.

    The weights of every edge in the box are hashed up front into one window
    (``LatticeBox.padded_weights``), so cost and memory grow with the box
    volume (2 radius + 1)^d even when few vertices settle.  Vertices are
    numbered row-major on the padded box, which orders them like their
    coordinate tuples, so heap ties break lexicographically.
    """
    if field.attachment != "edge":
        raise ValueError("FPP needs an edge weight field")
    if field.dimension != box.dimension:
        raise ValueError("field and box dimensions differ")
    source = tuple(int(c) for c in source)
    if not box.contains(source):
        raise ValueError(f"source {source} lies outside the box")
    if target is not None:
        target = tuple(int(c) for c in target)
        if not box.contains(target):
            raise ValueError(f"target {target} lies outside the box")
    if time_budget is not None and time_budget < 0:
        raise ValueError(f"time budget must be nonnegative, got {time_budget}")

    d = box.dimension
    shape = (2 * box.radius + 3,) * d
    origin = tuple(c - 1 for c in box.corner())  # the padded box's lowest vertex
    weights = box.padded_weights(field)
    on_face = np.zeros(shape, dtype=bool)
    for k in range(d):
        np.moveaxis(on_face, k, 0)[[1, shape[0] - 2]] = True
    on_face = memoryview(on_face.reshape(-1))
    strides = [shape[0] ** (d - 1 - j) for j in range(d)]
    # per axis: the flat offset of +e_j and the weights of edges leaving forward
    relax = [(s, memoryview(weights[j].reshape(-1))) for j, s in enumerate(strides)]

    def flat(v):
        return sum((c - o) * s for c, o, s in zip(v, origin, strides))

    tgt = flat(target) if target is not None else -1
    cap = max_settled if max_settled is not None else math.inf
    budget = float(time_budget) if time_budget is not None else math.inf
    best = [math.inf] * weights[0].size
    src = flat(source)
    best[src] = 0.0
    heap = [(0.0, src)]
    order: list = []
    times: list = []
    face_hit_time = math.inf

    while heap:
        t, u = heapq.heappop(heap)
        if t > best[u]:
            continue  # stale entry; settled vertices keep their final best
        if t > budget:
            break
        order.append(u)
        times.append(t)
        if face_hit_time == math.inf and on_face[u]:
            face_hit_time = t
        if u == tgt or len(order) >= cap:
            break
        # settled neighbours fail nt < best[v] since weights are nonnegative,
        # and edges out of the box weigh inf
        for s, w in relax:
            v = u + s
            nt = t + w[u]
            if nt < best[v]:
                best[v] = nt
                heapq.heappush(heap, (nt, v))
            v = u - s
            nt = t + w[v]
            if nt < best[v]:
                best[v] = nt
                heapq.heappush(heap, (nt, v))

    coords = np.stack(np.unravel_index(np.array(order, dtype=np.int64), shape), axis=-1)
    order = list(map(tuple, (coords + np.array(origin, dtype=np.int64)).tolist()))

    if order[-1] == target or len(order) >= cap:
        # unsettled vertices tied exactly at the last time may remain in the heap
        flag_cut, horizon = times[-1], math.nextafter(times[-1], -math.inf)
    else:
        # everything with T <= budget settled before the first over-budget pop
        flag_cut = horizon = budget

    return PassageTimeMap(
        source=source,
        box=box,
        times=dict(zip(order, times)),
        order=order,
        horizon=horizon,
        boundary_hit=face_hit_time <= flag_cut,
    )


def fpp_ball(pmap: PassageTimeMap, t: float) -> set:
    """The infected set B(t) = settled vertices with passage time <= t.

    Refuses when t exceeds the map's settled horizon, since the result would
    then silently under-report.
    """
    if t > pmap.horizon:
        raise ValueError(f"t={t} exceeds the settled horizon {pmap.horizon}")
    return {v for v, tau in pmap.times.items() if tau <= t}


def ball_to_csv(ball, d: int, path) -> None:
    coords = np.array(sorted(ball), dtype=np.int64).reshape(-1, d)
    write_csv(path, [f"x{i + 1}" for i in range(d)], coords.T)


@dataclass(frozen=True)
class Geodesic:
    """A minimizing path with its passage time; ties broken canonically."""

    vertices: tuple
    total_time: float
    tie_break: str = "lexicographic-predecessor"


def fpp_geodesic(field: WeightField, pmap: PassageTimeMap, target) -> Geodesic:
    """Recover a minimizing path to a settled target by backtracking.

    At each vertex the predecessor is the lexicographically smallest settled
    neighbor u with T(u) + w(u, v) == T(v) exactly, which pins a canonical
    geodesic even when atomic weights make the minimizer non-unique.  The
    equality test is exact because Dijkstra assigned T(v) as exactly such a
    sum, and w is read from the same window array (``pmap.box.padded_weights``)
    the solve read.  Vertices already on the partial path are skipped so that
    plateaus of zero-weight edges cannot cycle.
    """
    target = tuple(int(c) for c in target)
    if target not in pmap.times:
        raise KeyError(f"target {target} was not settled")
    weights = pmap.box.padded_weights(field)
    steps = unit_steps(pmap.box.dimension)
    path = [target]
    seen = {target}
    v = target
    while v != pmap.source:
        tv = pmap.times[v]
        pred = None
        for j, s in enumerate(steps):
            u = tuple(a + b for a, b in zip(v, s))
            if u in seen or u not in pmap.times:
                continue
            lower = u if j % 2 else v  # odd steps move down an axis
            w = float(weights[(j // 2, *pmap.box.padded_index(lower))])
            if pmap.times[u] + w == tv:
                if pred is None or u < pred:
                    pred = u
        if pred is None:
            raise RuntimeError(f"backtracking from {target} stalled at {v}")
        path.append(pred)
        seen.add(pred)
        v = pred
    path.reverse()
    return Geodesic(vertices=tuple(path), total_time=pmap.times[target])


def wandering_deviation(geo: Geodesic, x, y) -> float:
    """Maximal Euclidean distance from the geodesic's vertices to segment [x, y]."""
    if not geo.vertices:
        raise ValueError("empty path")
    if geo.vertices[0] != tuple(x) or geo.vertices[-1] != tuple(y):
        raise ValueError("geodesic endpoints do not match the segment")
    pts = np.asarray(geo.vertices, dtype=np.float64)
    return float(max_distance_to_segment(pts, np.asarray(x, float), np.asarray(y, float)))


def max_distance_to_segment(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    seg = b - a
    denom = float(seg @ seg)
    rel = pts - a
    if denom == 0.0:
        return float(np.sqrt((rel * rel).sum(axis=1)).max())
    s = np.clip(rel @ seg / denom, 0.0, 1.0)
    foot = a + s[:, None] * seg
    diff = pts - foot
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


@dataclass(frozen=True)
class GreedyPath:
    vertices: tuple
    step_weights: tuple
    total_weight: float


def greedy_forward_path(field: WeightField, steps: int) -> GreedyPath:
    """Follow the cheapest forward edge for the given number of steps.

    From each vertex, examine the d edges in the positive coordinate
    directions and cross the one of minimal weight (smallest axis on ties).
    Each step uses d fresh edge weights since the coordinate sum strictly
    increases.  Every step's weight is therefore a minimum of d independent
    draws; for rate-1 exponential weights that minimum has mean 1/d.
    """
    d = field.dimension
    if field.attachment != "edge":
        raise ValueError("greedy path needs an edge field")
    if d < 2:
        raise ValueError("greedy forward path needs dimension >= 2")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    axes = np.arange(d)
    cur = (0,) * d
    verts = [cur]
    wts = []
    total = 0.0
    for _ in range(steps):
        # one hash of the d forward edges; argmin takes the smallest axis on ties
        w = field.edge_weights(cur, axes)
        j = int(np.argmin(w))
        cur = cur[:j] + (cur[j] + 1,) + cur[j + 1 :]
        verts.append(cur)
        wts.append(float(w[j]))
        total += wts[-1]
    return GreedyPath(vertices=tuple(verts), step_weights=tuple(wts), total_weight=total)
