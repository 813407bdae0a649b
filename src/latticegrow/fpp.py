"""Exact finite-volume first-passage percolation.

``fpp_dijkstra`` realizes the passage-time infimum exactly on a truncated
box of Z^d: for every settled vertex the reported value is the minimum total
edge weight over all paths staying inside the box.  Boxes do not auto-grow;
instead a boundary-hit flag reports whether truncation could have biased any
value at or below the solve's horizon, which callers use either to certify
exactness (flag off means enlarging the box cannot change anything; the
estimators and the infection order double the box until it is, in
``_grown_solve``) or to propagate a warning.

Two settle loops give bit-identical maps.  The heap loop pops one vertex at
a time.  The bucket loop (Dial's bucket queue in the bulk-synchronous form
of Meyer and Sanders' Delta-stepping) settles every unsettled vertex below
t_min + omega in one numpy step, omega being the window's least weight:
float addition rounds monotonically, so no relaxation from an unsettled
vertex can produce a key below fl(t_min + omega), and those vertices are the
heap's next pops.  The bucket loop is chosen from the law and the box
(``_use_buckets``), where it was measured to win; exponential and
zero-weight laws, d = 1 and small boxes keep the heap.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._output import write_csv
from .experiments import _TRIAL_BYTES, MEMORY_BUDGET
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

    def padded_shape(self) -> tuple:
        """Shape of the box grown by one layer of padding."""
        return (2 * self.radius + 3,) * self.dimension

    def flat_index(self, v) -> int:
        """Row-major index of vertex v on the padded box; it orders like the tuples."""
        return int(np.ravel_multi_index(self.padded_index(v), self.padded_shape()))

    def padded_weights(self, field: WeightField) -> np.ndarray:
        """Weights of the box's edges, on the box grown by one layer of padding.

        Entry [j, *padded_index(x)] is the weight of the edge {x, x + e_j};
        edges with an endpoint outside the box weigh inf, so a solver reading
        this array never leaves the box.  The one window array that Dijkstra,
        geodesic backtracking and the brute-force oracle all read.
        """
        n = 2 * self.radius + 1
        w = field.edge_window(tuple(c - 1 for c in self.corner()), self.padded_shape())
        for k in range(self.dimension):
            face = np.moveaxis(w, k + 1, 1)
            face[:, [0, n + 1]] = math.inf
            face[k, n] = math.inf
        return w


@dataclass(eq=False)
class PassageTimeMap:
    """Finite table of passage times T(source, .) from one Dijkstra solve.

    The solve leaves the settled vertices as flat indices on the padded box
    (``flat``, in settling order) with their exact in-box passage times
    (``settled_times``), next to the weight window it read (``window``).
    ``times`` (vertex -> time) and ``order`` (the settling sequence, used by
    the infection-order coupling) are built from those arrays on first read.
    horizon is the largest t for which the ball B(t) is fully settled, and
    boundary_hit reports whether any vertex on the box face settled.
    """

    source: Vertex
    box: LatticeBox
    flat: np.ndarray = dc_field(repr=False)
    settled_times: np.ndarray = dc_field(repr=False)
    window: np.ndarray = dc_field(repr=False)
    horizon: float = math.inf
    boundary_hit: bool = False

    def _coords(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates (one row per vertex) of flat indices on the padded box."""
        coords = np.stack(np.unravel_index(flat, self.box.padded_shape()), axis=-1)
        return coords + np.array(self.box.corner(), dtype=np.int64) - 1

    @functools.cached_property
    def order(self) -> list:
        return list(map(tuple, self._coords(self.flat).tolist()))

    @functools.cached_property
    def times(self) -> dict:
        return dict(zip(self.order, self.settled_times.tolist()))

    def time_to(self, v) -> float:
        v = tuple(v)
        if (len(v) == self.box.dimension and self.box.contains(v)
                and tuple(map(int, v)) == v):
            at = np.flatnonzero(self.flat == self.box.flat_index(v))
            if at.size:
                return float(self.settled_times[at[0]])
        raise KeyError(f"vertex {v} was not settled")

    def to_csv(self, path) -> None:
        d = self.box.dimension
        write_csv(path, [f"x{i + 1}" for i in range(d)] + ["T"],
                  [*self._coords(self.flat).T, self.settled_times])


# a bucket step costs about twenty heap pops, so the bucket loop pays once a
# bucket holds enough vertices; a bucket is a slice of a front about
# (2 radius + 1)^(d - 1) vertices wide, and the crossovers of forced solves
# of six laws (BENCH_fpp_buckets.json, "selection") sit near one value of
# sqrt(support_min / mean) (2 radius + 1)^(d - 1) per dimension (51-97 in
# d = 2, 827-1025 in d = 3), whose median is listed here; d = 1 lost at
# every box size and d >= 4 was not measured, so both keep the heap
_BUCKET_FRONT = {2: 70, 3: 1000}


def _check_fpp_law(spec) -> None:
    """Reject a law FPP estimation cannot use.

    A surrogate for "not too many zero weights": continuous, or bounded away
    from 0.
    """
    if not (spec.is_continuous() or spec.support_min() > 0):
        raise ValueError(
            f"FPP estimation needs a continuous distribution or one with "
            f"strictly positive support, got {spec.token()}"
        )


def _use_buckets(spec, box: LatticeBox) -> bool:
    """Whether a solve of this law on this box takes the bucket loop."""
    least = spec.support_min()
    front = _BUCKET_FRONT.get(box.dimension, math.inf)
    return least > 0 and (
        math.sqrt(least / spec.mean()) * (2 * box.radius + 1) ** (box.dimension - 1) >= front
    )


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
    coordinate tuples, so ties break lexicographically.

    Two settle loops give the same times, order, horizon and flag: a binary
    heap that settles one vertex per pop, and a bucket loop that settles
    every vertex below t_min + omega in one numpy step (see ``_bucket_settle``).
    The bucket loop runs when ``_use_buckets`` holds for the field's law and
    the box: a least weight bounded away from 0 and, in d = 2 or 3, a box wide
    enough that a bucket holds many vertices.  Exponential and zero-weight
    laws, d = 1 and small boxes keep the heap.
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
    shape = box.padded_shape()
    weights = box.padded_weights(field)
    strides = [shape[0] ** (d - 1 - j) for j in range(d)]
    tgt = box.flat_index(target) if target is not None else -1
    cap = max_settled if max_settled is not None else math.inf
    budget = float(time_budget) if time_budget is not None else math.inf
    settle = _bucket_settle if _use_buckets(field.spec, box) else _heap_settle
    order, times = settle(
        weights.reshape(d, -1), strides, box.flat_index(source), tgt, budget, cap
    )

    if order[-1] == tgt or len(order) >= cap:
        # unsettled vertices tied exactly at the last time may remain unsettled
        horizon = math.nextafter(float(times[-1]), -math.inf)
    else:
        # everything with T <= budget settled before the first over-budget pop
        horizon = budget
    # settled times never decrease, so every settled face vertex lies at or
    # below the cut the flag certifies (the budget, or the last settled time)
    padded = np.unravel_index(order, shape)
    boundary_hit = any(bool(((c == 1) | (c == shape[0] - 2)).any()) for c in padded)

    return PassageTimeMap(
        source=source,
        box=box,
        flat=order,
        settled_times=times,
        window=weights,
        horizon=horizon,
        boundary_hit=boundary_hit,
    )


def _grown_solve(field: WeightField, radius: int, cap: int, **stops) -> PassageTimeMap:
    """fpp_dijkstra from the origin on radius r, 2r, 4r, ... up to cap until no
    face vertex settles, which makes the map exact; the last map keeps its flag.
    A box past MEMORY_BUDGET, at _TRIAL_BYTES a vertex, raises ValueError."""
    while True:
        box = LatticeBox(field.dimension, min(radius, cap))
        if box.vertex_count() > MEMORY_BUDGET // _TRIAL_BYTES:
            raise ValueError(f"an FPP box in dimension {box.dimension} needs {box.vertex_count()} "
                             f"vertices, more than {MEMORY_BUDGET // _TRIAL_BYTES}")
        pmap = fpp_dijkstra(field, (0,) * field.dimension, box, **stops)
        if not pmap.boundary_hit or box.radius == cap:
            return pmap
        radius *= 2


def _heap_settle(weights, strides, src, tgt, budget, cap):
    """Settle one vertex per heap pop, in (time, flat index) order.

    weights[j] holds the weight of the edge from each flat index along +e_j.
    Returns the settled flat indices and times, in settling order.
    """
    # per axis: the flat offset of +e_j and the weights of edges leaving forward
    relax = [(s, memoryview(w)) for s, w in zip(strides, weights)]
    best = [math.inf] * weights.shape[1]
    best[src] = 0.0
    heap = [(0.0, src)]
    order: list = []
    times: list = []

    while heap:
        t, u = heapq.heappop(heap)
        if t > best[u]:
            continue  # stale entry; settled vertices keep their final best
        if t > budget:
            break
        order.append(u)
        times.append(t)
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

    return np.array(order, dtype=np.int64), np.array(times)


def _bucket_settle(weights, strides, src, tgt, budget, cap):
    """Settle a whole bucket per numpy step, in the heap's order; same contract.

    Let omega be the least weight in the window and t_min the least tentative
    time among unsettled vertices.  A relaxation from an unsettled u gives
    fl(t(u) + w) >= fl(t_min + omega) = thr, since float addition rounds
    monotonically, so every unsettled vertex with t < thr is final and the
    heap would pop exactly those next, in (t, flat index) order, with no push
    in between sorting before them.  One step settles them all, cut by the
    stop rules, and relaxes each of the 2d directions with vectorised
    compares (within one direction the destinations are distinct).  When thr
    == t_min (omega is 0 or below t_min's ulp) a step settles only the
    (t, index)-least vertex, which is one heap pop.  The frontier is an index
    array with a membership mask.
    """
    omega = float(weights.min())
    best = np.full(weights.shape[1], math.inf)
    best[src] = 0.0
    front = np.array([src], dtype=np.int64)
    in_front = np.zeros(weights.shape[1], dtype=bool)
    in_front[src] = True
    order: list = []
    times: list = []
    settled = 0

    while front.size:
        tf = best[front]
        t_min = tf.min()
        thr = t_min + omega
        if thr > t_min:
            take = tf < thr
        else:
            take = front == front[tf == t_min].min()
        bucket, bt = front[take], tf[take]
        front = front[~take]
        in_front[bucket] = False
        if bucket.size > 1:
            by = np.lexsort((bucket, bt))
            bucket, bt = bucket[by], bt[by]
        # the heap's stops: a pop over budget settles nothing; a pop that
        # settles the target or the cap-th vertex is the last
        k = int(np.searchsorted(bt, budget, side="right"))
        stop = k < bucket.size
        hit = np.flatnonzero(bucket[:k] == tgt)
        if hit.size:
            k, stop = int(hit[0]) + 1, True
        if k and settled + k >= cap:
            k, stop = max(cap - settled, 1), True
        bucket, bt = bucket[:k], bt[:k]
        order.append(bucket)
        times.append(bt)
        settled += k
        if stop:
            break
        new = [front]
        for s, w in zip(strides, weights):
            back = bucket - s
            for dest, nt in ((bucket + s, bt + w[bucket]), (back, bt + w[back])):
                better = nt < best[dest]
                dest = dest[better]
                best[dest] = nt[better]
                dest = dest[~in_front[dest]]
                in_front[dest] = True
                new.append(dest)
        front = np.concatenate(new)

    return np.concatenate(order), np.concatenate(times)


def fpp_ball(pmap: PassageTimeMap, t: float) -> set:
    """The infected set B(t) = settled vertices with passage time <= t.

    Refuses when t exceeds the map's settled horizon, since the result would
    then silently under-report.
    """
    if t > pmap.horizon:
        raise ValueError(f"t={t} exceeds the settled horizon {pmap.horizon}")
    return set(map(tuple, pmap._coords(pmap.flat[pmap.settled_times <= t]).tolist()))


@dataclass(frozen=True)
class Geodesic:
    """A minimizing path with its passage time; ties broken canonically."""

    vertices: tuple
    total_time: float
    tie_break: str = "lexicographic-predecessor"


def fpp_geodesic(pmap: PassageTimeMap, target) -> Geodesic:
    """Recover a minimizing path to a settled target by backtracking.

    At each vertex the predecessor is the lexicographically smallest settled
    neighbor u with T(u) + w(u, v) == T(v) exactly, which pins a canonical
    geodesic even when atomic weights make the minimizer non-unique.  The
    equality test is exact because Dijkstra assigned T(v) as exactly such a
    sum, and w is read from the window array the solve read (``pmap.window``;
    no field is hashed again).  Vertices already on the partial path are
    skipped so that plateaus of zero-weight edges cannot cycle.
    """
    target = tuple(int(c) for c in target)
    if target not in pmap.times:
        raise KeyError(f"target {target} was not settled")
    weights = pmap.window
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
