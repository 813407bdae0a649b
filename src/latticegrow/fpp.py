"""Exact finite-volume first-passage percolation.

``fpp_dijkstra`` realizes the passage-time infimum exactly on a truncated
box of Z^d: for every settled vertex the reported value is the minimum total
edge weight over all paths staying inside the box.  Boxes do not auto-grow;
instead a boundary-hit flag reports whether truncation could have biased any
value at or below the solve's horizon, which callers use either to certify
exactness (flag off means enlarging the box cannot change anything; the
estimators and the infection order double the box until it is, in
``_grown_solve``) or to propagate a warning.

One settle loop, Meyer and Sanders' Delta-stepping in its bulk-synchronous
form, settles the box bucket by bucket with numpy steps and reproduces a
binary heap's times, settling order, horizon and flag bit for bit
(``_bucket_settle``).  A bucket is every unsettled vertex below t_min +
Delta, Delta = max(omega, mean / 2) for the window's least weight omega and
the law's mean; its vertices are relaxed until no time drops below that
threshold, which leaves them final whatever Delta is, and it settles in
(time, flat index) order, the heap's.  A window light enough that fl(t +
w) == t can happen settles one vertex a step, as the heap pops it.

Trials run in lock step.  ``_solve_batch`` solves B fields from one source
on one box: their padded windows lie end to end on one flat axis, and each
bucket holds the vertices below one threshold in every trial, each trial
cut by its own stops, so a step's numpy overhead is paid once for B trials.
``fpp_dijkstra`` is the one-field batch, and ``_grown_solve`` sizes batches
by ``_trials_per_solve`` and re-solves only the trials whose boundary flag
is set on the next box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._output import write_csv
from .experiments import _TRIAL_BYTES, MEMORY_BUDGET
from .lpp import _BATCH_CELLS
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

    def padded_weights(self, field: WeightField, out: np.ndarray | None = None) -> np.ndarray:
        """Weights of the box's edges, on the box grown by one layer of padding.

        Entry [j, *padded_index(x)] is the weight of the edge {x, x + e_j};
        edges with an endpoint outside the box weigh inf, so a solver reading
        this array never leaves the box.  The one window array that Dijkstra,
        geodesic backtracking and the brute-force oracle all read; a batched
        solve passes its trial's slot of the batch array as out.
        """
        n = 2 * self.radius + 1
        w = field.edge_window(tuple(c - 1 for c in self.corner()), self.padded_shape(), out)
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
    criterion the whole box is settled.  A time_budget that is not >= 0
    (NaN included) and a max_settled below 1 raise ValueError.

    The weights of every edge in the box are hashed up front into one window
    (``LatticeBox.padded_weights``), so cost and memory grow with the box
    volume (2 radius + 1)^d even when few vertices settle.  Vertices are
    numbered row-major on the padded box, which orders them like their
    coordinate tuples, so ties break lexicographically.

    One bucket loop settles the box (``_bucket_settle``) and gives the
    times, order, horizon and flag a binary heap popping one vertex at a
    time in (time, flat index) order would give.

    This is ``_solve_batch`` on the one field, so a trial solved alone and
    the same trial solved in a batch get the same bits.
    """
    return _solve_batch([field], source, box, time_budget=time_budget, target=target,
                        max_settled=max_settled)[0]


def _solve_batch(fields, source, box: LatticeBox, *, time_budget=None, target=None,
                 max_settled=None) -> list:
    """fpp_dijkstra of every field from one source on one box, with the same stops.

    Each field's window is hashed into its slot of one (d, B, *padded shape)
    array, which is each map's window, and the bucket loop settles the B
    trials in lock step, its bucket width set by the first field's law.
    """
    for field in fields:
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
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time_budget must be nonnegative, got {time_budget}")
    if max_settled is not None and max_settled < 1:
        raise ValueError(f"max_settled must be at least 1, got {max_settled}")

    d = box.dimension
    shape = box.padded_shape()
    weights = np.empty((d, len(fields), *shape))
    for i, field in enumerate(fields):
        box.padded_weights(field, weights[:, i])
    strides = [shape[0] ** (d - 1 - j) for j in range(d)]
    src = box.flat_index(source)
    tgt = box.flat_index(target) if target is not None else -1
    cap = max_settled if max_settled is not None else math.inf
    budget = float(time_budget) if time_budget is not None else math.inf
    flat = weights.reshape(d, len(fields), -1)
    runs = _bucket_settle(flat, strides, src, tgt, budget, cap, fields[0].spec.mean() / 2)

    maps = []
    for window, (order, times) in zip(weights.swapaxes(0, 1), runs):
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
        maps.append(PassageTimeMap(source=source, box=box, flat=order, settled_times=times,
                                   window=window, horizon=horizon, boundary_hit=boundary_hit))
    return maps


def _trials_per_solve(box: LatticeBox) -> int:
    """How many trials one solve on this box holds, at least one: LPP's _BATCH_CELLS
    over d + 1 float64 cells a vertex (its d edge weights and its tentative time)."""
    return max(1, _BATCH_CELLS // ((box.dimension + 1) * box.vertex_count()))


def _grown_solve(fields, radius: int, cap: int, **stops) -> list:
    """The maps of _solve_batch from the origin on radius r, 2r, 4r, ... up to cap.

    Each box re-solves only the trials whose last map has a face vertex
    settled, _trials_per_solve of them a solve, so every map is exact or is
    the cap box's and keeps its flag.  A box past MEMORY_BUDGET, at
    _TRIAL_BYTES a vertex, raises ValueError.
    """
    d = fields[0].dimension
    maps = [None] * len(fields)
    todo = list(range(len(fields)))
    while todo:
        box = LatticeBox(d, min(radius, cap))
        if box.vertex_count() > MEMORY_BUDGET // _TRIAL_BYTES:
            raise ValueError(f"an FPP box in dimension {box.dimension} needs {box.vertex_count()} "
                             f"vertices, more than {MEMORY_BUDGET // _TRIAL_BYTES}")
        per = _trials_per_solve(box)
        for a in range(0, len(todo), per):
            part = todo[a:a + per]
            for i, pmap in zip(part, _solve_batch([fields[i] for i in part], (0,) * d, box,
                                                  **stops)):
                maps[i] = pmap
        todo = [i for i in todo if maps[i].boundary_hit and box.radius < cap]
        radius *= 2
    return maps


def _bucket_settle(weights, strides, src, tgt, budget, cap, delta):
    """Settle every trial a bucket per step, each in a binary heap's order.

    weights[j, i] holds trial i's weight of the edge from each flat index
    along +e_j; src, tgt and the stops are every trial's, and delta is half
    the law's mean.  Returns one (settled flat indices, times) pair per
    trial, in the order a heap popping (time, flat index) pairs would settle
    them.

    The trials' windows lie end to end on one flat axis, trial i's vertex v
    at i size + v.  A settled vertex lies inside its box, so its neighbours
    lie in its own padded window and no relaxation leaves its trial.  Let
    omega be the least weight of all the windows, Delta = max(omega, delta),
    t_min the least tentative time of all the unsettled vertices and thr =
    fl(t_min + Delta).  A step takes every unsettled vertex below thr and
    relaxes all 2d directions at once (``np.minimum.at`` keeps the least time
    a vertex gets); a vertex whose time drops below thr joins the bucket and
    is relaxed again, until a round improves nothing below thr.  Float
    addition rounds monotonically and weights are nonnegative, so a shortest
    path to a vertex below thr runs through vertices below thr only, so the
    bucket's times are then final, and its vertices are exactly those a heap
    pops before any time >= thr.  With Delta = omega no relaxation from the
    bucket lands below thr, so one round suffices.

    A heap pops v only after a tight predecessor u, fl(t_u + w) == t_v, so
    (t, index) order is its order unless some relaxation gives fl(t_u + w)
    == t_u, which needs 2 omega <= ulp(thr).  Then a step takes only the
    (t, index)-least vertex, which is one heap pop; the test also holds
    whenever thr == t_min (Delta is 0 or below t_min's ulp).  The bucket is
    then cut in each trial where its own stop falls (``_cut``), and a trial
    that stops leaves the frontier, an index array with a membership array.
    """
    d, trials, size = weights.shape
    omega = float(weights.min())
    delta = max(omega, delta)
    flat_w = weights.reshape(-1)
    # per direction +e_1, -e_1, +e_2, ...: the neighbour's flat offset, and the
    # offset in flat_w of the edge's weight (its lower endpoint's, on axis j)
    steps = np.array([[sign * s] for s in strides for sign in (1, -1)])
    edges = np.array([[j * trials * size + off] for j, s in enumerate(strides) for off in (0, -s)])
    base = np.arange(trials) * size
    best = np.full(trials * size, math.inf)
    front = base + src
    best[front] = 0.0
    # -1 off the frontier; on it, a vertex's index among the vertices that
    # joined it in the same round, which keeps one copy of a vertex reached twice
    slot = np.full(trials * size, -1, dtype=np.int32)
    slot[front] = 0
    is_tgt = np.zeros(trials * size, dtype=bool)
    if tgt >= 0:
        is_tgt[base + tgt] = True
    # per-trial counts matter only when the cap can bind: a trial settles
    # fewer vertices than its padded window holds
    capped = cap < size
    settled = np.zeros(trials, dtype=np.int64)
    order: list = []
    times: list = []

    while front.size:
        tf = best[front]
        t_min = tf.min()
        thr = t_min + delta
        if 2 * omega <= math.ulp(thr):
            # a relaxation may give fl(t_u + w) == t_u: one heap pop a step
            thr = t_min
            take = front == front[tf == t_min].min()
        else:
            take = tf < thr
        parts = []
        while True:
            bucket, bt = front[take], tf[take]
            front = front[~take]
            slot[bucket] = -1
            parts.append(bucket)
            dest = bucket + steps
            nt = bt + flat_w[bucket + edges]
            better = nt < best[dest]
            dest, nt = dest[better], nt[better]
            np.minimum.at(best, dest, nt)
            fresh = dest[slot[dest] < 0]
            at = np.arange(fresh.size)
            slot[fresh] = at
            front = np.concatenate((front, fresh[slot[fresh] == at]))
            if not (nt < thr).any():
                break
            tf = best[front]
            take = tf < thr
        if len(parts) > 1:
            # a vertex relaxed in two rounds is taken once: slot keeps one copy
            bucket = np.concatenate(parts)
            at = np.arange(bucket.size)
            slot[bucket] = at
            bucket = bucket[slot[bucket] == at]
            slot[bucket] = -1
            bt = best[bucket]
        if bucket.size > 1:
            # (t, flat index) order: a quick sort of the times, then of the
            # indices too if two times tie
            by = np.argsort(bt)
            bucket, bt = bucket[by], bt[by]
            if (bt[1:] == bt[:-1]).any():
                by = np.lexsort((bucket, bt))
                bucket, bt = bucket[by], bt[by]
        stops = bt[-1] > budget or is_tgt[bucket].any()
        if capped:
            count = np.bincount(bucket // size, minlength=trials)
            stops = stops or (settled + count >= cap).any()
        if stops:
            # some trial's heap stops in this bucket; a trial that stops leaves the frontier
            bucket, bt, count, stop = _cut(bucket, bt, is_tgt, budget, cap - settled, size)
            front = front[~stop[front // size]]
        order.append(bucket)
        times.append(bt)
        if capped:
            settled += count

    # every trial's vertices lie in settling order, so a stable sort by trial
    # keeps each trial's order
    order, times = np.concatenate(order), np.concatenate(times)
    tri = (order // size).astype(np.min_scalar_type(trials))
    by = np.argsort(tri, kind="stable")
    order, times = order[by], times[by]
    ends = np.cumsum(np.bincount(tri, minlength=trials)).tolist()
    return [(order[a:b] - i * size, times[a:b])
            for i, (a, b) in enumerate(zip([0] + ends, ends))]


def _cut(bucket, bt, is_tgt, budget, room, size):
    """Cut a bucket, in (t, flat index) order, where each trial's heap would stop.

    room is how many more vertices each trial may settle, and size the length
    of one trial's window on the flat axis.  A pop over budget settles
    nothing, and a pop that settles the target or the room-th vertex is the
    last.  Returns the kept bucket, grouped by trial, its times, each trial's
    kept count, and which trials stop.
    """
    bi = bucket // size
    by = np.argsort(bi, kind="stable")
    bucket, bt, bi = bucket[by], bt[by], bi[by]
    count = np.bincount(bi, minlength=room.size)
    pos = np.arange(bucket.size) - (np.cumsum(count) - count)[bi]
    k = np.bincount(bi[bt <= budget], minlength=room.size)
    stop = k < count
    hit = is_tgt[bucket] & (pos < k[bi])
    k[bi[hit]] = pos[hit] + 1
    stop[bi[hit]] = True
    full = (k > 0) & (k >= room)
    k[full] = np.maximum(room[full], 1)
    stop |= full
    keep = pos < k[bi]
    return bucket[keep], bt[keep], k, stop


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
