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
``fpp_dijkstra`` is the one-field batch.  ``_trial_bytes`` counts the bytes
one trial of a solve holds; ``_grown_solve`` sizes its batches by that count
and re-solves only the trials whose boundary flag is set on the next box.

Point solves to a target x are decided here, and ``_point_solve`` proves
them exact.  With a law of least weight omega > 0, U, the least float sum
along a monotone path to x (``_least_monotone_time``), bounds T(x), and the
loop drops a relaxation to v whose time exceeds U - omega' |x - v|_1, omega'
just below omega.  Every vertex that can pass lies in the l1-ellipse omega'
(|v|_1 + |x - v|_1) <= U, and a trial whose box around it holds, pruned, no
more bytes than the first box unpruned is solved once there (``_pruned_box``)
with no flag; the others grow.  ``_point_task`` sizes a task the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._output import write_csv
from .experiments import MEMORY_BUDGET, _batch_trials
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

def lattice_point(x) -> tuple:
    """Map a real point to its lattice representative by componentwise floor."""
    return tuple(int(math.floor(c)) for c in x)


def unit_steps(d: int) -> list:
    """The 2d nearest-neighbour steps of Z^d, ordered +e1, -e1, +e2, -e2, ..."""
    return [tuple(s * int(i == j) for i in range(d)) for j in range(d) for s in (1, -1)]


@dataclass(frozen=True)
class LatticeBox:
    """The box [-radius, radius]^d intersected with Z^d, or [low, high] when given.

    ``spanning`` builds a box off the origin's centre; its radius is then the
    largest |coordinate| of its corners.
    """

    dimension: int
    radius: int
    low: tuple | None = None
    high: tuple | None = None

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"box radius must be >= 1, got {self.radius}")
        if self.dimension < 1:
            raise ValueError(f"box dimension must be >= 1, got {self.dimension}")
        if self.low is None:
            object.__setattr__(self, "low", (-self.radius,) * self.dimension)
            object.__setattr__(self, "high", (self.radius,) * self.dimension)

    @classmethod
    def spanning(cls, low, high) -> "LatticeBox":
        """The box [low, high] of Z^d."""
        return cls(len(low), max(map(abs, (*low, *high))), tuple(low), tuple(high))

    def contains(self, v) -> bool:
        return all(a <= int(vi) <= b for vi, a, b in zip(v, self.low, self.high))

    def vertex_count(self) -> int:
        return math.prod(b - a + 1 for a, b in zip(self.low, self.high))

    def padded_index(self, v) -> tuple:
        """Index of vertex v in the padded box: v - low + 1."""
        return tuple(int(a) - c + 1 for a, c in zip(v, self.low))

    def padded_shape(self) -> tuple:
        """Shape of the box grown by one layer of padding."""
        return tuple(b - a + 3 for a, b in zip(self.low, self.high))

    def coords(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates (one row per vertex) of flat indices on the padded box."""
        coords = np.stack(np.unravel_index(flat, self.padded_shape()), axis=-1)
        return coords + np.array(self.low, dtype=np.int64) - 1

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
        w = field.edge_window(tuple(c - 1 for c in self.low), self.padded_shape(), out)
        for k, n in enumerate(s - 2 for s in self.padded_shape()):
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

    source: tuple
    box: LatticeBox
    flat: np.ndarray = dc_field(repr=False)
    settled_times: np.ndarray = dc_field(repr=False)
    window: np.ndarray = dc_field(repr=False)
    horizon: float = math.inf
    boundary_hit: bool = False

    @functools.cached_property
    def order(self) -> list:
        return list(map(tuple, self.box.coords(self.flat).tolist()))

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
                  [*self.box.coords(self.flat).T, self.settled_times])


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
                 max_settled=None, goal=None) -> list:
    """fpp_dijkstra of every field from one source on one box, with the same stops.

    Each field's window is hashed into its slot of one (d, B, *padded shape)
    array, which is each map's window, and the bucket loop settles the B
    trials in lock step, its bucket width set by the first field's law.

    goal, None or (omega, ceilings) with a target, prunes toward the target:
    a relaxation to v in trial i is dropped when its time exceeds
    fl(ceilings[i] - fl(omega |target - v|_1)).  Only _point_solve passes it;
    the pruned maps' times off the target's geodesics are not Dijkstra's.
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
    strides = [math.prod(shape[j + 1:]) for j in range(d)]
    src = box.flat_index(source)
    tgt = box.flat_index(target) if target is not None else -1
    cap = max_settled if max_settled is not None else math.inf
    budget = float(time_budget) if time_budget is not None else math.inf
    flat = weights.reshape(d, len(fields), -1)
    lim = None
    if goal is not None:
        omega, ceilings = goal
        # |target - v|_1 at every padded vertex, then times omega: one rounding;
        # then each trial's ceiling less that, on the batch's flat axis
        dist = functools.reduce(np.add, np.ix_(*(
            np.abs(np.arange(a - 1, b + 2) - c) for a, b, c in zip(box.low, box.high, target))))
        lim = (np.asarray(ceilings, dtype=np.float64)[:, None] - omega * dist.reshape(-1)).reshape(-1)
        del dist  # only lim is counted (_trial_bytes)
    runs = _bucket_settle(flat, strides, src, tgt, budget, cap, fields[0].spec.mean() / 2, lim)

    interior = np.zeros(shape, dtype=bool)  # off the face; every settled vertex is in the box
    interior[(slice(2, -2),) * d] = True
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
        boundary_hit = not interior.flat[order].all()
        maps.append(PassageTimeMap(source=source, box=box, flat=order, settled_times=times,
                                   window=window, horizon=horizon, boundary_hit=boundary_hit))
    return maps


def _trial_bytes(box: LatticeBox, pruned: bool = False) -> int:
    """Bytes one trial of _solve_batch holds on this box, at most: per padded
    vertex, 8d of weights, 13 of the loop's time, slot and target flag (8
    more of limit when pruned), 16 of settled indices and times, and 6d + 4
    of a bucket's temporaries; and 16 KiB of small objects.  Hashing, the
    grouping by trial and the flags fit in the loop's freed bytes."""
    return math.prod(box.padded_shape()) * (14 * box.dimension + 33 + 8 * pruned) + (16 << 10)


def _checked_bytes(box: LatticeBox) -> int:
    """_trial_bytes(box); ValueError if they pass MEMORY_BUDGET."""
    need = _trial_bytes(box)
    if need > MEMORY_BUDGET:
        raise ValueError(f"an FPP box in dimension {box.dimension} needs {need} bytes a "
                         f"trial, more than {MEMORY_BUDGET}")
    return need


def _grown_solve(fields, radius: int, cap: int, **stops) -> list:
    """The maps of _solve_batch from the origin on radius r, 2r, 4r, ... up to cap.

    Each box re-solves only the trials whose last map has a face vertex
    settled, in batches of _batch_trials(_trial_bytes(box)), so every map
    is exact or is the cap box's and keeps its flag.  A box whose trial
    bytes pass MEMORY_BUDGET raises ValueError.
    """
    d = fields[0].dimension
    maps = [None] * len(fields)
    todo = list(range(len(fields)))
    while todo:
        box = LatticeBox(d, min(radius, cap))
        per = _batch_trials(_checked_bytes(box))
        for i in todo:  # a trial's map on the last box goes before it grows
            maps[i] = None
        for a in range(0, len(todo), per):
            part = todo[a:a + per]
            for i, pmap in zip(part, _solve_batch([fields[i] for i in part], (0,) * d, box,
                                                  **stops)):
                maps[i] = pmap
        todo = [i for i in todo if maps[i].boundary_hit and box.radius < cap]
        radius *= 2
    return maps


# a point solve's box doubles its radius on a face hit at most this many
# times, as do the estimators' shape boxes and LPP tables
_BOX_RETRIES = 2
# the relative margin omega loses in a pruned solve; _point_solve shows it
# covers the rounding on every box a point solve admits
_GOAL_MARGIN = 2.0 ** -20


def _first_radius(target) -> int:
    """The first box radius of a point solve to target; a retry doubles it."""
    return int(math.ceil(1.3 * sum(abs(c) for c in target))) + 10


def _least_monotone_time(fields, target) -> np.ndarray:
    """Per field, the least left-fold sum of edge weights over the monotone paths
    from the origin to target, each step moving one coordinate toward it.

    One min-plus sweep over the rectangle between them, a hyperplane
    sum |v_i| = k at a time, with the fields on a trailing axis.  Each value
    is fl(t_u + w) for some neighbour u on the hyperplane before, so it is
    the left-fold sum along a real path.
    """
    d, b = len(target), len(fields)
    ext = tuple(abs(c) + 1 for c in target)
    w = np.empty((d, b, *ext))
    for i, f in enumerate(fields):
        f.edge_window(tuple(min(0, c) for c in target), ext, w[:, i])
    # each negative axis flipped, local q runs from the origin (0) to the target
    # (ext - 1), and w[j] at q weighs the edge from q's vertex along +e_j
    w = w[(slice(None), slice(None), *(slice(None, None, -1 if c < 0 else 1) for c in target))]
    # on the grid padded by one layer below, steps[j] at q + 1 weighs the step
    # into q along axis j: the edge at q - e_j on a positive axis, at q on a flipped one
    pad = tuple(e + 1 for e in ext)
    steps = np.full((d, *pad, b), math.inf)
    for j, c in enumerate(target):
        into, edge = [slice(1, None)] * d, [slice(None)] * d
        if c >= 0:
            into[j], edge[j] = slice(2, None), slice(None, -1)
        steps[(j, *into)] = np.moveaxis(w[(j, slice(None), *edge)], 0, -1)
    steps = steps.reshape(d, -1, b)
    strides = [math.prod(pad[j + 1:]) for j in range(d)]
    q = np.indices(ext).reshape(d, -1)
    level = q.sum(axis=0)
    flat = np.ravel_multi_index(tuple(q[:, np.argsort(level, kind="stable")] + 1), pad)
    ends = np.cumsum(np.bincount(level)).tolist()
    t = np.full((math.prod(pad), b), math.inf)
    t[flat[0]] = 0.0
    for a, e in zip(ends, ends[1:]):
        at = flat[a:e]
        best = t[at - strides[0]] + steps[0, at]
        for j in range(1, d):
            np.minimum(best, t[at - strides[j]] + steps[j, at], out=best)
        t[at] = best
    return t[flat[-1]].copy()  # a view would keep the whole table


def _goal_box(target, ceiling: float, omega: float, radius: int):
    """The box holding every v with omega (|v|_1 + |target - v|_1) <= ceiling,
    with one layer more; None if omega is 0 or (ceiling / omega - |target|_1)
    / 2 >= radius, where every side would pass the radius-box's.

    On axis i it spans [min(0, x_i) - r, max(0, x_i) + r], r = ceil((ceiling
    / omega - |target|_1) / 2) + 1, so every face vertex v has omega (|v|_1 +
    |target - v|_1) >= omega fl(ceiling / omega) + 2 omega.
    """
    half = (ceiling / omega - sum(map(abs, target))) / 2 if omega > 0 else math.inf
    if not half < radius:
        return None
    r = math.ceil(half) + 1
    return LatticeBox.spanning(tuple(min(0, c) - r for c in target),
                               tuple(max(0, c) + r for c in target))


def _pruned_box(target, ceiling: float, omega: float, first: LatticeBox):
    """The _goal_box a point solve at this ceiling is pruned on, or None: the
    box must hold, pruned, at most the _trial_bytes of the first box unpruned."""
    box = _goal_box(target, ceiling, omega, first.radius)
    return box if box and _trial_bytes(box, pruned=True) <= _trial_bytes(first) else None


def _point_task(target, spec) -> tuple:
    """(trials, bytes) of a task of point solves to target under spec: trials
    fill a batch on the _pruned_box at U = mean |target|_1, else on the first
    box, and the task may hold a batch of grown trials there."""
    first = LatticeBox(len(target), _first_radius(target))
    most = _trial_bytes(first)
    box = _pruned_box(target, spec.mean() * sum(map(abs, target)),
                      spec.support_min() * (1 - _GOAL_MARGIN), first)
    need = _trial_bytes(box, pruned=True) if box else most
    per = _batch_trials(need)
    return per, max(per * need, _batch_trials(most) * most)


def _point_solve(fields, target) -> list:
    """The fields' maps to target, as on Z^d whenever the flag is off.

    With omega = (1 - _GOAL_MARGIN) times the fields' least support_min() > 0,
    a trial with a _pruned_box at its ceiling, its _least_monotone_time, is
    solved pruned there, in batches in ceiling order.  The others, and all
    when omega is 0, take _grown_solve from the _first_radius, _BOX_RETRIES
    times at most.  A first box past MEMORY_BUDGET raises ValueError.

    The pruned solve is exact.  Let u = 2^-53, omega' = omega (1 - 2^-20), T
    Dijkstra's float times, x = target and U the ceiling; U >= T(x), as T(x)
    is the least left-fold sum over all paths and fl(a + w) is monotone in a.
    A relaxation to v is dropped when its time exceeds lim(v) = fl(U -
    fl(omega' |x - v|_1)), on the _goal_box of U.  Pruned, at over 16 bytes a
    vertex, it holds at most the first box's unpruned bytes, within
    MEMORY_BUDGET, so at most 2^24 vertices: a side has at most 2^24 and d <=
    15 (a side holds 3 or more), so |x - v|_1 and U / omega' (at most the sum
    of the sides) stay below 2^28; a time compared is at most M = 2^28 omega'.
    (a) A step t -> fl(t + w) ending at or below U adds at least w - 2uM >=
    omega - 2^-24 omega', more than omega' + 2^-21 omega.
    (b) Every vertex v on an optimal path to x (each step tight: T(next) ==
    fl(T(prev) + w)) passes with its time T(v), and is not on the face by
    (c): from v, at least k = |x - v|_1 steps reach T(x) <= U, so by (a) T(v)
    <= U - k omega' - k 2^-21 omega, while lim(v) >= U - k omega' - 2uM (two
    roundings), and lim(x) = U.  Such a path passes at every vertex, so the
    pruned times, which are at least T, equal T along it: T(x) is exact.
    (c) No face vertex settles: a face vertex v has omega' (|v|_1 + |x -
    v|_1) >= U (1 - u) + 2 omega' (_goal_box), while any time offered to it
    follows at least |v|_1 steps from 0, each by (a) over omega', and so
    exceeds lim(v).  The flag is off, with no retry.
    (d) The geodesic is the same: backtracking from a vertex v of (b) takes
    the least settled u with fl(t_u + w) == T(v).  A pruned t_u >= T(u) with
    fl(T(u) + w) >= T(v) gives fl(T(u) + w) == T(v), so u is on an optimal
    path, has t_u = T(u) < T(x) and settles before x in both solves; the
    converse holds by (b).  Both solves see the same candidates.
    _grown_solve also ends with its flag off here: with R the first radius,
    2 r <= 2 R (some side of the pruned box is at most the first box's) and
    |x|_1 < R, so a face at 4 R lies past |x|_1 + 2 r >= U / omega' and
    settles after x.
    """
    d = len(target)
    first = LatticeBox(d, _first_radius(target))
    _checked_bytes(first)
    omega = min(f.spec.support_min() for f in fields) * (1 - _GOAL_MARGIN)
    maps = [None] * len(fields)
    if omega > 0:
        ceilings = _least_monotone_time(fields, target)
        boxes = [_pruned_box(target, u, omega, first) for u in ceilings.tolist()]
        batches: list = []
        for i in sorted((i for i, box in enumerate(boxes) if box), key=ceilings.__getitem__):
            if batches and len(batches[-1]) < _batch_trials(_trial_bytes(boxes[i], pruned=True)):
                batches[-1].append(i)
            else:
                batches.append([i])
        for part in batches:
            for i, pmap in zip(part, _solve_batch([fields[i] for i in part], (0,) * d,
                                                  boxes[part[-1]], target=target,
                                                  goal=(omega, ceilings[part]))):
                assert not pmap.boundary_hit
                maps[i] = pmap
    rest = [i for i, pmap in enumerate(maps) if pmap is None]
    if rest:
        for i, pmap in zip(rest, _grown_solve([fields[i] for i in rest], first.radius,
                                              first.radius << _BOX_RETRIES, target=target)):
            maps[i] = pmap
    return maps


def _bucket_settle(weights, strides, src, tgt, budget, cap, delta, lim=None):
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

    lim, None or a limit per flat index of the batch, prunes: a relaxation
    to v is dropped when its time exceeds lim[v].  Every argument above
    holds for the pruned graph, whose times are the least over the paths
    that pass this test at each vertex (a prefix of such a path passes it).
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
    # the settled flat indices and their times, in settling order
    order = np.empty(trials * size, dtype=np.int64)
    times = np.empty(trials * size)
    done = 0

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
            if lim is not None:
                better &= nt <= lim[dest]
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
        order[done : done + bucket.size] = bucket
        times[done : done + bucket.size] = bt
        done += bucket.size
        if capped:
            settled += count

    # a map keeps copies, not views of the whole buffers; every trial's
    # vertices lie in settling order, so a stable sort by trial keeps each
    # trial's order; one copy at a time, after the loop's arrays go, bounds
    # what is held at once (_trial_bytes)
    del best, slot, is_tgt
    if trials == 1:
        return [(order[:done].copy(), times[:done].copy())]
    tri = (order[:done] // size).astype(np.min_scalar_type(trials))
    ends = np.cumsum(np.bincount(tri, minlength=trials)).tolist()
    by = np.argsort(tri, kind="stable")
    order = order[by]
    times = times[by]
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
    return set(map(tuple, pmap.box.coords(pmap.flat[pmap.settled_times <= t]).tolist()))


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
