"""Oriented last-passage times by dynamic programming, plus closed-form shapes.

The table entry at x is the maximal total vertex weight over oriented (all
coordinates nondecreasing) paths from the origin to x, with the initial
vertex excluded from every sum, so T(0, 0) = 0 and axis rows are plain
cumulative sums.  Every interior entry satisfies

    T[x] = w[x] + max over the d backward neighbors of T

exactly: each cell is computed by that literal recursion (one max over the
neighbors in axis order, one add), so the floats are bit-identical to a
scalar raster evaluation.  That makes the table directly comparable, bit for
bit, against the exclusion-process step times built from the same weight
field.

Both sweeps advance a whole hyperplane (coordinate sum = k) per numpy step
and carry a trailing trial axis, so one step advances B independent tables
at once.  In d = 2 each anti-diagonal is stored as one contiguous row of a
skewed array, padded with -inf, and a step is two slice operations; in
other dimensions a step gathers the d backward neighbors through flat
indices.  A trial's table never depends on its batch-mates.  Batches are
sized by an element budget (_BATCH_CELLS values in the working array, at
least one trial), which bounds a batch's memory at any n.

The d = 2 sweep has three outputs, each bit for bit:
- lpp_dp keeps every anti-diagonal and un-skews them into the full table;
- the estimators keep two anti-diagonals and read T(0, corner) off the
  last one, and for wandering the sweep also stores one decision byte per
  cell, T(i-1, j) >= T(i, j-1): lpp_geodesic's rule that a tie steps back
  along the first axis.  A tall rectangle is swept transposed, with the
  first axis as its columns, so there the byte is the strict comparison.
  Walking the bytes back from the corner gives lpp_geodesic's path;
- the same layout with min over edge weights gives first-passage times
  for two-point weights in {1, 2} (_min_plus_2d), in uint16 with the
  sentinel _SAT = 2^15 - 1 for unreached cells.  Min and add commute with
  saturation at _SAT, so every cell holds min(_SAT, T) exactly.  Layer 0
  is the up-right sweep; it gives the oriented time U from (0, 0) to
  (n, n), an upper bound on the lattice time T.  Layer j relaxes every
  cell by one down or left step from layer j - 1 and sweeps forward again,
  so it holds the least time over paths with at most j backward steps; all
  layers advance together, one diagonal each per numpy step.  A path of
  time <= U has 2n + 2j steps of weight >= 1, so j <= K = floor((U - 2n)/2):
  K layers on the window with margin K + 1 around [0, n]^2 give T, the
  flat-edge solve (estimators._twopoint_diag_time), exact while 4n < _SAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._output import write_csv
from .weights import WeightField

__all__ = [
    "LppTimeMap",
    "OrientedPath",
    "ExactShape",
    "lpp_dp",
    "lpp_geodesic",
    "lpp_time_between",
    "exact_g",
    "martin_asymptote",
    "exact_shape_for",
]


@dataclass
class LppTimeMap:
    """Rectangle of last-passage times T(origin, origin + x) for 0 <= x <= corner."""

    corner: tuple
    table: np.ndarray
    field: WeightField
    origin: tuple

    def time_to(self, x) -> float:
        x = tuple(int(c) for c in x)
        if any(c < 0 for c in x) or any(a > b for a, b in zip(x, self.corner)):
            raise KeyError(f"{x} lies outside the computed rectangle {self.corner}")
        return float(self.table[x])

    def to_csv(self, path) -> None:
        d = len(self.corner)
        idx = np.indices(self.table.shape).reshape(d, -1)
        write_csv(path, [f"x{i + 1}" for i in range(d)] + ["T"], [*idx, self.table.ravel()])


# element budget of one batch: float64 values in its skewed (or padded) table,
# 8 MB, or 1 MB of decision bytes where a sweep keeps two anti-diagonals only;
# the batch's weights take about half the table's size
_BATCH_CELLS = 1 << 20


def _trials_per_batch(corner) -> int:
    """How many trials on one rectangle fit the element budget, at least one."""
    if len(corner) == 2:
        cells = (sum(corner) + 1) * (min(corner) + 2)  # skewed table
    else:
        cells = math.prod(c + 2 for c in corner)  # padded table
    return max(1, _BATCH_CELLS // cells)


def _min_plus_trials_per_batch(size: int) -> int:
    """How many trials of _min_plus_2d on a size x size grid fit the budget, at least one.

    The budget is counted in bytes (8 per value): per trial the sweep holds
    a uint16 time and two uint16 weights per cell.  The flat-edge probe
    sizes its batches on [0, n]^2, so a window solve's batch is larger by
    the margin: 2m more on a side (1.2 times the bytes at n = 300,
    p = 0.55, and at most 9 times when U = 4n).
    """
    per_trial = 2 * (2 * size + 1) * (size + 2) + 4 * 2 * size * (size + 1)
    return max(1, 8 * _BATCH_CELLS // per_trial)


def _skew(w: np.ndarray) -> np.ndarray:
    """Read-only view ws[k, i] = w[i, k - i] of a C-contiguous (m+1, n+1, B) grid, m <= n.

    ws[k, i] lies (k + i n) B values into w, never past its end; where
    k - i falls outside [0, n] it reads another cell, which the sweeps'
    slices never touch.
    """
    m, n, b = w.shape[0] - 1, w.shape[1] - 1, w.shape[2]
    e = w.itemsize
    return as_strided(w, (m + n + 1, m + 1, b), (b * e, n * b * e, e), writeable=False)


def _sweep_2d(w: np.ndarray, rows: int, first_axis=None):
    """Skewed anti-diagonal sweep of the corner-growth recursion, m <= n.

    w is a C-contiguous float64 (m+1, n+1, B) grid.  Anti-diagonal k is
    one contiguous row of t, t[k % rows, i+1] = T(i, k-i), padded with
    -inf, so each step is two slice operations over every trial at once.
    rows = m + n + 1 keeps every anti-diagonal; rows = 2 keeps the last
    two, and needs no reset: a step reads row k-1 at columns 0 and k+1
    only while those were never written, and its written span only moves
    right.  first_axis, a comparison ufunc or None, fills dec[k, i] =
    first_axis(T(i-1, j), T(i, j-1)), the backtrack's step down the row
    axis, one bool per cell.  Returns (t, dec or None).
    """
    m, n, b = w.shape[0] - 1, w.shape[1] - 1, w.shape[2]
    ws = _skew(w)
    t = np.full((rows, m + 2, b), -math.inf)
    t[0, 1] = 0.0
    dec = None if first_axis is None else np.empty((m + n + 1, m + 1, b), dtype=bool)
    for k in range(1, m + n + 1):
        lo, hi = max(0, k - n), min(m, k)
        prev, cur = t[(k - 1) % rows], t[k % rows, lo + 1 : hi + 2]
        up, left = prev[lo : hi + 1], prev[lo + 1 : hi + 2]
        if dec is not None:
            first_axis(up, left, out=dec[k, lo : hi + 1])
        # T(i, j) = w + max(T(i-1, j), T(i, j-1)): one max, one add per cell
        np.maximum(up, left, out=cur)
        cur += ws[k, lo : hi + 1]
    return t, dec


def _dp_2d(w: np.ndarray) -> np.ndarray:
    """Full tables of an (m+1, n+1) weight grid, optionally with a trailing trial axis.

    The tables come back in the shape of w.  The sweep's row axis is the
    shorter side of the rectangle; its table holds about _BATCH_CELLS
    values when B comes from _trials_per_batch.
    """
    if w.ndim == 2:
        return _dp_2d(w[..., None])[..., 0]
    m, n, b = w.shape[0] - 1, w.shape[1] - 1, w.shape[2]
    if m > n:
        # max is symmetric on tables (no NaN, no -0.0), so transposing is bit-exact
        return np.ascontiguousarray(_dp_2d(w.swapaxes(0, 1)).swapaxes(0, 1))
    t, _ = _sweep_2d(np.ascontiguousarray(w, dtype=np.float64), m + n + 1)
    # un-skew: T(i, j) = t[i + j, i + 1] lies (i (m+3) + j (m+2)) b values past
    # t[0, 1]; T(m, n) is the last value of t
    e = t.itemsize
    r = (m + 2) * b * e
    return as_strided(t[0, 1:], (m + 1, n + 1, b), (r + b * e, r, e)).copy()


# the min-plus sweep's uint16 sentinel for "not reached", and the weight of
# an edge from outside the grid: a time plus _OUT is never below _SAT, and
# _SAT + _OUT still fits in uint16
_SAT = (1 << 15) - 1
_OUT = 1 << 15


def _min_plus_2d(w: np.ndarray, source: int = 0, rounds: int = 0) -> np.ndarray:
    """First-passage times from (source, source) on an L x L grid, saturated at _SAT.

    w is an integer (2, L, L, B) edge window with weights 0 to 2:
    w[a, i, j, b] weights trial b's edge from (i, j) to (i, j) + e_a; edges
    leaving the grid are ignored.  Returns the uint16 skewed table t with
    t[i + j + 1, i + 1] = min(_SAT, T_r(i, j)) per trial, r = rounds, where
    T_r is the least time over grid paths with at most r backward (down or
    left) steps; every other cell of t holds _SAT.

    Layer 0 is the up-right sweep.  Layer r relaxes each cell by one step
    back from layer r - 1 and one step forward from layer r, in one pass
    over the anti-diagonals: diagonal k of layer r needs diagonal k + 1 of
    layer r - 1 and diagonal k - 1 of layer r.  So layer r can relax
    diagonal k while layer r + 1 relaxes k - 2, and each step of the loop
    relaxes one diagonal of every layer at once, the diagonals two apart:
    one add of the four neighbours' times to the four edge weights, one
    min over the four, and one min into the diagonals.  A step covers the
    union of its diagonals' cells; off the grid the edges weigh _OUT, so
    those cells stay at _SAT.
    """
    size, b = w.shape[1], w.shape[3]
    t = np.full((2 * size + 1, size + 2, b), _SAT, dtype=np.uint16)
    t[2 * source + 1, source + 1] = 0
    # f[k, 0, i] and f[k, 1, i] weight the edges into cell (i, k - i) from
    # (i - 1, j) and from (i, j - 1); f[i + j + 1, a, i + 1 - a] is the
    # edge from (i, j) along e_a, and an edge with an end off the grid
    # weighs _OUT
    f = np.full((2 * size, 2, size + 1, b), _OUT, dtype=np.uint16)
    fr, fa, fc, e = f.strides
    for a in (0, 1):
        into = as_strided(f[1:, a, 1 - a :], (size, size, b), (fr + fc, fr, e))
        into[: size - 1 + a, : size - a] = w[a, : size - 1 + a, : size - a]
    # the neighbours of cell (i, k - i): fwd[k, c, i] = t[k, i + c] holds
    # (i - 1, j) and (i, j - 1), weighted by f[k]; back[k, c, i] =
    # t[k + 2, i + 1 + c] holds (i, j + 1) and (i + 1, j), weighted by
    # fb[k, c, i] = f[k + 1, 1 - c, i + c]
    rs, cs, _ = t.strides
    fwd = as_strided(t, (2 * size - 1, 2, size, b), (rs, cs, cs, e), writeable=False)
    back = as_strided(t[2:, 1:], (2 * size - 1, 2, size, b), (rs, cs, cs, e), writeable=False)
    fb = as_strided(f[1:, 1], (2 * size - 1, 2, size, b), (fr, fc - fa, fc, e), writeable=False)
    via = np.empty((rounds + 1, 2, 2, size, b), dtype=np.uint16)
    best = np.empty((rounds + 1, size, b), dtype=np.uint16)
    # layer r relaxes diagonal k = step - 2r; below 2 source - r a diagonal
    # takes more than r steps back to reach, so it stays at _SAT
    for step in range(2 * source, 2 * size - 1 + 2 * rounds):
        r_lo, r_hi = max(0, (step - 2 * size + 3) // 2), min(rounds, step // 2, step - 2 * source)
        k_lo, k_hi = step - 2 * r_hi, step - 2 * r_lo
        lo, hi = max(0, k_lo - size + 1), min(size - 1, k_hi) + 1
        ks, s = slice(k_lo, k_hi + 1, 2), via[: r_hi - r_lo + 1, :, :, : hi - lo]
        np.add(fwd[ks, :, lo:hi], f[ks, :, lo:hi], out=s[:, 0])
        np.add(back[ks, :, lo:hi], fb[ks, :, lo:hi], out=s[:, 1])
        m = np.minimum.reduce(s, axis=(1, 2), out=best[: r_hi - r_lo + 1, : hi - lo])
        cur = t[k_lo + 1 : k_hi + 2 : 2, lo + 1 : hi + 1]
        np.minimum(cur, m, out=cur)
    return t


def _dp_general(w: np.ndarray) -> np.ndarray:
    """Hyperplane sweep (coordinate sum = k) for any d; w has a trailing trial axis.

    The table carries a leading -inf layer on every axis, so each of the d
    backward neighbors is one flat-index gather, taken in axis order like
    the scalar recursion.
    """
    shape, b = w.shape[:-1], w.shape[-1]
    pshape = tuple(s + 1 for s in shape)
    idx = np.indices(shape).reshape(len(shape), -1)
    flat = np.ravel_multi_index(tuple(idx + 1), pshape)
    strides = [math.prod(pshape[j + 1 :]) for j in range(len(shape))]
    level = idx.sum(axis=0)
    order = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level))
    wf = w.reshape(-1, b)
    t = np.full((math.prod(pshape), b), -math.inf)
    t[flat[0]] = 0.0
    for k in range(1, len(ends)):
        cells = order[ends[k - 1] : ends[k]]
        dst = flat[cells]
        best = t[dst - strides[0]]
        for s in strides[1:]:
            # maximum keeps its first argument on ties, like a strict > scan
            np.maximum(best, t[dst - s], out=best)
        best += wf[cells]
        t[dst] = best
    return np.ascontiguousarray(t.reshape(pshape + (b,))[(slice(1, None),) * len(shape)])


def _batch_tables(fields, corner, origin) -> np.ndarray:
    """Tables of several vertex fields on [origin, origin + corner], stacked on a last axis."""
    shape = tuple(c + 1 for c in corner)
    w = np.stack([f.vertex_window(origin, shape) for f in fields], axis=-1)
    return _dp_2d(w) if len(corner) == 2 else _dp_general(w)


def _batch_corners(fields, corner, geodesics: bool):
    """T(0, corner) of several vertex fields, shape (B,), and optionally their geodesics.

    Each geodesic is lpp_geodesic's, as the (sum(corner) + 1, d) float array
    of its vertices, origin first.  In d = 2 the sweep keeps two
    anti-diagonals and, for geodesics, the decision bytes (module docstring).
    """
    d = len(corner)
    if d != 2:
        tables = _batch_tables(fields, corner, (0,) * d)
        paths = None
        if geodesics:
            geos = [lpp_geodesic(LppTimeMap(corner, tables[..., b], f, (0,) * d), f, corner)
                    for b, f in enumerate(fields)]
            paths = [np.asarray((g.start,) + g.vertices, dtype=np.float64) for g in geos]
        return tables[corner], paths
    flip = corner[0] > corner[1]
    m, n = sorted(corner)
    w = np.empty((m + 1, n + 1, len(fields)))
    for b, f in enumerate(fields):
        x = f.vertex_window((0, 0), (corner[0] + 1, corner[1] + 1))
        w[..., b] = x.T if flip else x
    rule = (np.greater if flip else np.greater_equal) if geodesics else None
    t, dec = _sweep_2d(w, 2, rule)
    times = t[(m + n) % 2, m + 1]
    if not geodesics:
        return times, None
    paths = []
    diag = np.arange(m + n + 1, dtype=np.float64)
    for b in range(len(fields)):
        buf = dec[..., b].tobytes()
        rows = [0] * (m + n + 1)  # the path's row on each anti-diagonal
        i = m
        for k in range(m + n, 0, -1):
            rows[k] = i
            i -= buf[k * (m + 1) + i]
        r = np.array(rows, dtype=np.float64)
        paths.append(np.stack((diag - r, r) if flip else (r, diag - r), axis=1))
    return times, paths


def lpp_dp(field: WeightField, corner, origin=None) -> LppTimeMap:
    """Exact oriented last-passage table over the rectangle [0, corner].

    origin translates the whole rectangle, which computes T(origin, origin+x)
    on the same environment; this is how superadditivity T(0,z) >= T(0,y) +
    T(y,z) is checked against recomputed shifted tables.
    """
    if field.attachment != "vertex":
        raise ValueError("LPP needs a vertex weight field")
    corner = tuple(int(c) for c in corner)
    if len(corner) != field.dimension:
        raise ValueError("corner does not match field dimension")
    if any(c < 0 for c in corner):
        raise ValueError(f"corner must be componentwise nonnegative, got {corner}")
    if origin is None:
        origin = (0,) * field.dimension
    origin = tuple(int(c) for c in origin)

    table = _batch_tables([field], corner, origin)[..., 0]
    return LppTimeMap(corner=corner, table=table, field=field, origin=origin)


def lpp_time_between(field: WeightField, y, z) -> float:
    """T(y, z) recomputed from scratch on the shifted rectangle."""
    y = tuple(int(c) for c in y)
    z = tuple(int(c) for c in z)
    if any(b < a for a, b in zip(y, z)):
        raise ValueError(f"need y <= z componentwise, got {y}, {z}")
    corner = tuple(b - a for a, b in zip(y, z))
    return lpp_dp(field, corner, origin=y).time_to(corner)


@dataclass(frozen=True)
class OrientedPath:
    """Coordinatewise nondecreasing path; vertices exclude the initial point."""

    start: tuple
    vertices: tuple
    total_time: float


def lpp_geodesic(lmap: LppTimeMap, field: WeightField, target) -> OrientedPath:
    """Argmax backtracking through the table; ties prefer the first-axis predecessor."""
    if field is not lmap.field and field != lmap.field:
        raise ValueError("geodesic field does not match the map's field")
    target = tuple(int(c) for c in target)
    if any(c < 0 for c in target) or any(a > b for a, b in zip(target, lmap.corner)):
        raise ValueError(f"target {target} outside rectangle {lmap.corner}")
    d = len(lmap.corner)
    t = lmap.table
    path = []
    cur = target
    while any(c != 0 for c in cur):
        path.append(cur)
        best_axis = None
        best_val = -math.inf
        for j in range(d):
            if cur[j] > 0:
                prev = cur[:j] + (cur[j] - 1,) + cur[j + 1 :]
                val = t[prev]
                # strict > means exact ties keep the smallest axis
                if best_axis is None or val > best_val:
                    best_axis = j
                    best_val = val
        cur = cur[: best_axis] + (cur[best_axis] - 1,) + cur[best_axis + 1 :]
    path.reverse()
    return OrientedPath(
        start=(0,) * d,
        vertices=tuple(path),
        total_time=float(t[target]),
    )


@dataclass(frozen=True)
class ExactShape:
    """Closed-form limit shape function for the two exactly solvable models.

    model 'exponential' is the rate-1 exponential case with
    g(x1, x2) = (sqrt(x1) + sqrt(x2))^2; model 'geometric' with success
    probability p has g(x1, x2) = (x1 + x2 + 2 sqrt(x1 x2 (1-p))) / p.
    Both are homogeneous of degree 1 and symmetric in the coordinates.
    """

    model: str
    p: float | None = None

    def __post_init__(self):
        if self.model not in ("exponential", "geometric"):
            raise ValueError(f"unknown exact shape model {self.model!r}")
        if self.model == "geometric":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError("geometric shape needs p in (0, 1)")


def exact_shape_for(spec) -> ExactShape:
    """The exact shape matching a weight distribution, if one exists."""
    if spec.kind == "exponential" and spec.params[0] == 1.0:
        return ExactShape("exponential")
    if spec.kind == "geometric":
        return ExactShape("geometric", p=spec.params[0])
    raise ValueError(f"no closed-form shape for distribution {spec.token()}")


def exact_g(shape: ExactShape, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2:
        raise ValueError("exact shapes are two-dimensional")
    if np.any(x < 0):
        raise ValueError("exact shapes are defined on the nonnegative quadrant")
    x1, x2 = x[..., 0], x[..., 1]
    if shape.model == "exponential":
        out = (np.sqrt(x1) + np.sqrt(x2)) ** 2
    else:
        out = (x1 + x2 + 2.0 * np.sqrt(x1 * x2 * (1.0 - shape.p))) / shape.p
    return float(out) if out.ndim == 0 else out


def martin_asymptote(mu: float, sigma: float, a: float) -> float:
    """Leading-order boundary behavior mu + 2 sigma sqrt(a) of g(1, a) as a -> 0."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return mu + 2.0 * sigma * math.sqrt(a)
