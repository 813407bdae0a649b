"""Oriented last-passage times by dynamic programming, plus closed-form shapes.

The table entry at x is the maximal total vertex weight over oriented (all
coordinates nondecreasing) paths from the origin to x, with the initial
vertex excluded from every sum, so T(0, 0) = 0 and axis rows are plain
cumulative sums.  Every interior entry satisfies

    T[x] = w[x] + max over the d backward neighbors of T

exactly: each cell is computed by that literal recursion (one max over the
neighbors, one add; a max of non-NaN floats does not depend on their
order), so the floats are bit-identical to a scalar raster evaluation and
to the exclusion-process step times built from the same weight field.

One sweep (_sweep) serves every dimension.  The rectangle's longest axis is
the depth and the other (lead) axes index a layer: hyperplane k (coordinate
sum k) is t[k, i + 1] = T(i, k - sum(i)), padded with -inf before index 0
on every lead axis.  A cell's backward neighbors are the previous layer at
i - e_j and at i, so a step is one maximum per extra neighbor and one add
of the weights ws[k, i] = w(i, k - sum(i)), with no gather.  Step k covers
the box of lead coordinates that layer k has on the rectangle,
max(0, k - sum(c) + c_j) <= i_j <= min(c_j, k) on each lead axis j.  A
cell outside the box keeps its value of two layers back (or -inf), which
is -inf below depth 0; a cell on the rectangle reads only cells on it or
below depth 0, so any finite weight serves off the rectangle.  A trailing
trial axis lets a step advance B tables.

The sweep reads its weights a block of _BLOCK_LAYERS layers at a time from
one provider.  lpp_dp hands it slices of an as_strided skewed view of its
weight window.  The estimators' corner sweeps (_batch_corners) never build
a window: _SkewedWeights hashes the weights of all B trials straight into
the skewed block, over the union of its layers' step boxes, in chunks
small enough to stay in cache.  A weight is a pure function of
(seed, vertex), so the bits are the window's.  A batch is sized by the
bytes a trial holds (_sweep_bytes).

The skewed layout has three outputs, each bit for bit:
- lpp_dp keeps every layer and un-skews them into the full table;
- the estimators keep two layers and read T(0, corner) off the last one;
  for wandering the sweep also stores one decision byte per cell, the
  original axis of its step back, the first axis winning ties (in d = 2 one
  strict comparison), so walking the bytes back from the corner, all B
  paths in one numpy step a layer, gives lpp_geodesic's path;
- in d = 2, the same layout with min over edge weights gives first-passage
  times for two-point weights in {1, 2} (_min_plus_2d), in uint16 with the
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
from .weights import _VERTEX_TAG, WeightField, _fold, _hash_words, _salted

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
        v = _lattice_point_in(x, self.corner)
        if v is None:
            raise KeyError(f"{tuple(x)} is not a vertex of the computed rectangle {self.corner}")
        return float(self.table[v])

    def to_csv(self, path) -> None:
        d = len(self.corner)
        idx = np.indices(self.table.shape).reshape(d, -1)
        write_csv(path, [f"x{i + 1}" for i in range(d)] + ["T"], [*idx, self.table.ravel()])


def _lattice_point_in(x, corner):
    """x as a tuple of ints if it is a lattice point of [0, corner], else None."""
    x = tuple(x)
    # the bounds come first, so NaN and infinities never reach int()
    ok = len(x) == len(corner) and all(0 <= a <= c and a == int(a) for a, c in zip(x, corner))
    return tuple(map(int, x)) if ok else None


# layers of weights hashed at once into the skewed layout
_BLOCK_LAYERS = 16
# hash words mixed per numpy call: 256 KB, so each pass stays in cache
_HASH_CHUNK = 1 << 15


def _sweep_bytes(corner, keep_all: bool = False, geodesics: bool = True) -> int:
    """Bytes one trial of a sweep on the rectangle [0, corner] holds, at most.

    A corner sweep (_batch_corners) holds two float layers and, per lead
    cell, the prefix hash and _BLOCK_LAYERS layers of weights, hash words and
    three temporaries; with geodesics, also a decision byte per skewed cell
    and the path, a move byte and d coordinates a layer.  With keep_all,
    lpp_dp holds its window (and its copy in sweep order, unless that is the
    window), every skewed layer and the full table, and hashes a slab of up
    to 2^18 cells.  Either adds 8 a layer and 16 KiB of small objects.
    """
    lead = sorted(corner)[:-1]  # every axis but a longest one
    cells, layers = math.prod(c + 1 for c in lead), sum(corner) + 1
    small = 8 * layers + (16 << 10)
    if keep_all:
        copies = 2 if _sweep_axes(corner) == list(range(len(corner))) else 3
        total = cells * (max(corner) + 1)
        return small + 8 * (copies * total + layers * math.prod(c + 2 for c in lead)
                            + min(total, 1 << 18))
    path = layers * (cells + 1 + 8 * len(corner)) if geodesics else 0
    return small + path + (8 + 40 * _BLOCK_LAYERS) * cells + 16 * math.prod(c + 2 for c in lead)


def _min_plus_bytes(size: int, rounds: int = 0) -> int:
    """Bytes of one _min_plus_2d trial on a size x size window: its int8 weights,
    uint16 times and padded weights, and each round's sums and minima of a diagonal."""
    return (2 * size * size + 2 * (2 * size + 1) * (size + 2) + 8 * size * (size + 1)
            + 10 * (rounds + 1) * size)


def _sweep_axes(shape) -> list:
    """The sweep's axis order: the other axes, then the last of the longest (the depth)."""
    p = max(range(len(shape)), key=lambda a: (shape[a], a))
    return [a for a in range(len(shape)) if a != p] + [p]


def _sweep(weights, shape, b: int, keep_all: bool, tie_order=None):
    """Skewed hyperplane sweep (module docstring) of b trials at once; returns (t, dec).

    shape is the rectangle's size in sweep order: lead axes, then the depth.
    weights(k0, k1) gives layers k0 to k1 - 1 of the skewed weights, an
    array [k - k0, i, trial] holding the weight at (i, k - sum(i)); only the
    step boxes are read, and any finite value serves off the rectangle.
    t[k % rows, i + 1] = T(i, k - sum(i)), with every layer kept when
    keep_all, else two.  tie_order, None or the sweep axis of each original
    axis in turn, fills dec[k, i] with the original axis of the cell's step
    back, the first axis winning ties.
    """
    *lead, _ = shape
    d, layers = len(shape), sum(shape) - len(shape) + 1
    rows = layers if keep_all else 2
    t = np.full((rows, *(n + 1 for n in lead), b), -math.inf)
    t[(0,) + (1,) * (d - 1)] = 0.0
    dec = None if tie_order is None else np.zeros((layers, *lead, b), dtype=np.uint8)
    # the first comparison writes its 0 or 1 into the bytes through a bool view, uncast
    flags = None if dec is None else dec.view(bool)
    # the previous layer at i - e_j for each lead axis j, then at i (the
    # depth), in the order they are compared
    inner = (slice(1, None),) * (d - 1)
    shifts = [inner[:a] + (slice(0, -1),) * (a < d - 1) + inner[a + 1 :]
              for a in (range(d) if tie_order is None else tie_order)]
    here, nbs = t[(slice(None), *inner)], [t[(slice(None), *sh)] for sh in shifts]
    for k0 in range(1, layers, _BLOCK_LAYERS):
        k1 = min(k0 + _BLOCK_LAYERS, layers)
        ws = weights(k0, k1)
        # step k's box: max(0, k - sum(c) + c_j) <= i_j <= min(c_j, k) on each lead axis
        boxes = list(zip(*([slice(max(0, k - layers + n), min(k + 1, n)) for k in range(k0, k1)]
                           for n in lead))) or [()] * (k1 - k0)
        for k, box in zip(range(k0, k1), boxes):
            back = ((k - 1) % rows, *box)
            cur, best = here[(k % rows, *box)], nbs[0][back]
            for r in range(1, d):
                x = nbs[r][back]
                if dec is not None and r == 1:
                    np.greater(x, best, out=flags[(k, *box)])
                elif dec is not None:
                    np.copyto(dec[(k, *box)], r, where=x > best)
                np.maximum(best, x, out=cur)
                best = cur
            np.add(best, ws[(k - k0, *box)], out=cur)
    return t, dec


def _tables(w: np.ndarray) -> np.ndarray:
    """Full tables of a weight grid with a trailing trial axis, in the shape of w."""
    perm = _sweep_axes(w.shape[:-1]) + [w.ndim - 1]
    w = np.ascontiguousarray(w.transpose(perm), dtype=np.float64)
    *shape, b = w.shape
    layers = sum(shape) - len(shape) + 1
    # ws[k, i] = w[i, k - sum(i)], or some other weight off the rectangle
    *s_lead, s, e = w.strides
    ws = as_strided(w, (layers, *shape[:-1], b), (s, *(sj - s for sj in s_lead), e),
                    writeable=False)
    t, _ = _sweep(lambda k0, k1: ws[k0:k1], shape, b, True)
    # un-skew: T(i, j) with depth index j lies at t[sum(i) + j, i + 1]
    r, *s_lead, e = t.strides
    u = as_strided(t[(0,) + (1,) * (len(shape) - 1)], w.shape, (*(r + sj for sj in s_lead), r, e))
    return np.ascontiguousarray(u.transpose(np.argsort(perm)))


class _SkewedWeights:
    """Vertex weights of B fields of one law in the skewed layout, a block of layers at once.

    block(k0, k1)[k - k0, i, trial] is the weight of the vertex with lead
    coordinates i and depth k - sum(i), as _sweep reads it.  Weights are pure
    functions of (seed, vertex), so the bits are vertex_window's.  The words
    fold in the original axis order: the seeds (a trial axis), the tag and
    the lead words before the depth are hashed once per batch on the whole
    layer, and each block mixes the depth word and any lead word after it.
    A block hashes the union of its layers' step boxes, the only cells the
    sweep reads.
    """

    def __init__(self, fields, perm, shape):
        *lead, _ = shape
        d, b, p = len(shape), len(fields), perm[-1]
        self.draw = fields[0]._draw
        self.reach = [sum(shape) - d + 1 - n for n in lead]  # sum(c) - c_j
        # lead word j on its own axis, trailing axis for the trials
        words = [np.arange(n, dtype=np.int64).reshape((1,) * j + (n,) + (1,) * (d - 1 - j))
                 for j, n in enumerate(lead)]
        self.prefix = np.broadcast_to(
            _hash_words([f.seed for f in fields], [_VERTEX_TAG, *words[:p]]), (*lead, b))
        self.after = [np.broadcast_to(_salted(w), (*lead, 1)) for w in words[p:]]
        # the depth word is k - sum(i), folded as (gold - sum(i)) + k mod 2^64
        self.neg_sum = _salted(np.negative(sum(words, np.zeros((1,) * d, np.int64))))
        self.blocks = np.empty((_BLOCK_LAYERS, *lead, b))
        layer = math.prod(lead) * b
        self.h = np.empty(min(_BLOCK_LAYERS * layer, max(_HASH_CHUNK, layer)), np.uint64)

    def block(self, k0: int, k1: int) -> np.ndarray:
        # the union of the steps' boxes, [k - (sum(c) - c_j), k] on lead axis j, clipped
        box = tuple(slice(max(0, k0 - r), min(n, k1)) for r, n in
                    zip(self.reach, self.blocks.shape[1:-1]))
        out = self.blocks[: k1 - k0]
        prefix, neg_sum = self.prefix[box], self.neg_sum[box]
        step = max(1, _HASH_CHUNK // prefix.size)
        for lo in range(k0, k1, step):
            hi = min(lo + step, k1)
            ks = np.arange(lo, hi, dtype=np.uint64).reshape((-1,) + (1,) * prefix.ndim)
            shape = (hi - lo, *prefix.shape)
            h = self.h[: math.prod(shape)].reshape(shape)
            _fold(prefix, ks + neg_sum, out=h)
            for w in self.after:
                _fold(h, w[box], out=h)
            self.draw(h, out[(slice(lo - k0, hi - k0), *box)])
        return out


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


def _batch_corners(fields, corner, geodesics: bool):
    """T(0, corner) of several vertex fields, shape (B,), and optionally their geodesics.

    The weights are hashed straight into the skewed layout (_SkewedWeights),
    and the paths walk back through the decision bytes together, one numpy
    step a layer.  Each geodesic is lpp_geodesic's, as a (sum(corner) + 1, d)
    float array, origin first.
    """
    d, b = len(corner), len(fields)
    perm = _sweep_axes(corner)
    shape = tuple(corner[a] + 1 for a in perm)
    t, dec = _sweep(_SkewedWeights(fields, perm, shape).block, shape, b, False,
                    [perm.index(a) for a in range(d)] if geodesics else None)
    layers = sum(corner) + 1
    # a copy: a view would keep the whole two-layer table alive with the times
    times = t[((layers - 1) % 2,) + (-1,) * (d - 1)].copy()
    if not geodesics:
        return times, None
    # a step back along original axis a moves a path's byte in dec back a
    # layer (size * b bytes), and along a lead axis back by b times its stride
    lead, size = shape[:-1], math.prod(shape[:-1])
    back = np.full(d, size * b, dtype=np.int64)
    for j, a in enumerate(perm[:-1]):
        back[a] += b * math.prod(lead[j + 1 :])
    dec = dec.reshape(-1)
    moves = np.full((b, layers), d, dtype=np.uint8)  # each path's axis into layer k
    i = dec.size - b + np.arange(b)  # each path's byte, from the corner
    for k in range(layers - 1, 0, -1):
        i -= back[dec.take(i, out=moves[:, k])]
    # a path's coordinate a at layer k counts its steps along a up to k
    pts = np.empty((b, layers, d))
    for a in range(d):
        np.equal(moves, a, out=pts[..., a])
        np.add.accumulate(pts[..., a], axis=1, out=pts[..., a])
    return times, list(pts)


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

    w = field.vertex_window(origin, tuple(c + 1 for c in corner))
    table = _tables(w[..., None])[..., 0]
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


def lpp_geodesic(lmap: LppTimeMap, target) -> OrientedPath:
    """Argmax backtracking through the table; ties prefer the first-axis predecessor."""
    cur = _lattice_point_in(target, lmap.corner)
    if cur is None:
        raise ValueError(f"target {tuple(target)} is not a vertex of rectangle {lmap.corner}")
    target = cur
    d = len(lmap.corner)
    t = lmap.table
    path = []
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
