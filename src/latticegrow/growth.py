"""Eden and internal-DLA cluster growth, and the exponential-FPP coupling.

All three dynamics grow a connected cluster from the origin one vertex per
step.  Eden adds the outer endpoint of a uniformly chosen boundary edge (a
vertex adjacent through k edges is picked with probability proportional to
k, since edges are sampled, not vertices).  Internal DLA releases a simple
symmetric random walk from the origin and adds the first vertex of the walk
sequence that is not yet in the cluster.  The infection order of FPP with
exponential edge weights reproduces the Eden law exactly, by memorylessness;
it is obtained here by recording the settling order of the shortest-path
solve rather than simulating clocks.

Eden and IDLA keep the cluster in a dense grid of one byte per site of the
box [-radius, radius]^d, addressed by flat index, and a rim byte per site
marking its outer layer.  The grid grows by half its radius when a site
lands on the rim, so every neighbour of a site lies inside it.  Sites stay
flat indices, moved to each grown grid, and are decoded once at the end.

Random draws come in blocks of 64, 128, ... up to 2^16.  For 2 <= n < 2^32
numpy's rng.integers(n) reads 32-bit words w of the generator in order until
(w n) mod 2^32 >= (2^32 - n) mod n, and returns (w n) >> 32 (Lemire's
multiply-shift, ACM TOMACS 2019), so how a stream is cut into blocks does
not change the draws.  Eden applies that rule to blocks of raw words,
rng.integers(0, 2^32, size=m, dtype=uint32): the same draws, no numpy call.

The IDLA walks read one stream of directions, rng.integers(0, 2d) indexing
unit_steps(d).  Each walk starts on the draw right after the previous
walk's last move, so successive walks read disjoint, consecutive stretches
of one i.i.d. stream, each starting at a stopping time: by the strong
Markov property they are independent simple random walks, and the traces
have the IDLA law.  Outside d = 2 a walk is the cumulative sum of its
directions' flat-index offsets, checked a window at a time with one gather,
and the traces are those of a loop drawing one direction per move.

In d = 2 the walker jumps across occupied squares (Muller's walk on
spheres on the lattice, as in Friedrich and Levine, arXiv:1006.1003).  If
the square z + [-s, s]^2 around the walker's position z lies inside the
cluster, the walk adds no site before it first meets the square's
boundary, and where it meets it has the exit law of the square from its
centre: the discrete Poisson kernel, tabulated lazily for s = 2, 4, 8, ...
The walker moves there in one jump, drawn with a uniform from a second
generator spawned from the seed.  By the strong Markov property the jump
has the law of the moves it replaces, so the traces keep the IDLA law; they
are no longer those of the one-direction-per-move loop, except up to the
first jump.  s = 2^k comes from a level map, the largest k with that square
full, rebuilt every _LEVEL_REFRESH particles and after each grid growth.
Occupancy only grows, so a square full when the map was built stays full:
a stale map is a lower bound, and every jump stays inside the cluster.
Where the level is 0 the walker takes the next direction of the stream.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._output import write_csv
from .experiments import MEMORY_BUDGET

if TYPE_CHECKING:  # an annotation only: eden and idla runs load no weights
    from .weights import WeightField

__all__ = [
    "ClusterTrace",
    "eden_grow",
    "fpp_infection_order",
    "idla_grow",
    "roundness",
]


@dataclass
class ClusterTrace:
    """Ordered vertex additions v_1, v_2, ...; S_n = {0} union first n of them."""

    model: str
    seed: int
    dimension: int
    vertices: list

    def cluster_at(self, n: int) -> set:
        _check_steps(self, n)
        s = {(0,) * self.dimension}
        s.update(self.vertices[:n])
        return s

    def to_csv(self, path) -> None:
        d = self.dimension
        coords = np.array(self.vertices, dtype=np.int64).reshape(-1, d)
        write_csv(path, ["step"] + [f"x{i + 1}" for i in range(d)],
                  [np.arange(1, len(coords) + 1), *coords.T])


def _check_steps(trace: ClusterTrace, n: int) -> None:
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if n > len(trace.vertices):
        raise ValueError(f"trace has only {len(trace.vertices)} steps, asked for {n}")


def eden_grow(seed: int, d: int, steps: int) -> ClusterTrace:
    """Grow an Eden cluster for the given number of steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    draw = _bounded_draws(np.random.default_rng(seed)).send
    draw(None)  # runs the generator to its first yield
    radius = _first_radius(d, steps)
    cells, rim = _grid(d, radius)
    origin = len(cells) // 2
    cells[origin] = 1
    offsets = _step_offsets(d, radius)
    # outer endpoints of the boundary edges, as flat indices; edges whose outer
    # endpoint got absorbed are removed lazily when drawn, which keeps the draw
    # uniform over the current boundary-edge multiset
    edges = [origin + m for m in offsets]
    added = []
    for _ in range(steps):
        while True:
            i = draw(len(edges))
            outer = edges[i]
            if not cells[outer]:
                break
            edges[i] = edges[-1]
            edges.pop()
        added.append(outer)
        # an edge's outer end neighbours a site; its neighbours lie inside if it is off the rim
        if rim[outer]:
            cells, rim, radius, edges, added = _grow_grid(cells, d, radius, edges, added)
            outer, offsets = added[-1], _step_offsets(d, radius)
        cells[outer] = 1
        for m in offsets:
            if not cells[outer + m]:
                edges.append(outer + m)
    return ClusterTrace(model="eden", seed=seed, dimension=d, vertices=_sites(added, d, radius))


def _bounded_draws(rng: np.random.Generator):
    """Generator: sent n, it yields int(rng.integers(n)), read from blocks of words."""
    block, n = 64, (yield)
    while True:
        for w in rng.integers(0, 1 << 32, size=block, dtype=np.uint32).tolist():
            if not 1 < n < 1 << 32:
                raise ValueError(f"word draws need 2 <= n < 2^32, got {n}")
            m = w * n
            if m & 0xFFFFFFFF >= ((1 << 32) - n) % n:
                n = yield m >> 32
        block = min(2 * block, _BLOCK_MAX)


def fpp_infection_order(field: WeightField, steps: int) -> ClusterTrace:
    """First vertices infected after the origin in exponential-weight FPP.

    The settling order of the shortest-path solve IS the infection order, so
    the trace has the same law as Eden growth.  Only exponential fields are
    accepted; the identification rests on memorylessness.
    """
    if field.spec.kind != "exponential":
        raise ValueError("infection-order coupling requires an exponential field")
    if field.attachment != "edge":
        raise ValueError("FPP infection order needs an edge field")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    from .fpp import _grown_solve

    # a solve that settles no face vertex runs exactly as on the radius
    # steps + 1 box, which the steps + 1 settled vertices cannot reach, so
    # grow a small box until its face stays unsettled
    (pmap,) = _grown_solve([field], math.ceil(steps ** (1 / field.dimension)) + 1, steps + 1,
                           max_settled=steps + 1)
    return ClusterTrace(
        model="fpp-order", seed=field.seed, dimension=field.dimension,
        vertices=list(pmap.order[1:]),
    )


_WALK_CAP_BASE = 100_000
# random draws come in blocks of 64, 128, ... up to this size: small first blocks
# keep one-step calls cheap, and the cap keeps a block's arrays near a megabyte
_BLOCK_MAX = 1 << 16
# the d = 2 walker rebuilds its level map after this many particles; at
# 20,000 sites that many add about half a layer to the cluster
_LEVEL_REFRESH = 256


def idla_grow(seed: int, d: int, particles: int) -> ClusterTrace:
    """Internal DLA: one random walk from the origin per particle.

    Each walk runs until its first position outside the current cluster;
    that position is added.  A generous per-particle step cap guards against
    implementation bugs (the exit time is finite almost surely) and raises
    if exceeded; in d = 2 a jump counts as one move.  In d = 1 the cap adds
    20 p^2 for particle p: a walk leaves the interval of p + 1 sites after at
    most (p + 2)^2 / 4 moves on average, so (Markov's inequality, 40 times)
    after more than 20 (p + 2)^2 with probability at most 2^-40 < 1e-12.
    The occupancy grid has (2 radius + 1)^d cells, radius at least 2; a grid
    whose _grid_bytes pass MEMORY_BUDGET raises ValueError, which bounds the
    dimension (11 for a cluster of sup-norm radius 1).
    """
    if particles < 1:
        raise ValueError("particles must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    added = _walk_squares(seed, particles) if d == 2 else _walk_blocks(seed, d, particles)
    return ClusterTrace(model="idla", seed=seed, dimension=d, vertices=added)


def _walk_blocks(seed: int, d: int, particles: int) -> list:
    """IDLA sites in any dimension, each walk a cumulative sum of a block of draws."""
    rng = np.random.default_rng(seed)
    radius = _first_radius(d, particles)
    cells, rim = _grid(d, radius)
    cells[len(cells) // 2] = 1
    flat = np.frombuffer(cells, dtype=np.uint8)
    offsets = np.array(_step_offsets(d, radius), dtype=np.int64)
    draws = np.empty(0, dtype=np.int64)
    cum = np.zeros(1, dtype=np.int64)  # cum[k] = flat offset after the block's first k moves
    start = 0  # the next walk's first move in the block
    block = 64
    added = []

    for p in range(particles):
        cap = _walk_cap(d, p)
        limit = max(cap, 0)
        base = len(cells) // 2 - int(cum[start])  # the origin is the centre cell
        taken = 0  # moves of this walk in earlier blocks
        lo = start
        window = 1024  # about a typical walk at a few thousand particles; doubles
        while True:
            if lo == len(draws):
                base += int(cum[lo])
                taken += lo - start
                draws = rng.integers(0, 2 * d, size=block)
                cum = np.zeros(block + 1, dtype=np.int64)
                np.cumsum(offsets[draws], out=cum[1:])
                block = min(2 * block, _BLOCK_MAX)
                start = lo = 0
            hi = min(lo + window, len(draws), start + limit - taken)
            if hi <= lo:
                raise _cap_exceeded(cap)
            # moves after the exit may leave the grid; clip keeps their reads in
            # bounds, and the exit itself neighbours the cluster, so it lies inside
            inside = flat.take(cum[lo + 1:hi + 1] + base, mode="clip")
            j = int(inside.argmin())
            if not inside[j]:
                break
            lo = hi
            window *= 2
        cell = base + int(cum[lo + j + 1])
        cells[cell] = 1
        start = lo + j + 1
        added.append(cell)
        # a walk's exit neighbours a site, so it lies inside while no site is on the rim
        if rim[cell]:
            cells, rim, radius, added = _grow_grid(cells, d, radius, added)
            flat = np.frombuffer(cells, dtype=np.uint8)
            offsets = np.array(_step_offsets(d, radius), dtype=np.int64)
            np.cumsum(offsets[draws], out=cum[1:])
    return _sites(added, d, radius)


def _walk_cap(d: int, p: int) -> int:
    """Most moves the walk of particle p may take; see idla_grow for d = 1."""
    return _WALK_CAP_BASE + 200 * (p + 26) + (20 * p * p if d == 1 else 0)


def _cap_exceeded(cap: int) -> RuntimeError:
    return RuntimeError(f"random walk exceeded the safety cap ({cap} steps); "
                        "this indicates a bug in the growth bookkeeping")


def _walk_squares(seed: int, particles: int) -> list:
    """IDLA sites in d = 2, jumping across fully occupied squares.

    A grid cell holds 0 if empty, else 1 + its level: the largest k with
    the square of radius 2^k around it inside the cluster, 0 if none.  On
    level 0 the walker takes the next direction; on level k it jumps to the
    boundary of that square, drawn from tables[1 + k] with a uniform from
    its own stream.
    """
    rng = np.random.default_rng(seed)
    jump_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    bisect_right = bisect.bisect_right
    radius = _first_radius(2, particles)
    cells, rim = _grid(2, radius)
    centre = len(cells) // 2
    cells[centre] = 1
    offsets = np.array(_step_offsets(2, radius), dtype=np.int64)
    tables = [None, None]  # entry 1 + k, a level-k cell's byte: its jumps and their cdf
    draws, steps, di, dn, block = np.empty(0, np.int64), [], 0, 0, 64  # steps: draws as offsets
    us, ui, un, ublock = [], 0, 0, 64
    added = []

    for p in range(particles):
        if p % _LEVEL_REFRESH == 0 and p:
            tables = [None, None, *_mark_levels(cells, radius)]
        cap = _walk_cap(2, p)
        pos = centre
        # a walk may take cap moves but not one more
        for _ in range(cap + 1):
            v = cells[pos]
            if v == 1:
                if di == dn:
                    draws = rng.integers(0, 4, size=block)
                    steps, di, dn = offsets[draws].tolist(), 0, block
                    block = min(2 * block, _BLOCK_MAX)
                pos += steps[di]
                di += 1
            elif v:
                if ui == un:
                    us, ui, un = jump_rng.random(ublock).tolist(), 0, ublock
                    ublock = min(2 * ublock, _BLOCK_MAX)
                jumps, cdf = tables[v]
                pos += jumps[bisect_right(cdf, us[ui])]
                ui += 1
            else:
                break
        else:
            raise _cap_exceeded(cap)
        cells[pos] = 1
        added.append(pos)
        if rim[pos]:
            cells, rim, radius, added = _grow_grid(cells, 2, radius, added)
            centre = len(cells) // 2
            offsets = np.array(_step_offsets(2, radius), dtype=np.int64)
            steps = offsets[draws].tolist()
            tables = [None, None, *_mark_levels(cells, radius)]
    return _sites(added, 2, radius)


def _mark_levels(cells: bytearray, radius: int) -> list:
    """Write 1 + level into each occupied cell of a d = 2 grid; return the jump tables.

    Entry k - 1 pairs the flat-index jumps from a level-k cell to the
    boundary of its radius-2^k square with their cumulative law.
    """
    grid = _shaped(cells, 2, radius)
    occ = grid != 0
    levels = _level_map(occ)
    grid[...] = occ + levels
    return [_square_jumps(k, 2 * radius + 1) for k in range(1, int(levels.max()) + 1)]


@functools.lru_cache(maxsize=32)  # a refresh reads one grid side, at most 12 levels
def _square_jumps(k: int, side: int):
    """Flat-index jumps from a level-k cell of a grid of this side to the boundary
    of its radius-2^k square, with their cumulative law."""
    rows, cols, cdf = _square_exit_law(1 << k)
    return tuple((rows * side + cols).tolist()), cdf


def _level_map(occ: np.ndarray) -> np.ndarray:
    """Largest k >= 1 with the square of radius 2^k around the cell all occupied, else 0.

    Doubling erosion: the square of radius 2h around c is the union of those
    of radius h around c + (+-h, +-h).  Cells off the grid count as empty.
    """
    levels = np.zeros(occ.shape, dtype=np.uint8)
    rows = occ[:-2] & occ[1:-1] & occ[2:]
    full = np.zeros_like(occ)  # the radius-h squares, h = 1 first
    full[1:-1, 1:-1] = rows[:, :-2] & rows[:, 1:-1] & rows[:, 2:]
    h = 1
    while full.any():
        wider = np.zeros_like(full)
        wider[h:-h, h:-h] = (full[:-2 * h, :-2 * h] & full[2 * h:, :-2 * h]
                             & full[:-2 * h, 2 * h:] & full[2 * h:, 2 * h:])
        levels += wider
        full = wider
        h *= 2
    return levels


@functools.cache
def _square_exit_law(s: int):
    """Where a walk from the centre of z + [-s, s]^2 first meets the square's boundary.

    Returns rows, cols and cdf: the 4 (2s - 1) boundary points off the
    corners, relative to z (sides x = s, x = -s, y = s, y = -s, each from
    height 1 - s up), and the cumulative law of the hitting point over them,
    its last entry exactly 1.  On a side the mass at height j is the
    discrete Poisson kernel of a square of side n = 2s (Lawler and Limic,
    Random Walk: A Modern Introduction, 2010, ch. 8):
    (2/n) sum over odd m of sin(m pi/2) sin(m pi (j + s)/n) / (2 cosh(a_m s)),
    with cosh a_m = 2 - cos(m pi / n).
    """
    n = 2 * s
    m = np.arange(1, n, 2)
    a = np.arccosh(2.0 - np.cos(m * np.pi / n))
    e = np.exp(-a * s)  # 1 / (2 cosh(a s)) = e / (1 + e^2), which cannot overflow
    # e falls with m; modes below 1e-17 of the first move the law by less than
    # a uniform resolves, and dropping them keeps the sums O(s) in memory
    keep = e >= 1e-17 * e[0]
    m, e = m[keep], e[keep]
    weight = (2.0 / n) * np.where(m % 4 == 1, 1.0, -1.0) * e / (1.0 + e * e)
    shifted = np.arange(1, n)  # j + s for the heights j = 1 - s, ..., s - 1
    # m (j + s) is reduced mod 2n first, so the sine's argument stays below 2 pi
    side = (np.sin(np.pi * (np.outer(shifted, m) % (2 * n)) / n) * weight).sum(axis=1)
    height = shifted - s
    edge = np.full_like(height, s)
    rows = np.concatenate([edge, -edge, height, height])
    cols = np.concatenate([height, height, edge, -edge])
    cdf = np.cumsum(np.tile(side, 4))
    cdf /= cdf[-1]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols, tuple(cdf.tolist())


def _sites(indices: list, d: int, radius: int) -> list:
    """Coordinates of flat indices into the grid of this radius, as tuples of ints."""
    coords = np.unravel_index(np.array(indices, dtype=np.int64), (2 * radius + 1,) * d)
    return list(zip(*((c - radius).tolist() for c in coords)))


def _step_offsets(d: int, radius: int) -> list:
    """Flat-index offset of each of unit_steps(d) in the grid of this radius."""
    return [sign * (2 * radius + 1) ** (d - 1 - i) for i in range(d) for sign in (1, -1)]


def _first_radius(d: int, particles: int) -> int:
    """Grid radius for a cluster of this many sites: 1.2 ball radii plus 1, at least 2.

    In high dimension a small cluster has sup-norm 1 or 2, so a small radius
    keeps the (2 radius + 1)^d grid small there.
    """
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    return max(2, int(1.2 * (particles / ball) ** (1 / d)) + 1)


def _grid_bytes(d: int, radius: int) -> int:
    """Bytes of the grid of the box [-radius, radius]^d: a byte a site and a rim byte."""
    return 2 * (2 * radius + 1) ** d


def _trace_bytes(kind: str, d: int, sites: int) -> int:
    """Bytes a run of this many sites holds besides its grids and roundness's
    window: per site, 40 (a list slot and an int) for its flat index and, in
    Eden, each of the 2d - 1 boundary edges it adds; as _sites decodes them, 8
    in each of d + 2 arrays, 40 in each of d lists, and a d-tuple in a list;
    and 96 a word of the draw blocks, an array, a list and (d = 2) floats."""
    edges = 2 * d - 1 if kind == "eden" else 0
    return sites * (40 * (1 + edges) + 56 * d + 64) + 96 * _BLOCK_MAX


def _norm_dtype(d: int, reach: int):
    """int32 holds the squared norms on [-reach, reach]^d below its maximum unless
    d reach^2 reaches it, which in d >= 2 takes a window of 2^31 cells."""
    return np.int32 if d * reach**2 < np.iinfo(np.int32).max else np.int64


def _roundness_bytes(d: int, reach: int) -> int:
    """Bytes of roundness's squared norms on [-reach, reach]^d and their last partial sum."""
    side = 2 * reach + 1
    return np.dtype(_norm_dtype(d, reach)).itemsize * (side**d + side ** (d - 1))


def _grid(d: int, radius: int, held: int = 0):
    """Empty grid of the box [-radius, radius]^d, a byte a site in C order, and its
    rim bytes; ValueError if they and the held bytes pass MEMORY_BUDGET."""
    need = held + _grid_bytes(d, radius)
    if need > MEMORY_BUDGET:
        raise ValueError(f"a growth grid in dimension {d} needs {need} bytes, "
                         f"more than {MEMORY_BUDGET}")
    cells = (2 * radius + 1) ** d
    rim = bytearray(b"\1") * cells
    _shaped(rim, d, radius)[(slice(1, -1),) * d] = 0
    return bytearray(cells), rim


def _shaped(cells: bytearray, d: int, radius: int) -> np.ndarray:
    """The grid as a writable d-dimensional array over the same bytes."""
    return np.frombuffer(cells, dtype=np.uint8).reshape((2 * radius + 1,) * d)


def _grow_grid(cells: bytearray, d: int, radius: int, *lists):
    """The grid, radius half as large again, with the old one at its centre; its rim,
    the new radius, and each list of flat indices moved to the grown grid."""
    new_radius = radius + (radius + 1) // 2
    new, rim = _grid(d, new_radius, _grid_bytes(d, radius))  # the old grid is still held
    off = new_radius - radius
    _shaped(new, d, new_radius)[(slice(off, off + 2 * radius + 1),) * d] = (
        _shaped(cells, d, radius))
    moved = []
    for flat in lists:
        coords = np.unravel_index(np.array(flat, dtype=np.int64), (2 * radius + 1,) * d)
        moved.append(np.ravel_multi_index(tuple(c + off for c in coords),
                                          (2 * new_radius + 1,) * d).tolist())
    return (new, rim, new_radius, *moved)


def roundness(trace: ClusterTrace, n: int):
    """(inradius, outradius) of S_n around the origin, Euclidean.

    The inradius is the largest lattice-point norm r such that every lattice
    point with norm <= r belongs to S_n; the outradius is the largest norm
    attained by S_n.  For S_0 = {origin} this gives (0, 0).  A window whose
    _roundness_bytes pass MEMORY_BUDGET raises ValueError.
    """
    _check_steps(trace, n)
    d = trace.dimension
    pts = np.concatenate([np.zeros((1, d), dtype=np.int64),
                          np.array(trace.vertices[:n], dtype=np.int64).reshape(-1, d)])
    # squared norms are exact integers, compared as such; sqrt is monotone, so
    # the roots of the extreme ones are the radii however the norms are summed
    pts_sq = (pts * pts).sum(axis=1)
    out_r = float(np.sqrt(pts_sq.max()))

    # the window reaches past out_r, so it holds the cluster and some missing point
    reach = int(math.floor(out_r)) + 1
    side = 2 * reach + 1
    need = _roundness_bytes(d, reach)
    if need > MEMORY_BUDGET:
        raise ValueError(f"a roundness window in dimension {d} needs {need} bytes, "
                         f"more than {MEMORY_BUDGET}")
    dtype = _norm_dtype(d, reach)
    axis_sq = np.arange(-reach, reach + 1, dtype=dtype) ** 2
    norm_sq = sum(axis_sq.reshape((side,) + (1,) * (d - 1 - j)) for j in range(d))
    # members read as the largest value, so the minimum is the nearest missing
    # point; every point nearer than that is a member, so the inradius is a
    # member's norm
    norm_sq[tuple((pts + reach).T)] = np.iinfo(dtype).max
    nearest_missing = norm_sq.min()
    in_r = float(np.sqrt(pts_sq[pts_sq < nearest_missing].max(initial=0)))
    return in_r, out_r


def roundness_series_to_csv(rows, path) -> None:
    """rows of (n, inradius, outradius)."""
    write_csv(path, ("n", "inradius", "outradius"), list(zip(*rows)) or ((), (), ()))
