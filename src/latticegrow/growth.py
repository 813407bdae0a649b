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

The IDLA walks read one stream of directions, rng.integers(0, 2d) indexing
unit_steps(d), drawn in blocks of 64, 128, ... up to 2^16 draws.  A walk is
the cumulative sum of the directions' flat-index offsets into a dense
occupancy grid, checked a window at a time with one gather.  Each walk
starts on the draw right after the previous walk's exit move, so successive
walks read disjoint, consecutive stretches of one i.i.d. stream, each
starting at a stopping time: by the strong Markov property they are
independent simple random walks, and the traces have the IDLA law.  Each
element of rng.integers(0, k, size=m) consumes one 32-bit word of the
generator, so the traces are those of a loop drawing one direction per move:
how the stream is cut into blocks does not change the draws, and the grid's
size never shows in the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._output import write_csv
from .fpp import LatticeBox, fpp_dijkstra, unit_steps
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
        if n > len(self.vertices):
            raise ValueError(f"trace has only {len(self.vertices)} steps, asked for {n}")
        s = {(0,) * self.dimension}
        s.update(self.vertices[:n])
        return s

    def to_csv(self, path) -> None:
        d = self.dimension
        coords = np.array(self.vertices, dtype=np.int64).reshape(-1, d)
        write_csv(path, ["step"] + [f"x{i + 1}" for i in range(d)],
                  [np.arange(1, len(coords) + 1), *coords.T])


def eden_grow(seed: int, d: int, steps: int) -> ClusterTrace:
    """Grow an Eden cluster for the given number of steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    moves = unit_steps(d)
    origin = (0,) * d
    cluster = {origin}
    # boundary edges as (inner, outer) pairs; edges whose outer endpoint got
    # absorbed are removed lazily when drawn, which keeps the draw uniform
    # over the current boundary-edge multiset
    edges = [(origin, tuple(m)) for m in moves]
    added = []
    for _ in range(steps):
        while True:
            i = int(rng.integers(len(edges)))
            inner, outer = edges[i]
            if outer in cluster:
                edges[i] = edges[-1]
                edges.pop()
                continue
            break
        cluster.add(outer)
        added.append(outer)
        for m in moves:
            nb = tuple(a + b for a, b in zip(outer, m))
            if nb not in cluster:
                edges.append((outer, nb))
    return ClusterTrace(model="eden", seed=seed, dimension=d, vertices=added)


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
    # a solve that settles no face vertex runs exactly as on the radius
    # steps + 1 box, which the steps + 1 settled vertices cannot reach, so
    # grow a small box until its face stays unsettled
    radius = math.ceil(steps ** (1 / field.dimension)) + 1
    while True:
        box = LatticeBox(dimension=field.dimension, radius=min(radius, steps + 1))
        pmap = fpp_dijkstra(field, (0,) * field.dimension, box, max_settled=steps + 1)
        if not pmap.boundary_hit or box.radius == steps + 1:
            break
        radius *= 2
    return ClusterTrace(
        model="fpp-order", seed=field.seed, dimension=field.dimension,
        vertices=list(pmap.order[1:]),
    )


_WALK_CAP_BASE = 100_000
# the direction stream is drawn in blocks of 64, 128, ... draws up to this size:
# small first blocks keep one-particle calls cheap, and the cap keeps the
# block's few arrays (8 bytes a draw each) near a megabyte
_BLOCK_MAX = 1 << 16
# largest occupancy grid, in cells of one byte, that idla_grow will allocate
_GRID_CELLS_MAX = 1 << 28


def idla_grow(seed: int, d: int, particles: int) -> ClusterTrace:
    """Internal DLA: one random walk from the origin per particle.

    Each walk runs until its first position outside the current cluster;
    that position is added.  A generous per-particle step cap guards against
    implementation bugs (the exit time is finite almost surely) and raises
    if exceeded.  The occupancy grid holds (2 radius + 1)^d bytes, radius
    at least 2; one larger than _GRID_CELLS_MAX raises ValueError, which
    bounds the dimension (12 for a cluster of sup-norm radius 1).
    """
    if particles < 1:
        raise ValueError("particles must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    radius = _first_radius(d, particles)
    occ = _grid(d, radius)
    occ[(radius,) * d] = True
    offsets = _step_offsets(occ)
    flat = occ.reshape(-1)
    draws = np.empty(0, dtype=np.int64)
    cum = np.zeros(1, dtype=np.int64)  # cum[k] = flat offset after the block's first k moves
    start = 0  # the next walk's first move in the block
    block = 64
    added = []

    for _ in range(particles):
        cap = _WALK_CAP_BASE + 200 * (len(added) + 26)
        limit = max(cap, 0)
        base = (occ.size - 1) // 2 - int(cum[start])  # the origin is the centre cell
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
                raise RuntimeError(
                    f"random walk exceeded the safety cap ({cap} steps); "
                    "this indicates a bug in the growth bookkeeping"
                )
            # moves after the exit may leave the grid; clip keeps their reads in
            # bounds, and the exit itself neighbours the cluster, so it lies inside
            inside = flat.take(cum[lo + 1:hi + 1] + base, mode="clip")
            j = int(inside.argmin())
            if not inside[j]:
                break
            lo = hi
            window *= 2
        cell = base + int(cum[lo + j + 1])
        flat[cell] = True
        start = lo + j + 1

        site = []
        for _ in range(d):
            cell, c = divmod(cell, 2 * radius + 1)
            site.append(c - radius)
        site = tuple(reversed(site))
        added.append(site)
        # a walk's exit neighbours a site, so it stays inside while every site is
        # off the grid's outer layer
        if max(abs(c) for c in site) >= radius:
            occ, radius = _grow_grid(occ, radius)
            offsets = _step_offsets(occ)
            flat = occ.reshape(-1)
            np.cumsum(offsets[draws], out=cum[1:])

    return ClusterTrace(model="idla", seed=seed, dimension=d, vertices=added)


def _step_offsets(occ: np.ndarray) -> np.ndarray:
    """Flat-index offset of each of unit_steps(d) in a grid of one-byte cells."""
    return np.array([sign * s for s in occ.strides for sign in (1, -1)], dtype=np.int64)


def _first_radius(d: int, particles: int) -> int:
    """Grid radius for a cluster of this many sites: 1.2 ball radii plus 1, at least 2.

    In high dimension a small cluster has sup-norm 1 or 2, so a small radius
    keeps the (2 radius + 1)^d grid small there.
    """
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    return max(2, int(1.2 * (particles / ball) ** (1 / d)) + 1)


def _grid(d: int, radius: int) -> np.ndarray:
    cells = (2 * radius + 1) ** d
    if cells > _GRID_CELLS_MAX:
        raise ValueError(f"IDLA in dimension {d} needs a grid of {cells} cells, "
                         f"more than {_GRID_CELLS_MAX}")
    return np.zeros((2 * radius + 1,) * d, dtype=bool)


def _grow_grid(occ: np.ndarray, radius: int):
    new_radius = radius + (radius + 1) // 2
    new = _grid(occ.ndim, new_radius)
    off = new_radius - radius
    new[(slice(off, off + occ.shape[0]),) * occ.ndim] = occ
    return new, new_radius


def roundness(trace: ClusterTrace, n: int):
    """(inradius, outradius) of S_n around the origin, Euclidean.

    The inradius is the largest lattice-point norm r such that every lattice
    point with norm <= r belongs to S_n; the outradius is the largest norm
    attained by S_n.  For S_0 = {origin} this gives (0, 0).
    """
    if n > len(trace.vertices):
        raise ValueError(f"trace has only {len(trace.vertices)} steps, asked for {n}")
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
    # int32 holds the window's norms below its maximum unless d reach^2 reaches
    # it, which in d >= 2 takes a window of 2^31 cells
    top = np.iinfo(np.int32).max
    dtype = np.int32 if d * reach**2 < top else np.int64
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
