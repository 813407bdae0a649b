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


def idla_grow(seed: int, d: int, particles: int) -> ClusterTrace:
    """Internal DLA: one random walk from the origin per particle.

    Each walk runs until its first position outside the current cluster;
    that position is added.  A generous per-particle step cap guards against
    implementation bugs (the exit time is finite almost surely) and raises
    if exceeded.
    """
    if particles < 1:
        raise ValueError("particles must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d == 2:
        return _idla_grow_2d(seed, particles)
    return _idla_grow_generic(seed, d, particles)


def _idla_grow_2d(seed: int, particles: int) -> ClusterTrace:
    rng = np.random.default_rng(seed)
    moves = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], dtype=np.int64)

    radius = int(math.ceil(2.2 * math.sqrt(particles / math.pi))) + 10
    occ = np.zeros((2 * radius + 1, 2 * radius + 1), dtype=bool)
    occ[radius, radius] = True
    out_sq = 0  # squared outradius of the cluster so far
    added = []

    for _ in range(particles):
        pos = np.zeros(2, dtype=np.int64)
        chunk = 64
        taken = 0
        cap = _WALK_CAP_BASE + 200 * (out_sq + 25)
        site = None
        while site is None:
            draws = rng.integers(0, 4, size=chunk)
            path = pos + np.cumsum(moves[draws], axis=0)
            ix = path[:, 0] + radius
            iy = path[:, 1] + radius
            in_grid = (ix >= 0) & (ix < occ.shape[0]) & (iy >= 0) & (iy < occ.shape[1])
            inside = np.zeros(chunk, dtype=bool)
            ok = in_grid.nonzero()[0]
            inside[ok] = occ[ix[ok], iy[ok]]
            if inside.all():
                pos = path[-1]
                taken += chunk
                if taken > cap:
                    raise RuntimeError(
                        f"random walk exceeded the safety cap ({cap} steps); "
                        "this indicates a bug in the growth bookkeeping"
                    )
                chunk = min(chunk * 2, 1 << 15)
                continue
            j = int(np.argmin(inside))
            site = (int(path[j, 0]), int(path[j, 1]))
        occ[site[0] + radius, site[1] + radius] = True
        added.append(site)
        out_sq = max(out_sq, site[0] * site[0] + site[1] * site[1])
        if max(abs(site[0]), abs(site[1])) >= radius - 1:
            occ, radius = _grow_grid(occ, radius)

    return ClusterTrace(model="idla", seed=seed, dimension=2, vertices=added)


def _grow_grid(occ: np.ndarray, radius: int):
    new_radius = radius * 2
    new = np.zeros((2 * new_radius + 1, 2 * new_radius + 1), dtype=bool)
    off = new_radius - radius
    new[off : off + occ.shape[0], off : off + occ.shape[1]] = occ
    return new, new_radius


def _idla_grow_generic(seed: int, d: int, particles: int) -> ClusterTrace:
    rng = np.random.default_rng(seed)
    moves = unit_steps(d)
    origin = (0,) * d
    cluster = {origin}
    added = []
    for _ in range(particles):
        pos = origin
        cap = _WALK_CAP_BASE + 200 * (len(cluster) + 25)
        for taken in range(cap + 1):
            if pos not in cluster:
                break
            m = moves[int(rng.integers(2 * d))]
            pos = tuple(a + b for a, b in zip(pos, m))
        else:
            raise RuntimeError(f"random walk exceeded the safety cap ({cap} steps)")
        cluster.add(pos)
        added.append(pos)
    return ClusterTrace(model="idla", seed=seed, dimension=d, vertices=added)


def roundness(trace: ClusterTrace, n: int):
    """(inradius, outradius) of S_n around the origin, Euclidean.

    The inradius is the largest lattice-point norm r such that every lattice
    point with norm <= r belongs to S_n; the outradius is the largest norm
    attained by S_n.  For S_0 = {origin} this gives (0, 0).
    """
    cluster = trace.cluster_at(n)
    d = trace.dimension
    pts = np.array(sorted(cluster), dtype=np.int64)
    out_r = float(np.sqrt((pts.astype(np.float64) ** 2).sum(axis=1).max()))

    reach = int(math.floor(out_r)) + 1
    axes = [np.arange(-reach, reach + 1, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norms = np.sqrt((grid.astype(np.float64) ** 2).sum(axis=1))
    member = np.fromiter(
        (tuple(p) in cluster for p in grid), dtype=bool, count=grid.shape[0]
    )
    missing = norms[~member]
    if missing.size == 0:
        # cluster fills the whole scanned window; every norm up to reach is in
        in_r = float(norms[member].max())
    else:
        m = float(missing.min())
        below = norms[norms < m]
        in_r = float(below.max()) if below.size else 0.0
    return in_r, out_r


def roundness_series_to_csv(rows, path) -> None:
    """rows of (n, inradius, outradius)."""
    write_csv(path, ("n", "inradius", "outradius"), list(zip(*rows)) or ((), (), ()))
