"""Brute-force passage times on tiny instances, the ground truth for solvers.

These routines enumerate paths directly and are deliberately independent of
the production solvers, except that the FPP search reads the same weight
window (``LatticeBox.padded_weights``) as Dijkstra.  They are only meant for
boxes of radius a few sites (FPP) or rectangles with at most a few thousand
oriented paths (LPP).

The FPP search walks a plain-Python adjacency of the box, built from that
window once per field and box and reused by every target checked against the
same field, so each edge costs one list read rather than a numpy index.  The
LPP enumeration likewise hashes one vertex rectangle per field and slices it
for every target inside.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fpp import LatticeBox, fpp_dijkstra, unit_steps
from .lpp import lpp_dp
from .weights import WeightField, derive_seed

__all__ = [
    "EnumerationBudget",
    "BudgetExceeded",
    "brute_force_fpp",
    "brute_force_lpp",
    "oriented_path_count",
]


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard limits for exhaustive search; enumeration refuses rather than truncates."""

    max_vertices: int = 200
    max_paths: int = 2_000_000

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_paths <= 0:
            raise ValueError("enumeration budgets must be positive")


DEFAULT_BUDGET = EnumerationBudget()


@functools.lru_cache(maxsize=1)
def _box_adjacency(field: WeightField, box: LatticeBox) -> dict:
    """{vertex: [(neighbour, weight), ...]} over the box, neighbours in unit_steps order.

    Reads the window array the solver reads (``LatticeBox.padded_weights``) once
    and rejects zero weights up front.  Fields and boxes are frozen and weights
    are pure functions of them, so the cached adjacency cannot go stale.
    """
    weights = box.padded_weights(field)
    if np.any(weights <= 0.0):
        raise ValueError("zero or negative edge weight; pruning would be unsound")
    rows = weights.tolist()
    r = box.radius
    steps = unit_steps(box.dimension)
    adj = {}
    for u in itertools.product(range(-r, r + 1), repeat=box.dimension):
        adj[u] = []
        for k, s in enumerate(steps):
            v = tuple(a + b for a, b in zip(u, s))
            if not box.contains(v):
                continue
            # unit_steps pairs +e_j and -e_j; the edge sits at its lower endpoint
            w = rows[k // 2]
            for i in box.padded_index(min(u, v)):
                w = w[i]
            adj[u].append((v, w))
    return adj


def brute_force_fpp(
    field: WeightField,
    box: LatticeBox,
    source,
    target,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> float:
    """Exact FPP passage time by exhaustive self-avoiding search with pruning.

    Requires strictly positive edge weights inside the box: positivity makes
    loop-erasure domination valid (restricting to self-avoiding paths is then
    lossless) and makes branch-and-bound pruning sound.  Partial paths are
    also discarded once current weight plus a per-step lower bound times the
    remaining l1 distance cannot beat the incumbent.
    """
    if field.attachment != "edge":
        raise ValueError("FPP enumeration needs an edge field")
    source = tuple(int(c) for c in source)
    target = tuple(int(c) for c in target)
    if not box.contains(source) or not box.contains(target):
        raise ValueError("source and target must lie inside the box")
    if box.vertex_count() > budget.max_vertices:
        raise BudgetExceeded(
            f"box has {box.vertex_count()} vertices, budget allows {budget.max_vertices}"
        )

    adj = _box_adjacency(field, box)
    per_step_floor = field.spec.support_min()

    def l1(u, v):
        return sum(map(abs, map(operator.sub, u, v)))

    # seed the incumbent with one explicit staircase path so pruning can bite
    best = 0.0
    cur = source
    for j in range(field.dimension):
        step = 1 if target[j] >= cur[j] else -1
        while cur[j] != target[j]:
            nxt = cur[:j] + (cur[j] + step,) + cur[j + 1 :]
            best += dict(adj[cur])[nxt]
            cur = nxt

    paths_tried = 0
    on_path = {source}

    def search(u, acc):
        nonlocal best, paths_tried
        if u == target:
            if acc < best:
                best = acc
            return
        paths_tried += 1
        if paths_tried > budget.max_paths:
            raise BudgetExceeded(f"path budget {budget.max_paths} exceeded")
        for v, w in adj[u]:
            if v in on_path:
                continue
            nacc = acc + w
            if nacc + per_step_floor * l1(v, target) >= best:
                continue
            on_path.add(v)
            search(v, nacc)
            on_path.discard(v)

    if source == target:
        return 0.0
    search(source, 0.0)
    return best


# smallest side of the weight rectangle brute_force_lpp hashes per field; a
# target past it gets a rectangle of its own
_RECTANGLE = 16


@functools.lru_cache(maxsize=1)
def _vertex_rectangle(field: WeightField, rows: int, cols: int) -> np.ndarray:
    """Weights of the vertices [0, rows) x [0, cols), hashed once for every target inside.

    Hashed by ``field.vertex_window``, as the LPP solver hashes its tables, so
    the bits are the ones the solver reads.  Fields are frozen and weights
    pure, so the cached rectangle cannot go stale.
    """
    weights = field.vertex_window((0, 0), (rows, cols))
    weights.setflags(write=False)  # every later call gets this same array
    return weights


def oriented_path_count(target) -> int:
    """Number of oriented lattice paths from the origin to target >= 0 (d = 2)."""
    x1, x2 = (int(c) for c in target)
    if x1 < 0 or x2 < 0:
        raise ValueError("target must have nonnegative coordinates")
    return math.comb(x1 + x2, x1)


def brute_force_lpp(
    field: WeightField,
    target,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> float:
    """Exact LPP passage time by full enumeration of oriented paths (d = 2).

    Weights are read through ``vertex_window``, the route the
    dynamic-programming table reads, so values are bit-exact against it.  Each
    path sum accumulates left to right (cumulative sums), matching the order
    the recursion uses.  The initial vertex is excluded from every sum.
    """
    if field.attachment != "vertex":
        raise ValueError("LPP enumeration needs a vertex field")
    if field.dimension != 2:
        raise ValueError("LPP enumeration is implemented for d = 2")
    x1, x2 = (int(c) for c in target)
    if x1 < 0 or x2 < 0:
        raise ValueError("target must have nonnegative coordinates")
    npaths = oriented_path_count((x1, x2))
    if npaths > budget.max_paths:
        raise BudgetExceeded(f"{npaths} oriented paths exceed budget {budget.max_paths}")
    if x1 == 0 and x2 == 0:
        return 0.0

    wgrid = _vertex_rectangle(field, max(x1 + 1, _RECTANGLE), max(x2 + 1, _RECTANGLE))

    nsteps = x1 + x2
    # a path is the choice of which of the x1+x2 steps move along the first axis
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(nsteps), x1)),
        dtype=np.int64,
        count=npaths * x1,
    ).reshape(npaths, x1)
    moves_x = np.zeros((npaths, nsteps), dtype=np.int64)
    if x1 > 0:
        np.put_along_axis(moves_x, combos, 1, axis=1)
    ii = np.cumsum(moves_x, axis=1)
    jj = np.arange(1, nsteps + 1, dtype=np.int64)[None, :] - ii
    path_weights = wgrid[ii, jj]
    # cumulative sums accumulate each path left to right, same order as the
    # recursion, so the maximum below is bit-exact against it
    totals = np.cumsum(path_weights, axis=1)[:, -1]
    return float(totals.max())


def _solver_mismatches(spec, trials: int, seed: int) -> list:
    """(trial, "fpp" or "lpp", vertex) wherever fpp_dijkstra on the radius-3
    box, or lpp_dp on [0, 4]^2, differs from the oracle, for each trial's fields."""
    box, found = LatticeBox(2, 3), []
    for trial in range(trials):
        fld = WeightField(spec, derive_seed(seed, "oracle-fpp", trial), "edge", 2)
        pmap = fpp_dijkstra(fld, (0, 0), box)
        found += [(trial, "fpp", v) for v in sorted(pmap.times)
                  if brute_force_fpp(fld, box, (0, 0), v) != pmap.times[v]]
        vfld = WeightField(spec, derive_seed(seed, "oracle-lpp", trial), "vertex", 2)
        lmap = lpp_dp(vfld, (4, 4))
        found += [(trial, "lpp", idx) for idx in np.ndindex(lmap.table.shape)
                  if brute_force_lpp(vfld, idx) != lmap.table[idx]]
    return found
