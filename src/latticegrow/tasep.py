"""Totally asymmetric simple exclusion process with step initial condition.

Particles are numbered 1, 2, ... from the origin leftward: particle k starts
at site -(k-1), and every site to the right of the origin starts empty.  The
particle at the origin moves to site 1 immediately at time zero; after that,
a particle's next hop needs an exponential clock AND the site to its right
to be free.  Writing s(k, n) for the time of particle k's n-th step, the
dynamics collapse to the recursion

    s(k, n) = max(s(k-1, n), s(k, n-1)) + w(k, n),      s(1, 1) = 0,

with missing arguments dropped and one fresh mean-one exponential w(k, n)
per step (none is consumed by the immediate first step of particle 1).

The index map to oriented last-passage percolation is pinned by two
identities and nothing else: along the axis, particle 1 reaches site n + 1
exactly when the passage time to (n, 0) elapses, so s(1, n) = T(0, (n-1, 0));
and on the diagonal, T(0, (n, n)) <= t if and only if at least n particles
have passed through the origin by time t.  Both force

    s(k, n) = T(0, (n-1) e1 + (k-1) e2),

with step (k, n) consuming the weight at site (n-1, k-1), and force the
current c_t to count particles that started strictly left of the origin and
have reached site 1 (the particle born at the origin never passes *through*
it).  In coupled mode the weights are read from an LPP vertex field in the
same order and combined by the same recursion, so the step-time table equals
the last-passage table bit for bit.

``tasep_run`` evaluates the recursion in raster order, one particle row at a
time, on Python floats: it reads a row of clocks with one ``tolist()``, keeps
only the previous row as a list, and writes each finished row into the table
with one slice assignment.  It shares no code with the LPP solver, so the
coupling check compares two independent computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._output import write_csv
from .lpp import LppTimeMap, _sweep_bytes, lpp_dp
from .weights import WeightField, derive_seed, exponential

__all__ = [
    "StepTimeTable",
    "CurrentUndetermined",
    "tasep_run",
    "current_at",
    "current_series",
    "coupling_equivalence",
    "particle_position",
]


class CurrentUndetermined(ValueError):
    """The table is too small to determine the current at the asked time."""


@dataclass
class StepTimeTable:
    """s[k-1, n-1] = time at which particle k makes its n-th step."""

    s: np.ndarray
    coupling: str  # 'independent' or 'lpp'
    field: WeightField | None = None
    seed: int | None = None

    @property
    def particles(self) -> int:
        return self.s.shape[0]

    @property
    def steps(self) -> int:
        return self.s.shape[1]

    def step_time(self, k: int, n: int) -> float:
        if not (1 <= k <= self.particles and 1 <= n <= self.steps):
            raise KeyError(f"(k={k}, n={n}) outside table {self.s.shape}")
        return float(self.s[k - 1, n - 1])

    def to_csv(self, path) -> None:
        k, n = np.indices(self.s.shape).reshape(2, -1) + 1
        write_csv(path, ("k", "n", "s"), (k, n, self.s.ravel()))


def _clock_matrix(particles: int, steps: int, *, seed=None, field=None, clocks=None):
    if sum(x is not None for x in (seed, field, clocks)) != 1:
        raise ValueError("provide exactly one of seed, field, clocks")
    if clocks is not None:
        clocks = np.asarray(clocks, dtype=np.float64)
        if clocks.shape != (particles, steps):
            raise ValueError(f"clocks must have shape {(particles, steps)}")
        return clocks, "independent"
    if field is not None:
        if field.attachment != "vertex":
            raise ValueError("coupled mode needs a vertex weight field")
        if field.spec != exponential(1.0):
            raise ValueError("coupled mode requires rate-1 exponential vertex weights")
        if field.dimension != 2:
            raise ValueError("coupled mode is two-dimensional")
        # step (k, n) consumes the weight at site (n-1, k-1)
        return field.vertex_window((0, 0), (steps, particles)).T, "lpp"
    rng = np.random.default_rng(seed)
    return rng.standard_exponential((particles, steps)), "independent"


def tasep_run(
    particles: int,
    steps: int,
    *,
    clock_seed: int | None = None,
    field: WeightField | None = None,
    clocks=None,
) -> StepTimeTable:
    """Step-time table for K particles making N steps each.

    Exactly one source of randomness must be given: clock_seed draws fresh
    independent exponential clocks, field couples the run to an LPP weight
    environment, and clocks supplies an explicit (K, N) matrix (the entry for
    step (1, 1) is ignored; that step happens at time zero).
    """
    if particles < 1 or steps < 1:
        raise ValueError("particles and steps must both be >= 1")
    w, coupling = _clock_matrix(
        particles, steps, seed=clock_seed, field=field, clocks=clocks
    )

    s = np.empty((particles, steps), dtype=np.float64)
    up = [-math.inf] * steps  # row k-1; nothing above the first particle
    for k in range(particles):
        row = w[k].tolist()
        left = -math.inf
        start = 0
        if k == 0:
            left = row[0] = 0.0  # s(1, 1) = 0 consumes no clock
            start = 1
        for n in range(start, steps):
            u = up[n]
            # max(u, left) spelled out: the builtin's comparison, without the call
            left = (left if left > u else u) + row[n]
            row[n] = left
        s[k] = row
        up = row
    return StepTimeTable(s=s, coupling=coupling, field=field, seed=clock_seed)


def current_at(table: StepTimeTable, t: float) -> int:
    """Number of particles that have passed through the origin by time t.

    Counted are particles that started at sites <= -1 and have reached site 1,
    i.e. particle k >= 2 after its k-th step.  Refuses when even the last
    tabulated passer has passed by t, because the true current could then
    exceed what the table shows.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    diag = np.diagonal(table.s)
    if diag[-1] <= t:
        raise CurrentUndetermined(
            f"current at t={t} is not determined by a {table.particles} x "
            f"{table.steps} table; every tabulated particle has already passed"
        )
    return int(np.count_nonzero(diag[1:] <= t))


def current_series(table: StepTimeTable, t_grid) -> list:
    return [(float(t), current_at(table, t)) for t in t_grid]


def particle_position(table: StepTimeTable, k: int, t: float) -> int:
    """Position of particle k at time t, recovered from its step times."""
    if not 1 <= k <= table.particles:
        raise KeyError(f"no particle {k} in the table")
    made = int(np.count_nonzero(table.s[k - 1] <= t))
    return -(k - 1) + made


def coupling_equivalence(table: StepTimeTable, lmap: LppTimeMap, n: int, t: float) -> bool:
    """Check T(0,(n,n)) <= t  iff  c_t >= n on a coupled run.

    Returns True when the two sides agree; a False return means the coupling
    is broken and is always a bug, never a valid outcome.
    """
    if table.coupling != "lpp" or table.field is None:
        raise ValueError("equivalence check needs an LPP-coupled table")
    if table.field != lmap.field:
        raise ValueError("table and map were built from different fields")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > min(lmap.corner):
        raise ValueError(f"map corner {lmap.corner} does not cover (n, n) = ({n}, {n})")
    lhs = lmap.time_to((n, n)) <= t
    rhs = current_at(table, t) >= n
    return lhs == rhs


def _trial_bytes(k: int) -> int:
    """Bytes a k x k coupled run holds, at most: a step table and the last
    trial's LPP table while lpp_dp solves the next, and 2 MiB of CSV text."""
    return 16 * k * k + _sweep_bytes((k - 1, k - 1), keep_all=True) + (2 << 20)


def _coupling_check(k: int, trials: int, seed: int):
    """Coupled k x k runs on exp:1.0 vertex fields, each checked against lpp_dp.

    Returns the last step table, how many step tables differ from their LPP
    table, and how many of each trial's 100 random (n, t) probes (none when
    k = 2) break coupling_equivalence.
    """
    mismatches = probe_failures = 0
    for trial in range(trials):
        fld = WeightField(exponential(1.0), derive_seed(seed, "tasep", trial), "vertex", 2)
        table = tasep_run(k, k, field=fld)
        lmap = lpp_dp(fld, (k - 1, k - 1))
        mismatches += not np.array_equal(table.s, lmap.table.T)
        if k >= 3:
            rng = np.random.default_rng(derive_seed(seed, "tasep-probes", trial))
            tmax = float(table.s[k - 1, k - 1])
            for _ in range(100):
                n = int(rng.integers(1, k - 1))
                t = float(rng.uniform(0.0, tmax))
                probe_failures += not coupling_equivalence(table, lmap, n, t)
    return table, mismatches, probe_failures
