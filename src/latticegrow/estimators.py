"""Monte Carlo estimation of time constants, shapes, and scaling exponents.

Every trial draws its own weight field from a child seed derived as
mix(master seed, statistic tag, n, trial index), so estimates are
reproducible and independent of aggregation order and worker scheduling.
fluctuation_series reads the variance and the wandering off one sample set,
so each trial is one sweep and the residual's error carries their covariance.
Passage-time samples come from the exact finite-volume solvers; first-passage
solves carry a truncation flag that propagates into per-point warnings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from ._output import write_csv
from .experiments import (
    MEMORY_BUDGET,
    MIN_FIT_POINTS,
    MIN_FIT_SPAN,
    MIN_FLAT_EDGE_N,
    MIN_RADIAL_TRIALS,
    MIN_VARIANCE_TRIALS,
    _BATCH_BYTES,
    _batch_trials,
)
from .fpp import (
    _BOX_RETRIES,
    LatticeBox,
    _check_fpp_law,
    _grown_solve,
    _point_solve,
    _point_task,
    _trial_bytes,
    fpp_geodesic,
    lattice_point,
    max_distance_to_segment,
    wandering_deviation,
)
from .lpp import (
    _SAT,
    _batch_corners,
    _min_plus_2d,
    _min_plus_bytes,
    _sweep_bytes,
    exact_g,
    exact_shape_for,
    lpp_dp,
)
from .weights import DistributionSpec, WeightField, derive_seed, two_point

__all__ = [
    "Series",
    "SubadditiveSequence",
    "RadialShapeEstimate",
    "ExponentFit",
    "FeketeReport",
    "Fluctuations",
    "FlatEdgeReport",
    "VarianceSeries",
    "MeanSeries",
    "estimate_radial_g",
    "fekete_envelope",
    "shape_boundary_estimate",
    "flat_edge_probe",
    "variance_series",
    "wandering_series",
    "fluctuation_series",
    "shape_gap_series",
    "fit_exponent",
    "chi_from_variance_fit",
    "kpz_residual",
]

# the window solve's uint16 times stay exact while T <= 4n < _SAT
MAX_FLAT_EDGE_N = (_SAT - 1) // 4


# ---------------------------------------------------------------------------
# result containers


@dataclass
class Series:
    """Per-n estimates of one statistic; variances add bootstrap 95% bands."""

    statistic: str
    ns: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    trials: int
    truncation_warnings: dict = dc_field(default_factory=dict)
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None

    def to_csv(self, path) -> None:
        write_csv(path, ("n", "value", "stderr", "trials"),
                  (np.asarray(self.ns, dtype=np.int64), self.values, self.stderrs, self.trials))


# earlier names of the one series type; callers and perfbench/tracer.py use them
SubadditiveSequence = MeanSeries = VarianceSeries = Series


@dataclass
class RadialShapeEstimate:
    """Per-direction radial reach of B(t)/t with a convexity diagnostic."""

    model: str
    t: float
    angles: np.ndarray
    radii: np.ndarray
    stderrs: np.ndarray
    trials: int
    convexity_violation_fraction: float
    truncated_trials: int = 0

    def to_csv(self, path) -> None:
        write_csv(path, ("angle", "radius", "stderr", "trials"),
                  (self.angles, self.radii, self.stderrs, self.trials))


@dataclass
class FeketeReport:
    ns: np.ndarray
    envelope: np.ndarray
    violations: list  # (m, n, excess, allowed) beyond noise


@dataclass
class FlatEdgeReport:
    p: float
    n: int
    trials: int
    mean_ratio: float
    stderr: float
    ci95: tuple


@dataclass(frozen=True)
class ExponentFit:
    """Inverse-variance weighted log-log slope with its standard error."""

    statistic: str
    slope: float
    intercept: float
    slope_stderr: float
    n_range: tuple

    def as_dict(self) -> dict:
        return {**asdict(self), "n_range": list(self.n_range)}


# ---------------------------------------------------------------------------
# sampling machinery


def _map_trials(fn, tasks: list, workers: int, task_bytes: int):
    """[fn(t) for t in tasks] on min(workers, len(tasks), MEMORY_BUDGET // task_bytes)
    processes, task_bytes the most one task holds; on one, in this process."""
    procs = min(workers or 1, len(tasks), MEMORY_BUDGET // task_bytes)
    if procs > 1:
        import multiprocessing

        # one task at a time: a task is a solve or a batch of them, so a chunk
        # of several would leave one worker finishing the tail alone
        with multiprocessing.Pool(processes=procs) as pool:
            return pool.map(fn, tasks, chunksize=1)
    return [fn(t) for t in tasks]


def _batches(items: list, per: int) -> list:
    """items cut into the fewest batches of at most per, their sizes within one."""
    nb = -(-len(items) // per)
    return [items[a * len(items) // nb : (a + 1) * len(items) // nb] for a in range(nb)]


def _check_model(model: str, spec: DistributionSpec) -> None:
    if model not in ("fpp", "lpp"):
        raise ValueError(f"model must be 'fpp' or 'lpp', got {model!r}")
    if model == "fpp":
        _check_fpp_law(spec)


def _task_size(model: str, target, spec: DistributionSpec, geodesics: bool) -> tuple:
    """(trials, bytes) of one sampling task at target: a batch of LPP corner
    sweeps, with their geodesics if asked for, or of FPP point solves
    (fpp._point_task), and the most it holds."""
    if model == "fpp":
        return _point_task(target, spec)
    need = _sweep_bytes(target, geodesics=geodesics)
    per = _batch_trials(need)
    return per, per * need


def _fpp_target_solve(fields, target, *, want_geodesic: bool):
    """Point passage times T(x) of a batch of fields, x = target, from
    fpp._point_solve, with wanderings (NaN unless asked for) and flags."""
    maps = _point_solve(fields, target)
    devs = [math.nan] * len(maps)
    if want_geodesic:
        devs = [wandering_deviation(fpp_geodesic(pmap, target), (0,) * len(target), target)
                for pmap in maps]
    return [pmap.time_to(target) for pmap in maps], devs, [pmap.boundary_hit for pmap in maps]


def _point_batch(args):
    """Times, wanderings (NaN unless asked for) and boundary flags of one
    task: one FPP solve or one LPP sweep over a batch of trials."""
    model, spec, target, seeds, want_geodesic = args
    d = len(target)
    if model == "fpp":
        return _fpp_target_solve([WeightField(spec, s, "edge", d) for s in seeds], target,
                                 want_geodesic=want_geodesic)
    fields = [WeightField(spec, s, "vertex", d) for s in seeds]
    times, paths = _batch_corners(fields, target, want_geodesic)
    devs = [math.nan] * len(fields)
    if want_geodesic:
        devs = [max_distance_to_segment(p, np.zeros(d), np.asarray(target, float))
                for p in paths]
    return times, devs, [False] * len(fields)


def _grid_targets(model: str, direction, n_grid):
    """(direction, sorted n-grid, targets [n x]); each error names its argument."""
    direction = tuple(float(c) for c in direction)
    if not all(map(math.isfinite, direction)):
        raise ValueError(f"direction: components must be finite, got {direction}")
    if model == "lpp" and any(c < 0 for c in direction):
        raise ValueError("direction: LPP directions must be componentwise nonnegative")
    ns = sorted(int(n) for n in n_grid)
    if len(set(ns)) != len(ns) or not ns or ns[0] < 1:
        raise ValueError(f"n_grid: entries must be distinct and positive, got {ns}")
    targets = [lattice_point(n * c for c in direction) for n in ns]
    for n, tgt in zip(ns, targets):
        if not any(tgt):
            raise ValueError(f"direction: n={n} times {direction} floors to the origin")
    return direction, ns, targets


def _sample_times(model, spec, direction, n_grid, trials, seed, tag, workers,
                  want_geodesic=False, least=1):
    """Passage-time (and optionally wandering) samples on an n-grid, at least
    `least` trials a point.

    Returns (ns, targets, times[n_index, trial], devs or None, trunc counts).
    """
    if trials < least:
        raise ValueError(f"trials: need at least {least} per grid point, got {trials}")
    _check_model(model, spec)
    direction, ns, targets = _grid_targets(model, direction, n_grid)
    full_tag = f"{tag}:{model}:{spec.token()}:{direction}"
    # trials of one n share FPP solves or LPP sweeps in near-equal batches, each
    # trial with its own field, so the samples do not depend on them
    tasks, most = [], 1
    for n, tgt in zip(ns, targets):
        row = [derive_seed(seed, full_tag, n, i) for i in range(trials)]
        per, need = _task_size(model, tgt, spec, want_geodesic)
        tasks += [(model, spec, tgt, batch, want_geodesic) for batch in _batches(row, per)]
        most = max(most, need)
    times, devs, hits = (np.concatenate(col).reshape(len(ns), trials)
                         for col in zip(*_map_trials(_point_batch, tasks, workers, most)))
    trunc = {n: int(c) for n, c in zip(ns, hits.sum(axis=1)) if c}
    return np.array(ns), targets, times, devs if want_geodesic else None, trunc


def _mean_se(x: np.ndarray):
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# estimators


def estimate_radial_g(
    model: str,
    spec: DistributionSpec,
    direction,
    n_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Series:
    """Monte Carlo sequence of T(0, [n x]) / n along one direction."""
    ns, _targets, times, _devs, trunc = _sample_times(
        model, spec, direction, n_grid, trials, seed, "radial-g", workers, least=MIN_RADIAL_TRIALS
    )
    return _mean_series("radial-g", ns, times / ns[:, None], trunc)


def fekete_envelope(seq: Series) -> FeketeReport:
    """Running infimum of a_k / k plus approximate-subadditivity violations.

    The running envelope converges to the sequence's limit when (a_n) is
    subadditive.  A pair (m, n) with m + n also on the grid is flagged when
    a_{m+n} exceeds a_m + a_n by more than three combined standard errors.
    """
    ns = seq.ns
    envelope = np.minimum.accumulate(seq.values)
    idx = {int(n): j for j, n in enumerate(ns)}
    a = seq.values * ns  # estimate of a_n itself
    a_se = seq.stderrs * ns
    violations = []
    for j, m in enumerate(ns):
        for k in range(j, len(ns)):
            n = int(ns[k])
            tot = int(m) + n
            if tot not in idx:
                continue
            jt = idx[tot]
            excess = a[jt] - a[j] - a[k]
            allowed = 3.0 * math.sqrt(a_se[jt] ** 2 + a_se[j] ** 2 + a_se[k] ** 2)
            if excess > allowed + 1e-9 * max(1.0, abs(a[jt])):
                violations.append((int(m), n, float(excess), float(allowed)))
    return FeketeReport(ns=ns, envelope=envelope, violations=violations)


def _ball_side(model: str, spec: DistributionSpec, t: float) -> int:
    """A shape trial's first box radius (FPP) or table corner (LPP); a retry doubles it."""
    if model == "fpp":
        return int(math.ceil(4.0 * t / spec.mean())) + 10
    return int(math.ceil(2.5 * t / spec.mean())) + 8


def _ball_bytes(model: str, spec: DistributionSpec, t: float):
    """Bytes a shape trial holds in d = 2 on its largest box (FPP) or table
    (LPP): its solve, with the last table (LPP), or the scan of a ball that
    fills it, 41 bytes a cell for its coordinates, and 4 KiB a step of the
    radial scan (_radial_reaches) for up to 64 angles."""
    try:
        side = _ball_side(model, spec, t) << _BOX_RETRIES
    except OverflowError:  # t / mean overflows a float
        return math.inf
    cells = (2 * side + 1) ** 2 if model == "fpp" else (side + 1) ** 2
    solve = (_trial_bytes(LatticeBox(2, side)) if model == "fpp"
             else _sweep_bytes((side, side), keep_all=True) + 2 * cells)
    return max(solve, 41 * cells + 4096 * (6 * side + 18))


# the radial scan's step, and how many misses in a row end it
_REACH_STEP = 0.25
_REACH_PATIENCE = 8


def _radial_reaches(pts: np.ndarray, angles) -> np.ndarray:
    """Per angle theta, the largest rho = k _REACH_STEP with [rho theta] in the ball
    of points pts (one row each), scanned outward from the origin (a hit at rho = 0)
    until _REACH_PATIENCE + 1 misses in a row."""
    lo = pts.min(axis=0, initial=0)
    mask = np.zeros(pts.max(axis=0, initial=0) - lo + 3, dtype=bool)  # an empty rim
    mask[tuple((pts - lo + 1).T)] = True
    # [rho theta] lies within sqrt(2) of rho, so past the farthest point's norm
    # + 2 every ray misses, and _REACH_PATIENCE + 1 more steps end it
    far = math.sqrt(int((pts ** 2).sum(axis=1).max(initial=0)))
    k = np.arange(int((far + 2) / _REACH_STEP) + _REACH_PATIENCE + 2)
    units = np.array([(math.cos(a), math.sin(a)) for a in angles]).reshape(-1, 2)
    at = np.floor((k * _REACH_STEP)[:, None, None] * units) - (lo - 1)
    at = np.clip(at, 0, np.array(mask.shape) - 1).astype(np.int64)  # off the mask: its rim
    hit = mask[at[..., 0], at[..., 1]]
    # the last hit so far at each step, rho = 0 counting as one
    last = np.maximum.accumulate(np.where(hit, k[:, None], 0), axis=0)
    stop = np.argmax(k[:, None] - last > _REACH_PATIENCE, axis=0)
    return last[stop, np.arange(len(units))] * _REACH_STEP


def _shape_trial(args):
    """Reaches of one trial's ball B(t) in d = 2, one per angle, and its boundary flag."""
    model, spec, t, seed, angles = args
    side = _ball_side(model, spec, t)
    if model == "fpp":
        (pmap,) = _grown_solve([WeightField(spec, seed, "edge", 2)], side,
                               side << _BOX_RETRIES, time_budget=t)
        box, hit, ball = pmap.box, pmap.boundary_hit, pmap.flat[pmap.settled_times <= t]
        del pmap  # its window goes before the ball is scanned
        pts = box.coords(ball)
    else:
        fld = WeightField(spec, seed, "vertex", 2)
        for attempt in range(_BOX_RETRIES + 1):
            tab = lpp_dp(fld, (side << attempt,) * 2).table
            hit = bool((tab[-1, :] <= t).any() or (tab[:, -1] <= t).any())
            if not hit:
                break
        ball = tab <= t
        del tab  # the table goes before the ball is scanned
        pts = np.argwhere(ball)
    return _radial_reaches(pts, angles), hit


def shape_boundary_estimate(
    model: str,
    spec: DistributionSpec,
    t: float,
    angles,
    trials: int,
    seed: int,
    workers: int = 1,
) -> RadialShapeEstimate:
    """Per-direction radial reach of the rescaled infected region B(t)/t."""
    if trials < 1:
        raise ValueError(f"trials: need at least 1, got {trials}")
    _check_model(model, spec)
    angles = np.asarray(angles, dtype=np.float64)
    if model == "lpp" and (np.any(angles < 0) or np.any(angles > math.pi / 2)):
        raise ValueError("LPP shape angles must lie in [0, pi/2]")
    tag = f"shape:{model}:{spec.token()}:{t}"
    tasks = [(model, spec, float(t), derive_seed(seed, tag, 0, i), angles)
             for i in range(trials)]
    rows, hits = zip(*_map_trials(_shape_trial, tasks, workers, _ball_bytes(model, spec, t)))
    reaches = np.stack(rows) / t
    radii = reaches.mean(axis=0)
    stderrs = reaches.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(angles.size)
    # radial resolution is limited by the lattice cell and the scan step
    quantization = 1.5 / t
    sigmas = np.hypot(stderrs, quantization)
    frac = _convexity_violation_fraction(angles, radii, sigmas, circular=(model == "fpp"))
    return RadialShapeEstimate(
        model=model,
        t=float(t),
        angles=angles,
        radii=radii,
        stderrs=stderrs,
        trials=trials,
        convexity_violation_fraction=frac,
        truncated_trials=sum(hits),
    )


def _convexity_violation_fraction(angles, radii, stderrs, circular: bool) -> float:
    """Fraction of angular triples that turn the wrong way beyond noise."""
    k = angles.size
    if k < 3:
        return 0.0
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    units = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def cross_of(p0, p1, p2):
        a = p1 - p0
        b = p2 - p1
        return a[0] * b[1] - a[1] * b[0]

    idx_triples = range(k) if circular else range(1, k - 1)
    bad = 0
    total = 0
    for j in idx_triples:
        i0, i1, i2 = (j - 1) % k, j, (j + 1) % k
        c = cross_of(pts[i0], pts[i1], pts[i2])
        # first-order noise: bump each radius by its stderr
        var = 0.0
        for ii in (i0, i1, i2):
            bumped = pts.copy()
            bumped[ii] = bumped[ii] + stderrs[ii] * units[ii]
            var += (cross_of(bumped[i0], bumped[i1], bumped[i2]) - c) ** 2
        tol = 3.0 * math.sqrt(var) + 1e-12
        total += 1
        if c < -tol:
            bad += 1
    return bad / total if total else 0.0


# -- flat edge ---------------------------------------------------------------


def _corridor_graph(field: WeightField, lo: int, hi: int):
    """CSR adjacency of the [lo, hi]^2 grid with weights from the field (a test reference)."""
    from scipy.sparse import csr_matrix

    side = hi - lo + 1
    w = field.edge_window((lo, lo), (side, side))
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    # edges along the first axis, then along the second, lower endpoints row-major
    rows = np.concatenate([ids[:-1].ravel(), ids[:, :-1].ravel()])
    cols = np.concatenate([ids[1:].ravel(), ids[:, 1:].ravel()])
    data = np.concatenate([w[0, :-1].ravel(), w[1, :, :-1].ravel()])
    nv = side * side
    return csr_matrix((data, (rows, cols)), shape=(nv, nv))


def _edge_windows(fields, lo: int, side: int) -> np.ndarray:
    """int8 (2, side, side, B) edge weights of [lo, lo + side)^2, trial b from fields[b]."""
    w = np.empty((2, side, side, len(fields)), dtype=np.int8)
    for b, f in enumerate(fields):
        w[..., b] = f.edge_window((lo, lo), (side, side))
    return w


def _margin_windows(fields, inner: np.ndarray, m: int) -> np.ndarray:
    """_edge_windows(fields, -m, n + 2m + 1), given inner = _edge_windows(fields, 0, n + 1).

    Weights are pure functions of (seed, edge), so the [0, n]^2 block is
    copied from inner and only the four margin strips are hashed.
    """
    n = inner.shape[1] - 1
    side = n + 2 * m + 1
    w = np.empty((2, side, side, len(fields)), dtype=np.int8)
    w[:, m : m + n + 1, m : m + n + 1] = inner
    # (lo, shape) of each strip: the rows above and below, then the sides between
    strips = [((-m, -m), (m, side)), ((n + 1, -m), (m, side)),
              ((0, -m), (n + 1, m)), ((0, n + 1), (n + 1, m))]
    for b, f in enumerate(fields):
        for lo, shape in strips:
            rows, cols = (slice(c + m, c + m + k) for c, k in zip(lo, shape))
            w[:, rows, cols, b] = f.edge_window(lo, shape)
    return w


def _twopoint_diag_time(fields, n: int) -> np.ndarray:
    """Exact full-lattice T(0, (n, n)) of several two-point edge fields, one float each.

    The oriented optimum U, over up-right paths in [0, n]^2, bounds T from
    above, and every path takes at least 2n steps of weight 1 or 2.  So
    U = 2n certifies T = 2n with no window solve: on the flat edge the unit
    edges percolate in the oriented sense (Durrett-Liggett 1981).  A path
    with j backward steps takes 2n + 2j steps, so one of time <= U has
    j <= K = floor((U - 2n)/2) and stays in [-K, n+K]^2.  The other trials
    are solved together on the window [-m, n+m]^2, m = K + 1 for the
    batch's largest K, by K backward-step layers of the min-plus sweep
    (lpp._min_plus_2d), a batch of trials at a time: that is T exactly,
    since any path leaving the window takes at least 2n + 2m > U >= T steps.
    The times are integers at most 4n < lpp._SAT, so the uint16 sweep is
    exact.
    """
    if any(f.spec.kind != "twopoint" for f in fields):
        raise ValueError("window solve needs two-point weights 1 and 2")
    inner = _edge_windows(fields, 0, n + 1)
    u = _min_plus_2d(inner)[2 * n + 1, n + 1].copy()  # not a view, which keeps the sweep
    times = u.astype(np.float64)
    slow = np.flatnonzero(u > 2 * n)
    if slow.size:
        k = int(u.max() - 2 * n) // 2
        m = k + 1
        for part in _batches(slow, _batch_trials(_min_plus_bytes(n + 2 * m + 1, k))):
            w = _margin_windows([fields[i] for i in part], inner[..., part], m)
            t = _min_plus_2d(w, m, k)[2 * (n + m) + 1, n + m + 1]
            if not np.all(t < 2 * n + 2 * m):
                raise RuntimeError("window certificate failed; weights suspect")
            times[part] = t
    return times


def _flat_edge_task(n: int) -> tuple:
    """(trials, bytes) of one flat-edge task at n: a batch of [0, n]^2 window
    solves, then with their windows a batch of margin solves, or one at the
    largest margin, m = n + 1 (U = 4n)."""
    probe, margin = _min_plus_bytes(n + 1), _min_plus_bytes(3 * n + 3, n)
    per = _batch_trials(probe)
    return per, per * probe + max(margin, _BATCH_BYTES)


def _flat_edge_batch(args):
    p, n, seeds = args
    spec = two_point(p)
    return _twopoint_diag_time([WeightField(spec, s, "edge", 2) for s in seeds], n)


def flat_edge_probe(p: float, n: int, trials: int, seed: int, workers: int = 1) -> FlatEdgeReport:
    """Diagonal passage-time ratio T(0,(n,n)) / (2n) for two-point weights.

    The ratio is always >= 1 (weights are >= 1 and every path has at least
    2n edges).  Ratios near 1 indicate the diagonal lies on the flat edge of
    the limit shape; ratios bounded away from 1 indicate strict interiority.
    Trials go to the window solve in batches of nearly equal size, sized by
    the min-plus sweep's bytes on [0, n]^2; each trial keeps its own field,
    so the times do not depend on the batching or the workers.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not MIN_FLAT_EDGE_N <= n <= MAX_FLAT_EDGE_N:
        raise ValueError(f"n must lie in [{MIN_FLAT_EDGE_N}, {MAX_FLAT_EDGE_N}], got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tag = f"flat-edge:{p}"
    seeds = [derive_seed(seed, tag, n, i) for i in range(trials)]
    per, need = _flat_edge_task(n)
    tasks = [(float(p), int(n), batch) for batch in _batches(seeds, per)]
    times = np.concatenate(_map_trials(_flat_edge_batch, tasks, workers, need))
    ratios = times / (2.0 * n)
    mean, se = _mean_se(ratios)
    return FlatEdgeReport(
        p=float(p),
        n=int(n),
        trials=trials,
        mean_ratio=mean,
        stderr=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
    )


# -- fluctuation series -------------------------------------------------------


# bootstrap resamples behind each variance's standard error and 95% band
_BOOTSTRAP_RESAMPLES = 1000


def _mean_series(statistic: str, ns, samples: np.ndarray, trunc: dict) -> Series:
    """Per-n mean of samples[n_index, trial] with its standard error."""
    trials = samples.shape[1]
    return Series(
        statistic=statistic,
        ns=ns,
        values=samples.mean(axis=1),
        stderrs=samples.std(axis=1, ddof=1) / math.sqrt(trials),
        trials=trials,
        truncation_warnings=trunc,
    )


def _log_cov(a: np.ndarray, b: np.ndarray) -> float:
    """Sample covariance of log a and log b; NaN unless every value is positive,
    as no log-log fit takes such a series."""
    if a.min() <= 0 or b.min() <= 0:
        return math.nan
    return float(np.cov(np.log(a), np.log(b))[0, 1])


def _variance_series(ns, times: np.ndarray, seed: int, trunc: dict, devs=None):
    """Sample variance of times[n_index, trial] per n, with bootstrap standard
    errors and 95% bands, and with devs also each n's bootstrap covariance of
    the log variance and the log mean of devs over the same resampled trials.

    Returns (variance Series, covariances or None).  Each n resamples its
    trials from its own child seed, so the grid points stay independent.
    """
    trials = times.shape[1]
    boot_se, ci_low, ci_high, log_cov = (np.empty(len(ns)) for _ in range(4))
    for j, n in enumerate(ns):
        rng = np.random.default_rng(derive_seed(seed, "variance-bootstrap", int(n)))
        idx = rng.integers(0, trials, size=(_BOOTSTRAP_RESAMPLES, trials))
        bvars = times[j][idx].var(axis=1, ddof=1)
        boot_se[j] = bvars.std(ddof=1)
        ci_low[j], ci_high[j] = np.percentile(bvars, [2.5, 97.5])
        if devs is not None:
            log_cov[j] = _log_cov(bvars, devs[j][idx].mean(axis=1))
    series = Series(
        statistic="variance",
        ns=ns,
        values=times.var(axis=1, ddof=1),
        stderrs=boot_se,
        trials=trials,
        truncation_warnings=trunc,
        ci_low=ci_low,
        ci_high=ci_high,
    )
    return series, (log_cov if devs is not None else None)


@dataclass
class Fluctuations:
    """Variance and wandering series drawn from one sample set.

    log_cov[j] is the bootstrap covariance of log variance and log mean
    wandering at ns[j], over the variance bootstrap's resampled trials.
    """

    variance: Series
    wandering: Series
    log_cov: np.ndarray

    def fits(self) -> dict:
        """The variance, chi and xi fits (as dicts) and the scaling-relation
        residual with its stderr, which carries Cov(chi, xi): fits.json.

        For fixed fit weights each slope is linear in the log-values,
        slope = sum_n c_n log(value_n), and the grid points are sampled
        independently, so Cov(chi, xi) = 1/2 sum_n a_n b_n Cov(log v_n, log m_n).
        """
        vs, ws = self.variance, self.wandering
        var_fit = fit_exponent(vs.ns, vs.values, vs.stderrs, statistic="variance")
        chi_fit = chi_from_variance_fit(var_fit)
        xi_fit = fit_exponent(ws.ns, ws.values, ws.stderrs, statistic="wandering")
        a = _slope_coefficients(vs.ns, vs.values, vs.stderrs)
        b = _slope_coefficients(ws.ns, ws.values, ws.stderrs)
        cov = float(0.5 * np.sum(a * b * self.log_cov))
        residual, res_se = kpz_residual(chi_fit, xi_fit, cov)
        return {"variance": var_fit.as_dict(), "chi": chi_fit.as_dict(), "xi": xi_fit.as_dict(),
                "kpz_residual": residual, "kpz_residual_stderr": res_se}


def variance_series(
    model: str,
    spec: DistributionSpec,
    direction,
    n_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Series:
    """Sample variance of T(0, [n x]) per n, with bootstrap confidence bands.

    The samples are its own ("variance" tag); fluctuation_series gives the
    same statistic on the wandering samples.
    """
    ns, _targets, times, _devs, trunc = _sample_times(
        model, spec, direction, n_grid, trials, seed, "variance", workers,
        least=MIN_VARIANCE_TRIALS,
    )
    return _variance_series(ns, times, seed, trunc)[0]


def wandering_series(
    model: str,
    spec: DistributionSpec,
    direction,
    n_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Series:
    """Mean geodesic wandering D(0, [n x]) per n."""
    ns, _targets, _times, devs, trunc = _sample_times(
        model, spec, direction, n_grid, trials, seed, "wandering", workers,
        want_geodesic=True, least=MIN_RADIAL_TRIALS,
    )
    return _mean_series("wandering", ns, devs, trunc)


def fluctuation_series(
    model: str,
    spec: DistributionSpec,
    direction,
    n_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Fluctuations:
    """Variance of T(0, [n x]) and mean geodesic wandering per n, one solve a trial.

    Each trial's geodesic solve also gives its passage time, so both series
    come from the same environments, as in the scaling relation chi = 2 xi - 1.
    The samples are wandering_series' own, so the wandering series equals
    that function's; the variance series has variance_series' law and
    bootstrap, on other draws.
    """
    ns, _targets, times, devs, trunc = _sample_times(
        model, spec, direction, n_grid, trials, seed, "wandering", workers,
        want_geodesic=True, least=MIN_VARIANCE_TRIALS,
    )
    return _fluctuations(ns, times, devs, seed, trunc)


def _fluctuations(ns, times, devs, seed, trunc) -> Fluctuations:
    """Both series and their log covariances from times and devs [n_index, trial]."""
    variance, log_cov = _variance_series(ns, times, seed, trunc, devs)
    return Fluctuations(variance, _mean_series("wandering", ns, devs, trunc), log_cov)


def shape_gap_series(
    spec: DistributionSpec,
    direction,
    n_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> Series:
    """Nonrandom fluctuation g([n x]) - E T(0, [n x]) for exactly solvable LPP.

    Only distributions with a closed-form shape qualify; superadditivity
    forces the gap to be nonnegative up to noise.
    """
    shape = exact_shape_for(spec)  # raises for models without an exact g
    ns, targets, times, _devs, trunc = _sample_times(
        "lpp", spec, direction, n_grid, trials, seed, "shape-gap", workers
    )
    gaps = np.empty(len(ns))
    stderrs = np.empty(len(ns))
    for j, tgt in enumerate(targets):
        mean, se = _mean_se(times[j])
        gaps[j] = exact_g(shape, tgt) - mean
        stderrs[j] = se
    return Series(
        statistic="shape-gap",
        ns=ns,
        values=gaps,
        stderrs=stderrs,
        trials=trials,
        truncation_warnings=trunc,
    )


# -- exponent fits ------------------------------------------------------------


def _log_fit_weights(ns, values, errors):
    """(x, y, w, weighted): log n, log value and the fit weights of fit_exponent."""
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ns.size < MIN_FIT_POINTS:
        raise ValueError(f"exponent fits need at least {MIN_FIT_POINTS} points")
    if np.any(values <= 0):
        raise ValueError("exponent fits need strictly positive values")
    if ns.max() / ns.min() < MIN_FIT_SPAN:
        raise ValueError(f"n-grid must span at least a factor of {MIN_FIT_SPAN}")
    x = np.log(ns)
    y = np.log(values)
    if errors is not None:
        errors = np.asarray(errors, dtype=np.float64)
        sig = errors / values
    else:
        sig = np.zeros_like(values)
    weighted = np.any(sig > 0)
    if weighted:
        sig = np.where(sig > 0, sig, sig[sig > 0].min())
        w = 1.0 / sig**2
    else:
        w = np.ones_like(x)
    return x, y, w, weighted


def _slope_coefficients(ns, values, errors=None) -> np.ndarray:
    """c_n with fit_exponent's slope = sum_n c_n log(value_n) at its fit weights."""
    x, _y, w, _weighted = _log_fit_weights(ns, values, errors)
    xc = x - (w * x).sum() / w.sum()
    return w * xc / (w * xc**2).sum()


def fit_exponent(ns, values, errors=None, statistic: str = "generic") -> ExponentFit:
    """Weighted least-squares slope of log(value) against log(n).

    Weights are inverse variances of log(value) via the delta method; with
    no (or zero) errors the fit is ordinary least squares and the slope
    error comes from the residuals, so exact power laws report zero error.
    """
    x, y, w, weighted = _log_fit_weights(ns, values, errors)
    ns = np.asarray(ns, dtype=np.float64)
    wsum = w.sum()
    xbar = (w * x).sum() / wsum
    ybar = (w * y).sum() / wsum
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    if weighted:
        slope_se = math.sqrt(1.0 / sxx)
    else:
        resid = y - (intercept + slope * x)
        dof = ns.size - 2
        slope_se = math.sqrt((resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return ExponentFit(
        statistic=statistic,
        slope=float(slope),
        intercept=float(intercept),
        slope_stderr=float(slope_se),
        n_range=(int(ns.min()), int(ns.max())),
    )


def chi_from_variance_fit(fit: ExponentFit) -> ExponentFit:
    """Halve a variance-series slope: Var T ~ n^(2 chi)."""
    if fit.statistic not in ("variance", "generic"):
        raise ValueError(f"expected a variance fit, got statistic {fit.statistic!r}")
    return ExponentFit(
        statistic="chi",
        slope=fit.slope / 2.0,
        intercept=fit.intercept / 2.0,
        slope_stderr=fit.slope_stderr / 2.0,
        n_range=fit.n_range,
    )


def kpz_residual(chi_fit: ExponentFit, xi_fit: ExponentFit, cov: float = 0.0):
    """chi - (2 xi - 1) with first-order error propagation.

    The scaling relation predicts zero; the pair (1/3, 2/3) satisfies it
    exactly, as does the bound pair (1/2, 3/4).  cov is Cov(chi, xi), zero
    for fits of independent samples (Fluctuations.fits otherwise):
    Var = Var(chi) + 4 Var(xi) - 4 Cov(chi, xi).
    """
    chi = chi_from_variance_fit(chi_fit) if chi_fit.statistic == "variance" else chi_fit
    if chi.statistic not in ("chi", "generic"):
        raise ValueError(f"unexpected statistic {chi.statistic!r} for chi")
    residual = chi.slope - (2.0 * xi_fit.slope - 1.0)
    var = chi.slope_stderr**2 + 4.0 * xi_fit.slope_stderr**2 - 4.0 * cov
    # the variances come from the fit weights and cov from a bootstrap, so a
    # near-perfect coupling could leave var slightly below zero
    return float(residual), math.sqrt(max(var, 0.0))
