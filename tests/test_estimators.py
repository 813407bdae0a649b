import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticegrow import (
    ExactShape,
    SubadditiveSequence,
    chi_from_variance_fit,
    constant,
    estimate_radial_g,
    exact_g,
    exponential,
    fekete_envelope,
    fit_exponent,
    flat_edge_probe,
    fluctuation_series,
    geometric,
    kpz_residual,
    shape_boundary_estimate,
    shape_gap_series,
    two_point,
    uniform,
    variance_series,
    wandering_series,
)
from latticegrow import experiments
from latticegrow import estimators
from latticegrow.estimators import (
    ExponentFit,
    _corridor_graph,
    _edge_windows,
    _margin_windows,
    _sample_times,
    _twopoint_diag_time,
)
from latticegrow.fpp import (LatticeBox, _first_radius, _point_task, fpp_dijkstra, fpp_geodesic,
                             max_distance_to_segment)
from latticegrow.lpp import _SAT, _min_plus_2d, _min_plus_bytes, _sweep_bytes, lpp_dp, lpp_geodesic
from latticegrow.weights import WeightField, derive_seed, parse_dist_token

from fpp_heap import heap_solve


def _seq(ns, means, stderrs=None, trials=100):
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(means, dtype=float)
    if stderrs is None:
        stderrs = np.zeros_like(means)
    return SubadditiveSequence(
        statistic="synthetic", ns=ns, values=means,
        stderrs=np.asarray(stderrs, dtype=float), trials=trials,
    )


# -- radial g ---------------------------------------------------------------------

def test_radial_g_constant_fpp_exact():
    seq = estimate_radial_g("fpp", constant(1.0), (1, 0), [2, 4, 8], trials=5, seed=1)
    assert np.array_equal(seq.values, np.ones(3))
    assert np.array_equal(seq.stderrs, np.zeros(3))
    assert not seq.truncation_warnings


def test_radial_g_lpp_exponential_increases_toward_four():
    seq = estimate_radial_g("lpp", exponential(1.0), (1, 1), [4, 16, 48], trials=80, seed=3)
    assert seq.values[0] < seq.values[-1] <= 4.0 + 2 * seq.stderrs[-1]


def test_radial_g_lpp_geometric_approaches_formula():
    g_diag = exact_g(ExactShape("geometric", p=0.5), (1.0, 1.0))
    seq = estimate_radial_g("lpp", geometric(0.5), (1, 1), [8, 32], trials=80, seed=5)
    assert seq.values[-1] <= g_diag + 2 * seq.stderrs[-1]
    assert seq.values[-1] >= 0.8 * g_diag


def test_radial_g_rejects_bad_inputs():
    with pytest.raises(ValueError):
        estimate_radial_g("lpp", exponential(1.0), (1, -1), [4, 8], 10, 0)
    with pytest.raises(ValueError):
        estimate_radial_g("fpp", constant(0.0), (1, 0), [4, 8], 10, 0)
    with pytest.raises(ValueError):
        estimate_radial_g("fpp", exponential(1.0), (0.1, 0.1), [2], 10, 0)  # floors to 0
    with pytest.raises(ValueError):
        estimate_radial_g("mpp", exponential(1.0), (1, 0), [4], 10, 0)


def test_radial_g_symmetry_between_axes():
    a = estimate_radial_g("lpp", exponential(1.0), (1, 0), [8, 16], trials=100, seed=9)
    b = estimate_radial_g("lpp", exponential(1.0), (0, 1), [8, 16], trials=100, seed=10)
    for j in range(2):
        comb = math.hypot(a.stderrs[j], b.stderrs[j])
        assert abs(a.values[j] - b.values[j]) <= 3 * comb


def test_radial_g_accepts_twopoint_fpp():
    # atomic weights with both values positive qualify for FPP estimation
    seq = estimate_radial_g("fpp", two_point(0.8), (1, 0), [4, 8], trials=20, seed=2)
    assert np.all(seq.values >= 1.0)  # weights are at least 1


def test_radial_g_fpp_symmetry_between_axes():
    a = estimate_radial_g("fpp", uniform(0.5, 1.5), (1, 0), [4, 8], trials=60, seed=21)
    b = estimate_radial_g("fpp", uniform(0.5, 1.5), (0, 1), [4, 8], trials=60, seed=22)
    for j in range(2):
        comb = math.hypot(a.stderrs[j], b.stderrs[j])
        assert abs(a.values[j] - b.values[j]) <= 3 * comb


# -- Fekete envelope -----------------------------------------------------------------

def test_envelope_linear_sequence_constant():
    rep = fekete_envelope(_seq([1, 2, 4, 8], [1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(rep.envelope, np.ones(4))
    assert rep.violations == []


def test_envelope_sqrt_correction_decreases():
    ns = np.array([1, 2, 4, 8, 16, 32])
    means = (ns + np.sqrt(ns)) / ns
    rep = fekete_envelope(_seq(ns, means))
    assert np.array_equal(rep.envelope, means)  # already decreasing
    assert np.all(np.diff(rep.envelope) < 0)
    assert rep.violations == []


def test_envelope_flags_genuine_superadditive_growth():
    # a_n = n^2 is superadditive: a_{m+n} > a_m + a_n, far beyond zero noise
    ns = np.array([1, 2, 3, 4, 6, 8])
    means = ns.astype(float)  # a_n = n^2 so a_n / n = n
    rep = fekete_envelope(_seq(ns, means, stderrs=np.full(6, 1e-6)))
    assert rep.violations


def test_envelope_negated_lpp_series_decreases_toward_minus_four():
    seq = estimate_radial_g("lpp", exponential(1.0), (1, 1), [4, 8, 16, 32], trials=60, seed=7)
    neg = _seq(seq.ns, -seq.values, seq.stderrs, seq.trials)
    rep = fekete_envelope(neg)
    assert np.all(np.diff(rep.envelope) <= 0)
    assert rep.envelope[-1] >= -4.0 - 3 * seq.stderrs[-1]
    assert rep.violations == []


# -- shape boundary ---------------------------------------------------------------

def test_shape_boundary_constant_weights_is_l1_ball():
    t = 12.0
    angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    est = shape_boundary_estimate("fpp", constant(1.0), t, angles, trials=2, seed=0)
    # the l1 unit ball has radial reach 1 / (|cos| + |sin|)
    expect = 1.0 / (np.abs(np.cos(angles)) + np.abs(np.sin(angles)))
    assert np.all(np.abs(est.radii - expect) <= 2.5 / t)
    assert est.convexity_violation_fraction == 0.0
    assert est.truncated_trials == 0


def test_shape_boundary_lpp_exponential_matches_exact_curve():
    # B(t)/t overshoots the limit shape by an n^(-2/3) correction that is
    # large at reachable t but nearly direction-uniform, so the angular
    # profile normalized at the diagonal is the finite-t fingerprint of the
    # limit curve 1 / (sqrt(cos) + sqrt(sin))^2
    t = 24.0
    angles = np.linspace(0.3, math.pi / 2 - 0.3, 9)
    est = shape_boundary_estimate("lpp", exponential(1.0), t, angles, trials=40, seed=4)
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    g_unit = np.array([exact_g(ExactShape("exponential"), u) for u in unit])
    expect = 1.0 / g_unit
    mid = len(angles) // 2
    profile = est.radii / est.radii[mid]
    profile_limit = expect / expect[mid]
    assert np.all(np.abs(profile - profile_limit) <= 0.05 + 3 * est.stderrs / est.radii[mid])
    # approach is from outside and bounded
    assert np.all(est.radii >= expect)
    assert np.all(est.radii <= 1.6 * expect)
    # symmetric directions agree within 3 combined standard errors
    for j in range(len(angles) // 2):
        k = len(angles) - 1 - j
        comb = math.hypot(est.stderrs[j], est.stderrs[k]) + 1e-3
        assert abs(est.radii[j] - est.radii[k]) <= 3 * comb


@pytest.mark.parametrize("model,token,side", [("fpp", "unif:0.5:1.5", 40), ("fpp", "exp:1.0", 60),
                                             ("lpp", "exp:1.0", 60), ("lpp", "unif:0.5:1.5", 150)])
def test_shape_trial_allocates_within_its_count(monkeypatch, model, token, side):
    # a ball that fills every box: the trial grows to its largest box, then
    # scans it whole; tracemalloc's peak stays within _ball_bytes
    import tracemalloc

    spec = parse_dist_token(token)
    monkeypatch.setattr(estimators, "_ball_side", lambda model, spec, t: side)
    angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    tracemalloc.start()
    try:
        _reaches, hit = estimators._shape_trial((model, spec, 1e9, 3, angles))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit and peak <= estimators._ball_bytes(model, spec, 1e9)


def test_shape_boundary_rejects_bad_angles():
    with pytest.raises(ValueError):
        shape_boundary_estimate("lpp", exponential(1.0), 5.0, [0.1, 2.0], 2, 0)


@pytest.mark.parametrize("model", ["fpp", "lpp"])
def test_shape_boundary_needs_a_trial(model):
    with pytest.raises(ValueError, match="^trials: need at least 1, got 0$"):
        shape_boundary_estimate(model, exponential(1.0), 5.0, [0.1], 0, 0)


def _set_scan_reach(ball: set, theta):
    """The ray scan through a set of points that the shape trials ran before the
    mask scan, kept as its reference."""
    step, patience = estimators._REACH_STEP, estimators._REACH_PATIENCE
    cx, cy = math.cos(theta), math.sin(theta)
    rho = 0.0
    last_hit = 0.0
    misses = 0
    while misses <= patience:
        rho += step
        v = (math.floor(rho * cx), math.floor(rho * cy))
        if v in ball:
            last_hit = rho
            misses = 0
        else:
            misses += 1
    return last_hit


_SCAN_ANGLES = np.concatenate([[0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                               np.linspace(0.0, math.pi / 2, 33),
                               np.linspace(0.0, 2 * math.pi, 64, endpoint=False)])


def _mask_scan_reaches(ball: set, angles=_SCAN_ANGLES):
    pts = np.array(sorted(ball), dtype=np.int64).reshape(-1, 2)
    reaches = estimators._radial_reaches(pts, angles)
    assert reaches.tolist() == [_set_scan_reach(ball, th) for th in angles]
    return reaches


def _ray_with_gap(theta, gap):
    """The ray's points [k step theta], k = 1..79, and the origin, bar the points of
    `gap` steps in a row after step a; returns (ball, a)."""
    step = estimators._REACH_STEP
    c, s = math.cos(theta), math.sin(theta)
    ray = [(math.floor(k * step * c), math.floor(k * step * s)) for k in range(1, 80)]
    # a point's steps are consecutive, so a gap between two point changes
    # removes whole points
    changes = {k for k in range(1, len(ray)) if ray[k] != ray[k - 1]}
    a = min(k for k in changes if k >= 8 and k + gap in changes)
    return {(0, 0), *ray} - set(ray[a:a + gap]), a


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.0])
def test_mask_scan_crosses_a_gap_of_patience_misses_and_stops_after_one_more(theta):
    patience, step = estimators._REACH_PATIENCE, estimators._REACH_STEP
    ball, a = _ray_with_gap(theta, patience)
    assert _mask_scan_reaches(ball, [theta])[0] > (a + patience) * step
    ball, a = _ray_with_gap(theta, patience + 1)
    assert _mask_scan_reaches(ball, [theta])[0] == a * step


def test_mask_scan_equals_the_set_scan_on_crafted_balls():
    r = range(-9, 10)
    disc = {(x, y) for x in r for y in r if x * x + y * y <= 81}
    balls = {
        "holes": {(x, y) for x, y in disc if (7 * x + 3 * y) % 5},
        "square": {(x, y) for x in range(-6, 7) for y in range(-6, 7)},
        "quadrant": {(x, y) for x in range(11) for y in range(11)},
        "diamond": {(x, y) for x in r for y in r if abs(x) + abs(y) <= 9},
        "off-origin": {(x, y) for x in range(2, 8) for y in range(-2, 4)},
    }
    for name, ball in balls.items():
        reaches = _mask_scan_reaches(ball)
        assert reaches.max() > 0, name
    assert _mask_scan_reaches({(0, 0)})[0] == 0.75  # [rho] = (0, 0) for rho < 1 at angle 0
    assert not _mask_scan_reaches(set()).any()
    assert estimators._radial_reaches(np.zeros((0, 2), dtype=np.int64), []).shape == (0,)


def test_convexity_diagnostic_flags_a_star_and_passes_a_disc():
    angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    sigmas = np.full(16, 1e-3)
    star = np.where(np.arange(16) % 2, 0.4, 1.0)
    frac = estimators._convexity_violation_fraction(angles, star, sigmas, circular=True)
    assert frac == 0.5  # every inner point turns the wrong way
    disc = np.ones(16)
    assert estimators._convexity_violation_fraction(angles, disc, sigmas, circular=True) == 0.0


# -- flat edge ----------------------------------------------------------------------

def test_flat_edge_ratio_never_below_one():
    rep = flat_edge_probe(0.7, 50, trials=8, seed=2)
    assert rep.mean_ratio >= 1.0
    assert rep.n == 50 and rep.trials == 8


def test_flat_edge_dichotomy_small_n():
    hi = flat_edge_probe(0.85, 60, trials=10, seed=3)
    lo = flat_edge_probe(0.55, 60, trials=10, seed=3)
    assert hi.mean_ratio < lo.mean_ratio


def test_flat_edge_rejects_bad_parameters():
    with pytest.raises(ValueError):
        flat_edge_probe(1.2, 100, 5, 0)
    with pytest.raises(ValueError):
        flat_edge_probe(0.8, 10, 5, 0)
    with pytest.raises(ValueError, match="trials"):
        flat_edge_probe(0.8, 50, 0, 0)


def _diag_time_doubling(field, n, margin=32):
    """The window solver that the oriented certificate replaced: doubling margins."""
    from scipy.sparse.csgraph import dijkstra

    m = margin
    while True:
        side = n + 2 * m + 1
        dist = dijkstra(_corridor_graph(field, -m, n + m), directed=False, indices=m * side + m)
        t = float(dist[(n + m) * side + n + m])
        if t < 2 * n + 2 * m:
            return t
        assert m <= 4 * n + 64
        m *= 2


def _diag_u(field, n):
    """The oriented bound U of one field, from the min-plus sweep on [0, n]^2."""
    return _min_plus_2d(_edge_windows([field], 0, n + 1))[2 * n + 1, n + 1, 0]


@pytest.mark.parametrize("n", [50, 120])
@pytest.mark.parametrize("p", [0.3, 0.45, 0.55, 0.65, 0.8])
def test_flat_edge_time_matches_doubling_window(p, n):
    # seven trials at p, plus one that is on the flat edge and one that is
    # not, so every batch mixes U = 2n with U > 2n and the margins differ
    fields = [WeightField(two_point(p), derive_seed(7, "flat-window", p, n, i), "edge", 2)
              for i in range(7)]
    fields += [WeightField(two_point(q), derive_seed(7, "flat-mix", q, n), "edge", 2)
               for q in (0.95, 0.45)]
    us = [_diag_u(f, n) for f in fields]
    assert min(us) == 2 * n < max(us)
    times = _twopoint_diag_time(fields, n)
    assert times.dtype == np.float64
    assert list(times) == [_diag_time_doubling(f, n) for f in fields]


@pytest.mark.parametrize("p,seed,t,u", [
    (0.55, 0, 104.0, 104.0),   # T == U > 2n
    (0.8, 0, 100.0, 100.0),    # U == 2n certifies T with no window
    (0.45, 91, 112.0, 114.0),  # T < U: a path that steps back beats every oriented one
    (0.3, 148, 128.0, 129.0),
])
def test_flat_edge_oriented_bound_cases(p, seed, t, u):
    n = 50
    fld = WeightField(two_point(p), seed, "edge", 2)
    assert _diag_u(fld, n) == u
    assert _diag_time_doubling(fld, n) == t
    assert _twopoint_diag_time([fld], n)[0] == t


@pytest.mark.parametrize("m", [1, 2, 5, 13])
@pytest.mark.parametrize("slow", [[0, 1, 2], [1], [0, 2]])
def test_margin_windows_equal_the_whole_window(m, slow):
    # the second window copies the slow trials' [0, n]^2 block from the first
    # and hashes only its margin strips; one slow trial is a batch of one
    n = 20
    fields = [WeightField(two_point(0.55), derive_seed(5, "margin", i), "edge", 2)
              for i in range(3)]
    inner = _edge_windows(fields, 0, n + 1)
    sub = [fields[i] for i in slow]
    got = _margin_windows(sub, inner[..., slow], m)
    assert got.dtype == np.int8
    assert np.array_equal(got, _edge_windows(sub, -m, n + 2 * m + 1))


def test_flat_edge_rejects_other_weights():
    with pytest.raises(ValueError, match="two-point"):
        _twopoint_diag_time([WeightField(geometric(0.5), 1, "edge", 2)], 50)


def _spy_batches(monkeypatch, run=True):
    """Record the batch sizes flat_edge_probe sends; with run=False skip the solves."""
    sizes = []
    map_trials = estimators._map_trials

    def spy(fn, tasks, workers, task_bytes):
        sizes.append([len(task[2]) for task in tasks])
        if run:
            return map_trials(fn, tasks, workers, task_bytes)
        return [np.full(len(task[2]), 100.0) for task in tasks]

    monkeypatch.setattr(estimators, "_map_trials", spy)
    return sizes


def test_flat_edge_probe_independent_of_batching_and_workers(monkeypatch):
    sizes = _spy_batches(monkeypatch)
    reports = []
    # at n = 50 the default batch holds all 20 trials, four trials' window
    # solves on [0, n]^2 hold 4
    four = 4 * _min_plus_bytes(51)
    for workers, budget in [(1, None), (1, 1), (1, 1 << 30), (2, 1), (2, four)]:
        if budget is not None:
            monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
        reports.append(flat_edge_probe(0.55, 50, 20, 4, workers=workers))
    assert sizes == [[20], [1] * 20, [20], [1] * 20, [4] * 5]
    assert all(r == reports[0] for r in reports)


def test_flat_edge_batches_split_evenly(monkeypatch):
    sizes = _spy_batches(monkeypatch, run=False)
    monkeypatch.setattr(estimators, "_flat_edge_task", lambda n: (6, 1))
    flat_edge_probe(0.55, 50, 20, 4)
    flat_edge_probe(0.55, 50, 6, 4)
    assert sizes == [[5, 5, 5, 5], [6]]


def _back_step_reference(w, source, rounds):
    """Least time over grid paths from (source, source) with at most `rounds` backward steps.

    Bellman-Ford on (cell, backward steps used) pairs, one cell at a time,
    until no time changes; unreached cells stay inf.
    """
    size = w.shape[1]
    inf = math.inf
    d = [[[inf] * size for _ in range(size)] for _ in range(rounds + 1)]
    d[0][source][source] = 0.0
    changed = True
    while changed:
        changed = False
        for r in range(rounds + 1):
            for i in range(size):
                for j in range(size):
                    # (neighbour, edge weight, layer the step comes from)
                    steps = []
                    if i:
                        steps.append(((i - 1, j), w[0, i - 1, j], r))
                    if j:
                        steps.append(((i, j - 1), w[1, i, j - 1], r))
                    if r and i + 1 < size:
                        steps.append(((i + 1, j), w[0, i, j], r - 1))
                    if r and j + 1 < size:
                        steps.append(((i, j + 1), w[1, i, j], r - 1))
                    best = d[r - 1][i][j] if r else inf
                    for (a, b), wt, layer in steps:
                        best = min(best, d[layer][a][b] + wt)
                    if best < d[r][i][j]:
                        d[r][i][j] = best
                        changed = True
    return np.array(d[rounds])


@pytest.mark.parametrize("source,rounds", [(0, 0), (0, 2), (4, 0), (4, 1), (4, 3), (2, 12)])
def test_back_step_sweep_matches_per_cell_bellman_ford(source, rounds):
    n = 9
    fields = [WeightField(two_point(0.5), seed, "edge", 2) for seed in (3, 4)]
    w = _edge_windows(fields, -2, n + 1)
    t = _min_plus_2d(w, source, rounds)
    assert t.dtype == np.uint16 and t.shape == (2 * n + 3, n + 3, 2)
    for b in range(2):
        ref = _back_step_reference(w[..., b].astype(np.float64), source, rounds)
        got = np.array([[t[i + j + 1, i + 1, b] for j in range(n + 1)] for i in range(n + 1)],
                       dtype=np.float64)
        got[got == _SAT] = math.inf
        assert np.array_equal(got, ref)
        # the cells off the grid keep the sentinel
        mask = np.ones(t.shape[:2], dtype=bool)
        for i in range(n + 1):
            mask[i + 1 : i + n + 2, i + 1] = False
        assert np.all(t[mask, b] == _SAT)


def test_min_plus_matches_per_cell_loop():
    n = 9
    fld = WeightField(two_point(0.5), 3, "edge", 2)
    w = fld.edge_window((0, 0), (n + 1, n + 1))
    u = np.full((n + 1, n + 1), math.inf)
    u[0, 0] = 0.0
    for i in range(n + 1):
        for j in range(n + 1):
            if i:
                u[i, j] = min(u[i, j], u[i - 1, j] + w[0, i - 1, j])
            if j:
                u[i, j] = min(u[i, j], u[i, j - 1] + w[1, i, j - 1])
    assert _diag_u(fld, n) == u[n, n]


# -- variance and wandering series -----------------------------------------------------

def test_variance_constant_weights_zero():
    vs = variance_series("fpp", constant(1.0), (1, 0), [2, 4], trials=200, seed=1)
    assert np.array_equal(vs.values, np.zeros(2))


def test_variance_axis_lpp_matches_iid_sum():
    # T(0,(n,0)) is a sum of n i.i.d. weights, so Var = n sigma^2
    spec = uniform(0.5, 1.5)
    n = 64
    vs = variance_series("lpp", spec, (1, 0), [n], trials=400, seed=6)
    expected = n * spec.variance()
    assert vs.ci_low[0] <= expected <= vs.ci_high[0]


def test_variance_requires_enough_trials():
    with pytest.raises(ValueError):
        variance_series("lpp", exponential(1.0), (1, 1), [8], trials=50, seed=0)


@pytest.mark.parametrize("model", ["fpp", "lpp"])
def test_point_samples_need_a_trial(model):
    with pytest.raises(ValueError, match="trials"):
        wandering_series(model, exponential(1.0), (1, 1), [4], trials=0, seed=0)


def test_wandering_needs_two_trials():
    # one sample has no standard error: its std(ddof=1) warns and is NaN
    with pytest.raises(ValueError, match="trials"):
        wandering_series("lpp", exponential(1.0), (1, 1), [4], trials=1, seed=0)


def test_wandering_one_step_is_zero():
    # a one-step geodesic lies on its own segment
    ws = wandering_series("lpp", exponential(1.0), (1, 0), [1, 8], trials=30, seed=2)
    assert np.array_equal(ws.values, np.zeros(2))  # axis paths are unique
    ws = wandering_series("lpp", exponential(1.0), (1, 1), [8], trials=30, seed=2)
    assert ws.values[0] > 0.0


def test_lpp_samples_independent_of_batching_and_workers(monkeypatch):
    # batched sweeps give every trial the times and wandering of its own
    # unbatched solve, whatever the batch budget or the worker count
    args = ("lpp", exponential(1.0), (1, 0.5), [6, 12, 20], 9, 31, "batch-test")
    runs = []
    for workers, budget in [(1, 16 << 20), (2, 16 << 20), (1, 2 * _sweep_bytes((12, 6))), (2, 1)]:
        monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
        runs.append(_sample_times(*args, workers, want_geodesic=True))
    ns, targets, times, devs, _ = runs[0]
    for run in runs[1:]:
        assert np.array_equal(run[2], times) and np.array_equal(run[3], devs)
    full_tag = f"batch-test:lpp:{exponential(1.0).token()}:{(1.0, 0.5)}"
    for j, (n, tgt) in enumerate(zip(ns, targets)):
        for i in range(9):
            fld = WeightField(exponential(1.0), derive_seed(31, full_tag, n, i), "vertex", 2)
            lmap = lpp_dp(fld, tgt)
            path = lpp_geodesic(lmap, tgt)
            pts = np.asarray((path.start,) + path.vertices, dtype=np.float64)
            assert times[j, i] == lmap.time_to(tgt)
            assert devs[j, i] == max_distance_to_segment(pts, np.zeros(2), np.asarray(tgt, float))


@pytest.mark.parametrize("token,loop", [("unif:0.5:1.5", "bucket"), ("unif:0.5:1.5", "heap"),
                                        ("exp:1.0", "bucket"), ("exp:1.0", "heap")])
def test_fpp_samples_independent_of_batching_and_workers(monkeypatch, token, loop):
    # trials solved in lock step get the times, wandering and flags of their
    # own solve on the box they grow to, whatever the batch budget or the
    # worker count; that solve is fpp_dijkstra, or the tests' reference heap
    solve = heap_solve if loop == "heap" else fpp_dijkstra
    spec = parse_dist_token(token)
    args = ("fpp", spec, (1, 0.5), [6, 12, 20], 9, 31, "batch-test")
    runs, per = [], []
    for workers, budget in [(1, 16 << 20), (2, 16 << 20), (1, 700000), (2, 1)]:
        monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
        per.append([_point_task(tgt, exponential(1.0))[0] for tgt in [(6, 3), (12, 6), (20, 10)]])
        runs.append(_sample_times(*args, workers, want_geodesic=True))
    # one batch a point, mixed batches, and one trial a solve: first boxes of
    # 47^2, 71^2 and 101^2 padded vertices at 61 bytes, and 16 KiB, which
    # size the tasks of a law of least weight 0
    assert per == [[111, 51, 26], [111, 51, 26], [4, 2, 1], [1, 1, 1]]
    ns, targets, times, devs, trunc = runs[0]
    for run in runs[1:]:
        assert np.array_equal(run[2], times) and np.array_equal(run[3], devs) and run[4] == trunc
    full_tag = f"batch-test:fpp:{spec.token()}:{(1.0, 0.5)}"
    hits = {}
    for j, (n, tgt) in enumerate(zip(ns, targets)):
        base = _first_radius(tgt)
        for i in range(9):
            fld = WeightField(spec, derive_seed(31, full_tag, n, i), "edge", 2)
            r = base
            while True:
                pmap = solve(fld, (0, 0), LatticeBox(2, r), target=tgt)
                if not pmap.boundary_hit or r == base << 2:
                    break
                r *= 2
            pts = np.asarray(fpp_geodesic(pmap, tgt).vertices, dtype=np.float64)
            assert times[j, i] == pmap.time_to(tgt)
            assert devs[j, i] == max_distance_to_segment(pts, np.zeros(2), np.asarray(tgt, float))
            hits[int(n)] = hits.get(int(n), 0) + pmap.boundary_hit
    assert trunc == {n: c for n, c in hits.items() if c}


@pytest.mark.parametrize("spec", [two_point(0.5), geometric(0.7)], ids=lambda s: s.token())
@pytest.mark.parametrize("direction", [(2, 1), (1, 2), (1, 1)], ids=["tall", "wide", "diagonal"])
def test_lpp_decision_byte_samples_match_table_backtrack(spec, direction):
    # ties are common under discrete laws; direction 2,1 takes the transposed sweep
    ns, targets, times, devs, _ = _sample_times("lpp", spec, direction, [3, 8, 17], 6, 5,
                                                "ties", 1, want_geodesic=True)
    full_tag = f"ties:lpp:{spec.token()}:{tuple(float(c) for c in direction)}"
    for j, (n, tgt) in enumerate(zip(ns, targets)):
        for i in range(6):
            fld = WeightField(spec, derive_seed(5, full_tag, n, i), "vertex", 2)
            lmap = lpp_dp(fld, tgt)
            path = lpp_geodesic(lmap, tgt)
            pts = np.asarray((path.start,) + path.vertices, dtype=np.float64)
            assert times[j, i] == lmap.time_to(tgt)
            assert devs[j, i] == max_distance_to_segment(pts, np.zeros(2), np.asarray(tgt, float))


def test_wandering_constant_fpp_axis_zero():
    ws = wandering_series("fpp", constant(1.0), (1, 0), [2, 4, 8], trials=5, seed=2)
    assert np.array_equal(ws.values, np.zeros(3))


# -- variance and wandering from shared samples -----------------------------------------

_SHARED = ("lpp", uniform(0.5, 1.5), (2, 1), [4, 8, 16], 200, 19)


def _same_series(a, b):
    # Series holds arrays, so compare field by field
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y), f.name


def test_fluctuation_wandering_is_wandering_series():
    _same_series(fluctuation_series(*_SHARED).wandering, wandering_series(*_SHARED))


def test_fluctuation_variance_is_the_shared_helper_on_the_same_times():
    model, spec, direction, grid, trials, seed = _SHARED
    ns, _targets, times, devs, trunc = _sample_times(model, spec, direction, grid, trials,
                                                     seed, "wandering", 1, want_geodesic=True)
    fl = fluctuation_series(*_SHARED)
    vs, log_cov = estimators._variance_series(ns, times, seed, trunc, devs)
    _same_series(fl.variance, vs)
    assert np.array_equal(fl.log_cov, log_cov)
    # variance_series is the same helper on samples of its own
    ns, _targets, times, _devs, trunc = _sample_times(model, spec, direction, grid, trials,
                                                      seed, "variance", 1)
    _same_series(variance_series(*_SHARED), estimators._variance_series(ns, times, seed, trunc)[0])


def test_fluctuation_series_independent_of_batching_and_workers(monkeypatch):
    runs = []
    for workers, budget in [(1, 16 << 20), (2, 16 << 20), (1, 2400), (1, 1)]:
        monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
        runs.append(fluctuation_series(*_SHARED, workers=workers))
    for fl in runs[1:]:
        _same_series(fl.variance, runs[0].variance)
        _same_series(fl.wandering, runs[0].wandering)
        assert np.array_equal(fl.log_cov, runs[0].log_cov)


def test_fluctuation_series_needs_variance_trials():
    with pytest.raises(ValueError, match="trials"):
        fluctuation_series("lpp", exponential(1.0), (1, 1), [8], trials=50, seed=0)


def test_fluctuation_axis_has_no_log_covariance():
    # axis geodesics never wander, so no log is taken and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fl = fluctuation_series("lpp", exponential(1.0), (1, 0), [4, 8], trials=200, seed=3)
    assert np.array_equal(fl.wandering.values, np.zeros(2))
    assert np.isnan(fl.log_cov).all()


@pytest.mark.parametrize("n", [16, 32])
def test_lpp_corner_times_same_law_under_both_tags(n):
    # variance now reads the times of the wandering sweep; both tags draw
    # T(0, (n, n)) from the same law (seed fixed before the first run)
    from scipy.stats import ks_2samp

    args = ("lpp", exponential(1.0), (1, 1), [n], 400, 20261019)
    variance = _sample_times(*args, "variance", 1)[2][0]
    wandering = _sample_times(*args, "wandering", 1, want_geodesic=True)[2][0]
    assert ks_2samp(variance, wandering).pvalue >= 0.001


def _kpz_stderrs(times, devs, seed):
    """(stderr with the shared-sample covariance, stderr without it, the fits)."""
    ns = np.array([8, 16, 32, 64, 128])
    fl = estimators._fluctuations(ns, times, devs, seed, {})
    fits = fl.fits()
    old = math.hypot(fits["chi"]["slope_stderr"], 2 * fits["xi"]["slope_stderr"])
    return fits["kpz_residual_stderr"], old, fl


def _refit_stderr(ns, times, devs, seed, fl):
    """Bootstrap stderr of chi - 2 xi, refitting both slopes on every resample of
    the variance bootstrap's trials, at the fit weights of the full sample."""
    vs, ws = fl.variance, fl.wandering
    k, trials = times.shape
    v = np.empty((estimators._BOOTSTRAP_RESAMPLES, k))
    m = np.empty_like(v)
    for j, n in enumerate(ns):
        rng = np.random.default_rng(derive_seed(seed, "variance-bootstrap", int(n)))
        idx = rng.integers(0, trials, size=(estimators._BOOTSTRAP_RESAMPLES, trials))
        v[:, j] = times[j][idx].var(axis=1, ddof=1)
        m[:, j] = devs[j][idx].mean(axis=1)
    residuals = [fit_exponent(ns, vb, vs.stderrs * vb / vs.values).slope / 2
                 - 2 * fit_exponent(ns, mb, ws.stderrs * mb / ws.values).slope
                 for vb, mb in zip(v, m)]
    return float(np.std(residuals, ddof=1))


def _synthetic_times(rng, ns, trials):
    # Var T ~ n^(2/3), as chi = 1/3
    return ns[:, None] ** (1 / 3) * rng.standard_normal((ns.size, trials))


def test_kpz_stderr_of_independent_samples_is_the_old_formula():
    ns = np.array([8, 16, 32, 64, 128])
    rng = np.random.default_rng(41)
    times = _synthetic_times(rng, ns, 400)
    devs = ns[:, None] ** (2 / 3) * rng.exponential(size=times.shape)
    shared, old, _fl = _kpz_stderrs(times, devs, 5)
    # the bootstrap covariance of independent samples is noise
    assert shared == pytest.approx(old, rel=0.02)


def test_kpz_stderr_of_coupled_samples_matches_per_resample_refit():
    ns = np.array([8, 16, 32, 64, 128])
    times = _synthetic_times(np.random.default_rng(42), ns, 400)
    devs = times**2  # mean of devs tracks the variance: xi ~ 2 chi, strongly coupled
    shared, old, fl = _kpz_stderrs(times, devs, 6)
    ref = _refit_stderr(ns, times, devs, 6, fl)
    # the fits' delta-method variances differ from a bootstrap's by a few per cent
    assert shared == pytest.approx(ref, rel=0.05)
    assert old > 1.2 * ref  # leaving out the covariance overstates the error


# -- shape gap -------------------------------------------------------------------------

def test_shape_gap_axis_centered_at_zero():
    gs = shape_gap_series(exponential(1.0), (1, 0), [16, 64], trials=300, seed=8)
    for j in range(2):
        assert abs(gs.values[j]) <= 4 * gs.stderrs[j]


def test_shape_gap_diagonal_positive():
    gs = shape_gap_series(exponential(1.0), (1, 1), [8, 24], trials=200, seed=9)
    assert np.all(gs.values > 0)
    # superadditivity makes the gap nonnegative; flag CI dips below zero
    anomalies = [int(n) for n, v, s in zip(gs.ns, gs.values, gs.stderrs) if v + 3 * s < 0]
    assert anomalies == []


def test_shape_gap_requires_exact_model():
    with pytest.raises(ValueError):
        shape_gap_series(uniform(0.5, 1.5), (1, 1), [8], trials=200, seed=0)


# -- exponent fits -----------------------------------------------------------------------

def test_fit_exact_power_law():
    fit = fit_exponent([10, 100, 1000, 10000], [1e2, 1e4, 1e6, 1e8])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_constant_values_slope_zero():
    fit = fit_exponent([4, 16, 64, 256], [5.0, 5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


@given(
    st.floats(-2.0, 2.0),
    st.floats(0.1, 10.0),
)
@settings(max_examples=50)
def test_fit_recovers_random_power_laws(alpha, c):
    ns = np.array([8, 32, 64, 128, 512])
    vals = c * ns.astype(float) ** alpha
    fit = fit_exponent(ns, vals)
    assert abs(fit.slope - alpha) <= 1e-12 * max(1.0, abs(alpha))


def test_fit_weighted_uses_errors():
    # value doubles per fourfold n: slope log2/log4 = 1/2; errors proportional
    # to values give equal log-scale weights, leaving the slope untouched
    ns = [8, 32, 128, 512]
    vals = [2.0, 4.0, 8.0, 16.0]
    fit = fit_exponent(ns, vals, errors=[0.1, 0.2, 0.4, 0.8])
    assert fit.slope == pytest.approx(0.5, rel=1e-9)
    assert fit.slope_stderr > 0


def test_fit_rejects_bad_series():
    with pytest.raises(ValueError):
        fit_exponent([10, 100, 1000], [1, 2, 3])  # too few points
    with pytest.raises(ValueError):
        fit_exponent([8, 16, 32, 48], [1, 2, 3, 4])  # range factor < 8
    with pytest.raises(ValueError):
        fit_exponent([8, 16, 32, 64], [1, -2, 3, 4])


# -- KPZ residual -------------------------------------------------------------------------

def _fit(stat, slope, se=0.0):
    return ExponentFit(statistic=stat, slope=slope, intercept=0.0,
                       slope_stderr=se, n_range=(8, 64))


def test_kpz_residual_exact_pairs():
    res, se = kpz_residual(_fit("chi", 1.0 / 3.0), _fit("wandering", 2.0 / 3.0))
    assert res == pytest.approx(0.0, abs=1e-15)
    res, se = kpz_residual(_fit("chi", 0.5), _fit("wandering", 0.75))
    assert res == pytest.approx(0.0, abs=1e-15)


def test_kpz_residual_halves_variance_slope():
    res, se = kpz_residual(_fit("variance", 2.0 / 3.0, 0.06), _fit("wandering", 2.0 / 3.0, 0.04))
    assert res == pytest.approx(0.0, abs=1e-15)
    assert se == pytest.approx(math.sqrt(0.03**2 + (2 * 0.04) ** 2), rel=1e-12)


def test_chi_from_variance_fit():
    chi = chi_from_variance_fit(_fit("variance", 0.70, 0.08))
    assert chi.statistic == "chi"
    assert chi.slope == pytest.approx(0.35)
    assert chi.slope_stderr == pytest.approx(0.04)


# -- FPP long-run diagnostics (small scale) -----------------------------------------------

def test_fpp_envelope_nonincreasing_within_noise():
    seq = estimate_radial_g("fpp", uniform(0.5, 1.5), (1, 0), [2, 4, 8, 16], trials=120, seed=13)
    for j in range(len(seq.ns) - 1):
        comb = math.hypot(seq.stderrs[j], seq.stderrs[j + 1])
        assert seq.values[j + 1] <= seq.values[j] + 2 * comb


def test_fpp_alexander_style_gap_ratio_decreases():
    # E T(0, n e1) - n g stays sublinear: the per-n ratio decreases once the
    # limit estimate is subtracted
    seq = estimate_radial_g("fpp", uniform(0.5, 1.5), (1, 0), [2, 4, 8, 16, 24], trials=150, seed=17)
    g_hat = seq.values[-1]
    ratios = seq.values - g_hat  # (E T - n g) / n
    noise = 2 * np.hypot(seq.stderrs, seq.stderrs[-1])
    assert np.all(np.diff(ratios) <= noise[1:] + 1e-12)
