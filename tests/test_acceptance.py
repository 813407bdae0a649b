"""Acceptance suite, one test per criterion, at full size.

Every tolerance is frozen here.  Monte Carlo criteria run at fixed master
seeds; the pilot numbers behind the frozen constants were produced by
scripts/pilot_acceptance.py at these exact sizes and seeds.
"""

import math
from collections import Counter

import numpy as np
import pytest

from latticegrow import (
    ExactShape,
    LatticeBox,
    brute_force_fpp,
    brute_force_lpp,
    coupling_equivalence,
    eden_grow,
    estimate_radial_g,
    exact_g,
    exponential,
    fekete_envelope,
    flat_edge_probe,
    fluctuation_series,
    fpp_dijkstra,
    fpp_infection_order,
    geometric,
    greedy_forward_path,
    idla_grow,
    lpp_dp,
    make_field,
    martin_asymptote,
    roundness,
    tasep_run,
    uniform,
)
from latticegrow.estimators import SubadditiveSequence
from latticegrow.experiments import ExperimentConfig, run_experiment
from latticegrow.lpp import _tables, lpp_time_between
from latticegrow.weights import derive_seed

MASTER = 20250810
WORKERS = 2


def _passline(k, text):
    print(f"ACCEPTANCE {k} PASS: {text}")


def test_criterion_01_fpp_oracle_equivalence():
    box = LatticeBox(2, 3)
    checked = 0
    for trial in range(100):
        f = make_field(uniform(0.5, 1.5), derive_seed(MASTER, "acc1", trial), "edge", 2)
        pmap = fpp_dijkstra(f, (0, 0), box)
        assert len(pmap.times) == 49
        for v in sorted(pmap.times):
            assert brute_force_fpp(f, box, (0, 0), v) == pmap.times[v]
            checked += 1
    assert checked == 4900
    _passline(1, "fpp_dijkstra == brute force bit-exactly, 100 seeds x 49 targets")


def test_criterion_02_lpp_oracle_equivalence():
    for spec, label in ((uniform(0.5, 1.5), "unif"), (geometric(0.5), "geom")):
        for trial in range(100):
            f = make_field(spec, derive_seed(MASTER, "acc2", label, trial), "vertex", 2)
            lmap = lpp_dp(f, (6, 6))
            for idx in np.ndindex(7, 7):
                assert brute_force_lpp(f, idx) == lmap.table[idx]
    _passline(2, "lpp_dp == enumeration bit-exactly, 100 seeds x 49 entries x 2 laws")


def test_criterion_03_exponential_shape_value():
    seq = estimate_radial_g(
        "lpp", exponential(1.0), (1, 1), [64, 256], 500, MASTER, workers=WORKERS
    )
    m64, m256 = seq.values
    se64, se256 = seq.stderrs
    assert 3.5 <= m256 <= 4.0
    assert m256 - m64 >= 2.0 * math.hypot(se64, se256)
    assert m256 <= 4.0 + 2.0 * se256
    assert m64 <= 4.0 + 2.0 * se64
    _passline(3, f"exp LPP mean T(0,(256,256))/256 = {m256:.4f} in [3.5, 4.0], "
                 "monotone toward g(1,1) = 4")


def test_criterion_04_geometric_shape_value():
    g = exact_g(ExactShape("geometric", p=0.5), (1.0, 1.0))  # 4 + 2 sqrt 2
    seq = estimate_radial_g(
        "lpp", geometric(0.5), (1, 1), [64, 256], 500, MASTER, workers=WORKERS
    )
    m64, m256 = seq.values
    se64, se256 = seq.stderrs
    # same relative window as the exponential criterion: [0.875 g, g]
    assert 0.875 * g <= m256 <= g
    assert m256 - m64 >= 2.0 * math.hypot(se64, se256)
    assert m256 <= g + 2.0 * se256
    assert m64 <= g + 2.0 * se64
    _passline(4, f"geometric(0.5) LPP mean at n=256 = {m256:.4f}, "
                 f"monotone toward g(1,1) = {g:.4f}")


def test_criterion_05_martin_boundary_consistency():
    shape = ExactShape("exponential")
    for a in (0.01, 0.04, 0.09):
        gap = exact_g(shape, (1.0, a)) - martin_asymptote(1.0, 1.0, a)
        assert abs(gap - a) <= 1e-12
    _passline(5, "exact_g(exp,(1,a)) - (1 + 2 sqrt(a)) = a to 1e-12")


def test_criterion_06_tasep_coupling():
    k = 64
    for trial in range(50):
        f = make_field(
            exponential(1.0), derive_seed(MASTER, "acc6", trial), "vertex", 2
        )
        table = tasep_run(k, k, field=f)
        lmap = lpp_dp(f, (k - 1, k - 1))
        assert np.array_equal(table.s, lmap.table.T)  # bit-exact at all (k, n)
        rng = np.random.default_rng(derive_seed(MASTER, "acc6-probes", trial))
        tmax = float(table.s[k - 1, k - 1])
        for _ in range(100):
            n = int(rng.integers(1, k - 1))
            t = float(rng.uniform(0.0, tmax))
            assert coupling_equivalence(table, lmap, n, t)
    _passline(6, "coupled step tables equal lpp_dp bit-exactly; 5000 current "
                 "probes, zero violations")


def test_criterion_07_eden_exp_fpp_identity():
    trials = 10_000
    ring = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    eden_hits = {k: Counter() for k in (1, 2, 3)}
    fpp_hits = {k: Counter() for k in (1, 2, 3)}
    for i in range(trials):
        ev = eden_grow(derive_seed(MASTER, "acc7-eden", i), 2, 3).vertices
        f = make_field(exponential(1.0), derive_seed(MASTER, "acc7-fpp", i), "edge", 2)
        fv = fpp_infection_order(f, 3).vertices
        for k in (1, 2, 3):
            se, sf = set(ev[:k]), set(fv[:k])
            for w in ring:
                eden_hits[k][w] += w in se
                fpp_hits[k][w] += w in sf
    for k in (1, 2, 3):
        for w in ring:
            p1 = eden_hits[k][w] / trials
            p2 = fpp_hits[k][w] / trials
            pool = (eden_hits[k][w] + fpp_hits[k][w]) / (2 * trials)
            se = math.sqrt(pool * (1 - pool) * 2 / trials)
            assert abs(p1 - p2) <= 3 * se + 1e-12, (k, w, p1, p2)
    _passline(7, "P(w in S_k) agrees between Eden and exp-FPP infection for "
                 "k <= 3, all 8 near neighbors, 3 pooled SE")


def test_criterion_08_idla_roundness():
    worst = 0.0
    for s in range(10):
        trace = idla_grow(derive_seed(MASTER, "acc8", s), 2, 20_000)
        rin, rout = roundness(trace, 20_000)
        worst = max(worst, rout / rin)
        assert rout / rin <= 1.15
    _passline(8, f"IDLA out/in radius ratio <= 1.15 in all 10 runs (worst {worst:.4f})")


def test_criterion_09_exponent_fits():
    grid = [64, 128, 256, 512, 1024]
    # variance and wandering from the same environments, one sweep a trial
    fl = fluctuation_series(
        "lpp", exponential(1.0), (1, 1), grid, 500, MASTER, workers=WORKERS
    )
    fits = fl.fits()
    chi, xi, residual = fits["chi"]["slope"], fits["xi"]["slope"], fits["kpz_residual"]
    assert 1.0 / 3.0 - 0.15 <= chi <= 1.0 / 3.0 + 0.15
    assert 2.0 / 3.0 - 0.15 <= xi <= 2.0 / 3.0 + 0.15
    assert abs(residual) <= 0.2
    _passline(9, f"chi = {chi:.4f}, xi = {xi:.4f}, "
                 f"scaling-relation residual {residual:+.4f}")


# frozen by pilot: mean ratio 1.00023 +- 0.00004 at p = 0.8,
# 1.03548 +- 0.00031 at p = 0.55 (n = 300, 200 trials, this master seed)
FLAT_EDGE_EPS1 = 0.01
FLAT_EDGE_EPS2 = 0.02


def test_criterion_10_flat_edge_dichotomy():
    hi = flat_edge_probe(0.8, 300, 200, MASTER, workers=WORKERS)
    lo = flat_edge_probe(0.55, 300, 200, MASTER, workers=WORKERS)
    assert hi.mean_ratio >= 1.0 and lo.mean_ratio >= 1.0
    assert hi.mean_ratio <= 1.0 + FLAT_EDGE_EPS1
    assert lo.mean_ratio >= 1.0 + FLAT_EDGE_EPS2
    assert FLAT_EDGE_EPS2 > FLAT_EDGE_EPS1 > 0
    _passline(10, f"diagonal ratio {hi.mean_ratio:.5f} at p=0.8 (flat contact) "
                  f"vs {lo.mean_ratio:.5f} at p=0.55 (strictly inside)")


def test_criterion_11_greedy_high_dimension_bound():
    d, steps = 20, 10_000
    f = make_field(exponential(1.0), derive_seed(MASTER, "acc11"), "edge", d)
    path = greedy_forward_path(f, steps)
    mean_step = path.total_weight / steps
    sigma = (1.0 / d) / math.sqrt(steps)  # min of d exponentials has sd 1/d
    assert abs(mean_step - 1.0 / d) <= 3 * sigma
    _passline(11, f"greedy mean step weight {mean_step:.5f} within 3 sigma of 1/20")


# -- criterion 12: cross-module property suite ---------------------------------


def test_criterion_12a_subadditivity_and_superadditivity():
    f = make_field(uniform(0.5, 1.5), derive_seed(MASTER, "acc12t"), "edge", 2)
    maps = {s: fpp_dijkstra(f, s, LatticeBox(2, 6)) for s in [(0, 0), (1, 1), (-1, 2)]}
    for y in [(1, 1), (-1, 2)]:
        for z in [(2, 2), (-2, 0), (0, 3)]:
            assert maps[(0, 0)].times[z] <= maps[(0, 0)].times[y] + maps[y].times[z] + 1e-12
    fv = make_field(exponential(1.0), derive_seed(MASTER, "acc12s"), "vertex", 2)
    lmap = lpp_dp(fv, (12, 12))
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = tuple(int(c) for c in rng.integers(0, 7, size=2))
        z = tuple(int(c) for c in rng.integers(6, 13, size=2))
        if all(a <= b for a, b in zip(y, z)):
            assert lmap.time_to(z) >= lmap.time_to(y) + lpp_time_between(fv, y, z) - 1e-12
    _passline("12a", "FPP triangle inequality and LPP superadditivity")


def test_criterion_12b_recursion_identity():
    fv = make_field(geometric(0.5), derive_seed(MASTER, "acc12r"), "vertex", 2)
    lmap = lpp_dp(fv, (20, 17))
    grid = np.stack(np.meshgrid(np.arange(21), np.arange(18), indexing="ij"), axis=-1)
    w = fv.vertex_weights(grid)
    t = lmap.table
    for i in range(21):
        for j in range(18):
            if i == 0 and j == 0:
                continue
            up = t[i - 1, j] if i > 0 else -math.inf
            left = t[i, j - 1] if j > 0 else -math.inf
            assert t[i, j] == w[i, j] + max(up, left)
    _passline("12b", "corner-growth recursion holds at every cell")


def test_criterion_12c_symmetry():
    a = estimate_radial_g("lpp", exponential(1.0), (1, 0), [16], 200, MASTER + 1)
    b = estimate_radial_g("lpp", exponential(1.0), (0, 1), [16], 200, MASTER + 2)
    assert abs(a.values[0] - b.values[0]) <= 3 * math.hypot(a.stderrs[0], b.stderrs[0])
    fv = make_field(exponential(1.0), derive_seed(MASTER, "acc12sym"), "vertex", 2)
    grid = np.stack(np.meshgrid(np.arange(9), np.arange(7), indexing="ij"), axis=-1)
    w = fv.vertex_weights(grid)
    assert np.array_equal(_tables(w.T[..., None])[..., 0], _tables(w[..., None])[..., 0].T)
    _passline("12c", "axis symmetry of estimates; transposed fields transpose tables")


def test_criterion_12d_homogeneity():
    rng = np.random.default_rng(5)
    for shape in (ExactShape("exponential"), ExactShape("geometric", p=0.4)):
        for _ in range(25):
            x = rng.uniform(0.01, 8.0, size=2)
            for a in (0.5, 2.0, 10.0):
                assert exact_g(shape, a * x) == pytest.approx(a * exact_g(shape, x), rel=1e-12)
    _passline("12d", "exact shapes homogeneous of degree 1 to 1e-12")


def test_criterion_12e_fekete_envelope_monotone():
    seq = estimate_radial_g(
        "lpp", exponential(1.0), (1, 1), [4, 8, 16, 32], 150, MASTER, workers=WORKERS
    )
    neg = SubadditiveSequence(
        statistic="lpp-negated", ns=seq.ns, values=-seq.values,
        stderrs=seq.stderrs, trials=seq.trials,
    )
    rep = fekete_envelope(neg)
    assert np.all(np.diff(rep.envelope) <= 0)
    assert rep.violations == []
    fpp_seq = estimate_radial_g("fpp", uniform(0.5, 1.5), (1, 0), [2, 4, 8, 16], 150, MASTER)
    rep2 = fekete_envelope(fpp_seq)
    assert np.all(rep2.envelope <= fpp_seq.values + 1e-12)
    assert rep2.violations == []
    _passline("12e", "running envelopes monotone, no subadditivity violations")


def test_criterion_12f_determinism_and_worker_independence(tmp_path):
    def run(sub, workers):
        cfg = ExperimentConfig()
        cfg.kind = "radial-g"
        cfg.model = "lpp"
        cfg.dist = "exp:1.0"
        cfg.direction = "1,1"
        cfg.n_grid = "4,8,16"
        cfg.trials = 20
        cfg.seed = MASTER
        cfg.workers = workers
        cfg.out = str(tmp_path / sub)
        run_experiment(cfg)
        return (tmp_path / sub / "radial_g.csv").read_bytes()

    assert run("a", 1) == run("b", 1) == run("c", 2)
    _passline("12f", "identical configs give identical bytes, any worker count")


def test_criterion_12g_determinism_of_fields_and_growth():
    pts = np.random.default_rng(0).integers(-10**6, 10**6, size=(2000, 2))
    f1 = make_field(exponential(1.0), 424242, "vertex", 2)
    f2 = make_field(exponential(1.0), 424242, "vertex", 2)
    assert np.array_equal(f1.vertex_weights(pts), f2.vertex_weights(pts))
    t1 = eden_grow(99, 2, 200).vertices
    t2 = eden_grow(99, 2, 200).vertices
    assert t1 == t2
    _passline("12g", "fields and growth traces replay bit-exactly")
