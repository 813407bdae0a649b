"""Pruned FPP point solves (``fpp._goal_solve``) against the grown-box solves they replace."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from latticegrow import estimators, experiments, fpp
from latticegrow.fpp import LatticeBox, fpp_geodesic
from latticegrow.weights import WeightField, parse_dist_token

from fpp_heap import heap_batch

# the laws of tests/test_fpp.py's BUCKET_LAWS with least weight above 0, a
# near-constant one, and one whose sums round (0.1 + 0.1 + 0.1 > 0.3)
POSITIVE_LAWS = ["unif:0.5:1.5", "unif:0.25:1.75", "twopoint:0.55", "geom:0.4", "const:1",
                 "unif:1:1.000001", "const:0.1"]
ZERO_LAWS = ["exp:1.0", "unif:0:1", "unif:1e-20:1"]
TARGETS = [
    (1,), (-1,), (2,), (-5,), (9,),
    (1, 0), (0, -1), (1, 1), (3, -2), (-4, 0), (-2, -5), (7, 3), (0, 12),
    (1, 0, 0), (0, 0, -2), (1, -1, 1), (-2, 3, 0), (3, 2, -2),
]


def _fields(token, d, seeds=range(6)):
    return [WeightField(parse_dist_token(token), s, "edge", d) for s in seeds]


def _radii(target):
    base = estimators._fpp_first_radius(target)
    return base, base << estimators._BOX_RETRIES


def _spy_grown(monkeypatch):
    """Record the seeds of every _grown_solve call."""
    calls = []
    grown = fpp._grown_solve

    def spy(fields, *args, **kw):
        calls.append([f.seed for f in fields])
        return grown(fields, *args, **kw)

    monkeypatch.setattr(fpp, "_grown_solve", spy)
    return calls


def _outgrown(fields, target) -> list:
    """Seeds of the fields whose pruned box would hold more than the first box."""
    radius, _ = _radii(target)
    omega = min(f.spec.support_min() for f in fields) * (1 - fpp._GOAL_MARGIN)
    first = LatticeBox(len(target), radius).vertex_count()
    return [f.seed for f, u in zip(fields, fpp._least_monotone_time(fields, target).tolist())
            if (box := fpp._goal_box(target, u, omega, radius)) is None
            or box.vertex_count() > first]


def _same_point_maps(got, want, target):
    for a, b in zip(got, want, strict=True):
        assert a.time_to(target) == b.time_to(target)
        assert fpp_geodesic(a, target).vertices == fpp_geodesic(b, target).vertices
        assert a.boundary_hit == b.boundary_hit is False


@pytest.mark.parametrize("token", POSITIVE_LAWS)
@pytest.mark.parametrize("target", TARGETS, ids=str)
def test_pruned_solve_equals_grown_solve(token, target, monkeypatch):
    fields = _fields(token, len(target))
    radius, cap = _radii(target)
    want = fpp._grown_solve(fields, radius, cap, target=target)
    calls = _spy_grown(monkeypatch)
    got = fpp._goal_solve(fields, target, radius, cap)
    # in d = 1 a wide law's ceiling can put the pruned box past the first
    big = _outgrown(fields, target)
    assert len(big) < len(fields) and calls == ([big] if big else [])
    _same_point_maps(got, want, target)


@pytest.mark.parametrize("token", ZERO_LAWS)
def test_laws_of_least_weight_zero_take_the_grown_boxes(token, monkeypatch):
    calls = _spy_grown(monkeypatch)
    for target in [(3,), (4, -2), (1, 2, 0)]:
        fields = _fields(token, len(target), range(3))
        radius, cap = _radii(target)
        got = fpp._goal_solve(fields, target, radius, cap)
        assert calls.pop() == [0, 1, 2]
        for a, b in zip(got, fpp._grown_solve(fields, radius, cap, target=target)):
            assert a.box == b.box
            assert a.time_to(target) == b.time_to(target)


def test_target_solve_returns_the_grown_solve_times_and_wanderings():
    target = (9, -4)
    fields = _fields("unif:0.25:1.75", 2, range(10))
    times, devs, flags = estimators._fpp_target_solve(fields, target, want_geodesic=True)
    end = np.asarray(target, float)
    for i, pmap in enumerate(fpp._grown_solve(fields, *_radii(target), target=target)):
        pts = np.asarray(fpp_geodesic(pmap, target).vertices, float)
        assert times[i] == pmap.time_to(target)
        assert devs[i] == fpp.max_distance_to_segment(pts, np.zeros(2), end)
        assert flags[i] is pmap.boundary_hit is False


@pytest.mark.parametrize("target", [(3, -1), (1, 1, 1)], ids=str)
def test_trials_whose_box_outgrows_the_first_take_the_grown_boxes(target, monkeypatch):
    # at least weight 0.1 some trials' ceilings put their pruned box past the
    # first box, and only those are grown
    fields = _fields("unif:0.1:1.9", len(target), range(40))
    radius, cap = _radii(target)
    big = _outgrown(fields, target)
    assert 0 < len(big) < len(fields)
    want = fpp._grown_solve(fields, radius, cap, target=target)
    calls = _spy_grown(monkeypatch)
    got = fpp._goal_solve(fields, target, radius, cap)
    assert calls == [big]
    _same_point_maps(got, want, target)


@pytest.mark.parametrize("batch", [1, 5 * (27 * 23 * 69 + (16 << 10)), 1 << 30])
def test_pruned_batches_stay_within_the_batch_bytes(batch, monkeypatch):
    target = (10, 6)
    fields = _fields("unif:0.5:1.5", 2, range(12))
    radius, cap = _radii(target)
    want = fpp._grown_solve(fields, radius, cap, target=target)
    monkeypatch.setattr(experiments, "_BATCH_BYTES", batch)
    sizes = []
    solve = fpp._solve_batch

    def spy(fields, source, box, **kw):
        sizes.append((len(fields), fpp._trial_bytes(box, pruned=True)))
        return solve(fields, source, box, **kw)

    monkeypatch.setattr(fpp, "_solve_batch", spy)
    got = fpp._goal_solve(fields, target, radius, cap)
    _same_point_maps(got, want, target)
    assert sum(b for b, _ in sizes) == len(fields)
    first = fpp._trial_bytes(LatticeBox(2, radius), pruned=True)
    assert all(b * need <= batch or (b == 1 and need <= first) for b, need in sizes)
    # one trial a solve; batches of at most five 27 x 23 padded boxes, at 69
    # bytes a vertex and 16 KiB, on growing boxes; or one batch
    assert len(sizes) == {1: 12, 5 * (27 * 23 * 69 + (16 << 10)): 3, 1 << 30: 1}[batch]


@pytest.mark.parametrize("token", ["unif:0.5:1.5", "twopoint:0.55", "const:0.1"])
def test_pruned_bucket_loop_equals_pruned_heap(token):
    # the whole pruned map, not just the target: order, times, horizon and flag
    for target in [(5,), (4, -3), (2, 1, -2)]:
        d = len(target)
        fields = _fields(token, d, range(4))
        omega = parse_dist_token(token).support_min() * (1 - fpp._GOAL_MARGIN)
        ceilings = fpp._least_monotone_time(fields, target)
        box = fpp._goal_box(target, float(ceilings.max()), omega, 100)
        kw = dict(target=target, goal=(omega, ceilings))
        for a, b in zip(fpp._solve_batch(fields, (0,) * d, box, **kw),
                        heap_batch(fields, (0,) * d, box, **kw), strict=True):
            assert a.order == b.order and a.times == b.times
            assert a.horizon == b.horizon and a.boundary_hit == b.boundary_hit


def _monotone_paths(target):
    """Every monotone path from the origin to target, as vertex lists."""
    moves = [j for j, c in enumerate(target) for _ in range(abs(c))]
    for perm in set(itertools.permutations(moves)):
        v, path = [0] * len(target), [tuple([0] * len(target))]
        for j in perm:
            v[j] += 1 if target[j] > 0 else -1
            path.append(tuple(v))
        yield path


@pytest.mark.parametrize("target", [(0,), (4,), (-3,), (2, 0), (2, -3), (-1, -2), (1, -1, 2),
                                    (0, 2, -1)], ids=str)
def test_least_monotone_time_is_the_least_left_fold_over_monotone_paths(target):
    fields = _fields("unif:0.1:2.9", len(target), range(3))
    got = fpp._least_monotone_time(fields, target)
    for f, u in zip(fields, got.tolist()):
        sums = []
        for path in _monotone_paths(target):
            t = 0.0
            for a, b in zip(path, path[1:]):
                t += f.edge_weight(a, b)
            sums.append(t)
        assert u == min(sums)


def test_goal_box_face_lies_two_omega_past_the_ceiling():
    # every vertex with omega (|v|_1 + |x - v|_1) <= U lies inside, and every
    # face vertex has omega (|v|_1 + |x - v|_1) >= omega fl(U / omega) + 2 omega
    rng = np.random.default_rng(5)
    for target in [(1,), (-4,), (3, 0), (2, -5), (-1, 1, 2)]:
        l1 = sum(map(abs, target))
        for omega in (0.5, 0.1, 1.0, 0.37):
            for u in [omega * l1, omega * (l1 + 2), omega * (l1 + 3)] + list(
                    omega * l1 * (1 + rng.random(6))):
                box = fpp._goal_box(target, u, omega, 100)
                ranges = [range(a, b + 1) for a, b in zip(box.low, box.high)]
                for v in itertools.product(*ranges):
                    size = sum(map(abs, v)) + sum(abs(a - b) for a, b in zip(target, v))
                    on_face = any(c in (a, b) for c, a, b in zip(v, box.low, box.high))
                    if on_face:
                        assert size - 2 >= u / omega
                    if Fraction(omega) * size <= Fraction(u):
                        assert not on_face


@pytest.mark.parametrize("d", range(1, 16))
def test_largest_box_the_budget_admits_holds_at_most_2_to_the_24_vertices(d):
    # estimators._fpp_target_solve's rounding bound rests on this: _goal_solve
    # prunes only when a pruned trial on the first box is within the budget
    def admitted(r):
        return fpp._trial_bytes(LatticeBox(d, r), pruned=True) <= experiments.MEMORY_BUDGET

    if not admitted(1):
        return
    lo, hi = 1, 2
    while admitted(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    assert LatticeBox(d, lo).vertex_count() <= 1 << 24


def test_goal_box_refuses_past_the_radius_and_at_least_weight_zero():
    assert fpp._goal_box((3, 4), 7.0, 0.0, 20) is None
    assert fpp._goal_box((3, 4), 7.0, 5e-324, 20) is None
    assert fpp._goal_box((3, 4), 7.0, 0.1, 28) is None  # half is (70 - 7) / 2 = 31.5
    assert fpp._goal_box((3, 4), 7.0, 0.1, 32).low == (-33, -33)


def test_point_task_is_sized_by_the_pruned_box():
    spec = parse_dist_token("unif:0.5:1.5")
    # U = mean |x|_1 = 128 gives r = 66: a 197^2 box, 199^2 padded vertices
    # at 69 bytes pruned and 16 KiB, 6 trials a 16 MiB batch; unpruned, two
    # trials on the first box, 357^2 padded vertices at 61 bytes
    pruned, first = 199 ** 2 * 69 + (16 << 10), 357 ** 2 * 61 + (16 << 10)
    assert estimators._task_size("fpp", (64, 64), spec) == (6, 6 * pruned)
    assert 6 * pruned <= experiments._BATCH_BYTES < 7 * pruned
    assert estimators._task_size("fpp", (64, 64)) == (2, 2 * first)
    for token in ZERO_LAWS:
        spec = parse_dist_token(token)
        assert estimators._task_size("fpp", (64, 64), spec) == (2, 2 * first)
