import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticegrow import (
    Geodesic,
    LatticeBox,
    brute_force_fpp,
    constant,
    exponential,
    fpp_ball,
    fpp_dijkstra,
    fpp_geodesic,
    fpp_infection_order,
    greedy_forward_path,
    lattice_point,
    make_field,
    uniform,
    wandering_deviation,
)
from latticegrow import estimators, experiments, fpp
from latticegrow.experiments import ExperimentConfig, run_experiment
from latticegrow.weights import WeightField, parse_dist_token

from fpp_heap import heap_batch, heap_runs, heap_solve

ORIGIN = (0, 0)


def test_constant_weights_give_l1_distance():
    f = make_field(constant(1.0), 0, "edge", 2)
    box = LatticeBox(2, 4)
    pmap = fpp_dijkstra(f, ORIGIN, box)
    for v, t in pmap.times.items():
        assert t == abs(v[0]) + abs(v[1])
    assert pmap.time_to(ORIGIN) == 0.0


def test_source_time_zero_and_settle_order_sorted():
    f = make_field(exponential(1.0), 9, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 3))
    assert pmap.order[0] == ORIGIN
    times = [pmap.times[v] for v in pmap.order]
    assert times == sorted(times)


def test_agrees_with_brute_force_many_seeds():
    box = LatticeBox(2, 3)
    for seed in range(10):
        f = make_field(uniform(0.5, 1.5), seed, "edge", 2)
        pmap = fpp_dijkstra(f, ORIGIN, box)
        for v in [(2, 1), (3, 3), (-1, 2), (0, -3)]:
            assert pmap.times[v] == brute_force_fpp(f, box, ORIGIN, v)


def test_specific_target_matches_oracle():
    f = make_field(uniform(0.5, 1.5), 7, "edge", 2)
    box = LatticeBox(2, 4)
    pmap = fpp_dijkstra(f, ORIGIN, box)
    assert pmap.times[(2, 1)] == brute_force_fpp(f, box, ORIGIN, (2, 1))


def test_metric_properties_interior():
    f = make_field(uniform(0.5, 1.5), 21, "edge", 2)
    box = LatticeBox(2, 6)
    maps = {}
    for src in [ORIGIN, (1, 1), (2, -1)]:
        maps[src] = fpp_dijkstra(f, src, box)
    # positivity and symmetry; the two directions sum the same geodesic in
    # opposite orders, so they agree only up to float rounding
    for x in [(1, 1), (2, -1)]:
        assert maps[ORIGIN].times[x] > 0
        assert maps[ORIGIN].times[x] == pytest.approx(maps[x].times[ORIGIN], rel=1e-12)
    # triangle inequality on interior triples
    for y in [(1, 1), (2, -1)]:
        for z in [(1, 1), (2, -1), (-2, 0), (0, 2)]:
            assert (
                maps[ORIGIN].times[z]
                <= maps[ORIGIN].times[y] + maps[y].times[z] + 1e-12
            )


def test_geodesic_weight_sum_is_exact():
    f = make_field(uniform(0.5, 1.5), 7, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 5))
    geo = fpp_geodesic(pmap, (2, 2))
    acc = 0.0
    for a, b in zip(geo.vertices, geo.vertices[1:]):
        acc = acc + f.edge_weight(a, b)
    assert acc == geo.total_time == pmap.times[(2, 2)]


def test_exponential_time_equals_geodesic_edge_weight_sum():
    # Dijkstra and the geodesic read one window, and edge_weights agrees with
    # it bit for bit, so the left-to-right sum reproduces T exactly
    for seed in range(20):
        f = make_field(exponential(1.0), seed, "edge", 2)
        pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 8), target=(4, 3))
        geo = fpp_geodesic(pmap, (4, 3))
        acc = 0.0
        for a, b in zip(geo.vertices, geo.vertices[1:]):
            j = next(i for i in range(2) if a[i] != b[i])
            acc = acc + float(f.edge_weights(min(a, b), j))
        assert acc == pmap.times[(4, 3)]


def test_geodesic_prefix_property():
    f = make_field(exponential(1.0), 13, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 6))
    geo = fpp_geodesic(pmap, (3, -2))
    acc = 0.0
    for a, b in zip(geo.vertices, geo.vertices[1:]):
        acc = acc + f.edge_weight(a, b)
        assert pmap.times[b] == acc  # every prefix is a geodesic to its endpoint


def test_geodesic_matches_brute_force_weight():
    f = make_field(uniform(0.5, 1.5), 7, "edge", 2)
    box = LatticeBox(2, 4)
    pmap = fpp_dijkstra(f, ORIGIN, box)
    geo = fpp_geodesic(pmap, (2, 2))
    assert geo.total_time == brute_force_fpp(f, box, ORIGIN, (2, 2))


def test_constant_weight_axis_geodesic_lex_tie_break():
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 4))
    geo = fpp_geodesic(pmap, (3, 0))
    assert geo.vertices == ((0, 0), (1, 0), (2, 0), (3, 0))


def test_tie_break_is_lexicographically_smallest():
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 3))
    geo = fpp_geodesic(pmap, (1, 1))
    # both predecessors of (1,1) minimize; (0,1) < (1,0) lexicographically
    assert geo.vertices == ((0, 0), (0, 1), (1, 1))


def test_single_vertex_geodesic():
    f = make_field(exponential(1.0), 1, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 2))
    geo = fpp_geodesic(pmap, ORIGIN)
    assert geo.vertices == (ORIGIN,)
    assert geo.total_time == 0.0


def test_target_not_settled_raises():
    f = make_field(exponential(1.0), 1, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 4), max_settled=3)
    with pytest.raises(KeyError):
        fpp_geodesic(pmap, (4, 4))


# -- balls ---------------------------------------------------------------------

def test_ball_t0_continuous_is_origin():
    f = make_field(exponential(1.0), 5, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 3), time_budget=1.0)
    assert fpp_ball(pmap, 0.0) == {ORIGIN}


def test_ball_constant_t1_is_l1_ball():
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 3), time_budget=1.0)
    assert fpp_ball(pmap, 1.0) == {ORIGIN, (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_ball_matches_definition_filter():
    f = make_field(exponential(1.0), 3, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 12), time_budget=2.0)
    ball = fpp_ball(pmap, 2.0)
    assert ball == {v for v, t in pmap.times.items() if t <= 2.0}
    assert ball  # nonempty


def test_ball_monotone_in_t():
    f = make_field(exponential(1.0), 17, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 14), time_budget=3.0)
    for s, t in [(0.5, 1.0), (1.0, 2.5), (2.5, 3.0)]:
        assert fpp_ball(pmap, s) <= fpp_ball(pmap, t)


def test_ball_refuses_beyond_horizon():
    f = make_field(exponential(1.0), 3, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 8), time_budget=1.0)
    with pytest.raises(ValueError):
        fpp_ball(pmap, 1.5)


# -- truncation accounting -------------------------------------------------------

def test_truncation_safety_bit_exact():
    f = make_field(exponential(1.0), 23, "edge", 2)
    small = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 10), time_budget=1.5)
    assert not small.boundary_hit
    big = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 20), time_budget=1.5)
    assert small.times == big.times


def test_boundary_flag_set_when_ball_reaches_face():
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 2), time_budget=5.0)
    assert pmap.boundary_hit


def test_errors_on_bad_arguments():
    f = make_field(exponential(1.0), 0, "edge", 2)
    box = LatticeBox(2, 3)
    with pytest.raises(ValueError):
        fpp_dijkstra(f, ORIGIN, box, target=(5, 5))
    with pytest.raises(ValueError):
        fpp_dijkstra(f, ORIGIN, box, time_budget=-1.0)
    with pytest.raises(ValueError):
        fpp_dijkstra(f, (9, 9), box)
    fv = make_field(exponential(1.0), 0, "vertex", 2)
    with pytest.raises(ValueError):
        fpp_dijkstra(fv, ORIGIN, box)


# -- wandering deviation ---------------------------------------------------------

def test_wandering_axis_path_is_zero():
    geo = Geodesic(vertices=((0, 0), (1, 0), (2, 0), (3, 0)), total_time=3.0)
    assert wandering_deviation(geo, (0, 0), (3, 0)) == 0.0


def test_wandering_unit_detour():
    geo = Geodesic(vertices=((0, 0), (0, 1), (1, 1), (1, 0)), total_time=3.0)
    assert wandering_deviation(geo, (0, 0), (1, 0)) == pytest.approx(1.0)


def test_wandering_staircase_half_sqrt2():
    geo = Geodesic(
        vertices=((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)), total_time=4.0
    )
    assert wandering_deviation(geo, (0, 0), (2, 2)) == pytest.approx(math.sqrt(2) / 2)


def test_wandering_rejects_empty_and_mismatched():
    geo = Geodesic(vertices=(), total_time=0.0)
    with pytest.raises(ValueError):
        wandering_deviation(geo, (0, 0), (1, 0))
    geo = Geodesic(vertices=((0, 0), (1, 0)), total_time=1.0)
    with pytest.raises(ValueError):
        wandering_deviation(geo, (0, 0), (2, 0))


@given(st.lists(st.sampled_from([(1, 0), (0, 1)]), min_size=1, max_size=12))
@settings(max_examples=50)
def test_wandering_nonnegative_on_monotone_paths(steps):
    verts = [(0, 0)]
    for s in steps:
        verts.append((verts[-1][0] + s[0], verts[-1][1] + s[1]))
    geo = Geodesic(vertices=tuple(verts), total_time=float(len(steps)))
    dev = wandering_deviation(geo, verts[0], verts[-1])
    assert dev >= 0.0
    # no vertex is farther than the full path length
    assert dev <= len(steps)


# -- greedy forward path ----------------------------------------------------------

def test_greedy_constant_total_is_step_count():
    f = make_field(constant(1.0), 0, "edge", 3)
    path = greedy_forward_path(f, 17)
    assert path.total_weight == 17.0
    assert len(path.vertices) == 18


def test_greedy_step_is_min_of_fresh_weights():
    f = make_field(exponential(1.0), 77, "edge", 2)
    path = greedy_forward_path(f, 1)
    w0 = f.edge_weight((0, 0), (1, 0))
    w1 = f.edge_weight((0, 0), (0, 1))
    assert path.step_weights[0] == min(w0, w1)
    assert path.vertices[1] == ((1, 0) if w0 <= w1 else (0, 1))


def test_greedy_coordinate_sum_increases_each_step():
    f = make_field(exponential(1.0), 5, "edge", 4)
    path = greedy_forward_path(f, 50)
    sums = [sum(v) for v in path.vertices]
    assert sums == list(range(51))
    assert path.total_weight == pytest.approx(sum(path.step_weights), rel=1e-12)


def test_greedy_high_dimension_mean_short_run():
    d = 20
    f = make_field(exponential(1.0), 123, "edge", d)
    path = greedy_forward_path(f, 2000)
    mean = path.total_weight / 2000
    # min of d rate-1 exponentials has mean 1/d
    assert abs(mean - 1.0 / d) <= 4 * (1.0 / d) / math.sqrt(2000)


def test_lattice_point_floor_convention():
    assert lattice_point((2.7, -1.2)) == (2, -2)
    assert lattice_point((3.0, 1.999)) == (3, 1)


# -- the bucket loop against a heap ----------------------------------------------------

def same_map(a, b):
    assert a.order == b.order
    assert a.times == b.times
    assert a.horizon == b.horizon
    assert a.boundary_hit == b.boundary_hit


def _stops(first, target):
    """Every stop, with a budget equal to a settled time of first and one between two."""
    mid = first.times[first.order[len(first.order) // 3]]
    return [{}, {"target": target}, {"time_budget": mid},
            {"time_budget": math.nextafter(mid, math.inf)}, {"max_settled": 23},
            {"max_settled": 1},
            {"target": target, "time_budget": 2 * mid, "max_settled": len(first.order) // 2}]


BUCKET_LAWS = ["unif:0.5:1.5", "unif:0.25:1.75", "twopoint:0.55", "geom:0.4", "const:1",
               "exp:1.0", "unif:0:1"]
SHAPES = [
    (1, 12, (-3,), (7,)),
    (2, 7, (1, -2), (-3, 4)),
    (3, 3, (0, 1, -1), (2, -2, 1)),
]


@pytest.mark.parametrize("token", BUCKET_LAWS)
@pytest.mark.parametrize("d,radius,source,target", SHAPES)
def test_bucket_loop_equals_heap_loop(token, d, radius, source, target):
    box = LatticeBox(d, radius)
    for seed in range(4):
        f = make_field(parse_dist_token(token), seed, "edge", d)
        full = heap_solve(f, source, box)
        same_map(fpp_dijkstra(f, source, box), full)
        for kw in _stops(full, target):
            same_map(fpp_dijkstra(f, source, box, **kw), heap_solve(f, source, box, **kw))


def test_bucket_loop_with_near_zero_law_matches_heap():
    # unif:1e-20:1 is bounded away from 0 only on paper; its buckets are mean / 2 wide
    f = make_field(parse_dist_token("unif:1e-20:1"), 5, "edge", 2)
    box = LatticeBox(2, 6)
    for kw in ({}, {"target": (3, -2)}, {"time_budget": 0.8}, {"max_settled": 40}):
        same_map(fpp_dijkstra(f, (1, 1), box, **kw), heap_solve(f, (1, 1), box, **kw))


def _light_edges(monkeypatch, least, lit=lambda field: True):
    """Set every fifth interior weight of the lit fields' windows to least."""
    real = LatticeBox.padded_weights

    def with_light_edges(self, field, out=None):
        w = real(self, field, out)
        if lit(field):
            interior = np.isfinite(w)
            w[interior & (np.arange(w.size).reshape(w.shape) % 5 == 0)] = least
        return w

    monkeypatch.setattr(LatticeBox, "padded_weights", with_light_edges)


def _out_of_sort_order(pmap):
    """Whether the map settled some vertex before one with a smaller (t, flat index)."""
    by = np.lexsort((pmap.flat, pmap.settled_times))
    return bool((by != np.arange(by.size)).any())


@pytest.mark.parametrize("least", [0.0, 1e-300])
def test_bucket_loop_one_pop_per_step_matches_heap(least, monkeypatch):
    # a window whose least weight is 0 (or below every later time's ulp) lets
    # fl(t + w) == t, so a vertex can tie with the predecessor that releases
    # it; zero-weight edges also tie vertices out of index order, and the
    # loop settles such a window one heap pop a step
    _light_edges(monkeypatch, least)
    box = LatticeBox(2, 5)
    reordered = []
    for token in ("const:1", "twopoint:0.5", "const:0"):
        f = make_field(parse_dist_token(token), 2, "edge", 2)
        for kw in ({}, {"target": (2, -3)}, {"time_budget": 2.0}, {"max_settled": 30}):
            ref = heap_solve(f, (0, 1), box, **kw)
            same_map(fpp_dijkstra(f, (0, 1), box, **kw), ref)
            reordered.append(_out_of_sort_order(ref))
    # the heap leaves (t, index) order here, so sorted buckets could not match it
    assert any(reordered)


def test_radial_g_csv_same_bytes_on_either_loop(tmp_path, monkeypatch):
    out = {}
    for loop in ("heap", "bucket"):
        with monkeypatch.context() as m:
            if loop == "heap":
                m.setattr(fpp, "_bucket_settle", heap_runs)
            for token in ("unif:0.5:1.5", "exp:1.0"):
                cfg = ExperimentConfig(kind="radial-g", model="fpp", dist=token, n_grid="8,16,32",
                                       trials=3, seed=11, out=str(tmp_path / loop / token))
                run_experiment(cfg)
                out[loop, token] = (tmp_path / loop / token / "radial_g.csv").read_bytes()
    for token in ("unif:0.5:1.5", "exp:1.0"):
        assert out["heap", token] == out["bucket", token]


@pytest.mark.parametrize("loop", ["heap", "bucket"])
def test_lazy_views_match_the_settled_arrays(loop):
    f = make_field(uniform(0.5, 1.5), 8, "edge", 3)
    box = LatticeBox(3, 3)
    solve = heap_solve if loop == "heap" else fpp_dijkstra
    pmap = solve(f, (1, 0, -1), box, time_budget=2.5)
    side = 2 * box.radius + 3
    eager = []
    for i in pmap.flat.tolist():  # row-major on the padded box, corner at -radius - 1
        coords = []
        for _ in range(3):
            i, c = divmod(i, side)
            coords.append(c - box.radius - 1)
        eager.append(tuple(reversed(coords)))
    assert pmap.order == eager
    assert pmap.times == dict(zip(eager, pmap.settled_times.tolist()))
    assert all(pmap.time_to(v) == t for v, t in pmap.times.items())
    assert fpp_ball(pmap, 2.5) == set(pmap.times)
    assert pmap.boundary_hit == any(max(map(abs, v)) == box.radius for v in pmap.order)
    # off the box, not integer, and with too many or too few coordinates
    for v in [(3, 3, 3), (9, 0, 0), (0.5, 0, -1), (1, 0, -1, 0), (1, 0), (1,)]:
        with pytest.raises(KeyError):
            pmap.time_to(v)


def test_one_window_per_solve_and_geodesic(monkeypatch):
    calls = []
    real = WeightField.edge_window

    def counted(self, *a, **kw):
        calls.append(a)
        return real(self, *a, **kw)

    monkeypatch.setattr(WeightField, "edge_window", counted)
    f = make_field(uniform(0.5, 1.5), 4, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 6), target=(3, 2))
    geo = fpp_geodesic(pmap, (3, 2))
    assert len(calls) == 1
    assert geo.total_time == pmap.time_to((3, 2))


# -- trials in lock step ------------------------------------------------------------


@pytest.mark.parametrize("token", BUCKET_LAWS + ["unif:1e-20:1"])
@pytest.mark.parametrize("d,radius,source,target", SHAPES)
def test_batch_equals_per_trial_heap_solves(token, d, radius, source, target):
    # five trials in one solve, under every stop the trials share
    box = LatticeBox(d, radius)
    fields = [make_field(parse_dist_token(token), seed, "edge", d) for seed in range(5)]
    for kw in _stops(heap_solve(fields[0], source, box), target):
        batch = fpp._solve_batch(fields, source, box, **kw)
        alone = heap_batch(fields, source, box, **kw)
        assert len(batch) == len(alone)
        for a, b in zip(batch, alone):
            same_map(a, b)


@pytest.mark.parametrize("least", [0.0, 1e-300])
def test_batch_one_pop_per_step_matches_heap(least, monkeypatch):
    # light edges in the odd trials' windows only; the batch shares their least weight
    _light_edges(monkeypatch, least, lambda field: field.seed % 2)
    box = LatticeBox(2, 5)
    reordered = []
    for token in ("const:1", "twopoint:0.5"):
        fields = [make_field(parse_dist_token(token), seed, "edge", 2) for seed in range(4)]
        for kw in ({}, {"target": (2, -3)}, {"time_budget": 2.0}, {"max_settled": 30}):
            for a, b in zip(fpp._solve_batch(fields, (0, 1), box, **kw),
                            heap_batch(fields, (0, 1), box, **kw)):
                same_map(a, b)
                reordered.append(_out_of_sort_order(b))
    assert any(reordered)


def test_bad_stops_are_refused():
    f = make_field(exponential(1.0), 0, "edge", 2)
    box = LatticeBox(2, 3)
    for bad in (float("nan"), -1.0, -math.inf):
        with pytest.raises(ValueError, match="^time_budget must be nonnegative"):
            fpp_dijkstra(f, ORIGIN, box, time_budget=bad)
    for bad in (0, -5):
        with pytest.raises(ValueError, match="^max_settled must be at least 1"):
            fpp_dijkstra(f, ORIGIN, box, max_settled=bad)


@pytest.mark.parametrize("d,r", [(1, 800), (2, 60), (3, 12), (4, 5), (6, 3)])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("stop", ["whole", "target", "pruned"])
def test_solve_allocates_within_its_count(d, r, trials, stop):
    # numpy reports its buffers to tracemalloc: a solve of the whole box, to
    # a target or pruned, window and maps included, peaks within _trial_bytes
    import tracemalloc

    box = LatticeBox(d, r)
    fields = [make_field(exponential(1.0), 20 + i, "edge", d) for i in range(trials)]
    target = (r // 3,) * d
    kw = {"whole": {}, "target": dict(target=target),
          "pruned": dict(target=target, goal=(0.01, [3.0 * sum(target)] * trials))}[stop]
    tracemalloc.start()
    try:
        fpp._solve_batch(fields, (0,) * d, box, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= trials * fpp._trial_bytes(box, pruned=stop == "pruned")


def test_grown_batch_retries_only_its_hit_trials(monkeypatch):
    # T(0, (1, 1)) <= 3 < 4, the least time to a face at radius 8, so no face
    # vertex settles unless forced; trials 1, 3 and 4 are forced on radius 8
    fields = [make_field(uniform(0.5, 1.5), seed, "edge", 2) for seed in range(5)]
    expect = [fpp_dijkstra(f, ORIGIN, LatticeBox(2, 16 if f.seed in (1, 3, 4) else 8),
                           target=(1, 1)) for f in fields]
    calls = []
    solve = fpp._solve_batch

    def hit_some(fields, source, box, **stops):
        calls.append((box.radius, [f.seed for f in fields]))
        return [dataclasses.replace(pmap, boundary_hit=True)
                if box.radius == 8 and f.seed in (1, 3, 4) else pmap
                for f, pmap in zip(fields, solve(fields, source, box, **stops))]

    monkeypatch.setattr(fpp, "_solve_batch", hit_some)
    # a batch of five radius-8 boxes (19^2 padded vertices) holds two radius-16 ones (35^2)
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 5 * fpp._trial_bytes(LatticeBox(2, 8)))
    maps = fpp._grown_solve(fields, 8, 32, target=(1, 1))
    assert calls == [(8, [0, 1, 2, 3, 4]), (16, [1, 3]), (16, [4])]
    for a, b in zip(maps, expect):
        assert a.box == b.box
        same_map(a, b)


# -- box growth on boundary hits -----------------------------------------------------------


def _forced_hits(monkeypatch):
    """Record the radius of every FPP solve, each map reported as a boundary hit."""
    radii = []
    solve = fpp._solve_batch

    def hit(fields, source, box, **stops):
        radii.append(box.radius)
        return [dataclasses.replace(pmap, boundary_hit=True)
                for pmap in solve(fields, source, box, **stops)]

    monkeypatch.setattr(fpp, "_solve_batch", hit)
    return radii


def test_trials_double_their_box_twice_on_boundary_hits(monkeypatch):
    radii = _forced_hits(monkeypatch)
    spec = uniform(0.5, 1.5)
    # a law of least weight 0: point solves of a positive one are pruned, never grown
    *_, hit = estimators._fpp_target_solve([WeightField(exponential(1.0), 3, "edge", 2)], (3, 2),
                                           want_geodesic=False)
    r = fpp._first_radius((3, 2))
    assert hit and radii == [r, 2 * r, 4 * r]
    radii.clear()
    _reaches, hit = estimators._shape_trial(("fpp", spec, 2.0, 3, np.zeros(1)))
    r = estimators._ball_side("fpp", spec, 2.0)
    assert hit and radii == [r, 2 * r, 4 * r]

    # an LPP table reached at its far edges doubles its side the same way
    corners = []

    def flooded(field, corner):
        corners.append(corner)
        return SimpleNamespace(table=np.zeros(tuple(c + 1 for c in corner)))

    monkeypatch.setattr(estimators, "lpp_dp", flooded)
    _reaches, hit = estimators._shape_trial(("lpp", spec, 2.0, 3, np.zeros(1)))
    s = estimators._ball_side("lpp", spec, 2.0)
    assert hit and corners == [(s, s), (2 * s, 2 * s), (4 * s, 4 * s)]


def _budget_for_radius(r: int) -> int:
    """The least budget under which a d = 2 box of radius r passes."""
    return fpp._trial_bytes(LatticeBox(2, r))


def test_grown_box_past_the_budget_is_refused(monkeypatch):
    radii = _forced_hits(monkeypatch)
    r = fpp._first_radius((3, 2))
    field = WeightField(exponential(1.0), 3, "edge", 2)
    monkeypatch.setattr(fpp, "MEMORY_BUDGET", _budget_for_radius(2 * r))
    with pytest.raises(ValueError, match=f"^an FPP box in dimension 2 needs "
                                         f"{_budget_for_radius(4 * r)} bytes a trial, more than "
                                         f"{_budget_for_radius(2 * r)}$"):
        estimators._fpp_target_solve([field], (3, 2), want_geodesic=False)
    assert radii == [r, 2 * r]
    radii.clear()
    monkeypatch.setattr(fpp, "MEMORY_BUDGET", _budget_for_radius(4 * r))
    *_, hit = estimators._fpp_target_solve([field], (3, 2), want_geodesic=False)
    assert hit and radii == [r, 2 * r, 4 * r]


def test_cli_grown_box_past_the_budget_is_hard_failure(monkeypatch, capsys, tmp_path):
    from latticegrow.cli import main

    radii = _forced_hits(monkeypatch)
    r = fpp._first_radius((2, 2))
    monkeypatch.setattr(fpp, "MEMORY_BUDGET", _budget_for_radius(r))
    rc = main(["radial-g", "--model", "fpp", "--dist", "exp:1.0", "--n-grid", "2",
               "--trials", "2", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (f"hard failure: an FPP box in dimension 2 needs "
                                       f"{_budget_for_radius(2 * r)} bytes a trial, more than "
                                       f"{_budget_for_radius(r)}\n")
    assert radii == [r]


def test_infection_order_doubles_its_box_up_to_steps_plus_one(monkeypatch):
    radii = _forced_hits(monkeypatch)
    fpp_infection_order(make_field(exponential(1.0), 5, "edge", 2), 40)
    # the first radius is ceil(sqrt(40)) + 1
    assert radii == [8, 16, 32, 41]
