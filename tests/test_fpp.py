import math

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
    greedy_forward_path,
    lattice_point,
    make_field,
    uniform,
    wandering_deviation,
)

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
    geo = fpp_geodesic(f, pmap, (2, 2))
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
        geo = fpp_geodesic(f, pmap, (4, 3))
        acc = 0.0
        for a, b in zip(geo.vertices, geo.vertices[1:]):
            j = next(i for i in range(2) if a[i] != b[i])
            acc = acc + float(f.edge_weights(min(a, b), j))
        assert acc == pmap.times[(4, 3)]


def test_geodesic_prefix_property():
    f = make_field(exponential(1.0), 13, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 6))
    geo = fpp_geodesic(f, pmap, (3, -2))
    acc = 0.0
    for a, b in zip(geo.vertices, geo.vertices[1:]):
        acc = acc + f.edge_weight(a, b)
        assert pmap.times[b] == acc  # every prefix is a geodesic to its endpoint


def test_geodesic_matches_brute_force_weight():
    f = make_field(uniform(0.5, 1.5), 7, "edge", 2)
    box = LatticeBox(2, 4)
    pmap = fpp_dijkstra(f, ORIGIN, box)
    geo = fpp_geodesic(f, pmap, (2, 2))
    assert geo.total_time == brute_force_fpp(f, box, ORIGIN, (2, 2))


def test_constant_weight_axis_geodesic_lex_tie_break():
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 4))
    geo = fpp_geodesic(f, pmap, (3, 0))
    assert geo.vertices == ((0, 0), (1, 0), (2, 0), (3, 0))


def test_tie_break_is_lexicographically_smallest():
    f = make_field(constant(1.0), 0, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 3))
    geo = fpp_geodesic(f, pmap, (1, 1))
    # both predecessors of (1,1) minimize; (0,1) < (1,0) lexicographically
    assert geo.vertices == ((0, 0), (0, 1), (1, 1))


def test_single_vertex_geodesic():
    f = make_field(exponential(1.0), 1, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 2))
    geo = fpp_geodesic(f, pmap, ORIGIN)
    assert geo.vertices == (ORIGIN,)
    assert geo.total_time == 0.0


def test_target_not_settled_raises():
    f = make_field(exponential(1.0), 1, "edge", 2)
    pmap = fpp_dijkstra(f, ORIGIN, LatticeBox(2, 4), max_settled=3)
    with pytest.raises(KeyError):
        fpp_geodesic(f, pmap, (4, 4))


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
