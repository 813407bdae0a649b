import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticegrow import (
    BudgetExceeded,
    EnumerationBudget,
    LatticeBox,
    brute_force_fpp,
    brute_force_lpp,
    constant,
    make_field,
    oriented_path_count,
    two_point,
    uniform,
)


def test_oriented_path_count_values():
    assert oriented_path_count((1, 1)) == 2
    assert oriented_path_count((6, 6)) == 924
    assert oriented_path_count((5, 0)) == 1
    assert oriented_path_count((0, 7)) == 1
    with pytest.raises(ValueError):
        oriented_path_count((-1, 2))


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=40)
def test_oriented_path_count_recursion(a, b):
    # Pascal identity: paths to (a, b) split by the last step
    if a > 0 and b > 0:
        assert oriented_path_count((a, b)) == oriented_path_count(
            (a - 1, b)
        ) + oriented_path_count((a, b - 1))


def test_lpp_smallest_case_by_hand():
    f = make_field(uniform(0.5, 1.5), 11, "vertex", 2)
    grid = np.stack(np.meshgrid(np.arange(2), np.arange(2), indexing="ij"), axis=-1)
    w = f.vertex_weights(grid)
    expect = w[1, 1] + max(w[1, 0], w[0, 1])
    assert brute_force_lpp(f, (1, 1)) == expect


def test_lpp_axis_is_cumulative_sum():
    f = make_field(uniform(0.5, 1.5), 4, "vertex", 2)
    grid = np.stack([np.arange(6), np.zeros(6, dtype=np.int64)], axis=-1)
    w = f.vertex_weights(grid)
    acc = 0.0
    for k in range(1, 6):
        acc = acc + w[k]
    assert brute_force_lpp(f, (5, 0)) == acc
    assert brute_force_lpp(f, (0, 0)) == 0.0


def test_lpp_budget_refusal():
    f = make_field(uniform(0.5, 1.5), 9, "vertex", 2)
    with pytest.raises(BudgetExceeded):
        brute_force_lpp(f, (8, 8), budget=EnumerationBudget(max_paths=1000))


def test_fpp_constant_weights_l1():
    f = make_field(constant(1.0), 0, "edge", 2)
    box = LatticeBox(2, 2)
    assert brute_force_fpp(f, box, (0, 0), (1, 1)) == 2.0
    assert brute_force_fpp(f, box, (0, 0), (0, 0)) == 0.0
    assert brute_force_fpp(f, box, (0, 0), (-2, 1)) == 3.0


def test_fpp_single_edge_dominates_detours():
    # with weights in [0.5, 1.5] the 3-edge detour costs at least 1.5,
    # so the direct edge always wins for a unit displacement
    for seed in range(30):
        f = make_field(uniform(0.5, 1.5), seed, "edge", 2)
        box = LatticeBox(2, 2)
        assert brute_force_fpp(f, box, (0, 0), (1, 0)) == f.edge_weight((0, 0), (1, 0))


def test_fpp_rejects_zero_weights():
    f = make_field(constant(0.0), 0, "edge", 2)
    with pytest.raises(ValueError):
        brute_force_fpp(f, LatticeBox(2, 2), (0, 0), (1, 0))


def test_fpp_budget_refusal_on_box_size():
    f = make_field(uniform(0.5, 1.5), 0, "edge", 2)
    with pytest.raises(BudgetExceeded):
        brute_force_fpp(
            f, LatticeBox(2, 10), (0, 0), (1, 0), budget=EnumerationBudget(max_vertices=50)
        )


def test_fpp_enumeration_order_free():
    # the minimum cannot depend on enumeration order; re-running must agree
    f = make_field(two_point(0.6), 3, "edge", 2)
    box = LatticeBox(2, 3)
    a = brute_force_fpp(f, box, (0, 0), (2, 2))
    b = brute_force_fpp(f, box, (0, 0), (2, 2))
    assert a == b
