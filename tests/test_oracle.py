import itertools

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
    geometric,
    make_field,
    oriented_path_count,
    two_point,
    uniform,
)
from latticegrow.fpp import unit_steps
from latticegrow.weights import WeightField


def _brute_force_fpp_reference(field, box, source, target, budget=EnumerationBudget()):
    """The search as brute_force_fpp ran it before it read a cached Python
    adjacency: every edge through padded_index and a numpy index, every call
    hashing its own window.  Kept to pin the adjacency version with ==."""
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

    d = field.dimension
    steps = unit_steps(d)
    weights = box.padded_weights(field)
    if np.any(weights <= 0.0):
        raise ValueError("zero or negative edge weight; pruning would be unsound")

    def w(u, v):
        axis = next(j for j in range(d) if u[j] != v[j])
        return float(weights[(axis, *box.padded_index(min(u, v)))])

    per_step_floor = field.spec.support_min()

    def l1(u, v):
        return sum(abs(a - b) for a, b in zip(u, v))

    best = 0.0
    cur = source
    for j in range(d):
        step = 1 if target[j] >= cur[j] else -1
        while cur[j] != target[j]:
            nxt = cur[:j] + (cur[j] + step,) + cur[j + 1 :]
            best += w(cur, nxt)
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
        for s in steps:
            v = tuple(a + b for a, b in zip(u, s))
            if v in on_path or not box.contains(v):
                continue
            nacc = acc + w(u, v)
            if nacc + per_step_floor * l1(v, target) >= best:
                continue
            on_path.add(v)
            search(v, nacc)
            on_path.discard(v)

    if source == target:
        return 0.0
    search(source, 0.0)
    return best


def _box_vertices(box):
    r = box.radius
    return list(itertools.product(range(-r, r + 1), repeat=box.dimension))


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


# the laws with atoms (two-point, geometric) make tied paths and tied pruning tests
LAWS = {"unif": uniform(0.5, 1.5), "twopoint": two_point(0.6), "geom": geometric(0.5)}
BOXES = [
    pytest.param(LatticeBox(1, 4), [(0,), (-3,), (4,)], id="d1"),
    pytest.param(LatticeBox(2, 2), [(0, 0), (1, -2), (-2, 2)], id="d2"),
    pytest.param(LatticeBox(2, 3), [(-1, 2)], id="d2-oracle-box"),
    pytest.param(LatticeBox(3, 1), [(0, 0, 0), (1, -1, 0)], id="d3"),
]


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("box,sources", BOXES)
def test_fpp_matches_reference_search(law, box, sources):
    f = make_field(LAWS[law], 41, "edge", box.dimension)
    for source in sources:
        for target in _box_vertices(box):
            assert brute_force_fpp(f, box, source, target) == _brute_force_fpp_reference(
                f, box, source, target
            )


def test_fpp_interleaved_fields_match_reference():
    # A, B, A: the adjacency of A is rebuilt after B evicted it, never reused for B
    box = LatticeBox(2, 2)
    a = make_field(two_point(0.5), 7, "edge", 2)
    b = make_field(two_point(0.5), 8, "edge", 2)
    targets = _box_vertices(box)
    runs = []
    for f in (a, b, a):
        got = [brute_force_fpp(f, box, (1, 0), t) for t in targets]
        assert got == [_brute_force_fpp_reference(f, box, (1, 0), t) for t in targets]
        runs.append(got)
    assert runs[0] == runs[2] != runs[1]
    # a different box on the same field misses the cache too
    small = LatticeBox(2, 1)
    for t in _box_vertices(small):
        assert brute_force_fpp(a, small, (0, 0), t) == _brute_force_fpp_reference(
            a, small, (0, 0), t
        )


def _message(exc_type, fn, *args, **kw):
    with pytest.raises(exc_type) as info:
        fn(*args, **kw)
    return str(info.value)


@pytest.mark.parametrize("fn", [brute_force_fpp, _brute_force_fpp_reference])
def test_fpp_error_messages_unchanged(fn):
    zero = make_field(constant(0.0), 0, "edge", 2)
    for _ in range(2):  # a failed adjacency build is not cached
        assert _message(ValueError, fn, zero, LatticeBox(2, 2), (0, 0), (0, 0)) == (
            "zero or negative edge weight; pruning would be unsound"
        )
    f = make_field(uniform(0.5, 1.5), 5, "edge", 2)
    assert _message(BudgetExceeded, fn, f, LatticeBox(2, 2), (0, 0), (2, 2),
                    budget=EnumerationBudget(max_paths=3)) == "path budget 3 exceeded"
    assert _message(BudgetExceeded, fn, f, LatticeBox(2, 4), (0, 0), (1, 0),
                    budget=EnumerationBudget(max_vertices=50)) == (
        "box has 81 vertices, budget allows 50"
    )
    assert _message(ValueError, fn, f, LatticeBox(2, 2), (0, 0), (3, 0)) == (
        "source and target must lie inside the box"
    )


def _brute_force_lpp_reference(field, target):
    """A path-by-path enumeration that hashes its own (x1+1) x (x2+1) window
    per call, as brute_force_lpp did before it cached one rectangle per
    field.  Kept to pin the cached rectangle with ==."""
    x1, x2 = (int(c) for c in target)
    if x1 == 0 and x2 == 0:
        return 0.0
    grid = np.stack(np.meshgrid(np.arange(x1 + 1), np.arange(x2 + 1), indexing="ij"), axis=-1)
    wgrid = field.vertex_weights(grid)
    best = -np.inf
    for xs in itertools.combinations(range(x1 + x2), x1):
        i = j = 0
        acc = 0.0
        for step in range(x1 + x2):
            if step in xs:
                i += 1
            else:
                j += 1
            acc = acc + wgrid[i, j]
        best = max(best, acc)
    return float(best)


@pytest.mark.parametrize("law", [uniform(0.5, 1.5), geometric(0.4), two_point(0.5)],
                         ids=lambda s: s.token())
def test_lpp_cached_rectangle_matches_reference(law):
    a, b = (make_field(law, s, "vertex", 2) for s in (21, 22))
    targets = [(x1, x2) for x1 in range(5) for x2 in range(5)]
    targets += [(20, 0), (0, 17), (15, 1), (16, 2), (3, 4)]
    for fld in (a, b, a):  # interleaved fields evict each other's rectangle
        for tgt in targets:
            assert brute_force_lpp(fld, tgt) == _brute_force_lpp_reference(fld, tgt), tgt


def test_lpp_hashes_one_rectangle_per_field(monkeypatch):
    calls = []
    vertex_window = WeightField.vertex_window

    def spy(self, lo, shape):
        calls.append((lo, shape))
        return vertex_window(self, lo, shape)

    monkeypatch.setattr(WeightField, "vertex_window", spy)
    for seed in (31, 32):
        fld = make_field(uniform(0.5, 1.5), seed, "vertex", 2)
        for tgt in itertools.product(range(5), repeat=2):
            brute_force_lpp(fld, tgt)
    assert calls == [((0, 0), (16, 16))] * 2
