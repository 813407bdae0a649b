import math

import numpy as np
import pytest

from latticegrow import (
    CurrentUndetermined,
    coupling_equivalence,
    current_at,
    current_series,
    exponential,
    lpp_dp,
    make_field,
    particle_position,
    tasep_run,
    uniform,
)
from latticegrow.tasep import _clock_matrix


def _tasep_reference(particles, steps, *, clock_seed=None, field=None, clocks=None):
    """The recursion cell by cell on numpy scalars, as tasep_run computed it before
    it moved to rows of Python floats; kept to pin the row version bit for bit."""
    w, _ = _clock_matrix(particles, steps, seed=clock_seed, field=field, clocks=clocks)
    s = np.empty((particles, steps), dtype=np.float64)
    for k in range(particles):
        for n in range(steps):
            if k == 0 and n == 0:
                s[0, 0] = 0.0
                continue
            up = s[k - 1, n] if k > 0 else -math.inf
            left = s[k, n - 1] if n > 0 else -math.inf
            s[k, n] = max(up, left) + w[k, n]
    return s


@pytest.mark.parametrize("mode", ["clocks", "clock_seed", "field"])
@pytest.mark.parametrize("k,n", [(1, 1), (1, 7), (7, 1), (5, 9), (64, 64)])
def test_row_recursion_matches_cell_reference(mode, k, n):
    if mode == "clocks":
        # clocks in {0, 1, 2}: zero clocks and tied arguments of the max throughout
        clocks = np.random.default_rng(k * 100 + n).integers(0, 3, size=(k, n)).astype(float)
        clocks.flat[::4] = 0.0
        source = {"clocks": clocks}
    elif mode == "clock_seed":
        source = {"clock_seed": 17}
    else:
        source = {"field": make_field(exponential(1.0), 23, "vertex", 2)}
    table = tasep_run(k, n, **source)
    assert table.s.dtype == np.float64 and table.s.shape == (k, n)
    assert table.s.tobytes() == _tasep_reference(k, n, **source).tobytes()


def test_single_particle_steps_at_clock_partial_sums():
    # the first step happens at time zero and consumes no clock (the (1,1)
    # entry is ignored); later steps each wait their own clock, so the step
    # times are cumulative sums of the consumed clocks
    clocks = np.array([[99.0, 0.5, 1.2]])
    table = tasep_run(1, 3, clocks=clocks)
    assert table.step_time(1, 1) == 0.0
    assert table.step_time(1, 2) == 0.5
    assert table.step_time(1, 3) == pytest.approx(1.7)


def test_recursion_and_exclusion_invariants():
    table = tasep_run(12, 15, clock_seed=5)
    s = table.s
    for k in range(12):
        for n in range(15):
            if k == 0 and n == 0:
                assert s[0, 0] == 0.0
                continue
            up = s[k - 1, n] if k > 0 else -math.inf
            left = s[k, n - 1] if n > 0 else -math.inf
            assert s[k, n] > max(up, left)  # fresh positive clock
    # no overtaking: particle k's n-th step is never before particle k-1's
    assert np.all(s[1:, :] >= s[:-1, :])
    # steps strictly ordered in n for each particle
    assert np.all(np.diff(s, axis=1) > 0)


def test_coupled_table_equals_lpp_bit_exact():
    for trial in range(5):
        f = make_field(exponential(1.0), 900 + trial, "vertex", 2)
        table = tasep_run(16, 16, field=f)
        lmap = lpp_dp(f, (15, 15))
        # s(k, n) = T(0, (n-1, k-1)): the step table is the transposed table
        assert np.array_equal(table.s, lmap.table.T)


def test_coupled_rejects_wrong_fields():
    with pytest.raises(ValueError):
        tasep_run(4, 4, field=make_field(uniform(0.5, 1.5), 0, "vertex", 2))
    with pytest.raises(ValueError):
        tasep_run(4, 4, field=make_field(exponential(2.0), 0, "vertex", 2))
    with pytest.raises(ValueError):
        tasep_run(4, 4, field=make_field(exponential(1.0), 0, "edge", 2))
    with pytest.raises(ValueError):
        tasep_run(4, 4)  # no randomness source
    with pytest.raises(ValueError):
        tasep_run(4, 4, clock_seed=1, field=make_field(exponential(1.0), 0, "vertex", 2))


def test_current_zero_at_time_zero():
    # the particle born at the origin moves at time zero but never passes
    # *through* the origin, so the current starts at zero
    table = tasep_run(8, 8, clock_seed=3)
    assert current_at(table, 0.0) == 0


def test_current_is_nondecreasing_step_function():
    table = tasep_run(10, 10, clock_seed=11)
    tmax = table.s[9, 9] * 0.999
    grid = np.linspace(0.0, tmax, 50)
    series = current_series(table, grid)
    values = [c for _, c in series]
    assert values == sorted(values)
    assert all(isinstance(c, int) for c in values)
    assert values[0] == 0


def test_current_refuses_when_undetermined():
    table = tasep_run(4, 4, clock_seed=2)
    with pytest.raises(CurrentUndetermined):
        current_at(table, float(table.s[3, 3]))
    with pytest.raises(ValueError):
        current_at(table, -1.0)


def test_current_counts_diagonal_passings():
    f = make_field(exponential(1.0), 77, "vertex", 2)
    table = tasep_run(10, 10, field=f)
    lmap = lpp_dp(f, (9, 9))
    # just after T(0,(n,n)) the current is exactly n (continuous weights)
    for n in (1, 2, 5, 8):
        t = lmap.time_to((n, n))
        assert current_at(table, t) == n
        assert current_at(table, math.nextafter(t, 0.0)) == n - 1


def test_particle_positions():
    table = tasep_run(6, 6, clock_seed=9)
    assert particle_position(table, 1, 0.0) == 1  # immediate move at time 0
    assert particle_position(table, 3, 0.0) == -2
    big = float(table.s[0, 5])
    assert particle_position(table, 1, big) == 6


def test_coupling_equivalence_boundary_cases():
    f = make_field(exponential(1.0), 31, "vertex", 2)
    table = tasep_run(12, 12, field=f)
    lmap = lpp_dp(f, (11, 11))
    # t exactly at the passage time: both sides true
    for n in (1, 4, 9):
        assert coupling_equivalence(table, lmap, n, lmap.time_to((n, n)))
    # t = 0 with continuous weights: both sides false
    assert coupling_equivalence(table, lmap, 2, 0.0)


def test_coupling_equivalence_random_probes():
    rng = np.random.default_rng(0)
    for trial in range(10):
        f = make_field(exponential(1.0), 4000 + trial, "vertex", 2)
        table = tasep_run(16, 16, field=f)
        lmap = lpp_dp(f, (15, 15))
        tmax = float(table.s[15, 15])
        for _ in range(50):
            n = int(rng.integers(1, 15))
            t = float(rng.uniform(0.0, tmax))
            assert coupling_equivalence(table, lmap, n, t)


def test_coupling_equivalence_rejects_mismatch():
    f1 = make_field(exponential(1.0), 1, "vertex", 2)
    f2 = make_field(exponential(1.0), 2, "vertex", 2)
    table = tasep_run(8, 8, field=f1)
    lmap = lpp_dp(f2, (7, 7))
    with pytest.raises(ValueError):
        coupling_equivalence(table, lmap, 3, 1.0)
    ind = tasep_run(8, 8, clock_seed=0)
    lmap1 = lpp_dp(f1, (7, 7))
    with pytest.raises(ValueError):
        coupling_equivalence(ind, lmap1, 3, 1.0)


def test_first_particle_speed_one():
    # s(1, n) is a sum of n-1 unit-rate clocks; at n = 100 over 10^3 runs the
    # sample mean of s(1, n)/n sits at (n-1)/n, within noise, and near 1
    n = 100
    runs = 1000
    vals = np.empty(runs)
    for i in range(runs):
        table = tasep_run(1, n, clock_seed=60_000 + i)
        vals[i] = table.s[0, n - 1] / n
    se = vals.std(ddof=1) / math.sqrt(runs)
    assert abs(vals.mean() - (n - 1) / n) <= 3 * se
    assert abs(vals.mean() - 1.0) <= 0.02


def test_table_csv_round_trip(tmp_path):
    table = tasep_run(3, 4, clock_seed=8)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,n,s"
    assert len(lines) == 1 + 3 * 4
    k, n, s = lines[1].split(",")
    assert (k, n) == ("1", "1")
    assert float(s) == 0.0
