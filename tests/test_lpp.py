import math
from array import array

import numpy as np
from numpy.lib.stride_tricks import as_strided
import pytest
from hypothesis import given, settings, strategies as st

from latticegrow import (
    ExactShape,
    brute_force_lpp,
    constant,
    exact_g,
    exact_shape_for,
    exponential,
    geometric,
    lpp_dp,
    lpp_geodesic,
    lpp_time_between,
    make_field,
    martin_asymptote,
    two_point,
    uniform,
)
from latticegrow import lpp
from latticegrow.experiments import _BATCH_BYTES, _batch_trials
from latticegrow.lpp import _batch_corners, _sweep_axes, _sweep_bytes, _tables


def _budget_batch(corner) -> int:
    """Trials a corner sweep batch holds, by the sweep's own count."""
    return _batch_trials(_sweep_bytes(corner))

LAWS = [exponential(1.0), geometric(0.3), uniform(0.5, 1.5), two_point(0.5), constant(1.0)]


def test_axis_rows_are_cumulative_sums():
    f = make_field(exponential(1.0), 2, "vertex", 2)
    lmap = lpp_dp(f, (6, 0))
    grid = np.stack([np.arange(7), np.zeros(7, dtype=np.int64)], axis=-1)
    w = f.vertex_weights(grid)
    acc = 0.0
    for n in range(1, 7):
        acc = acc + w[n]
        assert lmap.time_to((n, 0)) == acc
    assert lmap.time_to((0, 0)) == 0.0


def test_constant_weights_table_is_coordinate_sum():
    f = make_field(constant(1.0), 0, "vertex", 2)
    lmap = lpp_dp(f, (5, 4))
    for i in range(6):
        for j in range(5):
            assert lmap.time_to((i, j)) == i + j


def test_recursion_identity_every_cell():
    f = make_field(uniform(0.5, 1.5), 11, "vertex", 2)
    lmap = lpp_dp(f, (9, 7))
    grid = np.stack(np.meshgrid(np.arange(10), np.arange(8), indexing="ij"), axis=-1)
    w = f.vertex_weights(grid)
    t = lmap.table
    for i in range(10):
        for j in range(8):
            if i == 0 and j == 0:
                assert t[0, 0] == 0.0
                continue
            up = t[i - 1, j] if i > 0 else -math.inf
            left = t[i, j - 1] if j > 0 else -math.inf
            assert t[i, j] == w[i, j] + max(up, left)


@pytest.mark.parametrize("spec", [uniform(0.5, 1.5), geometric(0.5)], ids=lambda s: s.token())
def test_agrees_with_enumeration_oracle(spec):
    for seed in (11, 12, 13):
        f = make_field(spec, seed, "vertex", 2)
        lmap = lpp_dp(f, (6, 6))
        for tgt in [(6, 6), (3, 5), (1, 1), (6, 0), (0, 4)]:
            assert lmap.time_to(tgt) == brute_force_lpp(f, tgt)


def test_superadditivity_on_random_triples():
    f = make_field(exponential(1.0), 19, "vertex", 2)
    lmap = lpp_dp(f, (12, 12))
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = tuple(int(c) for c in rng.integers(0, 7, size=2))
        z = tuple(int(c) for c in rng.integers(6, 13, size=2))
        if not all(a <= b for a, b in zip(y, z)):
            continue
        t_yz = lpp_time_between(f, y, z)
        assert lmap.time_to(z) >= lmap.time_to(y) + t_yz - 1e-12


def test_transposed_weights_give_transposed_table():
    f = make_field(exponential(1.0), 8, "vertex", 2)
    grid = np.stack(np.meshgrid(np.arange(7), np.arange(5), indexing="ij"), axis=-1)
    w = f.vertex_weights(grid)
    assert np.array_equal(_tables(w.T[..., None])[..., 0], _tables(w[..., None])[..., 0].T)


# -- test-only references: the index-array sweep and the per-cell loop ---------------

def _ref_dp_2d(w):
    m, n = w.shape[0] - 1, w.shape[1] - 1
    t = np.full((m + 2, n + 2), -math.inf)
    t[1, 1] = 0.0
    for k in range(1, m + n + 1):
        ii = np.arange(max(0, k - n), min(m, k) + 1)
        jj = k - ii
        up = t[ii, jj + 1]
        left = t[ii + 1, jj]
        t[ii + 1, jj + 1] = w[ii, jj] + np.maximum(up, left)
    return t[1:, 1:]


def _ref_dp_general(w):
    t = np.zeros(w.shape)
    for idx in np.ndindex(w.shape):
        if all(c == 0 for c in idx):
            continue
        best = -math.inf
        for j in range(len(w.shape)):
            if idx[j] > 0:
                prev = t[idx[:j] + (idx[j] - 1,) + idx[j + 1 :]]
                if prev > best:
                    best = prev
        t[idx] = w[idx] + best
    return t


# -- test-only reference: the sweep over a rectangular weight window ----------------
# Each trial's window is hashed whole, read through a strided skewed view,
# and its path walked back in Python, one trial at a time.

def _ref_window_sweep(w, keep_all, tie_order=None):
    *lead, depth, b = w.shape
    d, layers = len(lead) + 1, depth + sum(lead) - len(lead)
    rows = layers if keep_all else 2
    t = np.full((rows, *(n + 1 for n in lead), b), -math.inf)
    t[(0,) + (1,) * (d - 1)] = 0.0
    *s_lead, s, e = w.strides
    ws = as_strided(w, (layers, *lead, b), (s, *(sj - s for sj in s_lead), e), writeable=False)
    dec = None if tie_order is None else np.zeros((layers, *lead, b), dtype=np.uint8)
    flags = None if dec is None else dec.view(bool)
    inner = (slice(1, None),) * (d - 1)
    shifts = [inner[:a] + (slice(0, -1),) * (a < d - 1) + inner[a + 1 :]
              for a in (range(d) if tie_order is None else tie_order)]
    here, nbs = t[(slice(None), *inner)], [t[(slice(None), *sh)] for sh in shifts]
    boxes = [slice(None)] * layers
    if d > 1:
        k = np.arange(layers)
        boxes = list(map(slice, np.maximum(k - layers + lead[0], 0).tolist(),
                         np.minimum(k + 1, lead[0]).tolist()))
    for k in range(1, layers):
        box, back = boxes[k], (k - 1) % rows
        cur, best = here[k % rows, box], nbs[0][back, box]
        for r in range(1, d):
            x = nbs[r][back, box]
            if dec is not None and r == 1:
                np.greater(x, best, out=flags[k, box])
            elif dec is not None:
                np.copyto(dec[k, box], r, where=x > best)
            np.maximum(best, x, out=cur)
            best = cur
        np.add(best, ws[k, box], out=cur)
    return t, dec


def _ref_window_tables(w):
    perm = _sweep_axes(w.shape[:-1]) + [w.ndim - 1]
    t, _ = _ref_window_sweep(np.ascontiguousarray(w.transpose(perm), dtype=np.float64), True)
    r, *s_lead, e = t.strides
    shape = tuple(w.shape[a] for a in perm)
    u = as_strided(t[(0,) + (1,) * (w.ndim - 2)], shape, (*(r + sj for sj in s_lead), r, e))
    return np.ascontiguousarray(u.transpose(np.argsort(perm)))


def _ref_window_corners(fields, corner, geodesics):
    d, b = len(corner), len(fields)
    perm = _sweep_axes(corner)
    w = np.empty((*(corner[a] + 1 for a in perm), b))
    for j, f in enumerate(fields):
        w[..., j] = f.vertex_window((0,) * d, tuple(c + 1 for c in corner)).transpose(perm)
    t, dec = _ref_window_sweep(w, False, [perm.index(a) for a in range(d)] if geodesics else None)
    layers = sum(corner) + 1
    times = t[((layers - 1) % 2,) + (-1,) * (d - 1)].copy()
    if not geodesics:
        return times, None
    lead, size, step = w.shape[:-2], math.prod(w.shape[:-2]), [0] * d
    for j, a in enumerate(perm[:-1]):
        step[a] = math.prod(lead[j + 1 :])
    flat = array("q", bytes(8 * b * layers))
    rows = memoryview(flat)
    for j in range(b):
        buf, row, i = dec[..., j].tobytes(), rows[j * layers : (j + 1) * layers], size - 1
        for k in range(layers - 1, 0, -1):
            row[k] = i
            i -= step[buf[k * size + i]]
    flat = np.frombuffer(flat, dtype=np.int64).reshape(b, layers)
    coords = np.unravel_index(flat, lead) if d > 1 else ()
    pts = np.empty((b, layers, d))
    pts[..., perm] = np.stack([*coords, np.arange(layers) - sum(coords)], axis=-1)
    return times, list(pts)


# square, tall (first axis longest), flat (last axis longest) and degenerate
# rectangles in d = 1-4; no step count sum(corner) but 0 is a multiple of 16,
# so every default last block ends inside its rectangle
REF_CORNERS = {"1d": (9,), "1d-0": (0,), "square": (9, 9), "tall": (21, 6), "flat": (6, 21),
               "row": (0, 12), "column": (12, 0), "0x0": (0, 0), "cube": (5, 5, 5),
               "3d-tall": (11, 4, 3), "3d-middle": (3, 11, 4), "3d-flat": (4, 3, 11),
               "3d-0": (4, 0, 6), "4d": (3, 2, 4, 3), "4d-0": (2, 0, 3, 2)}
# (layers a block, hash words a chunk): the defaults, then blocks and chunks
# whose boundaries fall inside the rectangle
BLOCKINGS = [None, (5, 40), (1, 1)]


def _blocking(monkeypatch, blocking):
    if blocking is not None:
        monkeypatch.setattr(lpp, "_BLOCK_LAYERS", blocking[0])
        monkeypatch.setattr(lpp, "_HASH_CHUNK", blocking[1])


def _same_corners(fields, corner):
    for geodesics in (True, False):
        times, paths = _batch_corners(fields, corner, geodesics)
        ref_times, ref_paths = _ref_window_corners(fields, corner, geodesics)
        assert times.tobytes() == ref_times.tobytes()
        if geodesics:
            assert len(paths) == len(ref_paths)
            for p, q in zip(paths, ref_paths):
                assert p.shape == q.shape and p.tobytes() == q.tobytes()
        else:
            assert paths is None


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.token())
@pytest.mark.parametrize("corner", REF_CORNERS.values(), ids=REF_CORNERS.keys())
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("blocking", BLOCKINGS, ids=["default", "5-40", "1-1"])
def test_corner_sweep_matches_window_reference(monkeypatch, spec, corner, batch, blocking):
    # times and decision-byte paths hashed in sweep order equal the window
    # sweep's and the per-trial Python backtrack's, ties (geom, twopoint,
    # const) included
    _blocking(monkeypatch, blocking)
    _same_corners([make_field(spec, 80 + j, "vertex", len(corner)) for j in range(batch)], corner)


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.token())
@pytest.mark.parametrize("corner", [(2000,), (40, 100), (100, 40), (10, 20, 30), (6, 8, 10, 12)],
                         ids=["1d", "flat", "tall", "3d", "4d"])
def test_corner_sweep_matches_window_reference_at_budget_batch(spec, corner):
    b = _budget_batch(corner)
    assert 1 < b < 500
    _same_corners([make_field(spec, 90 + j, "vertex", len(corner)) for j in range(b)], corner)


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.token())
@pytest.mark.parametrize("corner", REF_CORNERS.values(), ids=REF_CORNERS.keys())
@pytest.mark.parametrize("blocking", BLOCKINGS, ids=["default", "5-40", "1-1"])
def test_tables_match_window_reference(monkeypatch, spec, corner, blocking):
    # lpp_dp, shifted or not, and _tables on any array (a batch of arbitrary
    # floats, negative ones included) read the skewed view a block at a time
    _blocking(monkeypatch, blocking)
    d = len(corner)
    f = make_field(spec, 7, "vertex", d)
    size = tuple(c + 1 for c in corner)
    for origin in [(0,) * d, (3, -2, 5, 1)[:d]]:
        ref = _ref_window_tables(f.vertex_window(origin, size)[..., None])[..., 0]
        assert lpp_dp(f, corner, origin=origin).table.tobytes() == ref.tobytes()
    w = np.random.default_rng(sum(corner)).normal(size=(*size, 7))
    assert _tables(w).tobytes() == _ref_window_tables(w).tobytes()


def test_sweep_bytes_fit_the_budget_up_to_the_cli_limit():
    # a batch holds at most _BATCH_BYTES by the sweep's own count, or is one
    # trial; at the CLI's largest corners it is one
    corners = [(n, n) for n in (1, 32, 256, 1024, 2047, 4095)] + [(2 * n, n) for n in (64, 2047)]
    corners += [(n,) * 3 for n in (8, 32, 64, 255)] + [(n,) * 4 for n in (4, 16, 63)]
    corners += [(n,) for n in (1, 100, 1 << 24)] + [(0, 4095), (4095, 0, 0)]
    for corner in corners:
        b = _budget_batch(corner)
        assert b * _sweep_bytes(corner) <= _BATCH_BYTES or b == 1
    assert _budget_batch((4095, 4095)) == _budget_batch((255, 255, 255)) == 1


def _sweep_peak(corner, b: int) -> int:
    """tracemalloc's peak over b trials' corner sweep and backtrack, outputs included."""
    import tracemalloc

    fields = [make_field(exponential(1.0), j, "vertex", len(corner)) for j in range(b)]
    tracemalloc.start()
    try:
        _batch_corners(fields, corner, True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("corner", [(256, 256), (300, 128), (32, 32, 32), (6, 4, 3, 5), (2000,),
                                    (0, 50)])
def test_corner_sweep_allocates_within_its_count(corner):
    # numpy reports its buffers to tracemalloc: a budget batch's sweep and
    # backtrack, outputs included, peak within _sweep_bytes' count
    b = _budget_batch(corner)
    assert _sweep_peak(corner, b) <= b * _sweep_bytes(corner) <= _BATCH_BYTES


@pytest.mark.parametrize("corner", [(256, 256), (300, 128), (32, 32, 32), (6, 4, 3, 5), (2000,),
                                    (0, 50), (1, 20000), (2, 2, 3000), (1, 1, 1, 2000), (30000,)])
def test_one_trial_sweep_allocates_within_its_count(corner):
    # a trial alone, as at the CLI's limit: its own count holds the sweep's
    # small arrays and, on thin rectangles, its many layers
    assert _sweep_peak(corner, 1) <= _sweep_bytes(corner)


@pytest.mark.parametrize("corner", [(300, 300), (40, 700), (5000,), (30, 30, 30), (1, 2, 3000)])
def test_tables_allocate_within_their_count(corner):
    import tracemalloc

    f = make_field(exponential(1.0), 3, "vertex", len(corner))
    tracemalloc.start()
    try:
        lpp_dp(f, corner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _sweep_bytes(corner, keep_all=True)


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.token())
@pytest.mark.parametrize("shape", [(9, 9), (12, 5), (4, 10), (1, 8), (8, 1), (1, 1),
                                   (8,), (1,), (4, 4, 4), (6, 2, 3), (2, 7, 3), (3, 2, 1),
                                   (1, 1, 1), (2, 3, 4, 2), (3, 1, 2, 3)],
                         ids=["square", "tall", "wide", "row", "column", "0x0",
                              "1d", "1d-0", "cube", "3d-first", "3d-middle", "3d-flat",
                              "3d-0", "4d", "4d-tie"])
@pytest.mark.parametrize("batch", [1, 2, 7])
def test_batched_sweep_matches_reference_bytes(spec, shape, batch):
    # every trial's table equals the reference sweep on its own weights, so
    # no table depends on its batch-mates
    d = len(shape)
    w = np.stack([make_field(spec, 40 + b, "vertex", d).vertex_window((2, -3, 1, 0)[:d], shape)
                  for b in range(batch)], axis=-1)
    ref = _ref_dp_2d if d == 2 else _ref_dp_general
    tables = _tables(w)
    assert tables.shape == w.shape
    for b in range(batch):
        assert tables[..., b].tobytes() == ref(w[..., b]).tobytes()
    assert _tables(w[..., :1])[..., 0].tobytes() == ref(w[..., 0]).tobytes()


@pytest.mark.parametrize("spec", [uniform(0.5, 1.5), exponential(1.0), geometric(0.5)],
                         ids=lambda s: s.token())
@pytest.mark.parametrize("corner", [(3, 2, 2), (5, 4, 3), (6, 6, 6), (0, 4, 2), (7,), (2, 3, 1, 2)])
def test_hyperplane_sweep_matches_cell_loop(spec, corner):
    f = make_field(spec, 5, "vertex", len(corner))
    axes = [np.arange(c + 1) for c in corner]
    w = f.vertex_weights(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    assert lpp_dp(f, corner).table.tobytes() == _ref_dp_general(w).tobytes()


@pytest.mark.parametrize("spec", [two_point(0.5), geometric(0.7)], ids=lambda s: s.token())
@pytest.mark.parametrize("corner", [(4, 9), (9, 4), (6, 6), (0, 5), (5, 0), (0, 0), (2, 3, 1),
                                    (3, 3, 3), (4, 1, 3), (1, 5, 2), (2, 2, 2, 2), (5,)],
                         ids=["wide", "tall", "square", "row", "column", "0x0", "3d",
                              "cube", "3d-first", "3d-middle", "4d", "1d"])
def test_corner_sweep_matches_table_and_geodesic(spec, corner):
    # discrete laws tie often; a tall corner takes the transposed sweep, whose
    # decision bytes must still break ties toward the original first axis
    fields = [make_field(spec, 60 + b, "vertex", len(corner)) for b in range(3)]
    times, paths = _batch_corners(fields, corner, True)
    for f, t, pts in zip(fields, times, paths):
        lmap = lpp_dp(f, corner)
        geo = lpp_geodesic(lmap, corner)
        assert t == lmap.time_to(corner)
        assert pts.tobytes() == np.asarray((geo.start,) + geo.vertices, dtype=np.float64).tobytes()
    assert _batch_corners(fields, corner, False)[0].tobytes() == times.tobytes()


@pytest.mark.parametrize("corner", [(6, 6), (3, 4, 5)])
def test_batch_times_own_their_data(corner):
    # a view into the sweep's two layers would keep every batch's table alive
    # until the samples are concatenated
    fields = [make_field(uniform(0.5, 1.5), 70 + b, "vertex", len(corner)) for b in range(2)]
    for geodesics in (False, True):
        assert _batch_corners(fields, corner, geodesics)[0].flags.owndata


def test_general_dimension_recursion():
    f = make_field(uniform(0.5, 1.5), 3, "vertex", 3)
    lmap = lpp_dp(f, (3, 2, 2))
    axes = [np.arange(4), np.arange(3), np.arange(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    w = f.vertex_weights(grid)
    t = lmap.table
    for idx in np.ndindex(t.shape):
        if idx == (0, 0, 0):
            assert t[idx] == 0.0
            continue
        best = -math.inf
        for j in range(3):
            if idx[j] > 0:
                prev = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
                best = max(best, t[prev])
        assert t[idx] == w[idx] + best


def test_rejects_bad_corners_and_fields():
    f = make_field(exponential(1.0), 0, "vertex", 2)
    with pytest.raises(ValueError):
        lpp_dp(f, (-1, 3))
    fe = make_field(exponential(1.0), 0, "edge", 2)
    with pytest.raises(ValueError):
        lpp_dp(fe, (3, 3))


# -- geodesics ------------------------------------------------------------------

def test_time_to_and_geodesic_reject_wrong_vertices():
    # a non-integer coordinate or the wrong number of them is not a vertex,
    # as for PassageTimeMap.time_to
    f = make_field(exponential(1.0), 6, "vertex", 2)
    lmap = lpp_dp(f, (3, 4))
    for bad in [(1.5, 2), (1, 1, 1), (1,), (), (4, 0), (0, -1), (math.nan, 1), (1, math.inf)]:
        with pytest.raises(KeyError):
            lmap.time_to(bad)
        with pytest.raises(ValueError):
            lpp_geodesic(lmap, bad)
    assert lmap.time_to(np.array([1, 2])) == lmap.time_to((1.0, 2)) == lmap.table[1, 2]
    assert lpp_geodesic(lmap, np.array([1, 2])) == lpp_geodesic(lmap, (1, 2))


def test_geodesic_axis_target():
    f = make_field(exponential(1.0), 6, "vertex", 2)
    lmap = lpp_dp(f, (5, 3))
    path = lpp_geodesic(lmap, (4, 0))
    assert path.vertices == ((1, 0), (2, 0), (3, 0), (4, 0))


def test_geodesic_origin_is_empty():
    f = make_field(exponential(1.0), 6, "vertex", 2)
    lmap = lpp_dp(f, (3, 3))
    path = lpp_geodesic(lmap, (0, 0))
    assert path.vertices == ()
    assert path.total_time == 0.0


def test_geodesic_weight_sum_matches_table_and_oracle():
    f = make_field(uniform(0.5, 1.5), 11, "vertex", 2)
    lmap = lpp_dp(f, (6, 6))
    path = lpp_geodesic(lmap, (6, 6))
    grid = np.stack(np.meshgrid(np.arange(7), np.arange(7), indexing="ij"), axis=-1)
    w = f.vertex_weights(grid)
    acc = 0.0
    for v in path.vertices:
        acc = acc + w[v]
    assert acc == lmap.time_to((6, 6)) == brute_force_lpp(f, (6, 6))


def test_geodesic_is_oriented():
    f = make_field(geometric(0.5), 21, "vertex", 2)
    lmap = lpp_dp(f, (8, 8))
    path = lpp_geodesic(lmap, (8, 8))
    prev = (0, 0)
    for v in path.vertices:
        assert sum(v) == sum(prev) + 1
        assert all(a <= b for a, b in zip(prev, v))
        prev = v


def test_geodesic_tie_break_prefers_first_axis():
    f = make_field(constant(1.0), 0, "vertex", 2)
    lmap = lpp_dp(f, (2, 2))
    path = lpp_geodesic(lmap, (2, 2))
    # backtracking from (2,2): constant weights tie everywhere, so each
    # backtrack step drops the first axis, pinning this exact path
    assert path.vertices == ((0, 1), (0, 2), (1, 2), (2, 2))


def test_geodesic_rejects_out_of_rectangle():
    f = make_field(exponential(1.0), 0, "vertex", 2)
    lmap = lpp_dp(f, (3, 3))
    with pytest.raises(ValueError):
        lpp_geodesic(lmap, (4, 0))


# -- exact shapes ------------------------------------------------------------------

def test_exact_g_exponential_values():
    shape = ExactShape("exponential")
    assert exact_g(shape, (1.0, 1.0)) == 4.0
    assert exact_g(shape, (1.0, 0.0)) == 1.0
    assert exact_g(shape, (0.0, 1.0)) == 1.0


def test_exact_g_geometric_value():
    shape = ExactShape("geometric", p=0.5)
    assert exact_g(shape, (1.0, 1.0)) == pytest.approx(4.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
    # axis value equals the weight mean 1/p
    assert exact_g(shape, (1.0, 0.0)) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("shape", [ExactShape("exponential"), ExactShape("geometric", p=0.3)])
def test_exact_g_homogeneous_and_symmetric(shape):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0.01, 5.0, size=2)
        g = exact_g(shape, x)
        assert exact_g(shape, x[::-1]) == pytest.approx(g, rel=1e-12)
        for a in (0.5, 2.0, 10.0):
            assert exact_g(shape, a * x) == pytest.approx(a * g, rel=1e-12)


def test_exact_g_rejects_negative():
    with pytest.raises(ValueError):
        exact_g(ExactShape("exponential"), (-0.5, 1.0))


def test_exact_shape_for_specs():
    assert exact_shape_for(exponential(1.0)).model == "exponential"
    assert exact_shape_for(geometric(0.25)).p == 0.25
    with pytest.raises(ValueError):
        exact_shape_for(uniform(0.5, 1.5))
    with pytest.raises(ValueError):
        exact_shape_for(exponential(2.0))


def test_martin_asymptote_values():
    assert martin_asymptote(1.0, 1.0, 0.04) == pytest.approx(1.4, rel=1e-15)
    assert martin_asymptote(2.5, 0.0, 0.3) == 2.5
    with pytest.raises(ValueError):
        martin_asymptote(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        martin_asymptote(1.0, -1.0, 0.1)


@given(st.floats(1e-6, 1.0))
@settings(max_examples=50)
def test_exponential_martin_gap_is_exactly_a(a):
    shape = ExactShape("exponential")
    gap = exact_g(shape, (1.0, a)) - martin_asymptote(1.0, 1.0, a)
    assert gap == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_monotone_approach_toward_shape_value():
    # sample means of T(0,(n,n))/n grow toward 4 and respect the supremum
    means = {}
    ses = {}
    for n in (8, 32):
        vals = []
        for i in range(60):
            f = make_field(exponential(1.0), 10_000 + 97 * i + n, "vertex", 2)
            vals.append(lpp_dp(f, (n, n)).time_to((n, n)) / n)
        means[n] = float(np.mean(vals))
        ses[n] = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert means[32] >= means[8] - 2 * math.hypot(ses[8], ses[32])
    for n in (8, 32):
        assert means[n] <= 4.0 + 2 * ses[n]
