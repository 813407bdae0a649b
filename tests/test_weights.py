import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticegrow import (
    DistributionSpec,
    constant,
    derive_seed,
    exponential,
    geometric,
    make_field,
    parse_dist_token,
    quantile,
    two_point,
    uniform,
)

# -- test-only reference: SplitMix64 on Python ints and math quantiles ---------------

_M64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _ref_mix(z):
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _ref_weight(spec, seed, words):
    """Weight of the element with the given words (tag, [axis,] coordinates)."""
    h = _ref_mix((seed & _M64) ^ _GOLD)
    for w in words:
        h = _ref_mix(h ^ ((w + _GOLD) & _M64))
    u, p = (h >> 11) * 2.0**-53, spec.params
    return {"exponential": lambda: -math.log1p(-u) / p[0],
            "geometric": lambda: max(1.0, math.ceil(math.log1p(-u) / math.log1p(-p[0]))),
            "uniform": lambda: p[0] + (p[1] - p[0]) * u,
            "twopoint": lambda: 1.0 if u < p[0] else 2.0,
            "constant": lambda: p[0]}[spec.kind]()


def _assert_routes_agree(spec, vec, ref):
    # bit-exact where the quantile is arithmetic; libm and numpy log1p may
    # differ in the last bit
    if spec.kind in ("uniform", "twopoint", "constant"):
        assert np.array_equal(vec, ref)
    else:
        assert np.all(np.abs(vec - ref) <= np.spacing(np.abs(ref)))


ALL_SPECS = [
    exponential(1.0),
    exponential(0.5),
    geometric(0.5),
    uniform(0.5, 1.5),
    two_point(0.8),
    constant(1.0),
]


# -- parameter validation -----------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        lambda: exponential(0.0),
        lambda: exponential(-1.0),
        lambda: geometric(0.0),
        lambda: geometric(1.0),
        lambda: uniform(1.5, 0.5),
        lambda: uniform(1.0, 1.0),
        lambda: uniform(-0.1, 1.0),
        lambda: two_point(1.0),
        lambda: constant(-2.0),
        lambda: exponential(math.inf),
        lambda: uniform(0.5, math.inf),
        lambda: constant(math.inf),
        lambda: constant(math.nan),
        lambda: parse_dist_token("exp:inf"),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize(
    "kind, params",
    [
        ("exp", (1.0,)),  # a token where the kind belongs
        ("cauchy", (1.0,)),
        ("exponential", (-1.0,)),
        ("exponential", (1.0, 2.0)),
        ("uniform", (0.5,)),
        ("uniform", (1.5, 0.5)),
        ("geometric", (1.0,)),
        ("twopoint", (0.0,)),
        ("constant", (math.nan,)),
    ],
)
def test_direct_construction_checked_like_builders(kind, params):
    with pytest.raises(ValueError):
        DistributionSpec(kind, params)


def test_builders_and_tokens_equal_direct_construction():
    cases = [
        (exponential(2), "exp:2", DistributionSpec("exponential", (2,))),
        (geometric(0.5), "geom:0.5", DistributionSpec("geometric", (0.5,))),
        (uniform(0, 2), "unif:0:2", DistributionSpec("uniform", (0, 2))),
        (two_point(0.25), "twopoint:0.25", DistributionSpec("twopoint", (0.25,))),
        (constant(3), "const:3", DistributionSpec("constant", (3,))),
    ]
    for built, token, direct in cases:
        assert built == direct == parse_dist_token(token)
        assert hash(built) == hash(direct)
        assert pickle.loads(pickle.dumps(direct)) == direct
        assert all(type(v) is float for v in direct.params)
    assert DistributionSpec("uniform", (0, 2)) == uniform(0.0, 2.0)


def test_token_round_trip():
    for spec in ALL_SPECS:
        assert parse_dist_token(spec.token()) == spec
    assert parse_dist_token("exp:1.0") == exponential(1.0)
    assert parse_dist_token("unif:0.5:1.5") == uniform(0.5, 1.5)
    assert parse_dist_token("twopoint:0.8") == two_point(0.8)
    assert parse_dist_token("geom:0.5") == geometric(0.5)
    assert parse_dist_token("const:1.0") == constant(1.0)
    with pytest.raises(ValueError):
        parse_dist_token("cauchy:1.0")
    with pytest.raises(ValueError):
        parse_dist_token("unif:0.5")


# -- quantiles -----------------------------------------------------------------

def test_quantile_closed_forms():
    assert quantile(exponential(1.0), 0.0) == 0.0
    assert quantile(exponential(1.0), 1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)
    assert quantile(two_point(0.8), 0.5) == 1.0
    assert quantile(two_point(0.8), 0.9) == 2.0
    assert quantile(uniform(0.5, 1.5), 0.25) == 0.75
    assert quantile(constant(3.0), 0.7) == 3.0
    assert quantile(geometric(0.5), 0.0) == 1.0
    assert quantile(geometric(0.5), 0.6) == 2.0


def test_quantile_rejects_bad_u():
    for u in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            quantile(exponential(1.0), u)


@given(st.floats(0.0, 0.999999), st.floats(0.0, 0.999999))
@settings(max_examples=60)
def test_quantile_monotone(u1, u2):
    lo, hi = min(u1, u2), max(u1, u2)
    for spec in ALL_SPECS:
        assert quantile(spec, lo) <= quantile(spec, hi)


def test_quantile_vector_matches_scalar_shape():
    u = np.linspace(0.0, 0.99, 50)
    for spec in ALL_SPECS:
        vec = quantile(spec, u)
        assert vec.shape == u.shape
        assert np.shape(quantile(spec, 0.5)) == ()
        # exact for arithmetic quantiles, within an ulp for log-based ones
        sca = np.array([quantile(spec, float(x)) for x in u])
        if spec.kind in ("uniform", "twopoint", "constant"):
            assert np.array_equal(vec, sca)
        else:
            assert np.allclose(vec, sca, rtol=1e-14, atol=0.0)


def _quantile_reference(spec, u):
    """The out-of-place quantile formulas, one fresh array per step."""
    p = spec.params
    return {"exponential": lambda: -np.log1p(-u) / p[0],
            "geometric": lambda: np.maximum(np.ceil(np.log1p(-u) / math.log1p(-p[0])), 1.0),
            "uniform": lambda: p[0] + (p[1] - p[0]) * u,
            "twopoint": lambda: np.where(u < p[0], 1.0, 2.0),
            "constant": lambda: np.full_like(u, p[0])}[spec.kind]()


def test_quantile_in_place_steps_bit_identical_and_input_untouched():
    u = np.random.default_rng(5).random(4000)
    u[:3] = (0.0, 0.5, np.nextafter(1.0, 0.0))
    before = u.copy()
    for spec in ALL_SPECS + [exponential(3.7), geometric(0.03)]:
        ref = _quantile_reference(spec, before).tobytes()
        assert spec.quantile_array(u).tobytes() == ref
        assert quantile(spec, u).tobytes() == ref
        assert u.tobytes() == before.tobytes()
        field = make_field(spec, 99, "vertex", 1)
        h = np.arange(8, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        expected = _quantile_reference(spec, (h >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        assert field._draw(h.copy()).tobytes() == expected.tobytes()


# -- field determinism and identity --------------------------------------------

def test_constant_field_everywhere_constant():
    f = make_field(constant(1.0), 0, "edge", 2)
    for e in [((0, 0), (1, 0)), ((5, -3), (5, -2)), ((-9, 4), (-10, 4))]:
        assert f.edge_weight(*e) == 1.0


def test_exponential_field_nonnegative():
    f = make_field(exponential(1.0), 42, "vertex", 2)
    rng = np.random.default_rng(0)
    pts = rng.integers(-100, 100, size=(500, 2))
    assert np.all(f.vertex_weights(pts) >= 0.0)


def test_replay_identical_over_many_elements():
    # two fields with equal (spec, seed) replay bit-exactly at 10^4 elements
    rng = np.random.default_rng(3)
    pts = rng.integers(-10**6, 10**6, size=(10_000, 3))
    f1 = make_field(exponential(1.0), 777, "vertex", 3)
    f2 = make_field(exponential(1.0), 777, "vertex", 3)
    assert np.array_equal(f1.vertex_weights(pts), f2.vertex_weights(pts))
    f3 = make_field(exponential(1.0), 778, "vertex", 3)
    assert not np.array_equal(f1.vertex_weights(pts), f3.vertex_weights(pts))


def test_weight_at_deterministic_bit_exact():
    f = make_field(uniform(0.5, 1.5), 11, "edge", 2)
    e = ((3, 4), (3, 5))
    assert f.edge_weight(*e) == f.edge_weight(*e)


def test_edge_orientation_symmetric():
    f = make_field(exponential(2.0), 5, "edge", 3)
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = tuple(int(c) for c in rng.integers(-50, 50, size=3))
        j = int(rng.integers(3))
        y = x[:j] + (x[j] + 1,) + x[j + 1 :]
        assert f.edge_weight(x, y) == f.edge_weight(y, x)


def test_scalar_vector_routes_agree():
    # the library against the test-only reference, for vertex lookups, edge
    # lookups (one vertex with every axis) and edge windows
    rng = np.random.default_rng(2)
    pts = rng.integers(-1000, 1000, size=(300, 2))
    for spec in ALL_SPECS:
        f = make_field(spec, 99, "vertex", 2)
        ref = np.array([_ref_weight(spec, 99, (0x76, *map(int, p))) for p in pts])
        _assert_routes_agree(spec, f.vertex_weights(pts), ref)
        fe = make_field(spec, 98, "edge", 3)
        cur = (5, -7, 11)
        ref = np.array([_ref_weight(spec, 98, (0x65, j, *cur)) for j in range(3)])
        _assert_routes_agree(spec, fe.edge_weights(cur, np.arange(3)), ref)
        lo, shape = (-3, 4, 0), (4, 2, 3)
        win = fe.edge_window(lo, shape)
        ref = np.array([[_ref_weight(spec, 98, (0x65, j, *(a + i for a, i in zip(lo, idx))))
                         for idx in np.ndindex(*shape)] for j in range(3)])
        _assert_routes_agree(spec, win, ref.reshape(win.shape))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.token())
@pytest.mark.parametrize("lo,shape", [((-7,), (40,)), ((3, -5), (9, 6)), ((-2, 4, 1), (3, 5, 4)),
                                      ((-1, 2), (600, 500))])
def test_vertex_window_matches_vertex_weights(spec, lo, shape):
    # per-axis range words give the bits of a meshgrid lookup; the last case
    # spans several hash slabs along the first axis
    f = make_field(spec, 77, "vertex", len(shape))
    axes = [np.arange(a, a + n) for a, n in zip(lo, shape)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    win = f.vertex_window(lo, shape)
    assert win.shape == shape
    assert win.tobytes() == f.vertex_weights(grid).tobytes()


def test_attachment_and_dimension_checks():
    fv = make_field(exponential(1.0), 0, "vertex", 2)
    fe = make_field(exponential(1.0), 0, "edge", 2)
    with pytest.raises(ValueError):
        fv.edge_weight((0, 0), (1, 0))
    with pytest.raises(ValueError):
        fe.vertex_weights([(0, 0)])
    with pytest.raises(ValueError):
        fv.vertex_weights([(0, 0, 0)])
    with pytest.raises(ValueError):
        fv.edge_window((0, 0), (2, 2))
    with pytest.raises(ValueError):
        fe.edge_window((0, 0, 0), (2, 2, 2))
    with pytest.raises(ValueError):
        fe.vertex_window((0, 0), (2, 2))
    with pytest.raises(ValueError):
        fv.vertex_window((0,), (2,))
    with pytest.raises(ValueError):
        fe.edge_weight((0, 0), (1, 1))  # not nearest neighbors
    with pytest.raises(ValueError):
        make_field(exponential(1.0), 0, "face", 2)


# -- statistical contracts ------------------------------------------------------

def _sample(spec, n, seed=123):
    f = make_field(spec, seed, "vertex", 2)
    pts = np.stack([np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64)], axis=-1)
    return f.vertex_weights(pts)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.token())
def test_moments_match_closed_forms(spec):
    n = 100_000
    x = _sample(spec, n)
    mean_se = math.sqrt(spec.variance() / n) if spec.variance() > 0 else 0.0
    assert abs(x.mean() - spec.mean()) <= 5 * mean_se + 1e-12
    s2 = x.var(ddof=1)
    m4 = ((x - x.mean()) ** 4).mean()
    var_se = math.sqrt(max(m4 - s2**2, 0.0) / n)
    assert abs(s2 - spec.variance()) <= 5 * var_se + 1e-12


def test_exponential_sample_mean_near_one():
    x = _sample(exponential(1.0), 100_000)
    assert abs(x.mean() - 1.0) <= 0.01


def test_twopoint_atom_frequency():
    x = _sample(two_point(0.8), 100_000)
    assert abs(np.mean(x == 1.0) - 0.8) <= 0.004


def test_adjacent_weights_uncorrelated():
    n = 10_000
    f = make_field(exponential(1.0), 31, "vertex", 2)
    base = np.stack([np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64)], axis=-1)
    right = base + np.array([0, 1])
    a = f.vertex_weights(base)
    b = f.vertex_weights(right)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(n)


def test_adjacent_edge_weights_uncorrelated():
    n = 10_000
    f = make_field(uniform(0.5, 1.5), 8, "edge", 2)
    lows = np.stack([np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64)], axis=-1)
    a = f.edge_weights(lows, np.zeros(n, dtype=np.int64))
    b = f.edge_weights(lows, np.ones(n, dtype=np.int64))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(n)


# -- seed derivation -------------------------------------------------------------

def test_derive_seed_stable_and_sensitive():
    s = derive_seed(42, "variance", 64, 3)
    assert s == derive_seed(42, "variance", 64, 3)
    assert s != derive_seed(42, "variance", 64, 4)
    assert s != derive_seed(42, "wandering", 64, 3)
    assert s != derive_seed(43, "variance", 64, 3)
    assert 0 <= s < 2**64


@given(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40))
@settings(max_examples=50)
def test_hash_routes_bit_identical(x, y):
    # the library's uint64 fold matches the Python-int reference exactly
    f = make_field(uniform(0.0, 1.0), 1234, "vertex", 2)
    vec = f.vertex_weights(np.array([[x, y]], dtype=np.int64))[0]
    assert _ref_weight(f.spec, 1234, (0x76, x, y)) == vec
    fe = make_field(uniform(0.0, 1.0), 1234, "edge", 2)
    assert _ref_weight(fe.spec, 1234, (0x65, 1, x, y)) == fe.edge_window((x, y), (1, 1))[1, 0, 0]
