import math
from collections import Counter

import numpy as np
import pytest
from scipy.sparse import identity, lil_matrix
from scipy.sparse.linalg import spsolve
from scipy.stats import ks_2samp

from latticegrow import (
    eden_grow,
    exponential,
    fpp_infection_order,
    idla_grow,
    make_field,
    roundness,
    uniform,
)
from latticegrow import growth
from latticegrow.fpp import unit_steps
from latticegrow.growth import ClusterTrace

NEIGHBORS_2D = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _first_site_frequencies(grow, trials):
    counts = Counter()
    for i in range(trials):
        counts[grow(i)] += 1
    return counts


def _counting_grow_grid(monkeypatch):
    grown = []
    grow_grid = growth._grow_grid

    def counting_grow_grid(cells, d, radius, *lists):
        grown.append(radius)
        return grow_grid(cells, d, radius, *lists)

    monkeypatch.setattr(growth, "_first_radius", lambda d, particles: 2)
    monkeypatch.setattr(growth, "_grow_grid", counting_grow_grid)
    return grown


# -- Eden -----------------------------------------------------------------------

def test_eden_first_site_uniform():
    trials = 10_000
    counts = _first_site_frequencies(lambda i: eden_grow(i, 2, 1).vertices[0], trials)
    assert set(counts) == set(NEIGHBORS_2D)
    se = math.sqrt(0.25 * 0.75 / trials)
    assert abs(counts[(1, 0)] / trials - 0.25) <= 3 * se + 0.003


def test_eden_adjacency_and_cluster_size_invariants():
    for seed in range(5):
        trace = eden_grow(seed, 2, 40)
        s = {(0, 0)}
        for v in trace.vertices:
            assert v not in s
            assert any(tuple(a + b for a, b in zip(v, m)) in s for m in NEIGHBORS_2D)
            s.add(v)
        assert len(trace.cluster_at(40)) == 41


def _eden_reference(seed, d, steps):
    """The tuple-and-set Eden loop that the flat-index grid replaced."""
    rng = np.random.default_rng(seed)
    moves = unit_steps(d)
    origin = (0,) * d
    cluster = {origin}
    edges = [(origin, tuple(m)) for m in moves]
    added = []
    for _ in range(steps):
        while True:
            i = int(rng.integers(len(edges)))
            inner, outer = edges[i]
            if outer in cluster:
                edges[i] = edges[-1]
                edges.pop()
                continue
            break
        cluster.add(outer)
        added.append(outer)
        for m in moves:
            nb = tuple(a + b for a, b in zip(outer, m))
            if nb not in cluster:
                edges.append((outer, nb))
    return added


def test_eden_matches_tuple_loop(monkeypatch):
    for d, steps in ((1, 200), (2, 2000), (3, 1500)):
        for seed in range(3):
            assert eden_grow(seed, d, steps).vertices == _eden_reference(seed, d, steps)
    grown = _counting_grow_grid(monkeypatch)
    for d, steps in ((1, 60), (2, 2000), (3, 1500)):
        for seed in (3, 4):
            grown.clear()
            assert eden_grow(seed, d, steps).vertices == _eden_reference(seed, d, steps)
            assert len(grown) >= 3, (d, grown)


@pytest.mark.parametrize("n", [2, 3, 7, 2**16 + 1, 3 * 2**30, 2**32 - 1, 2**31 + 1])
def test_word_draws_match_numpy_integers(n):
    # 2^31 + 1 rejects about half the words, so blocks end inside a redraw
    numpy_rng = np.random.default_rng(2024)
    draw = growth._bounded_draws(np.random.default_rng(2024)).send
    draw(None)
    assert [draw(n) for _ in range(3000)] == [int(numpy_rng.integers(n)) for _ in range(3000)]


def test_word_draws_refuse_ranges_numpy_draws_otherwise():
    for n in (1, 2**32):
        draw = growth._bounded_draws(np.random.default_rng(0)).send
        draw(None)
        with pytest.raises(ValueError, match="2 <= n < 2"):
            draw(n)


def test_decoded_sites_are_tuples_of_python_ints(monkeypatch):
    grown = _counting_grow_grid(monkeypatch)
    runs = [(eden_grow, 1, 60), (eden_grow, 2, 400), (eden_grow, 3, 400),
            (idla_grow, 1, 60), (idla_grow, 2, 400), (idla_grow, 3, 400)]
    for grow, d, steps in runs:
        grown.clear()
        vertices = grow(5, d, steps).vertices
        assert len(grown) >= 2, (grow, d)
        assert all(type(v) is tuple and len(v) == d for v in vertices)
        assert {type(c) for v in vertices for c in v} == {int}


def _domino_boundary_edges(s1):
    """Enumerate the boundary edge multiset of a 2-site cluster exactly."""
    edges = []
    for x in s1:
        for m in NEIGHBORS_2D:
            y = tuple(a + b for a, b in zip(x, m))
            if y not in s1:
                edges.append((x, y))
    return edges


def test_eden_second_step_collinear_probability():
    # exact case analysis: after S_1 = {0, v1}, enumerate the boundary edges
    # of the domino and count those extending the segment collinearly
    s1 = {(0, 0), (1, 0)}
    edges = _domino_boundary_edges(s1)
    assert len(edges) == 6
    collinear = [e for e in edges if e[1] in ((2, 0), (-1, 0))]
    p_exact = len(collinear) / len(edges)
    assert p_exact == pytest.approx(1.0 / 3.0)

    trials = 6000
    hits = 0
    for i in range(trials):
        trace = eden_grow(20_000 + i, 2, 2)
        v1, v2 = trace.vertices
        if v2 == (2 * v1[0], 2 * v1[1]) or v2 == (-v1[0], -v1[1]):
            hits += 1
    se = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(hits / trials - p_exact) <= 3 * se


# -- FPP infection order -----------------------------------------------------------

def test_infection_order_requires_exponential():
    f = make_field(uniform(0.5, 1.5), 0, "edge", 2)
    with pytest.raises(ValueError):
        fpp_infection_order(f, 3)


def test_infection_first_site_uniform():
    trials = 10_000
    counts = _first_site_frequencies(
        lambda i: fpp_infection_order(make_field(exponential(1.0), i, "edge", 2), 1).vertices[0],
        trials,
    )
    assert set(counts) == set(NEIGHBORS_2D)
    se = math.sqrt(0.25 * 0.75 / trials)
    assert abs(counts[(0, 1)] / trials - 0.25) <= 3 * se + 0.003


def test_infection_order_is_settling_order():
    from latticegrow import LatticeBox, fpp_dijkstra

    f = make_field(exponential(1.0), 55, "edge", 2)
    trace = fpp_infection_order(f, 6)
    pmap = fpp_dijkstra(f, (0, 0), LatticeBox(2, 7), max_settled=7)
    assert list(trace.vertices) == pmap.order[1:]
    times = [pmap.times[v] for v in pmap.order]
    assert times == sorted(times)


def test_infection_order_box_growth_matches_full_box():
    from latticegrow import LatticeBox, fpp_dijkstra

    for seed in (3, 4):
        f = make_field(exponential(1.0), seed, "edge", 2)
        full = fpp_dijkstra(f, (0, 0), LatticeBox(2, 201), max_settled=201)
        assert list(fpp_infection_order(f, 200).vertices) == full.order[1:]


def test_eden_and_infection_agree_in_distribution_small():
    # P(w in S_2) for each near neighbor, both growth laws, 3 pooled SE
    trials = 4000
    targets = [(1, 0), (0, -1), (1, 1)]
    eden_hits = Counter()
    fpp_hits = Counter()
    for i in range(trials):
        s_eden = set(eden_grow(i, 2, 2).vertices)
        f = make_field(exponential(1.0), 500_000 + i, "edge", 2)
        s_fpp = set(fpp_infection_order(f, 2).vertices)
        for w in targets:
            eden_hits[w] += w in s_eden
            fpp_hits[w] += w in s_fpp
    for w in targets:
        p1 = eden_hits[w] / trials
        p2 = fpp_hits[w] / trials
        pool = (eden_hits[w] + fpp_hits[w]) / (2 * trials)
        se = math.sqrt(max(pool * (1 - pool), 1e-9) * 2 / trials)
        assert abs(p1 - p2) <= 3 * se + 1e-9, (w, p1, p2)


# -- IDLA ---------------------------------------------------------------------------

def test_idla_first_site_uniform():
    trials = 10_000
    counts = _first_site_frequencies(lambda i: idla_grow(i, 2, 1).vertices[0], trials)
    assert set(counts) == set(NEIGHBORS_2D)
    se = math.sqrt(0.25 * 0.75 / trials)
    assert abs(counts[(-1, 0)] / trials - 0.25) <= 3 * se + 0.003


def _domino_exit_distribution():
    """Exact exit distribution of a walk from 0 on the cluster {0, e1}.

    Absorbing-chain solve on the two transient states: from either state the
    walk exits immediately with probability 3/4 (uniform over that state's
    three outside neighbors) or hops to the other state with probability 1/4.
    """
    # P(absorbed on the 0-side) = (3/4) * sum_k (1/16)^k = 4/5
    p_side_0 = (3.0 / 4.0) / (1.0 - 1.0 / 16.0)
    p_side_1 = 1.0 - p_side_0
    dist = {}
    for y in [(-1, 0), (0, 1), (0, -1)]:
        dist[y] = p_side_0 / 3.0
    for y in [(2, 0), (1, 1), (1, -1)]:
        dist[y] = p_side_1 / 3.0
    return dist


def test_idla_second_site_exact_chain():
    exact = _domino_exit_distribution()
    assert sum(exact.values()) == pytest.approx(1.0)
    trials = 8000
    counts = Counter()
    kept = 0
    for i in range(trials):
        trace = idla_grow(40_000 + i, 2, 2)
        if trace.vertices[0] != (1, 0):  # condition on the first site
            continue
        kept += 1
        counts[trace.vertices[1]] += 1
    assert kept > trials / 8
    for site, p in exact.items():
        se = math.sqrt(p * (1 - p) / kept)
        assert abs(counts[site] / kept - p) <= 3.5 * se + 0.005, site


def test_idla_one_new_vertex_invariant():
    # each site is new and neighbours the cluster, jumps or not
    for seed, particles in ((7, 150), (8, 3000)):
        trace = idla_grow(seed, 2, particles)
        s = {(0, 0)}
        for v in trace.vertices:
            assert v not in s
            assert any((v[0] + dx, v[1] + dy) in s for dx, dy in NEIGHBORS_2D)
            s.add(v)
        assert len(s) == particles + 1


def test_idla_generic_dimension_matches_invariants():
    trace = idla_grow(3, 3, 30)
    s = {(0, 0, 0)}
    for v in trace.vertices:
        assert v not in s
        s.add(v)


# test-only copies of earlier walkers: _idla_reference_generic draws one
# direction per move, and the block-drawn walker reproduces it vertex for
# vertex in every dimension; _idla_reference_2d is the d = 2 chunk loop
# (chunks of 64, 128, ..., 2^15 directions, the rest of the exit's chunk
# dropped), a different schedule with the same law, kept to test the law

def _idla_reference_2d(seed, particles):
    rng = np.random.default_rng(seed)
    moves = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], dtype=np.int64)

    radius = int(math.ceil(2.2 * math.sqrt(particles / math.pi))) + 10
    occ = np.zeros((2 * radius + 1, 2 * radius + 1), dtype=bool)
    occ[radius, radius] = True
    out_sq = 0
    added = []

    for _ in range(particles):
        pos = np.zeros(2, dtype=np.int64)
        chunk = 64
        taken = 0
        cap = growth._WALK_CAP_BASE + 200 * (out_sq + 25)
        site = None
        while site is None:
            draws = rng.integers(0, 4, size=chunk)
            path = pos + np.cumsum(moves[draws], axis=0)
            ix = path[:, 0] + radius
            iy = path[:, 1] + radius
            in_grid = (ix >= 0) & (ix < occ.shape[0]) & (iy >= 0) & (iy < occ.shape[1])
            inside = np.zeros(chunk, dtype=bool)
            ok = in_grid.nonzero()[0]
            inside[ok] = occ[ix[ok], iy[ok]]
            if inside.all():
                pos = path[-1]
                taken += chunk
                if taken > cap:
                    raise RuntimeError(f"random walk exceeded the safety cap ({cap} steps)")
                chunk = min(chunk * 2, 1 << 15)
                continue
            j = int(np.argmin(inside))
            site = (int(path[j, 0]), int(path[j, 1]))
        occ[site[0] + radius, site[1] + radius] = True
        added.append(site)
        out_sq = max(out_sq, site[0] * site[0] + site[1] * site[1])
        if max(abs(site[0]), abs(site[1])) >= radius - 1:
            new_radius = radius * 2
            new = np.zeros((2 * new_radius + 1, 2 * new_radius + 1), dtype=bool)
            off = new_radius - radius
            new[off: off + occ.shape[0], off: off + occ.shape[1]] = occ
            occ, radius = new, new_radius
    return added


def _idla_reference_generic(seed, d, particles):
    rng = np.random.default_rng(seed)
    moves = unit_steps(d)
    origin = (0,) * d
    cluster = {origin}
    added = []
    for _ in range(particles):
        pos = origin
        cap = growth._WALK_CAP_BASE + 200 * (len(cluster) + 25)
        for taken in range(cap + 1):
            if pos not in cluster:
                break
            m = moves[int(rng.integers(2 * d))]
            pos = tuple(a + b for a, b in zip(pos, m))
        else:
            raise RuntimeError(f"random walk exceeded the safety cap ({cap} steps)")
        cluster.add(pos)
        added.append(pos)
    return added


def test_idla_2d_matches_reference_loop():
    for seed in range(12):
        for particles in (1, 2, 5, 150):
            assert growth._walk_blocks(seed, 2, particles) == _idla_reference_generic(
                seed, 2, particles), (seed, particles)
    # the per-move loop takes about 1.5 s a seed at this size
    for seed in (7, 3):
        assert growth._walk_blocks(seed, 2, 1500) == _idla_reference_generic(seed, 2, 1500)


def test_idla_walks_before_the_first_jump_match_reference(monkeypatch):
    # no level map before the first refresh, so no jumps: the first
    # _LEVEL_REFRESH walks read the direction stream move by move
    first = growth._LEVEL_REFRESH
    for seed in range(4):
        assert idla_grow(seed, 2, first + 200).vertices[:first] == growth._walk_blocks(
            seed, 2, first), seed
    # with every level 0, every walk steps, through refreshes and grid growths
    monkeypatch.setattr(growth, "_level_map", lambda occ: np.zeros(occ.shape, np.uint8))
    monkeypatch.setattr(growth, "_first_radius", lambda d, particles: 2)
    for seed in (3, 4):
        assert idla_grow(seed, 2, 1500).vertices == growth._walk_blocks(seed, 2, 1500)


def test_idla_other_dimensions_match_reference_loop():
    for d, sizes in ((1, (1, 2, 5, 60)), (3, (1, 5, 150)), (4, (1, 5, 150))):
        for seed in range(4):
            for particles in sizes:
                assert idla_grow(seed, d, particles).vertices == _idla_reference_generic(
                    seed, d, particles), (d, seed, particles)


def test_idla_matches_reference_through_grid_doublings(monkeypatch):
    # d = 2 runs the block walker, the jump walker's reference
    grown = _counting_grow_grid(monkeypatch)
    for seed, d, particles in ((4, 2, 700), (5, 3, 1500), (6, 1, 40)):
        grown.clear()
        sites = (growth._walk_blocks(seed, d, particles) if d == 2
                 else idla_grow(seed, d, particles).vertices)
        assert sites == _idla_reference_generic(seed, d, particles)
        assert len(grown) >= 3, (d, grown)


def _first_failure(grow, most):
    """Fewest particles at which grow raises the cap error, or None up to most."""
    for particles in range(1, most + 1):
        try:
            grow(particles)
        except RuntimeError:
            return particles
    return None


def test_idla_cap_raises_at_the_same_particle(monkeypatch):
    # cap = base + 200 * (cluster size + 25), and a walk may take cap moves
    # but not one more; the d = 2 jump walker takes no jump this early
    walkers = [(1, lambda s, p: idla_grow(s, 1, p).vertices),
               (2, lambda s, p: growth._walk_blocks(s, 2, p)),
               (2, lambda s, p: idla_grow(s, 2, p).vertices),
               (3, lambda s, p: idla_grow(s, 3, p).vertices)]
    for d, walk in walkers:
        monkeypatch.setattr(growth, "_WALK_CAP_BASE", -5200)  # cap 0 for the first walk
        assert _first_failure(lambda p: walk(0, p), 5) == 1
        assert _first_failure(lambda p: _idla_reference_generic(0, d, p), 5) == 1
        monkeypatch.setattr(growth, "_WALK_CAP_BASE", -5199)  # cap 1
        assert walk(0, 30) == _idla_reference_generic(0, d, 30)


def _ratio_at(n):
    def ratio(vertices):
        rin, rout = roundness(ClusterTrace("idla", 0, 2, vertices), n)
        return rout / rin
    return ratio


def test_idla_roundness_law_matches_chunk_loop():
    # same law, different draws: the out/in ratio at N = 100 over disjoint seeds
    ratio = _ratio_at(100)
    old = [ratio(_idla_reference_2d(seed, 100)) for seed in range(400)]
    new = [ratio(idla_grow(seed, 2, 100).vertices) for seed in range(10_000, 10_400)]
    assert ks_2samp(old, new).pvalue >= 0.001


@pytest.mark.parametrize("particles,refresh,seeds", [
    (100, 8, 400),     # a map every 8 particles, so small clusters jump too
    (1000, None, 200),
])
def test_idla_roundness_law_matches_block_walker(monkeypatch, particles, refresh, seeds):
    # jumps change the draws, not the law: the out/in ratio over disjoint seeds
    if refresh is not None:
        monkeypatch.setattr(growth, "_LEVEL_REFRESH", refresh)
    ratio = _ratio_at(particles)
    old = [ratio(growth._walk_blocks(seed, 2, particles)) for seed in range(seeds)]
    new = [ratio(idla_grow(seed, 2, particles).vertices)
           for seed in range(20_000, 20_000 + seeds)]
    assert ks_2samp(old, new).pvalue >= 0.001


def _exit_law_by_solve(s):
    """Exit law of the square [-s, s]^2 from 0, by a sparse absorbing-chain solve."""
    inner = [(x, y) for x in range(1 - s, s) for y in range(1 - s, s)]
    index = {v: i for i, v in enumerate(inner)}
    outer = sorted({(x + dx, y + dy) for x, y in inner for dx, dy in NEIGHBORS_2D} - set(index))
    column = {v: i for i, v in enumerate(outer)}
    q = lil_matrix((len(inner), len(inner)))
    r = lil_matrix((len(inner), len(outer)))
    for (x, y), i in index.items():
        for dx, dy in NEIGHBORS_2D:
            w = (x + dx, y + dy)
            if w in index:
                q[i, index[w]] += 0.25
            else:
                r[i, column[w]] += 0.25
    # the centre's row of the Green's function (I - Q)^-1, then its exits
    centre = np.zeros(len(inner))
    centre[index[(0, 0)]] = 1.0
    green = spsolve((identity(len(inner)) - q).T.tocsc(), centre)
    return dict(zip(outer, r.T.tocsr() @ green))


# s = 32 also drops the modes too small to move the law
@pytest.mark.parametrize("s", [2, 4, 8, 32])
def test_square_exit_law_matches_linear_solve(s):
    rows, cols, cdf = growth._square_exit_law(s)
    assert cdf[-1] == 1.0 and len(cdf) == 4 * (2 * s - 1)
    law = dict(zip(zip(rows.tolist(), cols.tolist()), np.diff(cdf, prepend=0.0)))
    exact = _exit_law_by_solve(s)
    assert set(law) == set(exact)  # the boundary off the corners
    for point, p in exact.items():
        assert abs(law[point] - p) <= 1e-14, (point, law[point], p)
    for x, y in law:
        for image in ((-x, y), (x, -y), (y, x), (-y, -x), (-x, -y), (y, -x), (-y, x)):
            assert abs(law[image] - law[(x, y)]) <= 1e-14


def _exact_levels(occ):
    """Largest k >= 1 with every cell of the radius-2^k square around the cell occupied."""
    side = occ.shape[0]
    table = np.zeros((side + 1, side + 1), dtype=np.int64)
    table[1:, 1:] = occ.astype(np.int64).cumsum(0).cumsum(1)
    levels = np.zeros(occ.shape, dtype=np.int64)
    k = 1
    while 2 ** (k + 1) + 1 <= side:
        r = 2 ** k
        w = 2 * r + 1
        count = table[w:, w:] - table[:-w, w:] - table[w:, :-w] + table[:-w, :-w]
        levels[r:side - r, r:side - r] += count == w * w
        k += 1
    return levels


def test_idla_level_map_is_a_lower_bound(monkeypatch):
    # every cell the walker reads at level k has its radius-2^k square
    # occupied: built exactly, still after the map went stale, and after the
    # stale map was copied into a grown grid
    grown = _counting_grow_grid(monkeypatch)
    monkeypatch.setattr(growth, "_LEVEL_REFRESH", 40)
    mark_levels = growth._mark_levels
    built = []

    def checked(cells, radius):
        grid = np.frombuffer(cells, dtype=np.uint8).reshape((2 * radius + 1,) * 2)
        occ = grid > 0
        exact = _exact_levels(occ)
        assert (grid[occ] - 1 <= exact[occ]).all()  # the stale map
        exits = mark_levels(cells, radius)
        assert (np.where(occ, grid.astype(np.int64) - 1, 0) == exact).all()
        assert len(exits) == exact.max()
        built.append(int(exact.max()))
        return exits

    monkeypatch.setattr(growth, "_mark_levels", checked)
    for seed in (1, 2):
        grown.clear()
        built.clear()
        trace = idla_grow(seed, 2, 3000)
        assert len(set(trace.vertices)) == 3000
        assert len(grown) >= 3 and len(built) > 3000 // 40
        assert max(built) >= 3, built


def test_cached_jump_tables_equal_a_fresh_build():
    # the jumps depend only on the level and the grid side, so two grids of one
    # side share them; a full disc has levels up to 3 at radius 20, 4 at 40
    for radius, top in ((20, 3), (40, 4)):
        side = 2 * radius + 1
        for _ in range(2):  # the second build reads the cache
            cells = bytearray(side * side)
            x = np.arange(-radius, radius + 1)
            occ = x[:, None] ** 2 + x[None, :] ** 2 <= (radius - 1) ** 2
            growth._shaped(cells, 2, radius)[...] = occ
            exits = growth._mark_levels(cells, radius)
            fresh = []
            for k in range(1, top + 1):
                rows, cols, cdf = growth._square_exit_law.__wrapped__(1 << k)
                fresh.append((tuple((rows * side + cols).tolist()), cdf))
            assert exits == fresh


def test_lattice_symmetry_of_first_step_all_models():
    trials = 6000
    for grow in (
        lambda i: eden_grow(i, 2, 1).vertices[0],
        lambda i: idla_grow(i, 2, 1).vertices[0],
        lambda i: fpp_infection_order(make_field(exponential(1.0), i, "edge", 2), 1).vertices[0],
    ):
        counts = _first_site_frequencies(grow, trials)
        p1 = counts[(1, 0)] / trials
        p2 = counts[(0, -1)] / trials
        se = math.sqrt(2 * 0.25 * 0.75 / trials)
        assert abs(p1 - p2) <= 3 * se + 1e-9


# -- roundness -----------------------------------------------------------------------

def test_negative_step_count_is_refused():
    trace = eden_grow(0, 2, 10)
    for ask in (lambda n: trace.cluster_at(n), lambda n: roundness(trace, n)):
        with pytest.raises(ValueError, match=">= 0"):
            ask(-3)
        ask(0)
    assert len(trace.cluster_at(10)) == 11


def test_roundness_origin_only():
    trace = ClusterTrace(model="manual", seed=0, dimension=2, vertices=[])
    rin, rout = roundness(trace, 0)
    assert rout == 0.0
    assert 0.0 <= rin < 1.0


def test_roundness_full_linf_box():
    ring = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    trace = ClusterTrace(model="manual", seed=0, dimension=2, vertices=ring)
    rin, rout = roundness(trace, 8)
    assert rout == pytest.approx(math.sqrt(2.0))
    assert rin == pytest.approx(math.sqrt(2.0))


def test_roundness_partial_cross():
    trace = ClusterTrace(
        model="manual", seed=0, dimension=2, vertices=[(1, 0), (-1, 0), (0, 1)]
    )
    rin, rout = roundness(trace, 3)
    # (0,-1) is missing at norm 1, so nothing beyond norm 0 is fully covered
    assert rin == 0.0
    assert rout == 1.0


def _roundness_reference(trace, n):
    """The per-point membership loop that roundness replaced."""
    cluster = trace.cluster_at(n)
    d = trace.dimension
    pts = np.array(sorted(cluster), dtype=np.int64)
    out_r = float(np.sqrt((pts.astype(np.float64) ** 2).sum(axis=1).max()))
    reach = int(math.floor(out_r)) + 1
    axes = [np.arange(-reach, reach + 1, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norms = np.sqrt((grid.astype(np.float64) ** 2).sum(axis=1))
    member = np.fromiter((tuple(p) in cluster for p in grid), dtype=bool, count=grid.shape[0])
    missing = norms[~member]
    if missing.size == 0:
        in_r = float(norms[member].max())
    else:
        m = float(missing.min())
        below = norms[norms < m]
        in_r = float(below.max()) if below.size else 0.0
    return in_r, out_r


def test_roundness_matches_reference_loop():
    for d in (1, 2, 3):
        for trace in (idla_grow(d, d, 400), eden_grow(d, d, 400)):
            for n in (0, 1, 2, 7, 60, 400):
                assert roundness(trace, n) == _roundness_reference(trace, n), (trace.model, d, n)
    trace = ClusterTrace(model="manual", seed=0, dimension=2, vertices=[(0, 1), (0, 1), (5, -2)])
    assert roundness(trace, 3) == _roundness_reference(trace, 3)
    with pytest.raises(ValueError):
        roundness(trace, 4)


def _roundness_float_norms(trace, n):
    """roundness as it stood before integer norms: int64 window, float64 norms."""
    d = trace.dimension
    pts = np.concatenate([np.zeros((1, d), dtype=np.int64),
                          np.array(trace.vertices[:n], dtype=np.int64).reshape(-1, d)])
    out_r = float(np.sqrt((pts * pts).sum(axis=1).max()))
    reach = int(math.floor(out_r)) + 1
    side = 2 * reach + 1
    member = np.zeros((side,) * d, dtype=bool)
    member[tuple((pts + reach).T)] = True
    axis_sq = np.arange(-reach, reach + 1, dtype=np.int64) ** 2
    norm_sq = sum(axis_sq.reshape((side,) + (1,) * (d - 1 - j)) for j in range(d))
    norms = np.sqrt(norm_sq)
    nearest_missing = norms[~member].min()
    in_r = float(norms[norms < nearest_missing].max(initial=0.0))
    return in_r, out_r


def test_roundness_integer_norms_match_float_norms():
    for d in (2, 3, 4):
        for seed in range(4):
            for trace in (idla_grow(seed, d, 300), eden_grow(seed, d, 300)):
                for n in (1, 40, 300):
                    assert roundness(trace, n) == _roundness_float_norms(trace, n)
    # d reach^2 past the int32 range takes the int64 window
    sites = [(s * c,) for c in range(1, 46400) for s in (1, -1)]
    trace = ClusterTrace(model="manual", seed=0, dimension=1, vertices=sites)
    assert roundness(trace, len(sites)) == _roundness_float_norms(trace, len(sites))
    assert roundness(trace, len(sites)) == (46399.0, 46399.0)


def test_idla_roundness_ratio_moderate_n():
    trace = idla_grow(11, 2, 3000)
    rin, rout = roundness(trace, 3000)
    assert rout / rin <= 1.25
    assert rin > 20.0


def test_idla_roundness_ratio_nonincreasing_on_average():
    # the cluster rounds out as it grows: the mean out/in ratio over seeds
    # decreases along the checkpoint grid
    checkpoints = [1000, 4000, 20_000]
    ratios = np.zeros((20, len(checkpoints)))
    for s in range(20):
        trace = idla_grow(3000 + s, 2, checkpoints[-1])
        for j, n in enumerate(checkpoints):
            rin, rout = roundness(trace, n)
            ratios[s, j] = rout / rin
    means = ratios.mean(axis=0)
    assert means[0] >= means[1] >= means[2]


@pytest.mark.parametrize("kind,d,steps", [("eden", 1, 3000), ("eden", 2, 40_000),
                                          ("eden", 3, 20_000), ("idla", 2, 8000),
                                          ("idla", 3, 20_000)])
def test_run_allocates_within_its_count(kind, d, steps, tmp_path):
    # numpy and Python objects both report to tracemalloc: growing, writing the
    # trace and its roundness hold at most the last two grids, the last
    # roundness window and _trace_bytes
    import tracemalloc

    from latticegrow.experiments import ExperimentConfig, run_experiment

    tracemalloc.start()
    try:
        run_experiment(ExperimentConfig(kind=kind, dim=d, steps=steps, out=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sites = np.loadtxt(tmp_path / f"{kind}_trace.csv", delimiter=",", skiprows=1,
                       dtype=np.int64)[:, 1:]
    radii = [growth._first_radius(d, steps)]
    while radii[-1] <= np.abs(sites).max():  # a site on the rim grows the grid
        radii.append(radii[-1] + (radii[-1] + 1) // 2)
    grids = sum(growth._grid_bytes(d, r) for r in radii[-2:])
    reach = math.isqrt(int((sites * sites).sum(axis=1).max())) + 1
    assert peak <= grids + growth._roundness_bytes(d, reach) + growth._trace_bytes(kind, d, steps)
