"""Correspondences, distortion, and Gromov-Hausdorff solvers.

Core claims:
    - Correspondence covers both factors; distortion is the sup mismatch
    - composition obeys the distortion triangle lemma
    - branch and bound equals full enumeration on small instances
    - d_GH = 0 exactly when an isometry exists
    - any correspondence with distortion delta distorts gamma by <= 3 delta
"""

import tracemalloc

import numpy as np
import pytest

import lorentzmet.gh as gh_module
from lorentzmet import (
    Causet,
    Correspondence,
    DiamondSpace,
    GHResult,
    SampleSpec,
    compose,
    diameter,
    distance_quotient,
    distortion,
    gamma,
    gh_exact,
    gh_lower_bounds,
    gh_upper_greedy,
    gh_zero_is_isometry,
    induced,
    sample_causet,
)
from lorentzmet.gh import (_branch_and_bound, _pair_table, _profile_mismatch,
                           _root_bound, epsilon_isometry_from, map_distortion)
from helpers import (covering_masks, oracle_gh, oracle_gh_exact, oracle_greedy,
                     oracle_lower_bound, oracle_pairs_distortion,
                     oracle_profile_mismatch, random_valid_matrix)


CHAIN_1 = Causet.from_matrix([[0.0, 1.0], [0.0, 0.0]])
CHAIN_125 = Causet.from_matrix([[0.0, 1.25], [0.0, 0.0]])


def random_correspondence(rng, m, n) -> Correspondence:
    f = rng.integers(0, n, size=m)
    g = rng.integers(0, m, size=n)
    pairs = {(x, int(f[x])) for x in range(m)} | \
            {(int(g[y]), y) for y in range(n)}
    return Correspondence(m, n, tuple(pairs))


def test_correspondence_validation():
    r = Correspondence(2, 2, ((0, 0), (1, 1), (0, 0)))
    assert r.pairs == ((0, 0), (1, 1))  # deduplicated and sorted
    with pytest.raises(ValueError):
        Correspondence(2, 2, ((0, 0),))  # misses a point on each side
    with pytest.raises(ValueError):
        Correspondence(2, 2, ((0, 0), (1, 5)))
    assert Correspondence.identity(3).pairs == ((0, 0), (1, 1), (2, 2))


def test_distortion_and_transpose():
    full = Correspondence(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert distortion(full, CHAIN_1, CHAIN_125) == 1.25
    tight = Correspondence(2, 2, ((0, 0), (1, 1)))
    assert distortion(tight, CHAIN_1, CHAIN_125) == 0.25
    assert distortion(tight.transpose(), CHAIN_125, CHAIN_1) == 0.25
    with pytest.raises(ValueError):
        distortion(tight, CHAIN_1, Causet.from_matrix(np.zeros((3, 3))))


def test_adding_pairs_never_decreases_distortion():
    rng = np.random.default_rng(2)
    a = random_valid_matrix(rng, 4)
    b = random_valid_matrix(rng, 5)
    r = random_correspondence(rng, 4, 5)
    base = distortion(r, a, b)
    bigger = Correspondence(4, 5, r.pairs + ((0, 4), (3, 0)))
    assert distortion(bigger, a, b) >= base


def test_compose_triangle_lemma():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = random_valid_matrix(rng, int(rng.integers(2, 6)))
        b = random_valid_matrix(rng, int(rng.integers(2, 6)))
        c = random_valid_matrix(rng, int(rng.integers(2, 6)))
        r1 = random_correspondence(rng, a.n, b.n)
        r2 = random_correspondence(rng, b.n, c.n)
        lhs = distortion(compose(r1, r2), a, c)
        assert lhs <= distortion(r1, a, b) + distortion(r2, b, c) + 1e-12
    with pytest.raises(ValueError):
        compose(random_correspondence(rng, 2, 3),
                random_correspondence(rng, 4, 2))


def test_gh_exact_identical_and_chain_pair():
    same = gh_exact(CHAIN_1, CHAIN_1)
    assert same.exact == 0.0 and same.method == "exact"
    assert set(Correspondence.identity(2).pairs) <= set(same.witness.pairs)

    r = gh_exact(CHAIN_1, CHAIN_125)
    assert r.exact == 0.25
    assert r.lower == r.upper == 0.25
    assert distortion(r.witness, CHAIN_1, CHAIN_125) == 0.25


def test_gh_exact_against_single_point():
    rng = np.random.default_rng(14)
    c = random_valid_matrix(rng, 4)
    point = Causet.from_matrix([[0.0]])
    r = gh_exact(c, point)
    assert r.exact == diameter(c)


def test_gh_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(6)
    for _ in range(8):
        a = random_valid_matrix(rng, int(rng.integers(1, 4)))
        b = random_valid_matrix(rng, int(rng.integers(1, 4)))
        assert gh_exact(a, b).exact == oracle_gh(a, b)


def test_gh_exact_counts_the_self_term():
    # nonzero diagonals: a pair that appears once in the correspondence
    # still costs |d_a(x, x) - d_b(y, y)|, in B&B and in the warm start
    a = Causet.from_matrix([[2, 0], [1, 2]])
    b = Causet.from_matrix([[0, 1, 2], [1, 1, 2], [1, 2, 2]])
    r = gh_exact(a, b)
    assert r.method == "exact"
    assert r.exact == distortion(r.witness, a, b) == oracle_gh(a, b) == 2.0
    rng = np.random.default_rng(17)
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 4, size=2))
        a = Causet.from_matrix(rng.integers(0, 3, (m, m)) * 0.5)
        b = Causet.from_matrix(rng.integers(0, 3, (n, n)) * 0.5)
        r = gh_exact(a, b)
        assert r.exact == distortion(r.witness, a, b) == oracle_gh(a, b)


def test_gh_exact_budget_and_size_fallbacks():
    # the warm start meets L*: exact without search, whatever the budget
    rng = np.random.default_rng(8)
    a = random_valid_matrix(rng, 5)
    b = random_valid_matrix(rng, 5)
    r = gh_exact(a, b, node_budget=3)
    assert r.method == "exact"
    assert dict(r.stats) == {"nodes": 0, "budget_exhausted": False,
                             "lstar": r.exact, "certified_by": "lstar"}
    assert repr(r.exact) == repr(oracle_gh_exact(a.as_float(), b.as_float(),
                                                 5)[2])
    big = gh_exact(a, b, max_exact_size=4)
    assert big.method == "greedy"
    # L* < d_GH here: three nodes leave bounds only, the full search is exact
    a = sample_causet(DiamondSpace(), SampleSpec(count=6, seed=1))
    b = sample_causet(DiamondSpace(), SampleSpec(count=6, seed=2))
    r = gh_exact(a, b, node_budget=3)
    assert r.exact is None and r.method == "branch-bound"
    assert r.stats["nodes"] == 3 and r.stats["budget_exhausted"]
    assert r.stats["certified_by"] is None
    # propagation lifts L* above the root bound alone, 0.20107
    assert r.stats["lstar"] == 0.204186150033772
    assert r.lower == max(gh_lower_bounds(a, b), r.stats["lstar"]) < r.upper
    assert r.upper <= gh_upper_greedy(a, b).upper
    full = gh_exact(a, b)
    assert full.method == "exact" and full.stats["certified_by"] == "search"
    assert full.stats["lstar"] == r.stats["lstar"] < full.exact
    assert full.exact == 0.25544584186448216  # as the search without L* or H


def test_gh_upper_greedy():
    rng = np.random.default_rng(11)
    a = random_valid_matrix(rng, 8)
    perm = rng.permutation(8)
    b = Causet.from_matrix(a.as_float()[np.ix_(perm, perm)])
    r = gh_upper_greedy(a, b)
    assert r.upper == 0.0
    assert r.method == "greedy"
    # deterministic for a fixed seed
    again = gh_upper_greedy(a, b)
    assert again.upper == r.upper and again.witness.pairs == r.witness.pairs
    # never better than exact
    c = random_valid_matrix(rng, 5)
    assert gh_upper_greedy(a, c).upper >= gh_exact(a, c, max_exact_size=8).exact - 1e-12


def test_gh_lower_bounds():
    wide = Causet.from_matrix([[0.0, 3.0], [0.0, 0.0]])
    assert gh_lower_bounds(CHAIN_1, wide) >= 2.0
    assert gh_lower_bounds(CHAIN_1, CHAIN_1) == 0.0
    assert gh_lower_bounds(CHAIN_1, CHAIN_125) == 0.25  # tight here


def test_epsilon_isometry_from_correspondence():
    r = gh_exact(CHAIN_1, CHAIN_125).witness
    f = epsilon_isometry_from(r, CHAIN_1, CHAIN_125)
    assert map_distortion(f, CHAIN_1, CHAIN_125) <= 0.25
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_valid_matrix(rng, int(rng.integers(2, 6)))
        b = random_valid_matrix(rng, int(rng.integers(2, 6)))
        rel = random_correspondence(rng, a.n, b.n)
        f = epsilon_isometry_from(rel, a, b)
        assert map_distortion(f, a, b) <= distortion(rel, a, b) + 1e-12


def test_gh_zero_is_isometry():
    rng = np.random.default_rng(17)
    a = random_valid_matrix(rng, 6)
    perm = rng.permutation(6)
    b = Causet.from_matrix(a.as_float()[np.ix_(perm, perm)])
    assert gh_zero_is_isometry(a, b)
    assert not gh_zero_is_isometry(CHAIN_1, CHAIN_125)


def test_gh_zero_mixed_boundary_is_an_error():
    with_b = Causet.from_matrix([[0.0, 1.0, 0.0],
                                 [0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]])
    assert with_b.boundary == 2
    with pytest.raises(ValueError, match="adjoin_boundary"):
        gh_zero_is_isometry(with_b, CHAIN_1)


def test_quotient_is_at_gh_distance_zero():
    d = np.zeros((4, 4))
    d[0, 1] = d[0, 2] = 1.0
    d[1, 3] = d[2, 3] = 1.0
    d[0, 3] = 2.0
    s = Causet.from_matrix(d)  # points 1 and 2 share profiles
    q, cmap = distance_quotient(s)
    reps = sorted(set(range(s.n)) - {2})
    assert gh_exact(induced(s, reps), q).exact == 0.0
    assert gh_zero_is_isometry(induced(s, reps), q)
    # the class-map correspondence realizes distortion zero against s itself
    pairs = tuple((i, cmap[i]) for i in range(s.n))
    assert distortion(Correspondence(s.n, q.n, pairs), s, q) == 0.0


def test_gamma_distortion_tracks_distance_distortion():
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = random_valid_matrix(rng, int(rng.integers(2, 7)))
        b = random_valid_matrix(rng, int(rng.integers(2, 7)))
        r = random_correspondence(rng, a.n, b.n)
        delta = distortion(r, a, b)
        ga, gb = gamma(a).g, gamma(b).g
        xs = np.array([p[0] for p in r.pairs])
        ys = np.array([p[1] for p in r.pairs])
        gd = np.abs(ga[np.ix_(xs, xs)] - gb[np.ix_(ys, ys)]).max()
        assert gd <= 3 * delta + 1e-12


def test_gh_result_json_shape():
    r = gh_exact(CHAIN_1, CHAIN_125)
    blob = r.to_json()
    assert blob["exact"] == 0.25
    assert blob["method"] == "exact"
    assert sorted(blob) == ["exact", "lower", "method", "upper",
                            "witness_pairs"]
    partial = GHResult(0.1, 0.2, None, None, "greedy")
    assert "exact" not in partial.to_json()


def _search_instances():
    """Finite pairs of sizes 1-7, m != n included: random valid causets,
    random nonnegative matrices (nonzero diagonals, many ties), diamond
    subspaces, all-zero pairs and self pairs."""
    rng = np.random.default_rng(31)
    host = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=5))
    out = []
    for _ in range(6):
        m, n = (int(v) for v in rng.integers(1, 8, size=2))
        out.append((random_valid_matrix(rng, m), random_valid_matrix(rng, n)))
        out.append((Causet.from_matrix(rng.integers(0, 3, (m, m)) * 0.5),
                    Causet.from_matrix(rng.uniform(0, 2, (n, n))
                                       * (rng.random((n, n)) < 0.6))))
        out.append((induced(host, rng.choice(host.n, m, replace=False)),
                    induced(host, rng.choice(host.n, n, replace=False))))
    zero = Causet.from_matrix(np.zeros((3, 3)))
    out += [(zero, zero), (zero, Causet.from_matrix(np.zeros((5, 5)))),
            (CHAIN_1, CHAIN_1), (out[0][1], out[0][1])]
    # a move that gains one ulp, which the 1e-15 threshold refuses
    u, v = 1 + 2.0**-52, 2 + 2.0**-51
    out.append((Causet.from_matrix([[0, 2, 0, 0], [u, 0, 1, 0],
                                    [0, 2, 0.5, 0], [0, 0, 0, u]]),
                Causet.from_matrix([[1, 0, 1, v], [0, 0.5, 0, u],
                                    [u, 2, 0, v], [0, 0, 0, v]])))
    # a local search that ends at distortion zero
    out.append((Causet.from_matrix([[1, 0.5, 0.5, 1], [0, 0, 0, 1],
                                    [1, 0, 0, 0], [0, 0, 0, 0]]),
                Causet.from_matrix([[0, 0, 0, 0], [0, 0, 1, 0],
                                    [1, 0.5, 1, 0.5], [1, 0, 0, 0]])))
    return out


def test_gh_search_matches_loop_oracles():
    for a, b in _search_instances():
        da, db = a.as_float(), b.as_float()
        assert np.array_equal(_profile_mismatch(da, db),
                              oracle_profile_mismatch(da, db))
        lower = repr(oracle_lower_bound(da, db))
        assert repr(gh_lower_bounds(a, b)) == lower
        for restarts, seed in ((1, 0), (2, 5), (3, 1), (4, 9)):
            r = gh_upper_greedy(a, b, restarts=restarts, seed=seed)
            upper, pairs, _, _ = oracle_greedy(da, db, restarts, seed)
            assert (repr(r.lower), repr(r.upper), r.exact, r.method,
                    r.witness.pairs) == (lower, repr(upper), None, "greedy",
                                         pairs)
        # exact values from the old search: no L*, no H, g branches on
        # every y; lower, upper and the witness agree whatever the budget
        exact = oracle_gh_exact(da, db, 7)[2]
        greedy = gh_upper_greedy(a, b).upper
        for budget in (3, 50, 1000, None):
            r = gh_exact(a, b, max_exact_size=7, node_budget=budget)
            assert distortion(r.witness, a, b) == r.upper <= greedy
            assert r.stats["lstar"] <= exact <= r.upper
            if r.method == "exact":
                assert repr(r.exact) == repr(exact) == repr(r.upper)
                assert r.lower == r.upper
            else:
                assert (r.method, r.stats["budget_exhausted"]) == (
                    "branch-bound", True)
                assert r.lower == max(oracle_lower_bound(da, db),
                                      r.stats["lstar"])
        # branch and bound alone, from an open start, with no L* to stop at
        x_order = list(np.argsort(-da.var(axis=1), kind="stable"))
        y_order = list(np.argsort(-db.var(axis=1), kind="stable"))
        table = _pair_table(da, db)
        value, (f, g), completed, _ = _branch_and_bound(
            x_order, y_order, _profile_mismatch(da, db), table,
            _root_bound(table, a.n, b.n), -np.inf, np.inf, None, None)
        assert completed and repr(value) == repr(exact)
        witness = Correspondence(a.n, b.n, tuple(enumerate(f)) + tuple(
            (x, y) for y, x in enumerate(g)))
        assert distortion(witness, a, b) == value


def test_greedy_matches_loop_oracle_with_local_search_at_8_to_12_points():
    rng = np.random.default_rng(37)
    host = sample_causet(DiamondSpace(), SampleSpec(count=120, seed=7))
    for m, n in ((8, 12), (12, 9), (10, 10)):
        for a, b in ((random_valid_matrix(rng, m), random_valid_matrix(rng, n)),
                     (induced(host, rng.choice(host.n, m, replace=False)),
                      induced(host, rng.choice(host.n, n, replace=False)))):
            for restarts, seed in ((1, 0), (2, 3)):
                r = gh_upper_greedy(a, b, restarts=restarts, seed=seed)
                upper, pairs, _, _ = oracle_greedy(a.as_float(), b.as_float(),
                                                   restarts, seed)
                assert (repr(r.upper), r.witness.pairs) == (repr(upper), pairs)


def _refuse_table(da, db):
    raise AssertionError("pair table built")


def test_greedy_past_the_table_cap_matches_loop_oracle(monkeypatch):
    # m + n > 80: construction only, its rows from _pair_rows, so no table
    # and no local search; the second pair has nonzero diagonals
    host = sample_causet(DiamondSpace(), SampleSpec(count=120, seed=7))
    rng = np.random.default_rng(41)
    monkeypatch.setattr(gh_module, "_pair_table", _refuse_table)
    for a, b, seed in (
            (induced(host, rng.choice(host.n, 41, replace=False)),
             induced(host, rng.choice(host.n, 40, replace=False)), 1),
            (Causet.from_matrix(rng.uniform(0, 2, (42, 42))),
             Causet.from_matrix(rng.integers(0, 4, (41, 41)) * 0.5), 3)):
        r = gh_upper_greedy(a, b, restarts=2, seed=seed)
        upper, pairs, _, _ = oracle_greedy(a.as_float(), b.as_float(), 2,
                                           seed)
        assert (repr(r.upper), r.witness.pairs) == (repr(upper), pairs)


@pytest.mark.parametrize("seed, xa, xb", [
    (34008, [92, 117, 19, 43, 48], [26, 108, 115, 47, 164]),
    (100, [40, 187, 36, 21, 9], [79, 66, 81, 134, 181, 73]),
])
def test_gh_exact_witness_matches_upper_when_the_budget_runs_out(seed, xa,
                                                                 xb):
    # after an exhausted budget the witness is the best (f, g) found, and
    # upper never exceeds gh_upper_greedy's: the warm start's 8 restarts
    # left 0.3357 in the seed-100 case, where greedy's 32 find 0.2718 = L*
    host = sample_causet(DiamondSpace(), SampleSpec(count=200, seed=seed))
    a, b = induced(host, xa), induced(host, xb)
    greedy = gh_upper_greedy(a, b).upper
    want = {34008: {3: ("branch-bound", 0.2434949989060699),
                    1000: ("exact", 0.2192716900789204)},
            100: {3: ("exact", 0.2718002785995041),
                  1000: ("exact", 0.2718002785995041)}}[seed]
    for budget in (3, 1000):
        r = gh_exact(a, b, node_budget=budget)
        assert (r.method, r.upper) == want[budget]
        assert distortion(r.witness, a, b) == r.upper <= greedy
    assert r.stats["certified_by"] == "lstar"


def _random_pair(rng, m, n):
    """Random valid causets, or nonnegative matrices with nonzero
    diagonals and many ties, by a coin flip."""
    if rng.random() < 0.5:
        return random_valid_matrix(rng, m), random_valid_matrix(rng, n)
    return (Causet.from_matrix(rng.integers(0, 3, (m, m)) * 0.5),
            Causet.from_matrix(rng.uniform(0, 2, (n, n))
                               * (rng.random((n, n)) < 0.6)))


def test_gh_exact_and_lstar_against_enumeration():
    rng = np.random.default_rng(43)
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 13)
              if m * n <= 12]
    for m, n in shapes + shapes:
        a, b = _random_pair(rng, m, n)
        r = gh_exact(a, b, max_exact_size=12)
        assert r.method == "exact" and r.exact == oracle_gh(a, b)
        assert r.stats["lstar"] <= r.exact == distortion(r.witness, a, b)
        # so a budget-exhausted result's lower = L* loses nothing
        assert gh_lower_bounds(a, b) <= r.stats["lstar"]


def test_root_bound_holds_for_every_correspondence_with_the_pair():
    # root[P] = max(self term, H(P)) is at most the distortion of every
    # covering relation that holds P, by brute force
    rng = np.random.default_rng(47)
    for m, n in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        a, b = _random_pair(rng, m, n)
        da, db = a.as_float(), b.as_float()
        root = _root_bound(_pair_table(da, db), m, n)
        least = np.full(m * n, np.inf)
        for mask in covering_masks(m, n):
            held = [p for p in range(m * n) if mask >> p & 1]
            dis = oracle_pairs_distortion([divmod(p, n) for p in held], da, db)
            least[held] = np.minimum(least[held], dis)
        assert (root <= least).all()


@pytest.mark.parametrize("solver", [gh_exact, gh_upper_greedy,
                                    gh_lower_bounds])
def test_gh_rejects_empty_and_non_finite_inputs(solver):
    empty = Causet.from_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="causet a has no points"):
        solver(empty, CHAIN_1)
    with pytest.raises(ValueError, match="causet b has no points"):
        solver(CHAIN_1, empty)
    for bad in (np.nan, np.inf):
        c = Causet.from_matrix([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0],
                                [0.0, bad, 0.0]])
        with pytest.raises(ValueError, match=r"causet b .* at \(2, 1\)"):
            solver(CHAIN_1, c)


def test_greedy_memory_is_quadratic():
    a = sample_causet(DiamondSpace(), SampleSpec(count=200, seed=1))
    b = sample_causet(DiamondSpace(), SampleSpec(count=200, seed=2))
    n = max(a.n, b.n)
    tracemalloc.start()
    try:
        gh_upper_greedy(a, b, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n * n


def test_pair_table_memory_is_bounded():
    # 40 x 40 is the largest square size that builds the table
    a = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=1))
    b = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=2))
    tracemalloc.start()
    try:
        gh_upper_greedy(a, b, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * (a.n * b.n) ** 2


def test_gh_exact_past_the_table_cap_builds_no_table(monkeypatch):
    a = sample_causet(DiamondSpace(), SampleSpec(count=50, seed=1))
    b = sample_causet(DiamondSpace(), SampleSpec(count=50, seed=2))
    monkeypatch.setattr(gh_module, "_pair_table", _refuse_table)
    tracemalloc.start()
    try:
        r = gh_exact(a, b, max_exact_size=100, node_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.method == "greedy"
    assert peak < (a.n * b.n) ** 2  # an eighth of one table
