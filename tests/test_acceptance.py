"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its contract in the name and pins seeds, sizes, and
tolerances, so a failure localizes the broken guarantee.  Runtime budgets
are asserted where the guarantee includes one.
"""

import math
import time

import numpy as np
import pytest

from lorentzmet import (
    Causet,
    causal_relation,
    chain_length,
    diameter,
    distortion,
    gamma,
    gh_exact,
    induced,
    longest_chain,
    time_function,
    validate,
)
from lorentzmet.curvature import check_curvature_bound, comparison_triangle_m0
from lorentzmet.diamond import (
    DiamondSpace,
    SampleSpec,
    causet_from_points,
    diamond_distance,
    diamond_gamma,
    sample_causet,
)
from lorentzmet.experiments import refinement_upper_bound
from lorentzmet.nets import extract_net, limit_causet, net_correspondence, \
    net_to_causet, rationalize
from helpers import (
    corrupt,
    grid_sup_gamma,
    oracle_gh,
    oracle_noldus,
    oracle_violations,
    random_valid_matrix,
)


def test_c01_validator_agrees_with_enumeration_oracle_on_mixed_matrices():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        base = random_valid_matrix(rng, 5).as_float().copy()
        if rng.random() < 0.6:
            base = corrupt(rng, base)
            if rng.random() < 0.3:
                base = corrupt(rng, base)
        got = {(v.kind, v.witness) for v in validate(base).violations}
        assert got == oracle_violations(base)
    assert time.perf_counter() - t0 < 5.0


def test_c02_distinction_metric_equals_noldus_metric(corpus):
    t0 = time.perf_counter()
    for c in corpus:
        assert np.abs(gamma(c).g - oracle_noldus(c.as_float())).max() <= 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_c03_gamma_diameter_equals_distance_diameter(corpus):
    for c in corpus:
        assert abs(gamma(c).diameter() - diameter(c)) <= 1e-12


def test_c04_distance_is_1_lipschitz_in_both_slots(corpus):
    for c in corpus:
        d = c.as_float()
        g = gamma(c).g
        gap = np.abs(d[:, None, :, None] - d[None, :, None, :])
        slack = gap - g[:, :, None, None] - g[None, None, :, :]
        assert slack.max() <= 1e-12


def test_c05_causal_intervals_and_gamma_balls_are_causally_convex(corpus):
    for c in corpus:
        j = causal_relation(c).matrix
        g = gamma(c).g
        n = c.n
        for x in range(n):
            for y in np.flatnonzero(j[x]):
                between = j[x] & j[:, y]
                assert (g[x, between] <= g[x, y] + 1e-12).all()
                assert (g[between, y] <= g[x, y] + 1e-12).all()
        # gamma balls: interval hulls of members stay inside the ball
        for center in range(n):
            for r in np.unique(g[center]):
                members = g[center] <= r
                hull = j[members].any(axis=0) & j[:, members].any(axis=1)
                assert (g[center, hull] <= r + 1e-12).all()


def test_c06_time_function_strictly_orders_j_and_is_1_lipschitz(corpus):
    for c in corpus:
        tf = time_function(c)
        j = causal_relation(c).matrix
        g = gamma(c).g
        strict = j & ~j.T
        xs, ys = np.nonzero(strict)
        assert (tf.values[ys] > tf.values[xs]).all()
        assert (np.abs(tf.values[:, None] - tf.values[None, :]) - g
                ).max() <= 1e-12


def test_c07_exact_gh_matches_covering_relation_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    small = [random_valid_matrix(rng, int(rng.integers(1, 4)))
             for _ in range(8)]
    for i, a in enumerate(small):
        for b in small[i:]:
            assert gh_exact(a, b).exact == oracle_gh(a, b)
    mid = [random_valid_matrix(rng, 4) for _ in range(6)]
    for i, a in enumerate(mid):
        for b in mid[i + 1:]:
            assert gh_exact(a, b).exact == oracle_gh(a, b)
    assert time.perf_counter() - t0 < 60.0


def test_c08_gh_zero_iff_isometry_and_perturbation_separates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    lattice = (0.5, 1.0, 1.5, 2.0)
    for _ in range(100):
        n = int(rng.integers(4, 7))
        c = random_valid_matrix(rng, n, values=lattice)
        perm = rng.permutation(n)
        shuffled = Causet.from_matrix(c.as_float()[np.ix_(perm, perm)])
        res = gh_exact(c, shuffled, max_exact_size=6)
        assert res.exact == 0.0
        assert distortion(res.witness, c, shuffled) == 0.0  # an isometry

        d = c.as_float().copy()
        i, k = np.unravel_index(np.argmax(d), d.shape)
        d[i, k] += 0.3  # the diameter entry stays an outer entry
        bumped = Causet.from_matrix(d)
        assert validate(bumped).valid
        assert gh_exact(c, bumped, max_exact_size=6).exact >= 0.1
    assert time.perf_counter() - t0 < 30.0


def test_c09_gh_satisfies_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b, c = (random_valid_matrix(rng, int(rng.integers(1, 5)))
                   for _ in range(3))
        ab = gh_exact(a, b).exact
        bc = gh_exact(b, c).exact
        ac = gh_exact(a, c).exact
        assert ac <= ab + bc + 1e-9


def test_c10_nets_bound_gh_and_quotients_stay_3eps_nets():
    host = sample_causet(DiamondSpace(), SampleSpec(count=200, seed=10))
    g = gamma(host)
    for eps in (0.3, 0.2, 0.1):
        net = extract_net(host, eps, g=g)
        corr = net_correspondence(net, g=g)
        sub = induced(host, net.members)
        assert distortion(corr, host, sub) <= 2 * eps
        quot = net_to_causet(net)
        reps = [int(lbl[1:]) for lbl in quot.labels]
        assert g.g[:, reps].min(axis=1).max() <= 3 * eps


def test_c11_rationalized_causets_validate_exactly_and_stay_close():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        c = random_valid_matrix(rng, n)
        out = rationalize(c, eps=1e-3)
        assert out.is_rational
        report = validate(out, tol=0)
        assert report.valid
        # strictness: every chained triple has positive exact slack
        d = out.d
        for x in range(n):
            for y in range(n):
                if x != y and d[x, y] > 0:
                    for z in range(n):
                        if z not in (x, y) and d[y, z] > 0:
                            assert d[x, z] > d[x, y] + d[y, z]
        assert gh_exact(c, out, max_exact_size=10).exact <= 1e-3


def test_c12_diamond_gamma_closed_form_matches_grid_supremum():
    assert diamond_gamma((0.25, 0.25), (0.5, 0.5)) == \
        pytest.approx(math.sqrt(0.1875), abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x, y = rng.uniform(0.0, 1.0, size=(2, 2))
        assert abs(diamond_gamma(x, y)
                   - grid_sup_gamma(tuple(x), tuple(y))) <= 5e-3


def test_c13_gamma_scaling_exponent_is_half_along_causal_rays():
    from lorentzmet.diamond import gamma_scaling_exponent
    slope = gamma_scaling_exponent(
        DiamondSpace(), (0.3, 0.3), (1.0, 1.0), (0.1, 0.05, 0.025, 0.0125))
    assert abs(slope - 0.5) <= 0.05


def test_c14_refinement_gh_bounds_decrease_down_the_ladder():
    t0 = time.perf_counter()
    sizes = (25, 50, 100, 200, 400)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(sizes[-1], 2))
    bounds = [refinement_upper_bound(pts[:sizes[k + 1]], sizes[k])
              for k in range(len(sizes) - 1)]
    assert bounds[-1] <= 0.7 * bounds[0]
    assert time.perf_counter() - t0 < 120.0


def test_c15_longest_chains_recover_continuum_distance_under_refinement():
    rng = np.random.default_rng(15)
    cloud = rng.uniform(0.0, 1.0, size=(2000, 2))
    lo, hi = (0.1, 0.1), (0.9, 0.9)
    target = diamond_distance(lo, hi)
    sums = []
    for k in (250, 500, 1000, 2000):
        pts = np.vstack([[lo, hi], cloud[:k]])
        c = causet_from_points(pts)
        assert c.labels[0] == "p0" and c.labels[1] == "p1"
        chain = longest_chain(c, 0, 1)
        sums.append(chain_length(c, chain))
    assert sums[-1] >= 0.9 * target
    assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))


def test_c16_flat_comparison_roundtrip_and_sampled_bounds_hold():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(0.1, 2.0, size=2)
        c = a + b + rng.uniform(0.1, 1.0)
        xb, yb, zb = comparison_triangle_m0(a, b, c)
        ra = math.sqrt((yb[0] - xb[0]) ** 2 - (yb[1] - xb[1]) ** 2)
        rb = math.sqrt((zb[0] - yb[0]) ** 2 - (zb[1] - yb[1]) ** 2)
        rc = zb[0] - xb[0]
        worst = max(worst, abs(ra - a), abs(rb - b), abs(rc - c))
    assert worst < 1e-12

    host = sample_causet(DiamondSpace(), SampleSpec(count=2000, seed=16))
    for bound in ("lower", "upper"):
        report = check_curvature_bound(host, k=0.0, bound=bound, tol=0.05,
                                       min_sides=(0.2, 0.2, 0.05),
                                       max_triangles=100, seed=0)
        assert report.n_violations == 0
        assert report.n_ok > 0


def test_c17_limit_of_chain_sequence_is_unit_chain():
    seq = [Causet.from_matrix([[0.0, 1.0 + 1.0 / m], [0.0, 0.0]])
           for m in range(1, 51)]
    out = limit_causet(seq)
    assert abs(float(out.d[0, 1]) - 1.0) <= 1e-9
    assert validate(out).valid
