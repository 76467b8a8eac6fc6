"""Distinction metric and strong metric.

Core claims:
    - gamma is a metric: symmetric, zero diagonal, triangle inequality,
      positive off the diagonal on a distinguishing space
    - gamma equals the Noldus strong metric entry by entry
    - balls, Hausdorff distance, and the threaded path agree with the
      single-threaded reference
"""

import numpy as np
import pytest

from lorentzmet import Causet, gamma, diameter
from lorentzmet.distinction import gamma_ball, hausdorff_gamma
from lorentzmet.causet import SUP_GAPS_NUMPY_MAX, _sup_gaps
from lorentzmet.diamond import DiamondSpace, SampleSpec, sample_causet
from helpers import (first_non_finite, oracle_chebyshev_gaps, oracle_gamma,
                     oracle_noldus, random_valid_matrix, tame, wild_matrix)


@pytest.fixture(scope="module")
def small_corpus():
    rng = np.random.default_rng(3)
    return [random_valid_matrix(rng, int(rng.integers(2, 10)))
            for _ in range(40)]


def test_gamma_two_chain():
    c = Causet.from_matrix([[0.0, 1.0], [0.0, 0.0]])
    g = gamma(c).g
    assert g[0, 1] == 1.0
    assert g[0, 0] == g[1, 1] == 0.0


def test_gamma_is_a_metric(small_corpus):
    for c in small_corpus:
        g = gamma(c).g
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 0.0)
        off = g[~np.eye(c.n, dtype=bool)]
        if c.n > 1:
            assert off.min() > 0.0
        for y in range(c.n):
            assert np.all(g <= g[:, [y]] + g[[y], :] + 1e-12)


def test_gamma_equals_noldus(small_corpus):
    for c in small_corpus:
        assert np.array_equal(gamma(c).g, oracle_noldus(c.as_float()))


def test_gamma_diameter_equals_distance_diameter(small_corpus):
    for c in small_corpus:
        assert gamma(c).diameter() == diameter(c)


def test_gamma_ball_closed_and_open():
    c = Causet.from_matrix([[0.0, 1.0, 2.0],
                            [0.0, 0.0, 1.0],
                            [0.0, 0.0, 0.0]])
    g = gamma(c)
    r = g.g[0, 1]
    closed = gamma_ball(c, 0, r, g=g)
    open_ = gamma_ball(c, 0, r, closed=False, g=g)
    assert 1 in closed and 1 not in open_
    assert 0 in closed and 0 in open_
    for center in (5, -1):
        with pytest.raises(ValueError, match=f"point index {center} out"):
            gamma_ball(c, center, 1.0)
    with pytest.raises(TypeError):  # it ended in numpy's IndexError
        gamma_ball(c, 1.5, r)
    with pytest.raises(ValueError):
        gamma_ball(c, 0, -1.0)
    # every comparison with NaN is False, which made the ball empty
    with pytest.raises(ValueError, match="radius r must be nonnegative"):
        gamma_ball(c, 0, float("nan"))


def test_hausdorff_gamma():
    c = Causet.from_matrix([[0.0, 1.0, 2.0],
                            [0.0, 0.0, 1.0],
                            [0.0, 0.0, 0.0]])
    g = gamma(c)
    assert hausdorff_gamma(c, [0], [1], g=g) == g.g[0, 1]
    assert hausdorff_gamma(c, [0, 1, 2], [0, 1, 2], g=g) == 0.0
    assert hausdorff_gamma(c, [0, 2], [1], g=g) == \
        hausdorff_gamma(c, [1], [0, 2], g=g)
    with pytest.raises(ValueError):
        hausdorff_gamma(c, [], [1])
    # a negative index used to wrap to the last point, a large one to end
    # in numpy's IndexError
    for a, b, bad in (([0, -1], [1], -1), ([0], [1, 3], 3)):
        with pytest.raises(ValueError, match=rf"point index {bad} out"):
            hausdorff_gamma(c, a, b, g=g)


def test_gamma_bytes_match_ordered_pair_oracle():
    # one gap call on each point's row and column side by side, against
    # cdist per side over ordered pairs plus the mirror;
    # gamma refuses a NaN or +-inf entry, the gap kernel skips NaN gaps
    rng = np.random.default_rng(8)
    cases = [wild_matrix(rng, int(rng.integers(0, 30))) for _ in range(200)]
    cases += [sample_causet(DiamondSpace(), SampleSpec(count=150, seed=s)).d
              for s in range(2)]
    for d in cases:
        if not np.isfinite(d).all():
            with pytest.raises(ValueError, match=first_non_finite(d)):
                gamma(Causet.from_matrix(d))
        if len(d):
            assert gamma(Causet.from_matrix(tame(d))).g.tobytes() == \
                oracle_gamma(tame(d)).tobytes()
        got = _sup_gaps(np.hstack([d, d.T]))
        assert got.tobytes() == np.maximum(*oracle_chebyshev_gaps(d)).tobytes()


def test_sup_gaps_bitwise_on_both_sides_of_the_numpy_cutoff():
    # numpy up to SUP_GAPS_NUMPY_MAX points, pdist past it: both must give
    # cdist's bytes, NaN and inf - inf skipped, overflow to inf silent
    cut = SUP_GAPS_NUMPY_MAX
    rng = np.random.default_rng(17)
    cases = []
    for n in (1, 2, cut - 1, cut, cut + 1):
        cases += [wild_matrix(rng, n), wild_matrix(rng, n, density=0.1),
                  sample_causet(DiamondSpace(), SampleSpec(count=n, seed=n)).d]
    cases += [np.where(rng.random((n, n)) < 0.5, 1e308, -1e308)
              for n in (cut, cut + 1)]
    for d in cases:
        got = _sup_gaps(np.hstack([d, d.T]))
        assert got.tobytes() == np.maximum(*oracle_chebyshev_gaps(d)).tobytes()


def test_balls_and_hausdorff_refuse_a_distinction_matrix_of_another_causet():
    small = sample_causet(DiamondSpace(), SampleSpec(count=10, seed=1))
    other = sample_causet(DiamondSpace(), SampleSpec(count=30, seed=1))
    relabelled = Causet(tuple("abcdefghij"), small.d)
    for g in (gamma(other), gamma(relabelled)):
        with pytest.raises(ValueError, match="another causet"):
            gamma_ball(small, 0, 0.1, g=g)
        with pytest.raises(ValueError, match="another causet"):
            hausdorff_gamma(small, [0], [1], g=g)
    assert gamma_ball(small, 0, 0.1, g=gamma(small)) == \
        gamma_ball(small, 0, 0.1)
