"""Distinction metric, strong metric, and the sup-norm embedding.

Core claims:
    - gamma is a metric: symmetric, zero diagonal, triangle inequality,
      positive off the diagonal on a distinguishing space
    - gamma equals the Noldus strong metric entry by entry
    - the profile embedding is an isometry onto its image
    - balls, Hausdorff distance, and the threaded path agree with the
      single-threaded reference
"""

import numpy as np
import pytest

from lorentzmet import Causet, gamma, diameter
from lorentzmet.distinction import (
    gamma_ball,
    hausdorff_gamma,
    kuratowski_distance,
    kuratowski_embed,
)
from lorentzmet.causet import _chebyshev_gaps
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


def test_kuratowski_embedding_is_isometry(small_corpus):
    for c in small_corpus:
        g = gamma(c).g
        vecs = kuratowski_embed(c)
        for x in range(c.n):
            for y in range(c.n):
                assert kuratowski_distance(vecs[x], vecs[y]) == g[x, y]


def test_kuratowski_ordering_is_a_relabeling():
    rng = np.random.default_rng(4)
    c = random_valid_matrix(rng, 6)
    order = list(rng.permutation(6))
    a = kuratowski_embed(c)
    b = kuratowski_embed(c, ordering=order)
    for x in range(6):
        for y in range(6):
            assert kuratowski_distance(a[x], a[y]) == \
                kuratowski_distance(b[x], b[y])
    with pytest.raises(ValueError):
        kuratowski_embed(c, ordering=[0, 0, 1, 2, 3, 4])


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
    with pytest.raises(ValueError):
        gamma_ball(c, 5, 1.0)
    with pytest.raises(ValueError):
        gamma_ball(c, 0, -1.0)


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


def test_gamma_bytes_match_ordered_pair_oracle():
    # one pdist per side against cdist over ordered pairs plus the mirror;
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
        got, want = _chebyshev_gaps(d), oracle_chebyshev_gaps(d)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
