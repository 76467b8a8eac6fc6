"""Metamorphic relations of d_GH past the enumeration oracles.

The enumeration oracles of test_gh.py stop at 7 points.  Here the exact
decision search runs on 30 seeded triples of 8-24 diamond points, and
its results are checked against relations that need no enumeration:

    - symmetry: d_GH(a, b) = d_GH(b, a)
    - relabelling invariance: d_GH(pa, qb) = d_GH(a, b) for permutations
    - d_GH(a, pa) = 0, and gh_zero_is_isometry agrees with d_GH = 0
    - exact scaling: d_GH(2a, 2b) = 2 d_GH(a, b), bit for bit in float64
    - the triangle inequality d_GH(a, c) <= d_GH(a, b) + d_GH(b, c), with
      c a nested sample of a's cloud
    - gh_lower_bounds <= lower <= upper <= gh_upper_greedy's upper

A relation between values holds on exact results as an equality; where a
result is `branch-bound` it is checked on the bounds.  The module runs in
a few seconds.
"""

import numpy as np
import pytest

from lorentzmet import (Causet, DiamondSpace, SampleSpec, gh_exact,
                        gh_lower_bounds, gh_upper_greedy, gh_zero_is_isometry,
                        induced, sample_causet)

TRIPLES = 30
MAX_POINTS = 24


def _sample(rng, seed=None) -> Causet:
    count = int(rng.integers(8, MAX_POINTS + 1))
    seed = int(rng.integers(0, 2**31)) if seed is None else seed
    return sample_causet(DiamondSpace(), SampleSpec(count=count, seed=seed))


def _scaled(c: Causet, factor: float) -> Causet:
    return Causet(c.labels, factor * c.as_float())


def _dgh(a: Causet, b: Causet):
    return gh_exact(a, b, max_exact_size=MAX_POINTS)


def _agree(r, s, scale=1.0):
    """r's value is scale times s's: equal when both are exact, else the
    bound intervals meet."""
    if r.exact is not None and s.exact is not None:
        assert r.exact == scale * s.exact
    else:
        assert r.lower <= scale * s.upper and scale * s.lower <= r.upper


@pytest.fixture(scope="module")
def triples():
    """(seed, a, b, c, d_GH(a, b)) per triple; the tests draw their
    permutations from a fresh rng of the seed, so their order is free."""
    out = []
    for seed in range(TRIPLES):
        rng = np.random.default_rng(seed)
        a, b = _sample(rng), _sample(rng)
        # c shares a's cloud, one a prefix of the other, so d_GH(a, c) is
        # small and the triangle inequality comes close to tight
        c = _sample(rng, seed=a.meta["spec"]["seed"])
        out.append((seed, a, b, c, _dgh(a, b)))
    return out


def _perms(seed, *spaces):
    rng = np.random.default_rng([seed, 1])
    return [induced(c, rng.permutation(c.n)) for c in spaces]


def test_symmetry(triples):
    for _, a, b, _, ab in triples:
        _agree(_dgh(b, a), ab)


def test_relabelling_invariance(triples):
    for seed, a, b, _, ab in triples:
        _agree(_dgh(*_perms(seed, a, b)), ab)


def test_zero_exactly_on_isometric_copies(triples):
    for seed, a, b, _, ab in triples:
        pa, = _perms(seed, a)
        r = _dgh(a, pa)
        assert r.exact == 0.0 and r.upper == 0.0
        assert gh_zero_is_isometry(a, pa)
        if (a.boundary is None) == (b.boundary is None):
            assert gh_zero_is_isometry(a, b) == (ab.upper == 0.0)


def test_scaling_by_two_is_exact(triples):
    for _, a, b, _, ab in triples:
        _agree(_dgh(_scaled(a, 2.0), _scaled(b, 2.0)), ab, scale=2.0)


def test_triangle_inequality(triples):
    for _, a, b, c, ab in triples:
        bc, ac = _dgh(b, c), _dgh(a, c)
        # the float sum of two table values may round by one ulp
        assert ac.lower <= ab.upper + bc.upper + 1e-12
        assert ab.lower <= ac.upper + bc.upper + 1e-12
        assert bc.lower <= ab.upper + ac.upper + 1e-12


def test_cheap_lower_below_exact_below_greedy(triples):
    for _, a, b, _, ab in triples:
        assert gh_lower_bounds(a, b) <= ab.lower <= ab.upper
        assert ab.upper <= gh_upper_greedy(a, b).upper
        assert ab.method == "exact"
