"""Metamorphic relations of the layers below GH.

Each input is a seeded diamond sample of 20-60 points; `validate` gets a
copy with planted defects of every kind, some within a few tol of its
threshold.  With pi a random relabelling (pi c = induced(c, perm), so
point a of pi c is point perm[a] of c) and 2c the doubled matrix:

    - validate's witnesses, and their magnitudes, map along pi
    - J(pi c) = pi J(c) pi^T and gamma(pi c) = pi gamma(c) pi^T, bitwise
    - time_function of pi c, with the ordering carried along, is tau(c)
      relabelled, exactly on a rationalized (Fraction) copy
    - exhaustive check_curvature_bound finds the relabelled triangles with
      the same statuses, so the same ok/vacuous/violation counts
    - gamma(2c) = 2 gamma(c) bitwise, and validate(2c, 2 tol) reports
      validate(c, tol)'s witnesses at twice the magnitude

None of them needs an enumeration oracle, so the sizes are past those of
test_acceptance.py.  The module runs in a few seconds.
"""

import numpy as np
import pytest

from lorentzmet import (Causet, DiamondSpace, SampleSpec, causal_relation,
                        check_curvature_bound, gamma, induced, rationalize,
                        sample_causet, time_function, validate)

SAMPLES = 8
TOL = 1e-3
# witness kinds whose points form a set, not an ordered tuple
UNORDERED = {"distinguishing", "multiple-boundary"}


def _sample(seed: int) -> Causet:
    rng = np.random.default_rng([seed, 0])
    count = int(rng.integers(20, 61))
    return sample_causet(DiamondSpace(), SampleSpec(count=count, seed=seed))


def _defective(seed: int, c: Causet) -> Causet:
    """c with a negative entry, a diagonal entry, three reverse-triangle
    defects, a near-twin and, for odd seeds, two zero points planted."""
    rng = np.random.default_rng([seed, 1])
    d = c.as_float().copy()
    n = len(d)
    i, j, k, p, q = (int(v) for v in rng.choice(n, 5, replace=False))
    d[i, j] = -rng.uniform(0, 3 * TOL)
    d[k, k] = rng.uniform(0, 3 * TOL)
    # shorten d(a, e) to d(a, b) + d(b, e) less a defect near tol
    for a in rng.choice(n, 3, replace=False):
        later = np.flatnonzero(d[a] > 0)
        mids = [b for b in later if (d[b] > 0).any()]
        if mids:
            b = int(rng.choice(mids))
            e = int(rng.choice(np.flatnonzero(d[b] > 0)))
            d[a, e] = d[a, b] + d[b, e] - rng.uniform(0, 3 * TOL)
    # q copies p's profiles, off by a gap near tol in one coordinate
    d[q, :], d[:, q] = d[p, :], d[:, p]
    d[p, q] = d[q, p] = d[q, q] = 0.0
    d[q, int(rng.integers(n))] += rng.uniform(0, 3 * TOL)
    if seed % 2:
        for z in rng.choice(n, 2, replace=False):
            d[z, :] = d[:, z] = 0.0
    return Causet(c.labels, d)


def _relabelled(seed: int, c: Causet) -> tuple[Causet, np.ndarray]:
    perm = np.random.default_rng([seed, 2]).permutation(c.n)
    return induced(c, perm), perm


def _witnesses(report, perm=None, scale=1.0) -> list:
    """(kind, witness, magnitude) of every violation, the witness mapped
    through perm, the magnitude divided by scale; sorted."""
    out = []
    for v in report.violations:
        w = v.witness if perm is None else tuple(int(perm[x])
                                                 for x in v.witness)
        if v.kind in UNORDERED:
            w = tuple(sorted(w))
        out.append((v.kind, w, v.magnitude / scale))
    return sorted(out)


@pytest.fixture(scope="module")
def samples():
    return [(seed, _sample(seed)) for seed in range(SAMPLES)]


def test_validate_witnesses_map_along_relabelling(samples):
    kinds = set()
    for seed, c in samples:
        bad = _defective(seed, c)
        rep = validate(bad, TOL)
        moved, perm = _relabelled(seed, bad)
        assert _witnesses(validate(moved, TOL), perm) == _witnesses(rep)
        kinds |= rep.kinds()
    # every kind occurs, so every pass of validate is exercised
    assert kinds == {"negative-entry", "diagonal", "reverse-triangle",
                     "distinguishing", "multiple-boundary"}


def test_causal_relation_and_gamma_map_along_relabelling(samples):
    for seed, c in samples:
        for host in (c, _defective(seed, c)):
            moved, perm = _relabelled(seed, host)
            back = np.ix_(perm, perm)
            assert np.array_equal(causal_relation(moved).matrix,
                                  causal_relation(host).matrix[back])
            g = gamma(host).g[back]
            assert gamma(moved).g.tobytes() == g.tobytes()


def test_time_function_with_the_ordering_carried_along(samples):
    for seed, c in samples:
        r = rationalize(c, 1e-3)
        assert r.is_rational
        moved, perm = _relabelled(seed, r)
        ordering = np.random.default_rng([seed, 3]).permutation(r.n)
        tau = time_function(r, ordering)
        # point s_k of r is point inv[s_k] of the relabelled copy
        inv = np.argsort(perm)
        tau_moved = time_function(moved, inv[ordering])
        assert list(tau_moved.values) == list(tau.values[perm])
        assert list(tau_moved.weights) == list(tau.weights)


def _triangles(report, perm=None) -> list:
    """(vertices, sides, statuses) per triangle, the vertices mapped
    through perm; sorted."""
    out = []
    for t in report.records:
        vs = t.vertices if perm is None else tuple(int(perm[x])
                                                   for x in t.vertices)
        out.append((vs, t.sides, tuple(ch.status for ch in t.checks)))
    return sorted(out)


def test_exhaustive_curvature_counts_under_relabelling(samples):
    for seed, c in samples[:4]:
        bound = ("lower", "upper")[seed % 2]
        rep = check_curvature_bound(c, bound=bound, max_triangles=None)
        moved, perm = _relabelled(seed, c)
        got = check_curvature_bound(moved, bound=bound, max_triangles=None)
        assert (got.n_ok, got.n_vacuous, got.n_violations) == \
            (rep.n_ok, rep.n_vacuous, rep.n_violations)
        assert _triangles(got, perm) == _triangles(rep)
        assert rep.records


def test_power_of_two_scaling_of_gamma_and_validate(samples):
    for seed, c in samples:
        bad = _defective(seed, c)
        twice = Causet(bad.labels, 2 * bad.as_float())
        assert gamma(twice).g.tobytes() == (2 * gamma(bad).g).tobytes()
        rep = validate(bad, TOL)
        assert rep.violations
        assert _witnesses(validate(twice, 2 * TOL), scale=2) == \
            _witnesses(rep)
