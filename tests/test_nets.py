"""Nets, totally bounded families, rationalization, and limits.

Core claims:
    - greedy nets cover within eps; the nearest-member correspondence
      has distortion <= 2 eps; quotienting a net keeps a 3 eps cover
    - totally-bounded checks report the first failing budget
    - rationalize outputs validate exactly, with strict reverse-triangle
      inequalities, within eps of the input
    - _simplest_between returns the minimal-denominator rational strictly
      inside the open interval
    - limit_causet recovers entrywise limits and identifies collapsing
      points
"""

import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from lorentzmet import (
    Causet,
    Correspondence,
    diameter,
    distortion,
    extract_net,
    gamma,
    gh_exact,
    induced,
    limit_causet,
    net_correspondence,
    net_to_causet,
    rationalize,
    validate,
)
import lorentzmet.nets as nets_module
from lorentzmet.causet import _signed_image
from lorentzmet.nets import (
    EpsilonNet,
    TotallyBoundedParams,
    _link_counts,
    _min_gamma,
    _simplest_between,
    check_uniformly_totally_bounded,
)
from lorentzmet.diamond import DiamondSpace, SampleSpec, causet_from_points, sample_causet
from helpers import (oracle_limit_matrix, oracle_link_counts, oracle_min_gamma,
                     oracle_rationalize, oracle_simplest_rational_between,
                     random_fraction_matrix, random_valid_matrix)


CHAIN2 = Causet.from_matrix([[0.0, 1.0], [0.0, 0.0]])


@pytest.fixture(scope="module")
def diamond60():
    return sample_causet(DiamondSpace(), SampleSpec(count=60, seed=23))


# -- nets -------------------------------------------------------------------

def test_extract_net_corner_cases():
    assert extract_net(CHAIN2, 1.0).members == (0,)  # eps >= diam
    assert extract_net(CHAIN2, 0.5).members == (0, 1)
    c = Causet.from_matrix([[0.0, 1.0, 2.0],
                            [0.0, 0.0, 1.0],
                            [0.0, 0.0, 0.0]])
    assert sorted(extract_net(c, 0.0).members) == [0, 1, 2]
    with pytest.raises(ValueError):
        extract_net(c, -0.1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            extract_net(c, bad)


def test_extract_net_covers(diamond60):
    g = gamma(diamond60)
    for eps in (0.4, 0.2, 0.1):
        net = extract_net(diamond60, eps, g=g)
        cover = g.g[:, net.members].min(axis=1)
        assert cover.max() <= eps
        # deterministic: same call, same members
        assert extract_net(diamond60, eps, g=g).members == net.members


def test_net_correspondence_bound(diamond60):
    g = gamma(diamond60)
    for eps in (0.4, 0.2):
        net = extract_net(diamond60, eps, g=g)
        corr = net_correspondence(net, g=g)
        sub = induced(diamond60, net.members)
        assert distortion(corr, diamond60, sub) <= 2 * eps
        for k, m in enumerate(net.members):
            assert (m, k) in corr.pairs


def test_nets_refuse_a_distinction_matrix_of_another_causet():
    # a 30-point gamma on a 10-point host used to pick members past the
    # host's last index, and net_to_causet then raised IndexError
    c10 = sample_causet(DiamondSpace(), SampleSpec(count=10, seed=1))
    c30 = sample_causet(DiamondSpace(), SampleSpec(count=30, seed=1))
    with pytest.raises(ValueError, match="another causet"):
        extract_net(c10, 0.05, g=gamma(c30))
    net = extract_net(c10, 0.05)
    with pytest.raises(ValueError, match="another causet"):
        net_correspondence(net, g=gamma(c30))
    relabelled = Causet(tuple("abcdefghij"), c10.d)
    with pytest.raises(ValueError, match="another causet"):
        net_correspondence(net, g=gamma(relabelled))
    assert net_correspondence(net, g=gamma(c10)).pairs == \
        net_correspondence(net).pairs


def test_net_to_causet(diamond60):
    g = gamma(diamond60)
    coarse = net_to_causet(extract_net(diamond60, 0.3, g=g))
    assert gh_exact(coarse, induced(diamond60,
                                    extract_net(diamond60, 0.3, g=g).members),
                    max_exact_size=coarse.n).exact == 0.0
    net = extract_net(diamond60, 0.1, g=g)
    out = net_to_causet(net)
    assert validate(out).valid
    reps = [int(lbl[1:]) for lbl in out.labels]
    assert g.g[:, reps].min(axis=1).max() <= 3 * 0.1


def test_net_to_causet_merges_duplicates():
    d = np.zeros((4, 4))
    d[0, 1] = d[0, 2] = 1.0
    d[1, 3] = d[2, 3] = 1.0
    d[0, 3] = 2.0
    host = Causet.from_matrix(d)
    net = EpsilonNet(host, 0.5, (0, 1, 2, 3))
    assert net_to_causet(net).n == 3  # 1 and 2 collapse inside the net
    full = EpsilonNet(host, 0.5, (0, 1, 3))
    out = net_to_causet(full)
    assert out.labels == ("p0", "p1", "p3")


# -- totally bounded families -------------------------------------------------

def test_totally_bounded_params_validation():
    TotallyBoundedParams(1.0, (0.5, 0.25), (2, 4))
    with pytest.raises(ValueError):
        TotallyBoundedParams(1.0, (0.25, 0.5), (2, 4))  # alpha must decrease
    with pytest.raises(ValueError):
        TotallyBoundedParams(1.0, (0.5, 0.25), (4, 2))  # beta must not shrink
    with pytest.raises(ValueError):
        TotallyBoundedParams(1.0, (0.5, -0.1), (1, 1))
    with pytest.raises(ValueError):
        TotallyBoundedParams(-1.0, (0.5,), (1,))
    # NaN compares False: a NaN bound would pass every diameter check
    with pytest.raises(ValueError, match="diameter"):
        TotallyBoundedParams(float("nan"), (0.5,), (1,))
    with pytest.raises(ValueError, match="alpha"):
        TotallyBoundedParams(1.0, (float("nan"),), (1,))


def test_totally_bounded_family_report():
    singleton = Causet.from_matrix([[0.0]])
    params = TotallyBoundedParams(1.0, (0.5,), (1,))
    assert check_uniformly_totally_bounded([singleton], params).ok

    family = [
        sample_causet(DiamondSpace(),
                      SampleSpec(count=n, seed=n, include_boundary_point=True))
        for n in (50, 100, 200)
    ]
    params = TotallyBoundedParams(1.0, (0.5, 0.35, 0.25), (8, 18, 40))
    report = check_uniformly_totally_bounded(family, params)
    assert report.ok

    wide = Causet.from_matrix([[0.0, 2.0, 0.0],
                               [0.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0]])
    report = check_uniformly_totally_bounded([wide], params)
    assert not report.ok
    assert report.members[0].failure["kind"] == "diameter"

    no_b = Causet.from_matrix([[0.0, 0.5], [0.0, 0.0]])
    report = check_uniformly_totally_bounded([no_b], params)
    assert report.members[0].failure["kind"] == "no-boundary-point"

    tiny = TotallyBoundedParams(1.0, (0.05,), (2,))
    report = check_uniformly_totally_bounded([family[0]], tiny)
    assert report.members[0].failure["kind"] == "net-size"
    assert report.to_json()[0]["ok"] is False


# -- rationalization ----------------------------------------------------------

def test_rationalize_tight_chain():
    c = Causet.from_matrix([[0.0, 0.5, 1.0],
                            [0.0, 0.0, 0.5],
                            [0.0, 0.0, 0.0]])
    out = rationalize(c, eps=1e-2)
    assert out.is_rational
    assert validate(out).valid
    assert out.d[0, 2] > out.d[0, 1] + out.d[1, 2]  # strictness, exact
    for i in range(3):
        for j in range(3):
            assert abs(out.d[i, j] - Fraction(c.d[i, j])) <= Fraction(1, 100)


def test_rationalize_random_causets():
    rng = np.random.default_rng(29)
    for _ in range(10):
        c = random_valid_matrix(rng, int(rng.integers(2, 8)))
        out = rationalize(c, eps=1e-3)
        assert validate(out).valid
        ident = Correspondence(c.n, c.n, tuple(zip(range(c.n), range(c.n))))
        assert distortion(ident, c, out) <= 1e-3


def test_rationalize_rejects_bad_input():
    with pytest.raises(ValueError):
        rationalize(CHAIN2, eps=0.0)
    flat = Causet.from_matrix(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="distinguishing"):
        rationalize(flat, eps=1e-3)


def test_rationalize_rejects_non_finite_entries():
    for value in (np.nan, np.inf, -np.inf):
        d = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        d[1, 2] = value
        with pytest.raises(ValueError, match=r"entry \(1, 2\)"):
            rationalize(Causet.from_matrix(d), eps=1e-3)


def test_rationalize_rejects_reverse_triangle_break():
    # d(0, 2) = 0 below d(0, 1) + d(1, 2): no perturbation of the positive
    # entries makes the triangle strict
    broken = Causet.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="reverse triangle"):
        rationalize(broken, eps=1e-3)


def test_rationalize_rejects_chronological_cycle():
    loop = Causet.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="cycle"):
        rationalize(loop, eps=1e-3)


def test_rationalize_matches_oracle():
    # every Fraction equal to the plain-loop construction, from float input
    # and from rational input
    rng = np.random.default_rng(31)
    for _ in range(25):
        c = random_valid_matrix(rng, int(rng.integers(2, 10)))
        out = rationalize(c, eps=1e-3)
        assert (out.d == oracle_rationalize(c, 1e-3)).all()
        assert all(type(v) is Fraction for v in out.d.flat)
        again = rationalize(out, eps=Fraction(1, 7))
        want = oracle_rationalize(out, Fraction(1, 7))
        assert (again.d == want).all()
        assert all(type(v) is Fraction for v in again.d.flat)


def test_exact_kernels_match_oracles():
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = random_fraction_matrix(rng, int(rng.integers(2, 9)))
        assert _min_gamma(d, *_signed_image(d)[:2]) == oracle_min_gamma(d)
    for _ in range(30):
        pos = random_valid_matrix(rng, int(rng.integers(1, 15))).d > 0
        assert (_link_counts(pos) == oracle_link_counts(pos)).all()


def test_link_counts_by_matrix_powers_match_oracle():
    # the last power with a path, never a sum: diamond samples, total
    # chains, one-link chains (not transitive), antichains, n = 0-2,
    # random DAGs that are not transitively closed
    rng = np.random.default_rng(43)
    cases = [sample_causet(DiamondSpace(), SampleSpec(count=n, seed=n)).d > 0
             for n in (1, 2, 5, 10, 25, 40, 90)]
    for n in range(6):
        cases += [np.triu(np.ones((n, n), dtype=bool), 1),
                  np.eye(n, k=1, dtype=bool), np.zeros((n, n), dtype=bool)]
    for _ in range(20):
        n = int(rng.integers(2, 16))
        perm = rng.permutation(n)
        dag = np.triu(rng.random((n, n)) < 0.3, 1)
        cases.append(dag[np.ix_(perm, perm)])
    for pos in cases:
        got = _link_counts(pos)
        assert got.dtype == np.int64
        assert (got == oracle_link_counts(pos)).all()
    # a cycle, planted in a chain or a loop of one point, has walks of
    # every length: refused after n powers
    for pos in (np.eye(5, k=1, dtype=bool), np.eye(1, dtype=bool)):
        pos[-1, 0] = True
        with pytest.raises(ValueError, match="chronological cycle"):
            _link_counts(pos)


def test_min_gamma_when_float_order_differs():
    d = np.full((6, 6), Fraction(0), dtype=object)
    # exact gamma(0, 1) = 11/10 < gamma(2, 3) = 6/5, but the float image
    # puts gamma(2, 3) at 1.0 (entries near 2**51 round to halves)
    d[0, 4] = Fraction(11, 10)
    d[2, 5], d[3, 5] = 2**51 + Fraction(6, 5), Fraction(2**51)
    assert _min_gamma(d, *_signed_image(d)[:2]) == Fraction(11, 10)
    # gamma(0, 1) = 10**309 lies only in entries past the float range
    d = np.full((6, 6), Fraction(0), dtype=object)
    d[0, 4], d[1, 4] = Fraction(10**309), Fraction(2 * 10**309)
    d[2, 5] = d[3, 4] = Fraction(1)
    assert _min_gamma(d, *_signed_image(d)[:2]) == oracle_min_gamma(d) == 1


def test_rationalize_memory_is_quadratic():
    # an O(n^3) broadcast of float64 at n = 120 alone needs 960 n^2 bytes
    n = 120
    c = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=0))
    tracemalloc.start()
    try:
        rationalize(c, eps=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * n * n


def test_rationalize_keeps_rational_input_close():
    m = np.empty((2, 2), dtype=object)
    m[:, :] = Fraction(0)
    m[0, 1] = Fraction(1, 3)
    out = rationalize(Causet.from_matrix(m), eps=Fraction(1, 50))
    assert abs(out.d[0, 1] - Fraction(1, 3)) <= Fraction(1, 50)
    assert out.d[0, 1].denominator <= 1000


def _same_as_oracle(c, eps):
    """rationalize(c, eps) has the oracle's numerators and denominators,
    every entry a Fraction, or both refuse c; the output when not."""
    try:
        want = oracle_rationalize(c, eps)
    except ValueError:
        with pytest.raises(ValueError):
            rationalize(c, eps)
        return None
    got = rationalize(c, eps).d
    assert all(type(v) is Fraction for v in got.flat)
    assert [(v.numerator, v.denominator) for v in got.flat] == \
        [(v.numerator, v.denominator) for v in want.flat]
    return got


def _fraction_dag(rng, n, dens):
    """A closed random Fraction DAG with the given denominators."""
    d = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                d[i, j] = Fraction(int(rng.integers(1, 60)),
                                   int(rng.choice(dens)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] > 0 and d[k, j] > 0:
                    d[i, j] = max(d[i, j], d[i, k] + d[k, j])
    return Causet(tuple(f"p{k}" for k in range(n)), d)


def test_rationalize_integer_path_on_extreme_floats():
    # a float payload is read as ints over one power of two 2**E: with
    # subnormal and 1e-300 entries E passes 1023, so the numerators have
    # no float64 image and the slack filter must read d1's values
    d = np.zeros((4, 4))
    d[0, 1], d[1, 2], d[0, 2] = 5e-324, 1e-300, 1e-299
    d[2, 3], d[1, 3], d[0, 3] = 1.0, 1.5, 2.0
    tiny = Causet.from_matrix(d)
    assert nets_module._numerators(tiny)[1] == 2**1126
    for eps in (1e-3, 1e-310, 1e300):
        assert _same_as_oracle(tiny, eps) is not None
    rng = np.random.default_rng(41)
    for k in range(12):
        c = random_valid_matrix(rng, int(rng.integers(2, 9)))
        # powers of two scale the entries exactly: the inputs stay valid
        for scale in (2.0**-1000, 2.0**-1020, 2.0**1000, 2.0**1015):
            scaled = Causet(c.labels, c.d * scale)
            assert _same_as_oracle(scaled, 1e-3 * scale) is not None
            # near 2**1000, a delta sized by eps = 1e-3 cannot lift the
            # float closure's rounding defects: both refuse the input
            _same_as_oracle(scaled, 1e-3)


def test_rationalize_slack_filter_reads_stage_one_values(monkeypatch):
    # the float filter of the stage-one slack gets d1 = d + delta t^2, not
    # the numerators over the common denominator
    seen = []

    def spy(d, pos, f, err):
        seen.append(f.copy())
        return min_slack(d, pos, f, err)

    min_slack = nets_module._min_slack
    monkeypatch.setattr(nets_module, "_min_slack", spy)
    d = np.zeros((4, 4))
    d[0, 1], d[1, 2], d[0, 2] = 5e-324, 1e-300, 1e-299
    d[2, 3], d[1, 3], d[0, 3] = 1.0, 1.5, 2.0
    c = sample_causet(DiamondSpace(), SampleSpec(count=30, seed=2))
    for host in (Causet.from_matrix(d), c):
        rationalize(host, 1e-3)
        assert np.abs(seen.pop() - host.d).max() <= 1e-3


def test_rationalize_integer_path_on_fraction_payloads():
    rng = np.random.default_rng(43)
    big = Fraction(3**252 + 1, 3**252)  # entries with 400-bit denominators
    for k in range(10):
        c = random_valid_matrix(rng, int(rng.integers(2, 9)))
        exact = np.zeros(c.d.shape, dtype=object)
        exact[c.d != 0] = [Fraction(v) * big for v in c.d[c.d != 0]]
        out = _same_as_oracle(Causet(c.labels, exact), 1e-3)
        assert max(v.denominator for v in exact.flat).bit_length() > 400
        # a rationalized input: many distinct odd denominators
        _same_as_oracle(Causet(c.labels, out), Fraction(1, 7))
        # denominators 1, 6, 10 and 15, which share factors
        _same_as_oracle(_fraction_dag(rng, int(rng.integers(2, 9)),
                                      [1, 6, 10, 15]), 1e-2)
    for k in range(30):  # planted defects, past-range and tiny entries
        d = random_fraction_matrix(rng, int(rng.integers(2, 8)))
        _same_as_oracle(Causet(tuple(f"p{k}" for k in range(len(d))), d),
                        1e-3)
    c = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=5))
    _same_as_oracle(rationalize(c, 1e-3), 1e-3)


def test_rationalize_small_and_spacelike_inputs():
    zero = np.zeros((0, 0))
    for m in (zero, zero.astype(object), [[0.0]], [[Fraction(0)]],
              [[0.0, 0.5], [0.0, 0.0]], [[Fraction(0), Fraction(1, 3)],
                                         [Fraction(0), Fraction(0)]]):
        c = Causet.from_matrix(m)
        assert _same_as_oracle(c, 1e-3).shape == (c.n, c.n)
    # all spacelike: the raw matrix is not distinguishing, the sample
    # quotients to a point or to nothing
    for m in (np.zeros((3, 3)), np.zeros((2, 2), dtype=object) + Fraction(0)):
        with pytest.raises(ValueError, match="distinguishing"):
            rationalize(Causet.from_matrix(m), 1e-3)
    pts = [(0.1, 0.9), (0.3, 0.7), (0.6, 0.5)]
    for boundary in (False, True):
        c = causet_from_points(pts, include_boundary_point=boundary)
        assert c.n == boundary
        assert _same_as_oracle(c, 1e-3).shape == (c.n, c.n)


# -- simplest rational in an interval -----------------------------------------

def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    return _simplest_between(lo.numerator, lo.denominator,
                             hi.numerator, hi.denominator)


def test_simplest_rational_hand_values():
    assert simplest_between(Fraction(1, 2), Fraction(7, 10)) == Fraction(2, 3)
    assert simplest_between(Fraction(-3, 2), Fraction(-4, 3)) == \
        Fraction(-7, 5)
    assert simplest_between(Fraction(3), Fraction(4)) == Fraction(7, 2)


@given(st.fractions(max_denominator=10**12),
       st.fractions(min_value=Fraction(1, 10**15), max_value=10**6,
                    max_denominator=10**15))
def test_simplest_rational_between_matches_oracle(lo, width):
    got = simplest_between(lo, lo + width)
    assert got == oracle_simplest_rational_between(lo, lo + width)
    assert type(got) is Fraction


@given(st.fractions(min_value=-3, max_value=3, max_denominator=30),
       st.fractions(min_value=Fraction(1, 900), max_value=2,
                    max_denominator=900))
def test_simplest_rational_between_properties(lo, width):
    hi = lo + width
    r = simplest_between(lo, hi)
    assert lo < r < hi
    # nothing with a smaller denominator fits in the open interval
    for q in range(1, r.denominator):
        p_lo = (lo * q).__floor__() + 1
        p_hi = (hi * q).__ceil__() - 1
        for p in range(p_lo, p_hi + 1):
            assert not lo < Fraction(p, q) < hi


# -- limits -------------------------------------------------------------------

def _chain(dist):
    return Causet.from_matrix([[0.0, dist], [0.0, 0.0]])


def test_limit_constant_sequence_is_identity():
    seq = [_chain(1.0)] * 5
    out = limit_causet(seq)
    assert out.d[0, 1] == 1.0
    again = limit_causet([out] * 5)
    assert np.array_equal(again.d, out.d)


def test_limit_first_order_sequence_is_exact():
    seq = [_chain(1.0 + 1.0 / m) for m in range(1, 51)]
    out = limit_causet(seq)
    assert out.d[0, 1] == 1.0
    assert validate(out).valid


def test_limit_identifies_collapsing_points():
    def member(m):
        d = np.zeros((3, 3))
        d[0, 2] = 1.0
        d[1, 2] = 1.0 + 1.0 / m
        return Causet.from_matrix(d)

    out = limit_causet([member(m) for m in range(1, 31)])
    assert out.n == 2  # the first two points share their limit profiles


def test_limit_rejects_bad_sequences():
    with pytest.raises(ValueError):
        limit_causet([])
    with pytest.raises(ValueError, match="labels"):
        limit_causet([_chain(1.0),
                      Causet.from_matrix([[0.0, 1.0], [0.0, 0.0]],
                                         labels=("a", "b"))])
    diverging = [_chain(1.0 + (-0.5) ** m) for m in range(1, 13)]
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        limit_causet(diverging, tol=0.01)


def test_limit_quotients_until_nothing_merges():
    # one tol-quotient of this limit left two representatives within tol,
    # and the limit failed its own distinguishing check
    c = sample_causet(DiamondSpace(), SampleSpec(count=13, seed=1928680310))
    seq = [Causet(c.labels, c.d * (1 + 1 / m)) for m in range(20, 28)]
    out = limit_causet(seq, tol=0.05)
    assert out.n == 9
    assert validate(out, tol=0.05).valid
    keep = [c.labels.index(lbl) for lbl in out.labels]
    assert np.abs(out.d - c.d[np.ix_(keep, keep)]).max() <= 0.05


def test_limit_quotient_passes_end_after_one_that_merges_nothing(
        monkeypatch):
    # k passes that merge, then one that merges nothing: k + 1 quotients
    merged = []

    def counting(c, tol):
        out = quotient(c, tol=tol)
        merged.append(out[0].n < c.n)
        return out

    quotient = nets_module.distance_quotient
    monkeypatch.setattr(nets_module, "distance_quotient", counting)
    cloud = np.array([(0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (0.7, 0.3)])
    seq = [causet_from_points(0.5 + (cloud - 0.5) * (1 + 1 / (10 * m)))
           for m in range(1, 13)]
    limit_causet(seq, tol=0.05)
    assert merged == [False]
    merged.clear()
    c = sample_causet(DiamondSpace(), SampleSpec(count=13, seed=1928680310))
    limit_causet([Causet(c.labels, c.d * (1 + 1 / m)) for m in range(20, 28)],
                 tol=0.05)
    assert merged == [True, True, False]


def test_limit_of_shrinking_cloud():
    # profiles of distinct points stay > tol apart, so nothing merges
    base = np.array([(0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (0.7, 0.3)])
    target = causet_from_points(base)

    def member(m):
        scale = 1.0 + 1.0 / (10 * m)
        return causet_from_points(0.5 + (base - 0.5) * scale)

    out = limit_causet([member(m) for m in range(1, 13)], tol=0.05)
    assert out.labels == target.labels
    assert np.abs(out.as_float() - target.as_float()).max() <= 1e-9
    # a correspondence between the tail and the limit has small distortion
    tail = member(12)
    ident = Correspondence(out.n, out.n,
                           tuple(zip(range(out.n), range(out.n))))
    assert distortion(ident, tail, out) <= 0.05


class _Fitted(Exception):
    """Carries limit_causet's fitted matrix out of its first quotient."""


def _fitted_matrix(monkeypatch, seq, tol):
    def stop(c, tol):
        raise _Fitted(c.d)
    monkeypatch.setattr(nets_module, "distance_quotient", stop)
    with pytest.raises(_Fitted) as info:
        limit_causet(seq, tol=tol)
    return info.value.args[0]


@pytest.mark.parametrize("length", [1, 3, 5, 6, 9, 14, 16, 24, 40])
def test_limit_fit_matches_per_entry_loop(monkeypatch, length):
    rng = np.random.default_rng(length)
    n = 5
    labels = tuple(f"p{k}" for k in range(n))
    base = rng.uniform(0.5, 3, (n, n))
    stack = np.array([base * (1 + rng.normal(0, 1, (n, n)) / m)
                      for m in range(20, 20 + length)])
    stack[:, 0, :] = 0.0                      # zero entries
    stack[:, 1, 1] = 2.5                      # a constant entry
    stack[:, 0, 1], stack[:, 1, 0] = 1e308, -1e308  # huge constant entries
    stack[:, 3, 0] = -0.01 * (1 + 1 / np.arange(20, 20 + length))  # fit < 0
    for bad in (np.nan, np.inf):              # refused in one member
        member = stack[-1].copy()
        member[2, 2] = bad
        with pytest.raises(ValueError, match=r"entry \(2, 2\)"):
            limit_causet([Causet(labels, d) for d in stack[:-1]]
                         + [Causet(labels, member)], tol=1.0)
    seq = [Causet(labels, d) for d in stack]
    got = _fitted_matrix(monkeypatch, seq, tol=1.0)
    want = oracle_limit_matrix(seq)
    tail = stack[length // 2 if length >= 6 else 0:]
    if len(tail) < 8:
        assert got.tobytes() == want.tobytes()
        return
    # from 8 tail members on, LAPACK's many-column path sums in another
    # order than its one-column path: fitted entries move by ulps
    fitted = tail.max(axis=0) != tail.min(axis=0)
    assert got[~fitted].tobytes() == want[~fitted].tobytes()
    assert np.abs(got[fitted] - want[fitted]).max() <= \
        64 * np.finfo(float).eps * base.max()


def test_limit_fit_keeps_the_sign_of_a_zero_fit(monkeypatch):
    # this tail fits a = -0.0, which max(a, 0.0) kept and np.maximum drops
    seq = [Causet(("p0",), np.array([[v]])) for v in (5e-324, 0.0, 0.0, 0.0)]
    got = _fitted_matrix(monkeypatch, seq, tol=1.0)
    assert got.tobytes() == oracle_limit_matrix(seq).tobytes()
    assert np.signbit(got[0, 0])
