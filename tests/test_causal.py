"""Causal relation J, time functions, chains, and the length DP."""

import numpy as np
import pytest
from fractions import Fraction

from lorentzmet import (
    Causet,
    causal_relation,
    reverse_triangle_slack,
    chain_length,
    gamma,
    is_chain,
    is_maximal,
    longest_chain,
    rationalize,
    time_function,
    validate,
)
import lorentzmet.causet as causet_module
from lorentzmet.causal import Chain
from lorentzmet.diamond import (DiamondSpace, SampleSpec, causet_from_points,
                                 diamond_distance, sample_causet)
from helpers import (first_non_finite, make_corpus, oracle_causal_relation,
                     oracle_tau_base, random_fraction_matrix,
                     random_valid_matrix, tame, underflow_payload,
                     wild_matrix)


CHAIN2 = Causet.from_matrix([[0.0, 1.0], [0.0, 0.0]])
ADDITIVE3 = Causet.from_matrix([[0.0, 1.0, 2.0],
                                [0.0, 0.0, 1.0],
                                [0.0, 0.0, 0.0]])
SLACK3 = Causet.from_matrix([[0.0, 1.0, 2.5],
                             [0.0, 0.0, 1.0],
                             [0.0, 0.0, 0.0]])


@pytest.fixture(scope="module")
def small_corpus():
    rng = np.random.default_rng(21)
    return [random_valid_matrix(rng, int(rng.integers(2, 11)))
            for _ in range(30)]


# -- the relation J --------------------------------------------------------

def test_causal_relation_two_chain():
    j = causal_relation(CHAIN2)
    assert j.pairs == {(0, 0), (1, 1), (0, 1)}
    assert j.contains(0, 1) and not j.contains(1, 0)
    assert j.future(0) == (0, 1)
    assert j.past(1) == (0, 1)


def test_causal_relation_properties(small_corpus):
    for c in small_corpus:
        m = causal_relation(c).matrix
        n = c.n
        assert m.diagonal().all()  # reflexive
        # transitive
        assert not (~m & (m @ m.astype(int) > 0)).any()
        # contains I, and I absorbs J on either side
        i_rel = c.as_float() > 0
        assert (m | ~i_rel).all()
        assert not ((i_rel @ m & ~i_rel)).any()
        assert not ((m @ i_rel & ~i_rel)).any()
        # antisymmetric on a distinguishing space
        both = m & m.T & ~np.eye(n, dtype=bool)
        assert not both.any()


WILD_TOLS = (0.0, 1e-9, 0.1, -0.1, np.inf, -np.inf)


def _first_break(j, pts):
    """The first pair (pts[i], pts[k]), i < k, outside J, else None."""
    return next(((p, q) for i, p in enumerate(pts) for q in pts[i + 1:]
                 if not j[p, q]), None)


def test_causal_relation_and_is_chain_match_full_comparison():
    # light-cone J against the dense per-point loop: negative and 1e308
    # entries and ties, at tolerances that empty or fill the cones; a NaN
    # or +-inf entry is refused, naming it
    rng = np.random.default_rng(5)
    cases = [wild_matrix(rng, int(rng.integers(0, 14))) for _ in range(300)]
    cases += [sample_causet(DiamondSpace(), SampleSpec(count=60, seed=s)).d
              for s in range(3)]
    for wild in cases:
        if not np.isfinite(wild).all():
            c = Causet.from_matrix(wild)
            for call in (lambda: causal_relation(c), lambda: is_chain(c, [0])):
                with pytest.raises(ValueError, match=first_non_finite(wild)):
                    call()
        d = tame(wild)
        c = Causet.from_matrix(d)
        for tol in WILD_TOLS:
            want = oracle_causal_relation(d, tol)
            assert causal_relation(c, tol).matrix.tobytes() == want.tobytes()
            if not c.n:
                continue
            pts = [int(p) for p in
                   rng.permutation(c.n)[:int(rng.integers(1, c.n + 1))]]
            got = is_chain(c, pts, tol)
            brk = _first_break(want, pts)
            assert got == brk if brk else isinstance(got, Chain)


def test_causal_relation_same_with_and_without_cached_floors(monkeypatch):
    # at tol >= 0 J fills the slack floors itself and puts in J the cone
    # pairs of points whose floor is at least E and whose row and column
    # hold no negative entry; at tol < 0 it leaves them unfilled.  Bit for
    # bit the dense loop's J, on a fresh causet, after validate and after
    # reverse_triangle_slack
    rng = np.random.default_rng(41)
    cases = [c.d for c in make_corpus(count=40)]
    cases += [tame(wild_matrix(rng, int(rng.integers(1, 12))))
              for _ in range(60)]
    cases += [sample_causet(DiamondSpace(), SampleSpec(count=n, seed=n)).d
              for n in (5, 12, 30, 80)]
    cases.append(ADDITIVE3.d)  # floor 0, below E: its pairs are tested
    cases += [random_fraction_matrix(rng, int(rng.integers(1, 9)))
              for _ in range(40)]
    cases.append(underflow_payload())
    clean = 0
    for d in cases:
        labels = tuple(map(str, range(len(d))))
        image = Causet(labels, d)._image[0]
        for tol in (-np.inf, -0.1, 0.0, 1e-9, 0.3, np.inf):
            want = None
            if np.isfinite(image).all():
                want = oracle_causal_relation(image, tol).tobytes()
            for warm_up in (None, validate, reverse_triangle_slack):
                c = Causet(labels, d)
                if warm_up is not None:
                    try:
                        warm_up(c)
                    except ValueError:  # the slack of a non-finite payload
                        pass
                if want is None:
                    with pytest.raises(ValueError, match="finite"):
                        causal_relation(c, tol)
                    continue
                got = causal_relation(c, tol).matrix.tobytes()
                assert got == want
                if warm_up is None:
                    assert ("_floor_cache" in c.__dict__) == (tol >= 0)
                elif tol >= 0:
                    sign = (image >= 0).all(axis=0) & (image >= 0).all(axis=1)
                    clean += int(((c._floors() >= c._image[1]) & sign).sum())
    assert clean > 0

    # one cone walk serves J, validate and the slack on a fresh causet
    calls = []
    walk = causet_module._slack_floors
    monkeypatch.setattr(causet_module, "_slack_floors",
                        lambda *a: calls.append(1) or walk(*a))
    c = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=3))
    causal_relation(c)
    validate(c)
    reverse_triangle_slack(c)
    assert len(calls) == 1


def _planted_diamond(case: str) -> np.ndarray:
    """A diamond sample of 150-300 points as a matrix, with case's entries
    planted: a negative entry or nonzero diagonal entries (which make
    their points unclean, so that their pairs are tested directly), or
    spacelike entries raised to below 1e-12 (pairs that are spacelike at
    tol = 1e-9 then survive the filter)."""
    rng = np.random.default_rng(len(case))
    n = {"plain": 150, "negative-row": 200, "diagonal": 250,
         "perturbed": 300}[case]
    d = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=n)).d.copy()
    if case == "negative-row":
        d[rng.integers(n), rng.integers(n)] = -0.5
    elif case == "diagonal":
        k = rng.choice(n, 12, replace=False)
        d[k, k] = rng.uniform(-0.2, 0.2, 12)
    elif case == "perturbed":
        near = (d == 0) & (rng.random(d.shape) < 0.05) & ~np.eye(n, dtype=bool)
        d[near] = rng.uniform(0, 1e-12, near.sum())
    return d


@pytest.mark.parametrize("case", ["plain", "negative-row", "diagonal",
                                  "perturbed"])
def test_causal_relation_and_is_chain_on_planted_diamonds(case):
    # J's filter, clean cone pairs and direct tests against the dense per-point
    # loop at every tolerance; is_chain on random subsets (the first pair
    # outside J) and on random chains of J
    d = _planted_diamond(case)
    c = Causet.from_matrix(d)
    rng = np.random.default_rng(9)
    for tol in WILD_TOLS:
        want = oracle_causal_relation(d, tol)
        assert causal_relation(c, tol).matrix.tobytes() == want.tobytes()
        for size in (2, 5, 40):
            pts = [int(p) for p in rng.choice(c.n, size, replace=False)]
            brk = _first_break(want, pts)
            got = is_chain(c, pts, tol)
            assert got == brk if brk else isinstance(got, Chain)
        pts = [int(rng.integers(c.n))]
        while len(pts) < 12:
            nxt = np.flatnonzero(want[pts].all(axis=0))
            nxt = nxt[~np.isin(nxt, pts)]
            if not len(nxt):
                break
            pts.append(int(rng.choice(nxt)))
        got = is_chain(c, pts, tol)
        assert isinstance(got, Chain) and got.points == tuple(pts)
        later = np.triu(np.ones((len(pts), len(pts)), dtype=bool), 1)
        assert got.is_isochronal == (d[np.ix_(pts, pts)] > 0)[later].all()


def test_nan_tol_is_rejected():
    for call in (lambda: causal_relation(ADDITIVE3, np.nan),
                 lambda: is_chain(ADDITIVE3, [0, 1], np.nan),
                 lambda: is_chain(ADDITIVE3, [0, 0], np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            call()


def test_strict_j_orders_time_function(small_corpus):
    for c in small_corpus:
        j = causal_relation(c).matrix
        tau = time_function(c).values
        for x, y in np.argwhere(j):
            if x != y:
                assert tau[x] < tau[y]


# -- time functions ---------------------------------------------------------

def test_time_function_two_chain_values():
    tau = time_function(CHAIN2)
    assert tau.values[0] == -0.125
    assert tau.values[1] == 0.25
    with pytest.raises(ValueError, match="permutation"):
        time_function(CHAIN2, ordering=[0, 0])
    # entries are read as indices: a float is refused, numpy ints are
    # stored as ints
    with pytest.raises(TypeError):
        time_function(CHAIN2, ordering=[0.0, 1.0])
    ordering = time_function(CHAIN2, ordering=np.array([1, 0])).ordering
    assert ordering == (1, 0) and all(type(p) is int for p in ordering)


def test_time_function_exact_on_rational_payload():
    m = np.empty((2, 2), dtype=object)
    m[:, :] = Fraction(0)
    m[0, 1] = Fraction(1)
    tau = time_function(Causet.from_matrix(m))
    assert tau.values[0] == Fraction(-1, 8)
    assert tau.values[1] == Fraction(1, 4)


def _rational(d: np.ndarray) -> Causet:
    q = np.empty(d.shape, dtype=object)
    q[...] = [[Fraction(v).limit_denominator(97) for v in row] for row in d]
    return Causet(tuple(f"p{k}" for k in range(len(d))), q)


@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_time_function_matches_two_branch_oracle(n):
    # one expression for both dtypes: float bytes and exact Fractions equal
    # the per-dtype code it replaced, for the default and custom orderings;
    # a float +-inf or NaN is refused, a Fraction past 2**1023 stays exact
    rng = np.random.default_rng(n)
    d = rng.uniform(-1, 3, (n, n)) * (rng.random((n, n)) < 0.6)
    labels = tuple(f"p{k}" for k in range(n))
    if n > 1:
        for bad in (np.inf, -np.inf, np.nan):
            d[0, n - 1] = bad
            with pytest.raises(ValueError, match=rf"entry \(0, {n - 1}\)"):
                time_function(Causet(labels, d.copy()))
        huge = np.full((n, n), Fraction(0), dtype=object)
        huge[0, n - 1] = Fraction(10**400)
        tau = time_function(Causet(labels, huge)).values
        assert tau[0] == -Fraction(10**400, 2 ** (n + 1))
        d[0, n - 1] = 1e308
    floats = Causet(labels, d)
    exact = _rational(np.where(d < 1e308, d, 7.0))
    for ordering in (None, list(rng.permutation(n)), list(range(n))[::-1]):
        got = time_function(floats, ordering).values
        assert got.tobytes() == oracle_tau_base(floats, ordering).tobytes()
        _check_exact_tau(exact, ordering)
    # exact payloads the float image cannot sign: the fixed underflow
    # payload, and random ones with entries past 1e308 and below 1e-320
    more = np.random.default_rng(100 + n)
    payloads = [underflow_payload()] + [
        random_fraction_matrix(more, int(more.integers(1, 9)))
        for _ in range(10)]
    for m in payloads:
        c = Causet(tuple(f"p{k}" for k in range(len(m))), m)
        for ordering in (None, list(more.permutation(c.n)),
                         list(range(c.n))[::-1]):
            _check_exact_tau(c, ordering)


def _check_exact_tau(c, ordering):
    got = time_function(c, ordering).values
    assert got.shape == (c.n,)
    assert all(type(v) is Fraction for v in got)
    assert list(got) == list(oracle_tau_base(c, ordering))


def _check_tau_ratios(c, ordering=None):
    """Exact time_function values: the oracle's numerators and
    denominators, each a Fraction."""
    got = time_function(c, ordering).values
    want = oracle_tau_base(c, ordering)
    assert all(type(v) is Fraction for v in got)
    assert [(v.numerator, v.denominator) for v in got] == \
        [(v.numerator, v.denominator) for v in want]


def test_exact_time_function_sums_each_point_over_its_lcm():
    # rationalized samples (many distinct odd denominators), 400-bit and
    # shared-factor denominators, int entries, and n = 0, 1, 2
    rng = np.random.default_rng(61)
    for k in range(6):
        c = sample_causet(DiamondSpace(), SampleSpec(count=10 + 6 * k,
                                                     seed=k))
        r = rationalize(c, 1e-3)
        _check_tau_ratios(r)
        _check_tau_ratios(r, list(rng.permutation(r.n)))
        big = np.zeros(c.d.shape, dtype=object)
        big[c.d != 0] = [Fraction(v) * Fraction(3**252 + 1, 3**252)
                         for v in c.d[c.d != 0]]
        _check_tau_ratios(Causet(c.labels, big))
    for n in range(6):
        m = np.zeros((n, n), dtype=object)
        for i, j in zip(*np.triu_indices(n, 1)):
            if rng.random() < 0.7:
                m[i, j] = (int(rng.integers(1, 9)) if rng.random() < 0.3
                           else Fraction(int(rng.integers(1, 90)),
                                         int(rng.choice([6, 10, 15]))))
        c = Causet(tuple(f"p{k}" for k in range(n)), m)
        _check_tau_ratios(c, list(rng.permutation(n)))
        # all spacelike: every value is 0
        _check_tau_ratios(Causet(c.labels, np.zeros((n, n), dtype=object)))


def test_time_function_is_one_lipschitz(small_corpus):
    for c in small_corpus:
        tau = time_function(c).values
        g = gamma(c).g
        gap = np.abs(tau[:, None] - tau[None, :])
        assert (gap <= g + 1e-12).all()


def test_time_function_any_ordering_is_monotone():
    rng = np.random.default_rng(5)
    c = random_valid_matrix(rng, 7)
    j = causal_relation(c).matrix
    for _ in range(10):
        order = list(rng.permutation(7))
        tau = time_function(c, ordering=order).values
        for x, y in np.argwhere(j):
            if x != y:
                assert tau[x] < tau[y]


# -- chains ------------------------------------------------------------------

def test_is_chain_accepts_and_reports():
    ch = is_chain(ADDITIVE3, [0, 1, 2])
    assert isinstance(ch, Chain)
    assert ch.is_isochronal
    assert ch.to_json() == [0, 1, 2]
    assert is_chain(ADDITIVE3, [1, 0]) == (1, 0)
    assert is_chain(ADDITIVE3, [0, 1, 1]) == (1, 1)
    with pytest.raises(ValueError):
        is_chain(ADDITIVE3, [])
    with pytest.raises(ValueError):
        is_chain(ADDITIVE3, [0, 9])
    # every index is range-checked before a repeat is looked for
    with pytest.raises(ValueError, match="point index 99 out of range"):
        is_chain(ADDITIVE3, [0, 0, 99])
    with pytest.raises(ValueError, match="point index -1 out of range"):
        is_chain(ADDITIVE3, [0, -1])


def test_is_chain_strict_j_without_chronology():
    # 0 dominates 1's profiles but d(0,1) = 0: a chain, not isochronal
    c = Causet.from_matrix([[0.0, 0.0, 1.0],
                            [0.0, 0.0, 0.5],
                            [0.0, 0.0, 0.0]])
    ch = is_chain(c, [0, 1])
    assert isinstance(ch, Chain)
    assert not ch.is_isochronal


def test_chain_length_and_maximality():
    assert chain_length(ADDITIVE3, [0, 1, 2]) == 2.0
    assert chain_length(SLACK3, [0, 1, 2]) == 2.0
    assert is_maximal(ADDITIVE3, [0, 1, 2])
    assert not is_maximal(SLACK3, [0, 1, 2])
    assert is_maximal(SLACK3, [0, 2])  # no interior triple
    # a negative index used to wrap silently (chain_length(c, [0, -1])
    # read d[0, n - 1]), a large one to end in numpy's IndexError
    for fn in (chain_length, is_maximal):
        for pts, bad in (([0, -1], -1), ([0, 1, 3], 3)):
            with pytest.raises(ValueError,
                               match=rf"point index {bad} out of range"):
                fn(ADDITIVE3, pts)
        with pytest.raises(ValueError, match="point index -3 out of range"):
            fn(ADDITIVE3, Chain((0, -3), True))
        # a float index was truncated: [0, 1.7] read point 1
        with pytest.raises(TypeError):
            fn(ADDITIVE3, [0, 1.7])


def test_coarsening_never_decreases_length(small_corpus):
    # deleting interior points merges steps; the reverse triangle
    # inequality makes the merged step at least as long
    for c in small_corpus:
        d = c.as_float()
        xs, ys = np.nonzero(d)
        for x, y in zip(xs[:5], ys[:5]):
            ch = longest_chain(c, int(x), int(y))
            pts = list(ch.points)
            full = chain_length(c, pts)
            for k in range(1, len(pts) - 1):
                shorter = pts[:k] + pts[k + 1:]
                assert chain_length(c, shorter) >= full - 1e-12


def test_longest_chain_dp():
    ch = longest_chain(ADDITIVE3, 0, 2)
    assert ch.points == (0, 1, 2)
    assert chain_length(ADDITIVE3, ch) == 2.0
    ch2 = longest_chain(SLACK3, 0, 2)
    assert chain_length(SLACK3, ch2) == 2.5  # direct step beats the detour
    with pytest.raises(ValueError):
        longest_chain(ADDITIVE3, 2, 0)
    with pytest.raises(ValueError, match="point index -1 out of range"):
        longest_chain(ADDITIVE3, 0, -1)
    with pytest.raises(ValueError, match="point index 3 out of range"):
        longest_chain(ADDITIVE3, 3, 2)
    with pytest.raises(TypeError):
        longest_chain(ADDITIVE3, 0, 2.0)


def test_longest_chain_is_chain_and_bounded(small_corpus):
    for c in small_corpus:
        d = c.as_float()
        xs, ys = np.nonzero(d)
        for x, y in zip(xs[:4], ys[:4]):
            ch = longest_chain(c, int(x), int(y))
            assert isinstance(is_chain(c, ch.points), Chain)
            assert chain_length(c, ch) <= d[x, y] + 1e-12


def test_longest_chain_corner_to_corner_diamond():
    rng = np.random.default_rng(15)
    pts = rng.uniform(0.0, 1.0, size=(2000, 2))
    c = causet_from_points(pts)
    lo = int(np.argmin(pts.sum(axis=1)))
    hi = int(np.argmax(pts.sum(axis=1)))
    ch = longest_chain(c, lo, hi)
    total = chain_length(c, ch)
    continuum = diamond_distance((0.0, 0.0), (1.0, 1.0))
    assert total >= 0.9 * continuum
    assert total <= diamond_distance(pts[lo], pts[hi]) + 1e-12
