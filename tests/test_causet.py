"""Distance-matrix container, axiom validation, and causet surgery."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from lorentzmet import (
    Causet,
    adjoin_boundary,
    chronological_relation,
    diameter,
    distance_quotient,
    dump_causet,
    find_isometries,
    induced,
    load_causet,
    reverse_triangle_slack,
    strip_boundary,
    validate,
)
from lorentzmet.causet import (DEFAULT_TOL, TWIN_BLOCK, BoundaryError,
                               _cone_slacks, _sum_window, _twins)
from lorentzmet.diamond import (DiamondSpace, SampleSpec, diamond_distance,
                                sample_causet)
from helpers import (corrupt, make_corpus, nan_gaps, oracle_cone_floors,
                     oracle_cone_slacks, oracle_distinguishing,
                     oracle_quotient_map, oracle_slack, oracle_twins,
                     oracle_validate_exact, oracle_violations,
                     random_fraction_matrix, random_valid_matrix, tame,
                     underflow_payload, wild_matrix)


CHAIN2 = [[0.0, 1.0], [0.0, 0.0]]
CHAIN3 = [[0.0, 1.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]


def test_from_matrix_defaults():
    c = Causet.from_matrix(CHAIN2)
    assert c.labels == ("p0", "p1")
    assert c.n == 2
    assert c.boundary is None
    assert not c.is_rational


def test_constructor_structural_errors():
    with pytest.raises(ValueError):
        Causet(("a",), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Causet(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Causet(("a", "b"), np.zeros((2, 2)), boundary=5)
    with pytest.raises(ValueError):
        Causet.from_matrix(np.zeros((2, 3)))
    # a declared boundary point needs an all-zero row and column
    with pytest.raises(BoundaryError, match="boundary point 0"):
        Causet.from_json({"n": 2, "d": [[0, 1], [0, 0]], "boundary": 0})
    with pytest.raises(BoundaryError, match="boundary point 1"):
        Causet(("a", "b"), np.array(CHAIN2), boundary=1)
    with pytest.raises(BoundaryError):
        Causet(("a", "b"), np.array([[0.0, 0.0], [np.nan, 0.0]]), boundary=0)


def test_matrix_is_frozen():
    c = Causet.from_matrix(CHAIN2)
    with pytest.raises(ValueError):
        c.d[0, 1] = 9.0
    m = np.array([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
                 dtype=object)
    r = Causet.from_matrix(m)
    with pytest.raises(ValueError):
        r.d[0, 1] = Fraction(-5)
    m[0, 1] = Fraction(-5)  # the caller's array is copied, not frozen
    assert r.d[0, 1] == 1


def test_caller_float_array_stays_writable():
    for build in (lambda a: Causet(("a", "b"), a), Causet.from_matrix):
        a = np.array(CHAIN2)
        c = build(a)
        assert a.flags.writeable
        a[0, 1] = 9.0
        assert c.d[0, 1] == 1.0 and c.as_float()[0, 1] == 1.0


def test_validate_accepts_chains():
    assert validate(Causet.from_matrix(CHAIN2)).valid
    assert validate(Causet.from_matrix(CHAIN3)).valid


@pytest.mark.parametrize("matrix,kind", [
    ([[0.0, -1.0], [0.0, 0.0]], "negative-entry"),
    ([[0.0, np.nan], [0.0, 0.0]], "negative-entry"),
    ([[0.5, 1.0], [0.0, 0.0]], "diagonal"),
    ([[0.0, 1.0, 1.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "reverse-triangle"),
    ([[0.0, 0.0], [0.0, 0.0]], "distinguishing"),
])
def test_validate_flags_each_kind(matrix, kind):
    report = validate(Causet.from_matrix(matrix))
    assert not report.valid
    assert kind in report.kinds()


def test_validate_multiple_boundary():
    d = np.zeros((4, 4))
    d[0, 1] = 1.0  # p2 and p3 both have all-zero profiles
    report = validate(Causet.from_matrix(d))
    kinds = report.kinds()
    assert "multiple-boundary" in kinds
    (mb,) = [v for v in report.violations if v.kind == "multiple-boundary"]
    assert mb.witness == (2, 3)


def test_validate_nan_row_is_not_indistinguishable():
    # two NaN-poisoned rows must not count as sharing a profile
    d = np.zeros((3, 3))
    d[0, 2] = np.nan
    d[1, 2] = np.nan
    kinds = validate(Causet.from_matrix(d)).kinds()
    assert "negative-entry" in kinds
    assert "distinguishing" not in kinds


def test_validate_nan_branch_memory_is_quadratic():
    n = 200
    idx = np.arange(n, dtype=float)
    d = np.maximum(idx[None, :] - idx[:, None], 0.0)  # a chain
    d[3, 5] = np.nan
    tracemalloc.start()
    try:
        rep = validate(Causet.from_matrix(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * n * n
    assert rep.violations[0].kind == "negative-entry"
    # the row-at-a-time gaps are the n^3 broadcast's, NaN counted as +inf
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 2, (9, 9))
    f[rng.random((9, 9)) < 0.1] = np.nan
    f[rng.random((9, 9)) < 0.1] = np.inf
    with np.errstate(invalid="ignore"):
        gaps = np.abs(f[:, None, :] - f[None, :, :])
        want = np.where(np.isnan(gaps), np.inf, gaps).max(axis=2)
        assert np.array_equal(nan_gaps(f), want)


def _distinguishing(rep):
    return [v for v in rep.violations if v.kind == "distinguishing"]


def test_validate_matches_full_comparison_on_nan_and_inf_payloads():
    # the filtered distinguishing pass against the full gap matrices, both
    # below and past the filter's first block (sparse there, with many
    # pairs surviving the block); on small matrices the other kinds
    # against the per-entry loops
    rng = np.random.default_rng(12)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(300):
            small = t % 2
            d = wild_matrix(rng, int(rng.integers(0, 12)) if small else
                            int(rng.integers(TWIN_BLOCK, 3 * TWIN_BLOCK)),
                            0.5 if small else 0.05)
            for tol in (0.0, 1e-9, 0.6, -0.1, 1e6, np.inf, -np.inf):
                rep = validate(d, tol)
                assert _distinguishing(rep) == oracle_distinguishing(d, tol)
                if small:
                    others = {(v.kind, v.witness) for v in rep.violations
                              if v.kind != "distinguishing"}
                    assert others == {v for v in oracle_violations(d, tol)
                                      if v[0] != "distinguishing"}


def _same_yields(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for (j, ii, kk, s), (wj, wii, wkk, ws) in zip(got, want):
        assert type(j) is int and j == wj
        assert ii.tolist() == wii.tolist() and kk.tolist() == wkk.tolist()
        # bitwise, NaN included
        assert s.shape == ws.shape and s.tobytes() == ws.tobytes()


def test_cone_slacks_match_per_j_oracle():
    # the index lists sliced from one nonzero per side, and the flat
    # gather, give the per-column, per-row, np.ix_ yields of the oracle
    rng = np.random.default_rng(31)
    mats = [np.zeros((n, n)) for n in range(4)]
    # (f[0, 2] - f[0, 1]) - f[1, 2] overflows though every entry is finite
    mats.append(np.array([[0.0, 1e308, -1e308], [0, 0, 1], [0, 0, 0]]))
    mats += [sample_causet(DiamondSpace(), SampleSpec(count=n, seed=seed)).d
             for n, seed in ((5, 1), (40, 2), (150, 3), (300, 4))]
    specials = np.array([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e308, -1e308])
    for _ in range(60):
        n = int(rng.integers(0, 25))
        d = rng.uniform(-0.5, 2.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        plant = rng.uniform(size=(n, n)) < 0.1
        d[plant] = rng.choice(specials, size=int(plant.sum()))
        mats.append(d)
    for d in mats:
        n = len(d)
        masks = (d > 0, rng.uniform(size=(n, n)) < 0.3,
                 np.zeros((n, n), dtype=bool))  # the last: empty cones
        for pos in masks:
            _same_yields(_cone_slacks(d, pos), oracle_cone_slacks(d, pos))


def test_validate_reports_defects_only_a_non_finite_slack_witnesses():
    # exact chains 0 -> 1 -> 2 with d(0, 2) < d(0, 1) + d(1, 2), beside a
    # 10**400 link 3 -> 4, so the float image is +-inf past 2**1023: the
    # one slack at j = 1 is +inf or inf - inf = NaN, and validate must
    # not skip its block
    huge = Fraction(10**400)
    big = Fraction(3 * 2**1021)  # finite; twice it is past 2**1023
    for (a, b, c), slack in (((big, big, Fraction(2**1023)), "inf"),
                             ((huge, Fraction(5), huge + 1), "nan")):
        d = np.full((5, 5), Fraction(0), dtype=object)
        d[0, 1], d[1, 2], d[0, 2], d[3, 4] = a, b, c, huge
        causet = Causet.from_matrix(d)
        f, _, sign, _ = causet._image
        blocks = {j: s.tolist() for j, _, _, s in _cone_slacks(f, sign > 0)}
        assert repr(blocks[1]) == f"[[{slack}]]"
        rep = validate(causet)
        assert ("reverse-triangle", (0, 1, 2)) in {
            (v.kind, v.witness) for v in rep.violations}
        assert list(rep.violations) == oracle_validate_exact(d)


def test_validate_nan_is_never_within_tol():
    # twins but for a NaN coordinate: a NaN entry anywhere makes a NaN
    # difference +inf, so they are distinct; inf - inf alone is skipped
    d = np.zeros((TWIN_BLOCK + 4, TWIN_BLOCK + 4))
    d[:2, -1] = np.inf
    assert _distinguishing(validate(d, 0.5))[0].witness == (0, 1)
    d[0, -1] = np.nan
    got = {v.witness for v in _distinguishing(validate(d, 0.5))}
    assert (0, 1) not in got and (1, 2) not in got and (2, 3) in got


def test_distinguishing_pass_memory_on_zero_points_before_a_chain():
    # TWIN_BLOCK points with zero rows and columns, then a 284-point chain:
    # validate reports exactly the 120 zero pairs as undistinguished, within
    # a peak of 100 n^2 bytes.  Only those pairs and the 142 mirror pairs
    # (i, 315 - i), whose row-plus-column sums tie, reach the full
    # measurement; test_twin_filter_memory_when_every_pair_is_a_candidate
    # covers the case where every pair does
    n = 300
    idx = np.arange(n, dtype=float)
    d = np.maximum(idx[None, :] - idx[:, None], 0.0)
    d[:TWIN_BLOCK] = 0.0
    d[:, :TWIN_BLOCK] = 0.0
    tracemalloc.start()
    try:
        rep = validate(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * n * n
    assert _distinguishing(rep) == oracle_distinguishing(d, DEFAULT_TOL)
    assert len(_distinguishing(rep)) == TWIN_BLOCK * (TWIN_BLOCK - 1) // 2


TWIN_TOLS = (0.0, 1e-9, 0.6, -0.1, np.inf)


def _same_arrays(got, want):
    return all(g.dtype == w.dtype and np.array_equal(g, w)
               for g, w in zip(got, want, strict=True))


def test_twins_match_pdist_oracle():
    # the sorted-sum filter against the 32-coordinate pdist filter it
    # replaced: the same (i, j, gap) arrays, dtypes included
    rng = np.random.default_rng(21)
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(240):
            n = int(rng.integers(0, 3 * TWIN_BLOCK))
            kind = t % 4
            if kind == 0:
                d = wild_matrix(rng, n, rng.random())
            elif kind == 1:  # many ties: every sum shared
                d = rng.choice([0.0, 1.0], (n, n)) * (rng.random((n, n)) < .1)
            elif kind == 2:  # random, with twins and near-twins planted
                d = rng.uniform(0, 2, (n, n))
                for i, j in rng.integers(0, n, (2, 2)) if n else ():
                    d[j], d[:, j] = d[i], d[:, i]
                    d[j, i] += rng.choice([0.0, 1e-12, 0.5])
            else:  # specials among tiny or huge entries
                d = wild_matrix(rng, n, 0.05) * rng.choice([1e-310, 1e300])
            for tol in TWIN_TOLS:
                assert _same_arrays(_twins(d, tol), oracle_twins(d, tol)), \
                    (t, tol)


def test_twin_filter_on_zero_points_before_a_chain():
    # 16 all-zero points, then a 584-point chain: every pair agrees on the
    # first 16 coordinates, but a chain point shares its sum only with its
    # mirror image (i <-> 615 - i), so the candidates are the 120 pairs of
    # zero points and the 292 mirror pairs, not all 179,700
    n = 600
    idx = np.arange(n, dtype=float)
    d = np.maximum(idx[None, :] - idx[:, None], 0.0)
    d[:TWIN_BLOCK] = 0.0
    d[:, :TWIN_BLOCK] = 0.0
    order, hi = _sum_window(d, DEFAULT_TOL)
    assert (hi - np.arange(1, n + 1)).sum() == 120 + 292
    assert _same_arrays(_twins(d, DEFAULT_TOL), oracle_twins(d, DEFAULT_TOL))


def test_twin_filter_memory_when_every_pair_is_a_candidate():
    # tol = inf keeps every pair through the sums, the block and the full
    # measurement: chunks keep the candidates' block gathers O(n^2)
    n = 300
    d = np.random.default_rng(3).uniform(0, 1, (n, n))
    tracemalloc.start()
    try:
        i, j, gap = _twins(d, np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * n * n
    assert len(i) == n * (n - 1) // 2


def test_validate_rejects_nan_tol():
    # a NaN tol would compare False everywhere and pass an invalid matrix
    bad = Causet.from_matrix([[0, 1, 1.5], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="NaN"):
        validate(bad, tol=float("nan"))


def test_validate_tolerance_absorbs_small_defects():
    d = np.array(CHAIN3)
    d[0, 2] = 2.0 - 1e-12
    assert validate(Causet.from_matrix(d)).valid
    assert not validate(Causet.from_matrix(d), tol=1e-15).valid


def test_validate_violation_order_is_deterministic():
    d = np.array([[0.3, -1.0], [np.nan, 0.0]])
    report = validate(Causet.from_matrix(d))
    kinds = [v.kind for v in report.violations]
    assert kinds == sorted(kinds, key=["negative-entry", "diagonal",
                                       "reverse-triangle", "distinguishing",
                                       "multiple-boundary"].index)


def test_validate_exact_ignores_tol():
    half = Fraction(1, 2)
    m = np.empty((3, 3), dtype=object)
    m[:, :] = Fraction(0)
    m[0, 1] = m[1, 2] = half
    m[0, 2] = 2 * half  # equality: allowed
    assert validate(Causet.from_matrix(m)).valid
    m2 = m.copy()
    m2[0, 2] = 2 * half - Fraction(1, 10**30)
    report = validate(Causet.from_matrix(m2), tol=1.0)  # tol must not matter
    assert "reverse-triangle" in report.kinds()


def test_exact_twins_past_the_float_range():
    # both rows round to inf where they differ or agree; exact arithmetic
    # must tell them apart or not
    big = Fraction(10**309)
    m = np.full((3, 3), Fraction(0), dtype=object)
    m[0, 2] = m[1, 2] = big
    assert [(v.kind, v.witness) for v in validate(m).violations] == \
        [("distinguishing", (0, 1))]
    m[1, 2] = big + 1
    assert validate(m).valid


def test_validator_agrees_with_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        base = random_valid_matrix(rng, 5).as_float().copy()
        if rng.random() < 0.6:
            base = corrupt(rng, base)
            if rng.random() < 0.3:
                base = corrupt(rng, base)
        got = {(v.kind, v.witness) for v in validate(base).violations}
        assert got == oracle_violations(base)


# the default, exact ties, one above every entry, negative and infinite
WALK_TOLS = (DEFAULT_TOL, 0.0, 1e6, -0.3, np.inf, -np.inf)


def test_reverse_triangle_witnesses_match_oracle():
    # sparse valid spaces and dense random matrices, each with a NaN, a
    # +inf and a negative entry planted; the valid spaces' closure sums
    # leave triples off by an ulp, which the walk's float slack and the
    # naive sum round apart, so at tol = 0 they test the threshold's width
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 26))
        if trial % 2:
            d = random_valid_matrix(rng, n).as_float().copy()
        else:
            d = np.where(rng.random((n, n)) < 0.5,
                         rng.uniform(0.1, 1.0, (n, n)), 0.0)
        for value in (np.nan, np.inf, -0.5):
            i, j = rng.integers(0, n, size=2)
            d[i, j] = value
        for tol in WALK_TOLS:
            got = [v for v in validate(d, tol).violations
                   if v.kind == "reverse-triangle"]
            with np.errstate(invalid="ignore"):  # the oracle's inf - inf
                want = sorted(w for kind, w in oracle_violations(d, tol)
                              if kind == "reverse-triangle")
                assert [v.witness for v in got] == want, (trial, tol)
                for v in got:
                    i, j, k = v.witness
                    assert v.magnitude == float(d[i, j] + d[j, k] - d[i, k])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowError:  # a magnitude past the float range, both sides
        return OverflowError


def test_exact_validate_and_slack_match_oracles():
    # random Fraction matrices: mixed denominators, invalid entries,
    # near-ties no float can decide, entries past 1e308 and below 1e-320;
    # first a fixed payload whose signs underflow in the float image
    rng = np.random.default_rng(17)

    def check(d):
        got = _outcome(lambda: list(validate(d).violations))
        want = _outcome(oracle_validate_exact, d)
        assert got == want
        slack = oracle_slack(d)
        c = Causet(tuple(map(str, range(len(d)))), d)
        got = reverse_triangle_slack(c)
        assert got == (float("inf") if slack is None else slack)
        assert type(got) is (float if slack is None else Fraction)
        assert list(validate(c).violations) == want  # the cached signs
        return want

    assert {v.kind for v in check(underflow_payload())} == {
        "negative-entry", "reverse-triangle"}
    ties = 0
    for _ in range(150):
        want = check(random_fraction_matrix(rng, int(rng.integers(1, 9))))
        ties += sum(v.kind == "reverse-triangle" and v.magnitude < 1e-20
                    or v.kind == "distinguishing" for v in want)
    assert ties > 0


def test_float_slack_is_the_loop_value():
    rng = np.random.default_rng(5)
    for _ in range(40):
        c = random_valid_matrix(rng, int(rng.integers(2, 12)))
        want = oracle_slack(c.d)
        assert reverse_triangle_slack(c) == (float("inf") if want is None
                                             else want)


def test_slack_when_every_triple_ties_at_the_float_minimum():
    # a chain d(i, k) = k - i ties every slack at 0, so every block's
    # floor is the minimum: every block is walked again, one at a time,
    # and memory stays O(n^2)
    n = 100
    idx = np.arange(n, dtype=float)
    c = Causet.from_matrix(np.maximum(idx[None, :] - idx[:, None], 0.0))
    tracemalloc.start()
    try:
        got = reverse_triangle_slack(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0.0 and peak < 100 * n * n
    # exact: a defect of 1e-30 at the last triples, below any float's reach
    n = 24
    d = np.array([[Fraction(max(k - i, 0)) for k in range(n)]
                  for i in range(n)], dtype=object)
    d[n - 5, n - 1] -= Fraction(1, 10**30)
    got = reverse_triangle_slack(Causet.from_matrix(d))
    assert got == oracle_slack(d) == Fraction(-1, 10**30)
    assert type(got) is Fraction


def _floor_inputs():
    """Payloads for the cached slack floors: the corpus, wild matrices raw
    and tamed (NaN, +-inf, negative entries, nonzero diagonals), diamond
    samples, an exactly collinear chain (floor 0, below E), random Fraction
    matrices and the underflow payload."""
    rng = np.random.default_rng(27)
    yield from (c.d for c in make_corpus(count=40))
    for _ in range(40):
        wild = wild_matrix(rng, int(rng.integers(1, 12)))
        yield wild
        yield tame(wild)
    for n in (5, 20, 80):
        yield sample_causet(DiamondSpace(), SampleSpec(count=n, seed=n)).d
    yield np.array(CHAIN3)
    for _ in range(30):
        yield random_fraction_matrix(rng, int(rng.integers(1, 9)))
    yield underflow_payload()


def _fresh(d):
    return Causet(tuple(map(str, range(len(d)))), d)


def test_cached_floors_match_oracle():
    # each point's least cone slack, -inf for a block with a NaN or +-inf
    # slack, +inf without a block: the same whether validate's walk or a
    # direct one filled the cache, and read-only
    minus_inf = 0
    for d in _floor_inputs():
        c = _fresh(d)
        want = oracle_cone_floors(c._image[0], c._positive())
        assert c._floors(walk=False) is None
        validate(c)
        got = c._floors(walk=False)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0:1] = 0.0
        assert c._floors().tobytes() == want.tobytes()
        assert _fresh(d)._floors().tobytes() == want.tobytes()
        minus_inf += np.isneginf(want).any()
    assert minus_inf > 0


def _slack_or_error(c):
    try:
        return reverse_triangle_slack(c)
    except (ValueError, OverflowError) as e:  # a non-finite float payload
        return type(e)


def test_validate_and_slack_same_on_fresh_and_warm_causets():
    # validate after a walk reads the cached floors and walks only the
    # blocks below its threshold; the slack reads them or fills them
    for d in _floor_inputs():
        tols = WALK_TOLS if d.dtype != object else (DEFAULT_TOL,)
        want = {tol: repr(validate(_fresh(d), tol)) for tol in tols}
        slack = _slack_or_error(_fresh(d))
        for warm_up in (lambda c: validate(c, tols[-1]), _slack_or_error):
            warm = _fresh(d)
            warm_up(warm)
            got = _slack_or_error(warm)
            assert got == slack and type(got) is type(slack)
            for tol in tols:
                assert repr(validate(warm, tol)) == want[tol]


def test_validate_magnitude_of_a_finite_defect_past_the_float_sum():
    # 1e308 + 1e308 overflows, but the defect 2e308 - 1.7e308 is finite:
    # the correctly rounded exact value, as reverse_triangle_slack negates
    d = [[0, 1e308, 1.7e308], [0, 0, 1e308], [0, 0, 0]]
    (v,) = validate(d).violations
    want = float(2 * Fraction(1e308) - Fraction(1.7e308))
    assert v.witness == (0, 1, 2) and v.magnitude == want
    assert reverse_triangle_slack(Causet.from_matrix(d)) == -want
    # an exact defect past the float range stays +inf
    d[0][2] = -1.7e308
    rep = validate(d)
    assert [(v.kind, v.magnitude) for v in rep.violations] == [
        ("negative-entry", -1.7e308), ("reverse-triangle", np.inf)]


def test_reverse_triangle_slack():
    assert reverse_triangle_slack(Causet.from_matrix(CHAIN3)) == 0.0
    assert reverse_triangle_slack(Causet.from_matrix(CHAIN2)) == float("inf")
    loose = [[0.0, 1.0, 2.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    assert reverse_triangle_slack(Causet.from_matrix(loose)) == 0.5
    # a float NaN is refused, even where a finite slack comes first
    nan_far = [[0, 1, 2, np.nan], [0, 0, 1, 2], [0, 0, 0, 1], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match=r"entry \(0, 3\)"):
        reverse_triangle_slack(Causet.from_matrix(nan_far))
    m = np.empty((3, 3), dtype=object)
    m[:, :] = Fraction(0)
    m[0, 1] = m[1, 2] = Fraction(1, 3)
    m[0, 2] = Fraction(3, 4)
    s = reverse_triangle_slack(Causet.from_matrix(m))
    assert s == Fraction(1, 12) and isinstance(s, Fraction)
    # slack of +-1/10**30: the float image sees an exact tie
    for off in (Fraction(1, 10**30), Fraction(-1, 10**30)):
        m[0, 2] = Fraction(2, 3) + off
        assert reverse_triangle_slack(Causet.from_matrix(m)) == off


def test_chronological_relation_and_diameter():
    c = Causet.from_matrix(CHAIN3)
    assert chronological_relation(c) == {(0, 1), (1, 2), (0, 2)}
    assert diameter(c) == 2.0


def test_adjoin_and_strip_boundary():
    c = Causet.from_matrix(CHAIN2)
    cb = adjoin_boundary(c)
    assert cb.boundary == 2
    assert cb.labels[-1] == "i0"
    assert validate(cb).valid
    with pytest.raises(ValueError):
        adjoin_boundary(cb)
    back = strip_boundary(cb)
    assert back.labels == c.labels
    assert np.array_equal(back.d, c.d)
    with pytest.raises(ValueError):
        strip_boundary(c)


def test_adjoin_boundary_avoids_label_collision():
    c = Causet(("i0", "x"), np.array(CHAIN2))
    cb = adjoin_boundary(c)
    assert cb.labels == ("i0", "x", "i0_1")


def test_distance_quotient_merges_duplicate_profiles():
    d = np.zeros((4, 4))
    d[0, 1] = d[0, 2] = 1.0
    d[1, 3] = d[2, 3] = 1.0
    d[0, 3] = 2.0
    q, cmap = distance_quotient(Causet.from_matrix(d))
    assert q.n == 3
    assert cmap == [0, 1, 1, 2]
    assert q.labels == ("p0", "p1", "p3")
    assert validate(q).valid


def test_distance_quotient_tol_merges_close_profiles():
    base = np.zeros((3, 3))
    base[0, 1] = 1.0
    base[0, 2] = 1.001
    q, cmap = distance_quotient(Causet.from_matrix(base), tol=2e-3)
    assert q.n == 2
    assert cmap == [0, 1, 1]


def _quotient_checks(c):
    """The class map of distance_quotient at tol = 0 is the dict oracle's,
    and its classes are the cliques of validate's distinguishing pairs."""
    q, cmap = distance_quotient(c)
    assert cmap == oracle_quotient_map(c)
    same = {(i, j) for i in range(c.n) for j in range(i + 1, c.n)
            if cmap[i] == cmap[j]}
    assert same == {v.witness for v in _distinguishing(validate(c, 0.0))}
    assert q.n == len(set(cmap))
    return cmap


def test_quotient_matches_dict_oracle_on_fraction_matrices():
    # random_fraction_matrix plants duplicates, pairs 1/10**30 of the
    # scale apart and entries past 2**1023; below, planted duplicates whose
    # copy differs by a Fraction that rounds to the same float
    rng = np.random.default_rng(29)
    merged = apart = 0
    for t in range(300):
        n = int(rng.integers(1, 9))
        d = random_fraction_matrix(rng, n)
        if t % 3 == 0 and n > 2:
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            d[j], d[:, j] = d[i], d[:, i]
            d[i, j] = d[j, i] = d[j, j] = d[i, i]
            if t % 2:
                z = int(rng.integers(0, n))
                d[z, j] += (abs(d[z, j]) or Fraction(1, 10**300)) / 10**40
        c = Causet(tuple(map(str, range(n))), d)
        cmap = _quotient_checks(c)
        merged += len(set(cmap)) < n
        f = c._image[0]
        apart += any((f[i] == f[j]).all() and (f[:, i] == f[:, j]).all()
                     and cmap[i] != cmap[j]
                     for i in range(n) for j in range(i + 1, n))
    assert merged > 20 and apart > 20


def test_quotient_matches_dict_oracle_on_samples_and_corpus():
    for k in range(2, 11):  # grids of 4 to 100 points, before the quotient
        axis = np.linspace(0.0, 1.0, k)
        pts = [(u, v) for u in axis for v in axis]
        d = np.array([[diamond_distance(p, q) for q in pts] for p in pts])
        assert len(set(_quotient_checks(Causet.from_matrix(d)))) < k * k
    for c in make_corpus(count=100):
        _quotient_checks(c)


def test_quotient_merges_signed_zeros_and_refuses_nan():
    # points 1 and 2 differ only in the sign of a zero: validate reports
    # them as undistinguished, and the quotient merges them
    d = np.zeros((3, 3))
    d[0, 1] = d[0, 2] = 1.0
    d[2, 1] = -0.0
    c = Causet.from_matrix(d)
    assert [v.witness for v in _distinguishing(validate(c))] == [(1, 2)]
    q, cmap = distance_quotient(c)
    assert cmap == [0, 1, 1] and q.labels == ("p0", "p1")
    # a NaN payload is refused at every tol, 0 included
    d[0, 2] = np.nan
    for tol in (0.0, 0.5):
        with pytest.raises(ValueError, match=r"entry \(0, 2\)"):
            distance_quotient(d, tol)
    # a NaN tol merged nothing, where tol = 0 merges all three zero points
    assert distance_quotient(np.zeros((3, 3)))[1] == [0, 0, 0]
    with pytest.raises(ValueError, match="tol must not be NaN"):
        distance_quotient(np.zeros((3, 3)), float("nan"))


def test_induced_preserves_order():
    c = Causet.from_matrix(CHAIN3)
    sub = induced(c, [2, 0])
    assert sub.labels == ("p2", "p0")
    assert sub.d[1, 0] == 2.0
    with pytest.raises(ValueError):
        induced(c, [0, 0])
    assert induced(c, np.array([2, 1])).labels == ("p2", "p1")
    # a negative index used to wrap to the last point, a large one to end
    # in numpy's IndexError, and a float one is no index
    for idx, bad in (([0, -1], -1), ([0, 5], 5)):
        with pytest.raises(ValueError, match=rf"point index {bad} out of range"):
            induced(c, idx)
    with pytest.raises(TypeError):
        induced(c, [0, 1.0])


def test_find_isometries():
    c = Causet.from_matrix(CHAIN3)
    perm = [2, 0, 1]
    d2 = c.as_float()[np.ix_(perm, perm)]
    b = Causet.from_matrix(d2)
    isos = find_isometries(c, b)
    assert isos == [(1, 2, 0)]  # inverse of the permutation applied
    assert find_isometries(c, Causet.from_matrix(CHAIN2)) == []
    assert (0, 1, 2) in find_isometries(c, c)


def test_json_round_trip(tmp_path):
    c = Causet.from_matrix(CHAIN3, meta={"note": "chain"})
    path = tmp_path / "c.json"
    dump_causet(c, str(path))
    back = load_causet(str(path))
    assert back.labels == c.labels
    assert np.array_equal(back.as_float(), c.as_float())
    assert back.meta == {"note": "chain"}

    buf = io.StringIO()
    dump_causet(c, buf)
    buf.seek(0)
    again = load_causet(buf)
    assert np.array_equal(again.as_float(), c.as_float())


def test_json_round_trip_rational():
    m = np.empty((2, 2), dtype=object)
    m[:, :] = Fraction(0)
    m[0, 1] = Fraction(22, 7)
    c = Causet.from_matrix(m)
    blob = json.dumps(c.to_json())
    back = Causet.from_json(json.loads(blob))
    assert back.is_rational
    assert back.d[0, 1] == Fraction(22, 7)


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_json_round_trip_small(n, rational):
    d = np.zeros((n, n))
    if n == 2:
        d[0, 1] = 0.75
    if rational:
        d = np.array([Fraction(v) for v in d.flat], dtype=object).reshape(n, n)
    c = Causet.from_matrix(d)
    back = Causet.from_json(json.loads(json.dumps(c.to_json())))
    assert (back.n, back.is_rational, back.labels, back.boundary) == \
        (n, rational, c.labels, c.boundary)
    assert np.array_equal(back.d, c.d)


def test_from_json_errors_name_the_field():
    with pytest.raises(KeyError, match="'d'"):
        Causet.from_json({"n": 2})
    with pytest.raises(ValueError, match="row 0"):
        Causet.from_json({"n": 2, "d": [[0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="'labels'"):
        Causet.from_json({"n": 1, "d": [[0.0]], "labels": ["a", "b"]})
    for labels in ("ab", ["a", 1], {"a": 0, "b": 1}):
        with pytest.raises(ValueError, match="'labels' must be a list"):
            Causet.from_json({"n": 2, "d": [[0, 1], [0, 0]],
                              "labels": labels})


def test_boundary_is_stored_as_an_int_index():
    zeros = np.zeros((2, 2))
    for flag in (True, False):
        with pytest.raises(TypeError, match="not a bool"):
            Causet(("a", "b"), zeros, boundary=flag)
        with pytest.raises(TypeError, match="not a bool"):
            Causet.from_json({"n": 2, "d": zeros.tolist(), "boundary": flag})
    c = Causet(("a", "b"), zeros, boundary=np.int64(1))
    assert type(c.boundary) is int and c.boundary == 1
    assert json.loads(json.dumps(c.to_json()))["boundary"] == 1


# -- JSON round trip -------------------------------------------------------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _payloads(draw, rational):
    entries = st.fractions() if rational else _FLOATS
    n = draw(st.integers(0, 6))
    d = np.array([[draw(entries) for _ in range(n)] for _ in range(n)],
                 dtype=object).reshape(n, n)
    labels = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n,
                           unique=True))
    c = Causet(tuple(labels), d if rational else d.astype(float),
               meta=draw(st.none() | st.just({"k": 1})))
    if draw(st.booleans()):
        c = adjoin_boundary(c, label="".join(labels) + "!")
    return c


def _assert_round_trip(c):
    back = Causet.from_json(json.loads(json.dumps(c.to_json())))
    assert (back.labels, back.boundary, back.meta, back.is_rational) == \
        (c.labels, c.boundary, c.meta, c.is_rational)
    assert back.d.shape == c.d.shape
    if c.is_rational:
        assert all(type(v) is Fraction for v in back.d.flat)
        assert (back.d == c.d).all()
    else:
        assert back.d.tobytes() == c.d.tobytes()


@given(_payloads(rational=False))
def test_json_round_trip_float(c):
    _assert_round_trip(c)


@given(_payloads(rational=True))
def test_json_round_trip_fraction(c):
    _assert_round_trip(c)
