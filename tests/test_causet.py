"""Distance-matrix container, axiom validation, and causet surgery."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

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
from lorentzmet.causet import DEFAULT_TOL, TWIN_BLOCK, BoundaryError
from helpers import (corrupt, nan_gaps, oracle_distinguishing, oracle_slack,
                     oracle_validate_exact, oracle_violations,
                     random_fraction_matrix, random_valid_matrix, wild_matrix)


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
            for tol in (0.0, 1e-9, 0.6, -0.1, np.inf):
                rep = validate(d, tol)
                assert _distinguishing(rep) == oracle_distinguishing(d, tol)
                if small:
                    others = {(v.kind, v.witness) for v in rep.violations
                              if v.kind != "distinguishing"}
                    assert others == {v for v in oracle_violations(d, tol)
                                      if v[0] != "distinguishing"}


def test_validate_nan_is_never_within_tol():
    # twins but for a NaN coordinate: a NaN entry anywhere makes a NaN
    # difference +inf, so they are distinct; inf - inf alone is skipped
    d = np.zeros((TWIN_BLOCK + 4, TWIN_BLOCK + 4))
    d[:2, -1] = np.inf
    assert _distinguishing(validate(d, 0.5))[0].witness == (0, 1)
    d[0, -1] = np.nan
    got = {v.witness for v in _distinguishing(validate(d, 0.5))}
    assert (0, 1) not in got and (1, 2) not in got and (2, 3) in got


def test_distinguishing_pass_memory_when_every_pair_survives_the_filter():
    # the first TWIN_BLOCK points have zero rows and columns, so every pair
    # agrees on the filter's block and goes on to the full measurement
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


def test_reverse_triangle_witnesses_match_oracle():
    # sparse valid spaces and dense random matrices, each with a NaN, a
    # +inf and a negative entry planted
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
        got = [v for v in validate(d).violations if v.kind == "reverse-triangle"]
        want = sorted(w for kind, w in oracle_violations(d)
                      if kind == "reverse-triangle")
        assert [v.witness for v in got] == want
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
    # near-ties no float can decide, entries past 1e308 and below 1e-320
    rng = np.random.default_rng(17)
    ties = 0
    for _ in range(150):
        d = random_fraction_matrix(rng, int(rng.integers(1, 9)))
        got = _outcome(lambda: list(validate(d).violations))
        want = _outcome(oracle_validate_exact, d)
        assert got == want
        if want is not OverflowError:
            ties += sum(v.kind == "reverse-triangle" and v.magnitude < 1e-20
                        or v.kind == "distinguishing" for v in want)
        slack = oracle_slack(d)
        got = reverse_triangle_slack(Causet(tuple(map(str, range(len(d)))), d))
        assert got == (float("inf") if slack is None else slack)
        assert type(got) is (float if slack is None else Fraction)
    assert ties > 0


def test_float_slack_is_the_loop_value():
    rng = np.random.default_rng(5)
    for _ in range(40):
        c = random_valid_matrix(rng, int(rng.integers(2, 12)))
        want = oracle_slack(c.d)
        assert reverse_triangle_slack(c) == (float("inf") if want is None
                                             else want)


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


def test_induced_preserves_order():
    c = Causet.from_matrix(CHAIN3)
    sub = induced(c, [2, 0])
    assert sub.labels == ("p2", "p0")
    assert sub.d[1, 0] == 2.0
    with pytest.raises(ValueError):
        induced(c, [0, 0])


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
