"""Flat-model triangle comparison and curvature bound checks.

Core claims:
    - realizability needs strict reverse triangle slack (plus the size cap
      when k > 0)
    - comparison triangles reproduce their side lengths exactly; vertex
      parameters short-circuit to exact values
    - midpoint model distances match hand-computed values
    - bound checks classify ok / violation / vacuous per side-point pair,
      with a usable witness on violations
    - sampled flat hosts show no violations at moderate density
    - maximal chains in a flat sample do not branch into incomparable
      continuations
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lorentzmet import Causet
from lorentzmet.curvature import (
    _DEFAULT_PARAMS,
    _model_distance,
    SidePoint,
    SideParams,
    check_curvature_bound,
    comparison_distance_m0,
    comparison_triangle_m0,
    realizable,
)
from lorentzmet.diamond import DiamondSpace, SampleSpec, sample_causet
from helpers import (first_non_finite, oracle_comparison_distance,
                     oracle_curvature_checks, oracle_triangles)


# x << p << y << q << z with d(p, q) too large for flat comparison
VIOLATION_HOST = Causet.from_matrix([
    [0, 0.5, 1.0, 2.0, 2.5],
    [0, 0,   0.5, 1.5, 2.0],
    [0, 0,   0,   0.5, 1.0],
    [0, 0,   0,   0,   0.5],
    [0, 0,   0,   0,   0],
])

MID_MID = (SideParams(SidePoint("xy", 0.5), SidePoint("yz", 0.5)),)


def test_realizable():
    assert realizable(1.0, 1.0, 3.0, 0.0)
    assert not realizable(1.0, 1.0, 2.0, 0.0)  # no strict slack
    assert not realizable(2.0, 2.0, 3.0, 0.0)
    assert realizable(1.0, 1.0, 3.0, 1.0)  # 3 < pi
    assert not realizable(1.0, 1.0, 4.0, 1.0)
    assert realizable(1.0, 1.0, 4.0, -1.0)
    with pytest.raises(ValueError, match="positive"):
        realizable(0.0, 1.0, 3.0, 0.0)


def test_comparison_triangle_worked_example():
    xbar, ybar, zbar = comparison_triangle_m0(1.0, 1.0, 3.0)
    assert xbar == (0.0, 0.0)
    assert zbar == (3.0, 0.0)
    assert ybar[0] == 1.5
    assert ybar[1] == pytest.approx(math.sqrt(1.25), abs=1e-15)
    with pytest.raises(ValueError, match="not realizable"):
        comparison_triangle_m0(1.0, 1.0, 2.0)


def test_vertex_parameters_reproduce_sides_exactly():
    rng = np.random.default_rng(25)
    ends = {"xy": ("a", 0), "yz": ("b", 1), "xz": ("c", 2)}
    for _ in range(50):
        a, b = rng.uniform(0.1, 2.0, size=2)
        c = a + b + rng.uniform(0.1, 1.0)
        for side, (_, idx) in ends.items():
            got = comparison_distance_m0(
                a, b, c, SidePoint(side, 0.0), SidePoint(side, 1.0))
            assert got == (a, b, c)[idx]
            # reversed order is non-causal
            assert comparison_distance_m0(
                a, b, c, SidePoint(side, 1.0), SidePoint(side, 0.0)) == 0.0
    # shared vertex y from two different sides
    assert comparison_distance_m0(
        1.0, 1.0, 3.0, SidePoint("xy", 1.0), SidePoint("yz", 0.0)) == 0.0


def test_comparison_distance_midpoints():
    mid_xy = SidePoint("xy", 0.5)
    mid_yz = SidePoint("yz", 0.5)
    assert comparison_distance_m0(1.0, 1.0, 3.0, mid_xy, mid_yz) == 1.5
    assert comparison_distance_m0(1.0, 1.0, 2.5, mid_xy, mid_yz) == 1.25
    # base quarter points sit on a straight timelike segment
    assert comparison_distance_m0(
        1.0, 1.0, 3.0, SidePoint("xz", 0.25), SidePoint("xz", 0.75)) == 1.5
    # reversed placement across the triangle is spacelike in the model
    assert comparison_distance_m0(1.0, 1.0, 3.0, mid_yz, mid_xy) == 0.0
    with pytest.raises(ValueError, match="outside"):
        comparison_distance_m0(1.0, 1.0, 3.0, SidePoint("xy", 1.5), mid_yz)
    with pytest.raises(ValueError, match="unknown side"):
        comparison_distance_m0(1.0, 1.0, 3.0, SidePoint("xw", 0.5), mid_yz)


def test_comparison_distance_matches_oracle():
    # values and error messages, vertex parameters and unrealizable or
    # non-positive sides included
    rng = np.random.default_rng(26)

    def side_point():
        side = str(rng.choice(["xy", "yz", "xz", "xy", "yz", "xz", "xw"]))
        t = rng.choice([0.0, 1.0, 0.25, 0.5, 0.75, rng.random(), 1.5])
        return SidePoint(side, float(t)) if rng.random() < 0.5 else (side, t)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as err:
            return str(err)

    for _ in range(3000):
        a, b = rng.uniform(0.0, 2.0, size=2)
        c = a + b + rng.uniform(-0.5, 1.0)
        args = (float(a), float(b), float(c), side_point(), side_point())
        assert repr(outcome(comparison_distance_m0, *args)) == \
            repr(outcome(oracle_comparison_distance, *args))


def test_check_input_validation():
    with pytest.raises(ValueError, match="flat model"):
        check_curvature_bound(VIOLATION_HOST, k=1.0)
    with pytest.raises(ValueError, match="bound must be"):
        check_curvature_bound(VIOLATION_HOST, bound="sideways")
    with pytest.raises(ValueError, match="NaN"):
        check_curvature_bound(VIOLATION_HOST, tol=float("nan"))


def test_lower_bound_violation_witness():
    report = check_curvature_bound(VIOLATION_HOST, bound="lower",
                                   side_params=MID_MID, max_triangles=None)
    assert len(report.records) == 4
    assert report.n_violations == 1 and report.n_vacuous == 3
    rec = next(r for r in report.records
               if r.checks[0].status == "violation")
    assert rec.vertices == (0, 2, 4)
    assert rec.sides == (1.0, 1.0, 2.5)
    assert rec.checks[0].witness == {"p": 1, "q": 3, "d": 1.5, "model": 1.25}


def test_upper_bound_accepts_large_midpoint_gap():
    report = check_curvature_bound(VIOLATION_HOST, bound="upper",
                                   side_params=MID_MID, max_triangles=None)
    assert report.n_violations == 0
    assert report.n_ok == 1 and report.n_vacuous == 3


def test_no_triangles_without_strict_slack():
    chain = Causet.from_matrix([[0.0, 1.0, 2.0],
                                [0.0, 0.0, 1.0],
                                [0.0, 0.0, 0.0]])
    report = check_curvature_bound(chain, max_triangles=None)
    assert report.records == ()


def test_all_checks_vacuous_on_bare_triangle():
    bare = Causet.from_matrix([[0.0, 1.0, 2.5],
                               [0.0, 0.0, 1.0],
                               [0.0, 0.0, 0.0]])
    report = check_curvature_bound(bare, max_triangles=None)
    assert len(report.records) == 1
    assert report.n_vacuous == 6 and report.n_ok == 0


def test_min_sides_filter():
    report = check_curvature_bound(VIOLATION_HOST, side_params=MID_MID,
                                   min_sides=(0.6, 0.0, 0.0),
                                   max_triangles=None)
    assert len(report.records) == 2  # both legs from x have a = 1
    report = check_curvature_bound(VIOLATION_HOST, side_params=MID_MID,
                                   min_sides=(0.0, 0.0, 0.6),
                                   max_triangles=None)
    assert report.records == ()  # every strictness gap here is 0.5
    # the side minima are inclusive, the gap minimum is strict
    report = check_curvature_bound(VIOLATION_HOST, side_params=MID_MID,
                                   min_sides=(1.0, 1.0, 0.0),
                                   max_triangles=None)
    assert [r.vertices for r in report.records] == [(0, 2, 4)]
    report = check_curvature_bound(VIOLATION_HOST, side_params=MID_MID,
                                   min_sides=(0.0, 0.0, 0.5),
                                   max_triangles=None)
    assert report.records == ()


def test_flat_sample_has_no_violations():
    host = sample_causet(DiamondSpace(), SampleSpec(count=400, seed=16))
    for bound in ("lower", "upper"):
        report = check_curvature_bound(host, bound=bound, tol=0.05,
                                       min_sides=(0.2, 0.2, 0.05),
                                       max_triangles=40, seed=2)
        assert len(report.records) == 40
        assert report.n_violations == 0
        assert report.n_ok > 0


@pytest.mark.parametrize("n", [40, 100])
def test_negative_max_triangles_is_refused_on_both_host_sizes(n):
    # hosts of at most 64 points are enumerated, larger ones sampled; the
    # first used to fail inside numpy, the second to return no records
    host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=5))
    with pytest.raises(ValueError, match="max_triangles must be nonnegative"):
        check_curvature_bound(host, max_triangles=-1)


@pytest.mark.parametrize("n", [40, 100])
def test_curvature_parameter_errors_name_the_parameter(n):
    # max_triangles=2.5 returned 179 triangles on 100 points (the sampler's
    # exit at the cap never fired) and failed inside numpy on 40; seed -1
    # and 1.5 failed inside numpy; a NaN in min_sides found no triangle
    host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=5))
    for name, value in (("max_triangles", 2.5), ("seed", 1.5),
                        ("seed", None)):
        with pytest.raises(TypeError,
                           match=f"{name} must be an integer, got {value}"):
            check_curvature_bound(host, **{name: value})
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        check_curvature_bound(host, seed=-1)
    for sides in ((0.2, np.nan, 0.05), (np.nan,) * 3, (0.2, 0.2),
                  (0.2, 0.2, 0.05, 0.0)):
        with pytest.raises(ValueError, match="min_sides must be three "
                                             "numbers, none NaN"):
            check_curvature_bound(host, min_sides=sides)
    # integer-valued numpy scalars are integers
    report = check_curvature_bound(host, max_triangles=np.int64(5),
                                   seed=np.uint8(3))
    assert report.stats["requested"] == 5 == len(report.records)


def test_triangle_subsample_is_deterministic():
    host = sample_causet(DiamondSpace(), SampleSpec(count=100, seed=33))
    r1 = check_curvature_bound(host, max_triangles=10, seed=4)
    r2 = check_curvature_bound(host, max_triangles=10, seed=4)
    assert len(r1.records) == 10
    assert [t.vertices for t in r1.records] == [t.vertices for t in r2.records]


@pytest.mark.parametrize("min_sides", [(0.0, 0.0, 0.0), (0.2, 0.2, 0.05)])
@pytest.mark.parametrize("n", [40, 65, 100, 300])
def test_triangles_match_per_draw_oracle(n, min_sides):
    host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=n))
    # an uncapped run checks every triangle, so only on the smaller hosts
    for max_triangles in (30, None) if n <= 65 else (30,):
        for seed in (0, 3, 7):
            report = check_curvature_bound(host, min_sides=min_sides,
                                           max_triangles=max_triangles,
                                           seed=seed)
            want = oracle_triangles(host, min_sides, max_triangles, seed)
            assert [r.vertices for r in report.records] == want
            assert len(want) > 0
            if max_triangles is None:
                break  # the seed plays no part without a cap


def test_triangle_budget_exhausted_matches_oracle():
    host = sample_causet(DiamondSpace(), SampleSpec(count=70, seed=70))
    min_sides = (0.5, 0.5, 0.3)
    report = check_curvature_bound(host, min_sides=min_sides)
    assert report.records == ()
    assert oracle_triangles(host, min_sides) == []
    # a shortfall: the 200000-draw budget ends with fewer than 400 found,
    # and a draw past the budget would add triangles
    host = sample_causet(DiamondSpace(), SampleSpec(count=300, seed=300))
    min_sides = (0.2, 0.2, 0.05)
    report = check_curvature_bound(host, min_sides=min_sides,
                                   max_triangles=400)
    want = oracle_triangles(host, min_sides, max_triangles=400)
    assert 0 < len(want) < 400
    assert [r.vertices for r in report.records] == want


def test_report_stats_show_a_shortfall():
    # no triangle passes the filter on these 70-point hosts: the records
    # alone say nothing, the stats say 0 of 500 after the whole budget
    for seed in range(3):
        host = sample_causet(DiamondSpace(), SampleSpec(count=70, seed=seed))
        report = check_curvature_bound(host, max_triangles=500,
                                       min_sides=(0.5, 0.5, 0.4))
        assert report.records == ()
        assert dict(report.stats) == {"attempts": 200_000, "requested": 500,
                                      "found": 0, "exhaustive": False}
    # a sample counts its draws up to the one that completed the set, as
    # the one-draw-per-iteration oracle does, or the whole budget
    host = sample_causet(DiamondSpace(), SampleSpec(count=300, seed=300))
    for max_triangles in (10, 400):
        want = {}
        found = len(oracle_triangles(host, (0.2, 0.2, 0.05), max_triangles,
                                     seed=4, stats=want))
        report = check_curvature_bound(host, min_sides=(0.2, 0.2, 0.05),
                                       max_triangles=max_triangles, seed=4)
        assert dict(report.stats) == {
            "attempts": want["attempts"], "requested": max_triangles,
            "found": found, "exhaustive": False}
    # small or uncapped hosts examine every index triple
    host = sample_causet(DiamondSpace(), SampleSpec(count=40, seed=40))
    for max_triangles in (None, 5):
        report = check_curvature_bound(host, max_triangles=max_triangles)
        assert dict(report.stats) == {
            "attempts": 40**3, "requested": max_triangles,
            "found": len(report.records), "exhaustive": True}
    with pytest.raises(TypeError):
        report.stats["found"] = 0
    assert "stats" not in report.to_json()


def test_non_finite_hosts_emit_no_warnings():
    # negative and huge finite entries planted: the oracle's triangles,
    # silently; one NaN or +-inf more and the host is refused, naming it
    rng = np.random.default_rng(5)
    for h in range(40):
        n = int(rng.integers(10, 90))
        host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=h))
        d = host.d.copy()
        for _ in range(3):
            i, j = rng.integers(0, host.n, size=2)
            d[i, j] = rng.choice([-0.5, 1e300, 0.0])
        host = Causet(host.labels, d.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_curvature_bound(host, max_triangles=50, seed=h)
        want = oracle_triangles(host, max_triangles=50, seed=h)
        assert [r.vertices for r in report.records] == want
        i, j = rng.integers(0, host.n, size=2)
        d[i, j] = rng.choice([np.inf, -np.inf, np.nan])
        with pytest.raises(ValueError, match=first_non_finite(d)):
            check_curvature_bound(Causet(host.labels, d), max_triangles=50)


VERTEX_PARAMS = (
    SideParams(SidePoint("xy", 0.0), SidePoint("xz", 1.0)),
    SideParams(SidePoint("xy", 1.0), SidePoint("yz", 0.5)),
    SideParams(SidePoint("xz", 0.0), SidePoint("yz", 1.0)),
    SideParams(SidePoint("yz", 0.5), SidePoint("xy", 0.5)),
    SideParams(SidePoint("xz", 0.5), SidePoint("xz", 0.5)),
    SideParams(SidePoint("xy", 0.5), SidePoint("yz", 0.5)),
)


def test_checks_match_oracle_on_perturbed_hosts():
    # every fifth host has its entries scaled by up to 10% either way, so
    # both bounds see violations; the oracle re-checks the report's own
    # triangles, whose choice test_triangles_match_per_draw_oracle covers
    rng = np.random.default_rng(20)
    seen = {"lower": set(), "upper": set()}
    uncapped = 0
    for h in range(15):
        n = int(rng.integers(5, 141))
        host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=h))
        if h % 5 == 0:
            d = host.d * rng.uniform(0.9, 1.1, size=host.d.shape)
            host = Causet(host.labels, d)
        for bound in ("lower", "upper"):
            for tol in (0.05, 0.0, 0.2, -0.01, math.inf):
                for params in (None, VERTEX_PARAMS):
                    for cap in (20, None) if host.n <= 20 else (20,):
                        uncapped += cap is None
                        report = check_curvature_bound(
                            host, bound=bound, tol=tol, side_params=params,
                            max_triangles=cap, seed=h)
                        want = oracle_curvature_checks(
                            host, [r.vertices for r in report.records],
                            bound, tol, params or _DEFAULT_PARAMS)
                        assert report.to_json()["records"] == want
                        status = [ch["status"] for r in want
                                  for ch in r["checks"]]
                        assert (report.n_ok, report.n_vacuous,
                                report.n_violations) == (
                            status.count("ok"), status.count("vacuous"),
                            status.count("violation"))
                        seen[bound].update(status)
    assert seen["lower"] == seen["upper"] == {"ok", "vacuous", "violation"}
    assert uncapped > 0


def test_checks_match_oracle_at_benchmark_settings():
    # the benchmark's call (100 triangles, min_sides (0.2, 0.2, 0.05)) on
    # 200-400 point hosts, every other one scaled by up to 10% so that both
    # bounds see violations
    rng = np.random.default_rng(23)
    seen = set()
    for h, n in enumerate((200, 260, 330, 400)):
        host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=40 + h))
        if h % 2:
            d = host.d * rng.uniform(0.9, 1.1, size=host.d.shape)
            host = Causet(host.labels, d)
        for bound in ("lower", "upper"):
            report = check_curvature_bound(host, bound=bound,
                                           min_sides=(0.2, 0.2, 0.05),
                                           max_triangles=100, seed=h)
            assert len(report.records) == 100
            want = oracle_curvature_checks(
                host, [r.vertices for r in report.records], bound, 0.05,
                _DEFAULT_PARAMS)
            assert report.to_json()["records"] == want
            seen.update((bound, ch["status"])
                        for r in want for ch in r["checks"])
    assert {(bound, status) for bound in ("lower", "upper")
            for status in ("ok", "violation")} <= seen


def test_model_distance_over_arrays_is_the_scalar_one_bitwise():
    # the checks take their model distances over arrays of side lengths
    # from the function behind comparison_distance_m0; 3000 realizable
    # triples, a fifth of them one ulp from degenerate, spread over every
    # pair of side points
    rng = np.random.default_rng(27)
    points = [SidePoint(side, t) for side in ("xy", "yz", "xz")
              for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    pairs = [(d1, d2) for d1 in points for d2 in points]
    a, b = rng.uniform(0.01, 2.0, size=(2, 3000))
    c = np.where(rng.uniform(size=3000) < 0.2, np.nextafter(a + b, np.inf),
                 a + b + rng.uniform(1e-9, 1.0, size=3000))
    assert (a + b < c).all()
    for k, (d1, d2) in enumerate(pairs):
        idx = np.arange(k, 3000, len(pairs))
        got = np.broadcast_to(
            _model_distance(a[idx], b[idx], c[idx], d1, d2), idx.shape)
        want = [comparison_distance_m0(float(a[i]), float(b[i]),
                                       float(c[i]), d1, d2) for i in idx]
        assert got.tobytes() == np.array(want).tobytes(), (d1, d2)
    # rounding can leave t*^2 - a^2 just below 0 one ulp from degenerate:
    # x* is then 0, not NaN
    near = c == np.nextafter(a + b, np.inf)
    assert all(comparison_triangle_m0(*sides)[1][1] >= 0.0
               for sides in zip(*(v[near].tolist() for v in (a, b, c))))


def test_witness_of_a_check_split_over_chunks_is_the_first():
    # x << y << z with sides 3, 3, 10, and 130 points s with d(x, s),
    # d(s, y), d(y, s) and d(s, z) all 1.5, and d(s_i, s_j) = 1 for i < j:
    # at tol 0.1 every s, and nothing else, is a candidate at both ends of
    # (xy 0.5, yz 0.5), whose 130**2 pairs pass the 16384 a chunk holds.
    # The upper bound fails (max 1 < 5 - 0.1) with the maximum tied in
    # every row: the witness is the first pair, as the oracle's argmax
    m = 130
    x, y, z = range(3)
    d = np.zeros((m + 3, m + 3))
    d[x, y], d[y, z], d[x, z] = 3.0, 3.0, 10.0
    d[x, 3:] = d[3:, y] = d[y, 3:] = d[3:, z] = 1.5
    d[3:, 3:] = np.triu(np.ones((m, m)), 1)
    host = Causet.from_matrix(d)
    report = check_curvature_bound(host, bound="upper", tol=0.1,
                                   max_triangles=None)
    want = oracle_curvature_checks(
        host, [r.vertices for r in report.records], "upper", 0.1,
        _DEFAULT_PARAMS)
    assert report.to_json()["records"] == want
    (split,) = [r["checks"][0] for r in want if r["vertices"] == [x, y, z]]
    assert split["d1"] == ["xy", 0.5] and split["d2"] == ["yz", 0.5]
    assert split["status"] == "violation"
    assert (split["witness"]["p"], split["witness"]["q"]) == (3, 4)


def test_huge_entries_over_short_sides_do_not_warn():
    # an entry near 1e308 over a short side overflows d(o, p) / length:
    # the ratio is +inf and fails <= tol, as the exact ratio would, with
    # no RuntimeWarning on this finite input
    rng = np.random.default_rng(53)
    for h in range(6):
        host = sample_causet(DiamondSpace(), SampleSpec(count=16, seed=h))
        d = host.d.copy()
        d[tuple(rng.integers(0, host.n, size=2))] = (1e300, 1e308)[h % 2]
        host = Causet(host.labels, d)
        for bound in ("lower", "upper"):
            for tol in (0.05, 0.2):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = check_curvature_bound(
                        host, bound=bound, tol=tol, max_triangles=None)
                with np.errstate(over="ignore"):
                    want = oracle_curvature_checks(
                        host, [r.vertices for r in report.records], bound,
                        tol, _DEFAULT_PARAMS)
                assert report.to_json()["records"] == want


def test_nan_model_distance_is_a_violation_with_its_witness():
    # d(x, z) = 1e300 overflows the model: t* = inf, and (xz 0.5, xy 0.5)
    # places its points at (5e299, 0) and (inf, inf), a NaN distance.  No
    # d(p, q) passes a NaN limit, so the check is a violation; its witness
    # is the one pair, as in the oracle
    x, p, y, q, z = range(5)
    d = np.zeros((5, 5))
    d[x, p], d[p, y], d[x, y], d[y, z] = 0.5, 0.5, 1.0, 1.0
    d[x, q], d[q, z], d[x, z], d[q, p] = 5e299, 5e299, 1e300, 0.25
    host = Causet.from_matrix(d)
    params = (SideParams(SidePoint("xz", 0.5), SidePoint("xy", 0.5)),)
    for bound in ("lower", "upper"):
        report = check_curvature_bound(host, bound=bound,
                                       side_params=params, max_triangles=None)
        want = oracle_curvature_checks(
            host, [r.vertices for r in report.records], bound, 0.05, params)
        assert repr(report.to_json()["records"]) == repr(want)
        (check,) = report.records[0].checks
        assert report.records[0].vertices == (x, y, z)
        assert check.status == "violation"
        assert (check.witness["p"], check.witness["q"]) == (q, p)
        assert math.isnan(check.witness["model"])


def test_check_memory_when_every_point_is_a_candidate():
    # tol = inf makes every host point a candidate on every side, so each
    # check has n^2 pairs, expanded in chunks.  The bounds are 1.5 times
    # the tracemalloc peaks of the same calls when each check gathered its
    # own np.ix_ block (numpy 2.4, Python 3.11): 1,921,088 bytes on the
    # sampled host, and 5,885,080 on the exhaustive one, mostly its 5,892
    # records
    for n, cap, before in ((300, 100, 1_921_088), (64, None, 5_885_080)):
        host = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=1))
        host.as_float()
        tracemalloc.start()
        try:
            report = check_curvature_bound(host, tol=math.inf,
                                           max_triangles=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * before, (n, peak)
        assert len(report.records) == (cap or 5892)
        assert report.n_ok == len(_DEFAULT_PARAMS) * len(report.records)


def test_report_json_shape():
    report = check_curvature_bound(VIOLATION_HOST, bound="lower",
                                   side_params=MID_MID, max_triangles=None)
    js = report.to_json()
    assert set(js) == {"k", "bound", "tol", "records"}
    rec = js["records"][0]
    assert set(rec) == {"vertices", "sides", "checks"}
    for ch in (c for r in js["records"] for c in r["checks"]):
        assert ch["status"] in ("ok", "violation", "vacuous")
        if ch["status"] == "violation":
            assert set(ch["witness"]) == {"p", "q", "d", "model"}


def test_flat_sample_chains_do_not_branch():
    # two additive continuations of a common two-point prefix must stay
    # comparable: distance additivity pins points to a common straight ray
    host = sample_causet(DiamondSpace(), SampleSpec(count=25, mode="grid"))
    d = host.d
    n = host.n
    configs = 0
    for x in range(n):
        for m in range(n):
            if d[x, m] <= 0:
                continue
            succ = [y for y in range(n) if d[m, y] > 0
                    and abs(d[x, y] - d[x, m] - d[m, y]) <= 1e-12]
            if len(succ) < 2:
                continue
            configs += 1
            for i, p in enumerate(succ):
                for q in succ[i + 1:]:
                    assert d[p, q] > 0 or d[q, p] > 0
    assert configs > 0
