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
import warnings

import numpy as np
import pytest

from lorentzmet import Causet
from lorentzmet.curvature import (
    SidePoint,
    SideParams,
    check_curvature_bound,
    comparison_distance_m0,
    comparison_triangle_m0,
    realizable,
)
from lorentzmet.diamond import DiamondSpace, SampleSpec, sample_causet
from helpers import first_non_finite, oracle_triangles


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
