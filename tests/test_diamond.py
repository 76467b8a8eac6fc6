"""Unit diamond distances, closed-form gamma, and sampling.

Core claims:
    - the lightcone-coordinate distance formula and its domain check
    - the four-probe gamma formula agrees with a dense grid supremum
    - gamma scales with exponent 1/2 along causal rays
    - point clouds become causets via exact distances plus the distance
      quotient, with corner identification and boundary handling
    - sampling is deterministic and prefix-nested in the seed
"""

import math

import numpy as np
import pytest

from lorentzmet import induced, validate
from lorentzmet.diamond import (
    DiamondSpace,
    SampleSpec,
    causet_from_points,
    diamond_distance,
    diamond_gamma,
    gamma_scaling_exponent,
    sample_causet,
)
from helpers import grid_sup_gamma


# -- distance ----------------------------------------------------------------

def test_distance_values():
    assert diamond_distance((0.0, 0.0), (1.0, 1.0)) == 1.0
    assert diamond_distance((0.25, 0.25), (0.75, 0.5)) == \
        pytest.approx(math.sqrt(0.125), abs=1e-15)
    assert diamond_distance((0.5, 0.2), (0.2, 0.5)) == 0.0  # spacelike
    assert diamond_distance((0.7, 0.7), (0.3, 0.3)) == 0.0  # reversed
    assert diamond_distance((0.2, 0.2), (0.2, 0.8)) == 0.0  # null edge
    assert diamond_distance((0.4, 0.6), (0.4, 0.6)) == 0.0


def test_distance_rejects_outside_points():
    with pytest.raises(ValueError, match="outside the unit diamond"):
        diamond_distance((1.1, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError, match="outside the unit diamond"):
        diamond_distance((0.5, 0.5), (0.5, -0.01))


# -- gamma -------------------------------------------------------------------

def test_gamma_worked_value():
    # the probe (1, 0.5) sees (0.25, 0.25) at sqrt(0.75 * 0.25)
    assert diamond_gamma((0.25, 0.25), (0.5, 0.5)) == \
        pytest.approx(math.sqrt(0.1875), abs=1e-12)


def test_gamma_is_symmetric_and_zero_on_diagonal():
    rng = np.random.default_rng(31)
    for _ in range(50):
        x, y = rng.uniform(0.0, 1.0, size=(2, 2))
        assert diamond_gamma(x, y) == diamond_gamma(y, x)
    assert diamond_gamma((0.3, 0.8), (0.3, 0.8)) == 0.0
    # the identified spacelike corners are the one vanishing pair
    assert diamond_gamma((1.0, 0.0), (0.0, 1.0)) == 0.0


def test_gamma_matches_grid_supremum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(0.0, 1.0, size=(2, 2))
        assert diamond_gamma(x, y) == pytest.approx(
            grid_sup_gamma(tuple(x), tuple(y)), abs=1e-12)


def test_scaling_exponent_along_causal_ray():
    slope = gamma_scaling_exponent(
        DiamondSpace(), (0.3, 0.3), (1.0, 1.0), (0.1, 0.05, 0.025, 0.0125))
    assert slope == pytest.approx(0.5, abs=1e-9)


def test_scaling_exponent_errors():
    sp = DiamondSpace()
    with pytest.raises(ValueError, match="three radii"):
        gamma_scaling_exponent(sp, (0.3, 0.3), (1.0, 1.0), (0.1, 0.05))
    with pytest.raises(ValueError, match="positive"):
        gamma_scaling_exponent(sp, (0.3, 0.3), (1.0, 1.0), (0.1, 0.0, 0.05))
    with pytest.raises(ValueError, match="nonzero"):
        gamma_scaling_exponent(sp, (0.3, 0.3), (0.0, 0.0), (0.1, 0.05, 0.025))
    with pytest.raises(ValueError, match="outside"):
        gamma_scaling_exponent(sp, (0.9, 0.9), (1.0, 1.0), (0.5, 0.25, 0.125))
    with pytest.raises(ValueError, match="vanished"):
        gamma_scaling_exponent(sp, (1.0, 0.0), (-1.0, 1.0),
                               (math.sqrt(2), 0.5, 0.25))


# -- point clouds ------------------------------------------------------------

def test_causet_from_points_identifies_corners():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    c = causet_from_points(pts)
    assert c.n == 2  # merged corner pair stripped as the boundary point
    assert c.labels == ("p0", "p3")
    assert c.d[0, 1] == 1.0

    kept = causet_from_points(pts, include_boundary_point=True)
    assert kept.n == 3
    assert kept.boundary == 1
    assert kept.labels == ("p0", "p1", "p3")


def test_causet_from_points_merges_duplicates():
    c = causet_from_points([(0.3, 0.3), (0.3, 0.3), (0.7, 0.7)])
    assert c.n == 2
    assert c.labels == ("p0", "p2")


def test_causet_from_points_validation():
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        causet_from_points([(0.1, 0.2, 0.3)])
    with pytest.raises(ValueError, match="inside the unit diamond"):
        causet_from_points([(1.5, 0.0), (0.5, 0.5)])


# -- sampling ----------------------------------------------------------------

def test_sample_spec_validation():
    SampleSpec(count=9, mode="grid")
    with pytest.raises(ValueError, match="positive"):
        SampleSpec(count=0)
    with pytest.raises(ValueError, match="unknown sample mode"):
        SampleSpec(count=4, mode="poisson")
    with pytest.raises(ValueError, match="perfect-square"):
        SampleSpec(count=10, mode="grid")
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SampleSpec(count=4, seed=-1)


def test_sample_causet_deterministic():
    sp = DiamondSpace()
    a = sample_causet(sp, SampleSpec(count=30, seed=4))
    b = sample_causet(sp, SampleSpec(count=30, seed=4))
    assert np.array_equal(a.d, b.d)
    assert a.labels == b.labels
    assert a.meta == {"space": "diamond",
                      "spec": SampleSpec(count=30, seed=4).to_json()}
    other = sample_causet(sp, SampleSpec(count=30, seed=5))
    assert not np.array_equal(a.d, other.d)
    assert validate(a).valid


def test_sample_causet_grid_mode():
    c = sample_causet(DiamondSpace(), SampleSpec(count=9, mode="grid"))
    # 3x3 grid: the two spacelike corners merge and strip away
    assert c.n == 7
    i, j = c.labels.index("p0"), c.labels.index("p8")
    assert c.d[i, j] == 1.0
    assert validate(c).valid


def test_sample_prefixes_nest_in_count():
    sp = DiamondSpace()
    small = sample_causet(sp, SampleSpec(count=40, seed=5))
    big = sample_causet(sp, SampleSpec(count=80, seed=5))
    assert small.n == 40 and big.n == 80
    front = induced(big, range(40))
    assert np.array_equal(front.d, small.d)
    assert front.labels == small.labels
