"""Epsilon-nets under the distinction metric, rational approximation, limits.

A finite eps-net N of a host space X has a member within distinction
distance eps of every point.  The nearest-member correspondence shows
d_GH(N, X) <= 2 eps, and quotienting a net by its internal distance
profiles yields a causet that is still a 3 eps net of the host.

Every finite space admits an arbitrarily close rational one: perturbing
each positive entry by delta * t^2, with t the maximal link count of a
chronological chain between the pair, makes all reverse-triangle
inequalities strict, after which each entry can be rounded to a nearby
rational without losing strictness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _PUBLIC
from .causet import (Causet, _check_tol, _magnitude, _min_slack, _signed_image,
                     _sup_gaps, diameter, distance_quotient, induced, validate)
from .distinction import GammaMatrix, _gamma_of, gamma

__all__ = list(_PUBLIC["nets"])


@dataclass(frozen=True, eq=False)
class EpsilonNet:
    """Member indices covering the host within distinction distance eps."""

    host: Causet
    eps: float
    members: tuple[int, ...]


def extract_net(c: Causet, eps: float, g: GammaMatrix | None = None
                ) -> EpsilonNet:
    """Greedy farthest-point net extraction; deterministic and seedless.

    Starts from index 0 and repeatedly adds the point farthest from the
    current members until everything is within eps.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    if c.n == 0:
        raise ValueError("cannot extract a net from an empty causet")
    gm = _gamma_of(c, g)
    members = [0]
    dist = gm.g[0].copy()
    while True:
        far = int(dist.argmax())
        if dist[far] <= eps:
            break
        members.append(far)
        np.minimum(dist, gm.g[far], out=dist)
    return EpsilonNet(c, float(eps), tuple(members))


def net_correspondence(net: EpsilonNet, g: GammaMatrix | None = None
                       ) -> Correspondence:
    """Host-to-net correspondence matching each point to a nearest member.

    Members pair with themselves, so the relation covers both sides; its
    distortion is at most 2 eps because d is 1-Lipschitz in each slot
    with respect to the distinction metric.
    """
    from .gh import Correspondence  # not loaded by `extract_net` users

    gm = _gamma_of(net.host, g)
    members = np.asarray(net.members)
    nearest = gm.g[:, members].argmin(axis=1)
    pairs = {(x, int(nearest[x])) for x in range(net.host.n)}
    pairs |= {(int(m), k) for k, m in enumerate(net.members)}
    return Correspondence(net.host.n, len(net.members), tuple(pairs))


def net_to_causet(net: EpsilonNet) -> Causet:
    """Quotient the net's internal matrix into a causet of representatives.

    The output keeps host labels, so representative host indices can be
    recovered from them; it is a 3 eps net of the host.
    """
    sub = induced(net.host, net.members)
    out, _ = distance_quotient(sub)
    return out


@dataclass(frozen=True)
class TotallyBoundedParams:
    """Size budget: diameter bound D and net sizes beta_k at scales alpha_k."""

    diameter_bound: float
    alpha: tuple[float, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        if not self.diameter_bound >= 0:  # NaN too
            raise ValueError("diameter bound must be nonnegative")
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have equal length")
        if any(not a > 0 for a in self.alpha):
            raise ValueError("alpha scales must be positive")
        for i in range(len(self.alpha) - 1):
            if not self.alpha[i] > self.alpha[i + 1]:
                raise ValueError("alpha must be strictly decreasing")
            if self.beta[i] > self.beta[i + 1]:
                raise ValueError("beta must be nondecreasing")
        if any(b < 1 for b in self.beta):
            raise ValueError("beta sizes must be positive")


@dataclass(frozen=True)
class MemberCheck:
    index: int
    ok: bool
    failure: dict | None


@dataclass(frozen=True)
class FamilyReport:
    params: TotallyBoundedParams
    members: tuple[MemberCheck, ...]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.members)

    def to_json(self) -> list[dict]:
        return [{"index": m.index, "ok": m.ok, "failure": m.failure}
                for m in self.members]


def check_uniformly_totally_bounded(family: Sequence[Causet],
                                    params: TotallyBoundedParams
                                    ) -> FamilyReport:
    """Check each member against the shared size budget; first failure wins."""
    checks: list[MemberCheck] = []
    for idx, c in enumerate(family):
        failure: dict | None = None
        diam = diameter(c)
        if c.boundary is None:
            failure = {"kind": "no-boundary-point"}
        elif diam > params.diameter_bound:
            failure = {"kind": "diameter", "value": diam,
                       "bound": params.diameter_bound}
        else:
            gm = gamma(c)
            for a, b in zip(params.alpha, params.beta):
                net = extract_net(c, a, g=gm)
                if len(net.members) > b:
                    failure = {"kind": "net-size", "alpha": a,
                               "size": len(net.members), "bound": b}
                    break
        checks.append(MemberCheck(idx, failure is None, failure))
    return FamilyReport(params, tuple(checks))


def _simplest_between(a: int, b: int, c: int, e: int) -> Fraction:
    """Simplest rational in (a/b, c/e), for integers with b, e > 0: peel
    partial quotients until an integer, or one plus a unit fraction, fits.
    """
    quotients = []
    while (fl := a // b) * b != a and (fl + 1) * e >= c:
        quotients.append(fl)  # descend into (1 / (hi - fl), 1 / (lo - fl))
        a, b, c, e = e, c - fl * e, b, a - fl * b
    if (fl + 1) * e < c:
        p, q = fl + 1, 1
    else:  # interval (fl, hi) with hi <= fl + 1: take fl + 1/q for small q
        q = e // (c - fl * e) + 1
        p = fl * q + 1
    for fl in reversed(quotients):
        p, q = fl * p + q, p
    return Fraction(p, q)


def _min_gamma(d: np.ndarray, f: np.ndarray, err: float):
    """Smallest exact gamma between two points of d, or q times it when d
    holds the numerators over q; on a finite image f of the entries the
    float gamma is within err of it, so only pairs near its minimum count.
    """
    i, j = np.triu_indices(d.shape[0], 1)
    if np.isfinite(f).all():
        gf = _sup_gaps(np.hstack([f, f.T]))[i, j]
        near = gf <= gf.min() + 2 * err
        i, j = i[near], j[near]
    return min(max(np.abs(d[a] - d[b]).max(), np.abs(d[:, a] - d[:, b]).max())
               for a, b in zip(i, j))


def _link_counts(pos: np.ndarray) -> np.ndarray:
    """t[i][j]: maximal number of links of a chronological chain i -> j.

    t[i][j] is the largest L with (pos^L)[i, j] > 0, the powers taken as
    0/1 float32 matrices (counts below 2**24, so exact); pos need not be
    transitive.  A nonzero n-th power holds a cycle: ValueError.
    """
    one = pos.astype(np.float32)
    t, walk, links = pos.astype(np.int64), one, 1
    while True:
        walk = ((walk @ one) > 0).astype(np.float32)
        links += 1
        if not walk.any():
            return t
        if links >= len(pos):
            raise ValueError("input causet has a chronological cycle")
        t[walk > 0] = links


def _numerators(c: Causet) -> tuple[np.ndarray, int]:
    """Exact entries of c as x / q: a float payload is dyadic, read once
    by np.frexp as ints over one power of two; a Fraction payload is its
    nonzero entries as Fractions (0 elsewhere) over q = 1."""
    if c.is_rational:
        x = np.zeros(c.d.shape, dtype=object)
        nz = c._image[2] != 0
        x[nz] = np.frompyfunc(Fraction, 1, 1)(c.d[nz])
        return x, 1
    m, e = np.frexp(c.as_float())
    m = (m * 2.0**53).astype(np.int64)  # exact: the 53-bit significand
    e = np.where(m != 0, e - 53, 0)
    top = max(0, -int(e.min(initial=0)))
    return m.astype(object) << (e + top).astype(object), 1 << top


def rationalize(c: Causet, eps: float) -> Causet:
    """Exact-rational causet within eps of the input, entrywise.

    Stage one adds delta * t^2 to each positive entry, with t the maximal
    link count between the pair, which makes every reverse-triangle
    inequality strictly slack (concatenating chains forces
    t(i,k) >= t(i,j) + t(j,k)).  Stage two rounds each entry to a
    small-denominator rational inside a margin that preserves strictness,
    positivity, and the distinguishing axiom.  All arithmetic is exact, the
    minima that size delta and the margin included (exact: float64 filter,
    exact refinement).  It runs on numerators over one common denominator
    (ints over a power of two for a float payload, Fractions over 1 for a
    Fraction one); a Fraction is built only for an output entry.  A float
    payload must pass as_float; chronological cycles raise ValueError.
    """
    if not 0 < eps < math.inf:  # NaN compares False
        raise ValueError(f"eps must be finite and positive, got {eps}")
    n = c.n
    x, q = _numerators(c)  # d = x / q, exactly
    pos = c._positive()  # a float and its Fraction share their sign
    # the entries stage two does not round; the zeros share one Fraction(0)
    out = np.full(x.shape, Fraction(0), dtype=object)
    kept = (x != 0) & ~pos if n > 1 else x != 0
    out[kept] = [Fraction(v, q) for v in x[kept]]
    if n < 2:
        return Causet(c.labels, out, boundary=c.boundary, meta=c.meta)

    eps_f = Fraction(eps)
    f, err = c._image[:2]
    alpha = Fraction(_min_gamma(x, f, err), q)
    if alpha <= 0:
        raise ValueError("input causet is not distinguishing")
    if not pos.any():
        return Causet(c.labels, out, boundary=c.boundary, meta=c.meta)

    pair_budget = Fraction(n * (n - 1), 2) ** 2
    delta = min(alpha / 4, eps_f / 2) / pair_budget
    t = _link_counts(pos)
    # stage one, d1 = x1 / q1 over q1 = lcm(q, den(delta))
    q1 = math.lcm(q, delta.denominator)
    x1 = x * (q1 // q)
    x1[pos] += (t[pos].astype(object) ** 2
                * (delta.numerator * (q1 // delta.denominator)))
    # each positive d1 entry as a / (b q1), for its image and stage two
    ratios = [v.as_integer_ratio() for v in x1[pos]]
    f1 = f.copy()
    try:
        f1[pos] = [a / (b * q1) for a, b in ratios]
    except OverflowError:  # past the float range: +inf, as in _signed_image
        f1[pos] = [_magnitude(Fraction(a, b * q1)) for a, b in ratios]

    # q1 times the slack of d1, filtered on d1's image
    slack = _min_slack(x1, pos, *_signed_image(f1)[:2])
    if slack <= 0:  # stage one makes every valid input strictly slack
        raise ValueError("input causet breaks the reverse triangle "
                         "inequality (stage-one slack "
                         f"{'0' if slack == 0 else 'negative'})")
    # min(p_min / 2, slack / 4), with p_min the least positive d1 entry
    margin = min(eps_f / 2, alpha / 8,
                 Fraction(min(2 * min(x1[pos]), slack), 4 * q1))

    mp, mq = margin.numerator, margin.denominator
    w, dm = mp * q1, mq * q1
    out[pos] = [_simplest_between(a * mq - w * b, b * dm, a * mq + w * b,
                                  b * dm) for a, b in ratios]
    return Causet(c.labels, out, boundary=c.boundary, meta=c.meta)


def limit_causet(seq: Sequence[Causet], tol: float = 0.05) -> Causet:
    """Entrywise limit of an aligned causet sequence, then quotient.

    Members must share the same labels in the same order.  Each entry must
    be Cauchy within tol over the tail (the later half); the limit is
    estimated by a least-squares fit of a + b/m over the tail positions,
    which is exact for sequences converging at first order, and points
    whose limit profiles coincide within tol are identified, repeatedly,
    until no two representatives do.  A NaN or negative tol raises
    ValueError.
    """
    _check_tol(tol)
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not seq:
        raise ValueError("limit of an empty sequence")
    labels = seq[0].labels
    for k, c in enumerate(seq[1:], start=1):
        if c.labels != labels:
            raise ValueError(f"member {k} labels differ from member 0")
    n = seq[0].n
    stack = np.stack([c.as_float() for c in seq])
    m_count = len(seq)
    tail_start = m_count // 2 if m_count >= 6 else 0
    tail = stack[tail_start:]
    positions = np.arange(tail_start + 1, m_count + 1, dtype=float)

    hi, lo = tail.max(axis=0), tail.min(axis=0)
    spread = hi - lo
    bad = np.argwhere(spread > tol)
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"entry ({int(i)}, {int(j)}) is not Cauchy within tol: "
            f"tail spread {float(spread[i, j])}")

    # a constant entry is its own limit and enters the one fit
    # of all entries as 0: LAPACK scales every column by the largest entry
    const = hi == lo
    design = np.column_stack([np.ones_like(positions), 1.0 / positions])
    coef = np.linalg.lstsq(design, np.where(const, 0.0, tail).reshape(
        len(tail), n * n), rcond=None)[0][0].reshape(n, n)
    # max(coef, 0.0) as Python computes it, -0.0 kept
    limit = np.where(const, tail[0], np.where(coef < 0, 0.0, coef))

    # a merge can bring two representatives within tol: repeat until a
    # pass merges nothing
    c = Causet(labels, limit)
    while (out := distance_quotient(c, tol=tol)[0]).n < c.n:
        c = out
    report = validate(out, tol=max(tol, 1e-12))
    if not report.valid:
        kinds = sorted(report.kinds())
        raise ValueError(f"limit matrix failed validation: {kinds}")
    return out
