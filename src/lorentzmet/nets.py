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

from .causet import (Causet, _chebyshev_gaps, _min_slack, distance_quotient,
                     induced, validate)
from .distinction import GammaMatrix, gamma
from .gh import Correspondence

__all__ = [
    "EpsilonNet",
    "TotallyBoundedParams",
    "FamilyReport",
    "extract_net",
    "net_correspondence",
    "net_to_causet",
    "check_uniformly_totally_bounded",
    "rationalize",
    "simplest_rational_between",
    "limit_causet",
]


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
    gm = g if g is not None else gamma(c)
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
    gm = g if g is not None else gamma(net.host)
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
        if self.diameter_bound < 0:
            raise ValueError("diameter bound must be nonnegative")
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have equal length")
        if any(a <= 0 for a in self.alpha):
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
        diam = float(c.as_float().max()) if c.n else 0.0
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


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A small-denominator rational strictly inside the open interval.

    Stern-Brocot style descent on the continued fraction of the endpoints.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    return _simplest_between(lo.numerator, lo.denominator,
                             hi.numerator, hi.denominator)


def _min_gamma(d: np.ndarray, f: np.ndarray, err: float):
    """Smallest exact gamma between two points; on a finite image f the
    float gamma is within err of it, so only pairs near its minimum count.
    """
    i, j = np.triu_indices(d.shape[0], 1)
    if np.isfinite(f).all():
        gf = np.maximum(*_chebyshev_gaps(f))[i, j]
        near = gf <= gf.min() + 2 * err
        i, j = i[near], j[near]
    return min(max(np.abs(d[a] - d[b]).max(), np.abs(d[:, a] - d[:, b]).max())
               for a, b in zip(i, j))


def _link_counts(pos: np.ndarray) -> np.ndarray:
    """t[i][j]: maximal number of links of a chronological chain i -> j.

    Max-plus closure, one step per k; row and column k stay fixed at step
    k, since a causet's pos is acyclic.
    """
    t = pos.astype(np.int64)
    for k in range(len(t)):
        via = np.outer(t[:, k] > 0, t[k] > 0)
        np.maximum(t, np.where(via, t[:, [k]] + t[[k], :], 0), out=t)
    return t


def rationalize(c: Causet, eps: float) -> Causet:
    """Exact-rational causet within eps of the input, entrywise.

    Stage one adds delta * t^2 to each positive entry, with t the maximal
    link count between the pair, which makes every reverse-triangle
    inequality strictly slack (concatenating chains forces
    t(i,k) >= t(i,j) + t(j,k)).  Stage two rounds each entry to a
    small-denominator rational inside a margin that preserves strictness,
    positivity, and the distinguishing axiom.  All arithmetic is exact, the
    minima that size delta and the margin included (exact: float64 filter,
    exact refinement).  A float payload must pass as_float; chronological
    cycles raise ValueError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = c.n
    d = np.frompyfunc(Fraction, 1, 1)(c.d if c.is_rational else c.as_float())
    pos = c.d > 0  # a float and its Fraction share their sign
    if n < 2:
        return Causet(c.labels, d, boundary=c.boundary, meta=c.meta)

    eps_f = Fraction(eps)
    alpha = _min_gamma(d, *c._image[:2])
    if alpha <= 0:
        raise ValueError("input causet is not distinguishing")
    if not pos.any():
        return Causet(c.labels, d, boundary=c.boundary, meta=c.meta)

    pair_budget = Fraction(n * (n - 1), 2) ** 2
    delta = min(alpha / 4, eps_f / 2) / pair_budget
    t = _link_counts(pos)
    if np.diag(t).any():
        raise ValueError("input causet has a chronological cycle")
    d1 = d.copy()
    d1[pos] = d[pos] + delta * (t[pos] ** 2).astype(object)

    slack = _min_slack(d1, pos)
    p_min = min(d1[pos])
    if slack <= 0:  # stage one makes every valid input strictly slack
        raise ValueError("input causet breaks the reverse triangle "
                         f"inequality (stage-one slack {float(slack)})")
    margin = min(eps_f / 2, alpha / 8, p_min / 2, slack / 4)

    out = d1.copy()
    mp, mq = margin.numerator, margin.denominator
    for i, j in zip(*np.nonzero(pos)):
        v = d1[i, j]
        num, w, den = v.numerator * mq, mp * v.denominator, v.denominator * mq
        out[i, j] = _simplest_between(num - w, den, num + w, den)
    return Causet(c.labels, out, boundary=c.boundary, meta=c.meta)


def limit_causet(seq: Sequence[Causet], tol: float = 0.05) -> Causet:
    """Entrywise limit of an aligned causet sequence, then quotient.

    Members must share the same labels in the same order.  Each entry must
    be Cauchy within tol over the tail (the later half); the limit is
    estimated by a least-squares fit of a + b/m over the tail positions,
    which is exact for sequences converging at first order, and points
    whose limit profiles coincide within tol are identified, repeatedly,
    until no two representatives do.
    """
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

    # a merge can bring two representatives within tol: repeat to a fixpoint
    out, _ = distance_quotient(Causet(labels, limit), tol=tol)
    while (again := distance_quotient(out, tol=tol)[0]).n < out.n:
        out = again
    report = validate(out, tol=max(tol, 1e-12))
    if not report.valid:
        kinds = sorted(report.kinds())
        raise ValueError(f"limit matrix failed validation: {kinds}")
    return out
