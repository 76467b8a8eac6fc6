"""Seeded experiment runners producing CSV rows for plotting.

Four kinds: convergence (Gromov-Hausdorff upper bounds between nested
diamond samples), gamma-scaling (distinction-metric growth exponent),
curvature (flat comparison checks on samples), and limit (entrywise
limits of causet sequences).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from . import EXPERIMENT_KINDS
from .causet import Causet, induced, validate
from .curvature import check_curvature_bound
from .diamond import (DiamondSpace, SampleSpec, _pairwise_distances,
                      diamond_gamma, gamma_scaling_exponent, sample_causet)
from .gh import distortion
from .nets import EpsilonNet, extract_net, limit_causet, net_correspondence

# the separations along gamma-scaling's causal ray
RADII = (0.1, 0.05, 0.025, 0.0125)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to compute, at which sizes, with which seed."""

    kind: str
    sizes: tuple[int, ...] = (25, 50, 100, 200)
    seed: int = 0
    eps: float = 0.2
    tol: float = 0.05

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind '{self.kind}'")
        if not self.sizes:
            raise ValueError("size ladder must be nonempty")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("size ladder must be strictly increasing")
        if self.sizes[0] < 1:  # the least size, as the ladder increases
            raise ValueError(f"sizes must be positive, got {self.sizes[0]}")
        if not self.eps > 0:  # NaN fails too
            raise ValueError("eps must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def refinement_upper_bound(pts: np.ndarray, n_small: int) -> float:
    """Distortion bound on d_GH between a sample and its refinement.

    The first n_small points of the cloud are the coarse sample.  Matching
    every refinement point to its nearest coarse point (in the distinction
    metric of the refinement) is a correspondence, and passing to distance
    quotients costs nothing, so its distortion bounds d_GH between the two
    sampled causets from above.
    """
    if not 0 < n_small < len(pts):
        raise ValueError("need 0 < n_small < len(pts)")
    host = Causet.from_matrix(_pairwise_distances(pts))
    members = EpsilonNet(host, 0.0, tuple(range(n_small)))
    corr = net_correspondence(members)
    return distortion(corr, host, induced(host, range(n_small)))


def run_convergence(cfg: ExperimentConfig) -> tuple[tuple[str, ...], list[tuple]]:
    header = ("n", "gh_upper", "net_size_at_eps", "runtime_ms")
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(0.0, 1.0, size=(cfg.sizes[-1], 2))
    rows = []
    for k, n in enumerate(cfg.sizes):
        t0 = time.perf_counter()
        c = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=cfg.seed))
        # a one-point sample quotients to an empty causet, whose net is
        # empty and which has no refinement bound
        net_size = len(extract_net(c, cfg.eps).members) if c.n else 0
        gh_upper = None
        if c.n and k + 1 < len(cfg.sizes):
            gh_upper = refinement_upper_bound(pts[: cfg.sizes[k + 1]], n)
        ms = int(round((time.perf_counter() - t0) * 1000))
        rows.append((n, gh_upper, net_size, ms))
    return header, rows


def run_gamma_scaling(cfg: ExperimentConfig) -> tuple[tuple[str, ...], list[tuple]]:
    header = ("radius", "gamma", "fit_exponent")
    space = DiamondSpace()
    base = (0.3, 0.3)
    direction = (1.0, 1.0)
    exponent = gamma_scaling_exponent(space, base, direction, RADII)
    norm = float(np.hypot(*direction))
    rows = []
    for r in RADII:
        q = (base[0] + direction[0] * r / norm, base[1] + direction[1] * r / norm)
        rows.append((r, diamond_gamma(base, q), exponent))
    return header, rows


def run_curvature(cfg: ExperimentConfig) -> tuple[tuple[str, ...], list[tuple]]:
    header = ("n", "bound", "triangles", "ok", "vacuous", "violations")
    rows = []
    for n in cfg.sizes:
        c = sample_causet(DiamondSpace(), SampleSpec(count=n, seed=cfg.seed))
        for bound in ("lower", "upper"):
            rep = check_curvature_bound(c, k=0.0, bound=bound, tol=cfg.tol,
                                        min_sides=(0.2, 0.2, 0.05),
                                        max_triangles=100, seed=cfg.seed)
            rows.append((n, bound, len(rep.records), rep.n_ok,
                         rep.n_vacuous, rep.n_violations))
    return header, rows


def run_limit(cfg: ExperimentConfig) -> tuple[tuple[str, ...], list[tuple]]:
    """Entrywise limit of the 2-point chains d = 1 + 1/m over the ladder."""
    header = ("m", "d01", "limit_d01", "valid")
    seq = []
    for m in cfg.sizes:
        d = np.array([[0.0, 1.0 + 1.0 / m], [0.0, 0.0]])
        seq.append(Causet.from_matrix(d, labels=["0", "1"]))
    lim = limit_causet(seq, tol=cfg.tol)
    value = float(lim.as_float()[0, 1])
    ok = validate(lim).valid
    rows = [(m, float(c.d[0, 1]), value, ok) for m, c in zip(cfg.sizes, seq)]
    return header, rows


_RUNNERS = {
    "convergence": run_convergence,
    "gamma-scaling": run_gamma_scaling,
    "curvature": run_curvature,
    "limit": run_limit,
}


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run the configured experiment and return its CSV text."""
    header, rows = _RUNNERS[cfg.kind](cfg)
    return rows_to_csv(header, rows)
