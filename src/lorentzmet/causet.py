"""Finite bounded Lorentzian metric spaces given as distance matrices.

A finite space is an n x n matrix d of nonnegative entries with zero
diagonal.  The two defining axioms are:

  * reverse triangle inequality: d(i,k) >= d(i,j) + d(j,k) whenever
    d(i,j) > 0 and d(j,k) > 0;
  * distinguishing: no two points share both their full distance row
    and their full distance column.

At most one point (the spacelike boundary point, conventionally written
i0) may have an all-zero row and column.  Matrices are stored either as
float64 arrays or, for exact arithmetic, as object arrays of
`fractions.Fraction`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

__all__ = [
    "BoundaryError",
    "Causet",
    "ValidationReport",
    "Violation",
    "validate",
    "reverse_triangle_slack",
    "chronological_relation",
    "diameter",
    "adjoin_boundary",
    "strip_boundary",
    "distance_quotient",
    "find_isometries",
    "induced",
    "load_causet",
    "dump_causet",
]

DEFAULT_TOL = 1e-9


def _as_matrix(d) -> np.ndarray:
    """Coerce input to a square matrix, float64 or object-of-Fraction."""
    if isinstance(d, np.ndarray) and d.dtype == object:
        m = d.copy()
    else:
        try:
            m = np.asarray(d, dtype=float)
        except (TypeError, ValueError):
            m = np.asarray(d, dtype=object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {m.shape}")
    return m


def _detect_boundary(d: np.ndarray) -> int | None:
    """Index of the unique point with an all-zero row and column, if any."""
    zero = d == 0
    idx = np.flatnonzero(zero.all(axis=1) & zero.all(axis=0))
    return int(idx[0]) if len(idx) == 1 else None


class BoundaryError(ValueError):
    """A causet names as its boundary a point that has a nonzero distance."""


@dataclass(frozen=True, eq=False)
class Causet:
    """A finite distance matrix with labels and an optional boundary point.

    The constructor performs only structural checks, among them that a
    declared boundary point has an all-zero row and column (else
    `BoundaryError`); axiom violations are reported by `validate`, never
    raised here.  A bounded Lorentzian distance is finite: an entry with
    no finite float64 value (NaN, +-inf, a Fraction past 2**1023) is
    reported by `validate` and refused, through `as_float`, by every other
    computation.
    """

    labels: tuple[str, ...]
    d: np.ndarray
    boundary: int | None = None
    meta: dict | None = None

    def __post_init__(self):
        m = _as_matrix(self.d)
        if len(self.labels) != m.shape[0]:
            raise ValueError(f"{len(self.labels)} labels for a "
                             f"{m.shape[0]}-point matrix")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if self.boundary is not None:
            b = operator.index(self.boundary)  # TypeError for 1.5
            if not 0 <= b < m.shape[0]:
                raise ValueError(f"boundary index {b} out of range")
            if (m[b] != 0).any() or (m[:, b] != 0).any():
                raise BoundaryError(
                    f"boundary point {b} has a nonzero row or column")
        m.flags.writeable = False
        object.__setattr__(self, "d", m)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def is_rational(self) -> bool:
        return self.d.dtype == object

    @cached_property
    def _image(self) -> tuple[np.ndarray, float, tuple[int, int] | None]:
        """_float_image of d, read-only, and its first non-finite entry."""
        f, err = _float_image(self.d)
        f.flags.writeable = False
        bad = np.argwhere(~np.isfinite(f))
        return f, err, tuple(int(v) for v in bad[0]) if len(bad) else None

    def as_float(self) -> np.ndarray:
        """d in float64, computed once and read-only (d itself for a float
        payload); a ValueError names the first entry (i, j) with no finite
        float64 value, which only `validate` reports instead."""
        f, _, bad = self._image
        if bad is not None:
            raise ValueError(f"entry {bad} has no finite float64 value: "
                             f"{f[bad]}")
        return f

    @classmethod
    def from_matrix(cls, d, labels: Sequence[str] | None = None,
                    meta: dict | None = None) -> "Causet":
        m = _as_matrix(d)
        if labels is None:
            labels = tuple(f"p{i}" for i in range(m.shape[0]))
        return cls(tuple(labels), m, boundary=_detect_boundary(m), meta=meta)

    def to_json(self) -> dict:
        out: dict = {"kind": "causet", "n": self.n, "labels": list(self.labels)}
        if self.is_rational:
            out["rational"] = True
            out["d"] = [[[v.numerator, v.denominator] for v in row]
                        for row in self.d]
        else:
            out["d"] = [[float(v) for v in row] for row in self.d]
        out["boundary"] = self.boundary
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Causet":
        for key in ("n", "d"):
            if key not in obj:
                raise KeyError(f"causet JSON is missing field '{key}'")
        n = obj["n"]
        rows = obj["d"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ValueError(f"field 'd' must be a list of {n} rows")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"field 'd' row {i} has length {len(row)}")
        if obj.get("rational"):
            if not all(isinstance(p, list) and len(p) == 2 and p[1] != 0
                       for row in rows for p in row):
                raise ValueError("rational entries must be [numerator, "
                                 "nonzero denominator] pairs")
            m = np.array([Fraction(p[0], p[1]) for row in rows for p in row],
                         dtype=object).reshape(n, n)
        else:
            m = np.asarray(rows, dtype=float).reshape(n, n)
        labels = obj.get("labels")
        if labels is None:
            labels = [f"p{i}" for i in range(n)]
        if len(labels) != n:
            raise ValueError(f"field 'labels' has length {len(labels)}, expected {n}")
        boundary = obj.get("boundary")
        return cls(tuple(labels), m, boundary=boundary, meta=obj.get("meta"))


def load_causet(source: str | IO) -> Causet:
    """Read a causet from a JSON file path or an open file object."""
    if hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source) as fh:
            obj = json.load(fh)
    return Causet.from_json(obj)


def dump_causet(c: Causet, target: str | IO) -> None:
    if hasattr(target, "write"):
        json.dump(c.to_json(), target)
    else:
        with open(target, "w") as fh:
            json.dump(c.to_json(), fh)


@dataclass(frozen=True)
class Violation:
    kind: str            # diagonal | reverse-triangle | distinguishing | multiple-boundary | negative-entry
    witness: tuple
    magnitude: float

    def to_json(self) -> dict:
        return {"kind": self.kind, "witness": list(self.witness),
                "magnitude": self.magnitude}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def to_json(self) -> dict:
        return {"valid": self.valid,
                "violations": [v.to_json() for v in self.violations]}


def _float_image(d: np.ndarray) -> tuple[np.ndarray, float]:
    """Float64 image f of an object-Fraction (or float) matrix, and a bound E.

    Entries are correctly rounded (off by u|f| plus an underflow term, u =
    2**-53), or +-inf past 2**1023, left by callers to exact arithmetic.
    E = 32 u max|f| + 2**-1060 over the finite entries bounds, with room
    to spare, the error of comparing sums and differences of three of them.
    """
    try:
        f = d.astype(float, copy=False)
    except OverflowError:
        f = np.array([float(v) if abs(v) < 2**1023 else
                      np.inf if v > 0 else -np.inf for v in d.flat])
        f = f.reshape(d.shape)
    fin = np.abs(f[np.isfinite(f)])
    return f, 32 * 2.0**-53 * fin.max(initial=0.0) + 2.0**-1060


def _check_tol(tol) -> None:
    if tol != tol:  # NaN compares False everywhere: checks would be silent
        raise ValueError("tol must not be NaN")


def _ordering(n: int, ordering: Sequence[int] | None) -> list[int]:
    """The identity order of n points, or ordering checked to permute them."""
    ordering = list(range(n)) if ordering is None else list(ordering)
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of all points")
    return ordering


def _sup_gaps(m: np.ndarray) -> np.ndarray:
    """Sup-norm gap of every two rows of m (contiguous: pdist is several
    times slower on a strided view); NaN differences are skipped."""
    return squareform(pdist(m, "chebyshev")) if len(m) > 1 \
        else np.zeros(m.shape)


def _chebyshev_gaps(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise sup-norm gaps between rows and between columns of d."""
    return _sup_gaps(d), _sup_gaps(np.ascontiguousarray(d.T))


# coordinates in the filtering block of validate's distinguishing pass
TWIN_BLOCK = 16


def _twins(f: np.ndarray, tol: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j whose rows and columns of f are within tol in the sup
    norm, and that gap.  A NaN difference counts as +inf when f holds a
    NaN; otherwise one from inf - inf is skipped, as cdist skips it.

    The gap over each point's first TWIN_BLOCK row and column coordinates
    (NaN differences skipped) bounds its gap from below; only the pairs it
    leaves within tol are measured in full, n/4 at a time: O(n^2) memory.
    """
    n = len(f)
    both = np.hstack([f, f.T])  # row i: the row, then the column of i
    low = pdist(np.hstack([f[:, :TWIN_BLOCK], f.T[:, :TWIN_BLOCK]]),
                "chebyshev")
    i, j = (v[low <= tol] for v in np.triu_indices(n, 1))
    nan = np.inf if np.isnan(f).any() else 0.0
    gap = np.empty(len(i))
    step = n // 4 + 1
    for s in range(0, len(i), step):
        g = np.abs(both[i[s:s + step]] - both[j[s:s + step]])
        g[np.isnan(g)] = nan
        gap[s:s + step] = g.max(axis=1, initial=0.0)
    near = gap <= tol
    return i[near], j[near], gap[near]


def validate(c: Causet | np.ndarray, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the defining axioms and report every violation found.

    `tol` is the slack for the float checks: a reverse-triangle defect is
    flagged only beyond tol, rows/columns within tol count as identical,
    and |entry| <= tol counts as zero for boundary detection.  Exact
    payloads ignore tol; a NaN tol raises ValueError.

    The reverse-triangle pass visits for each j only its past x future;
    the distinguishing pass measures in full only the pairs within tol on
    a first block of coordinates.  The report is that of the full O(n^3)
    comparisons.  Fraction payloads are exact: float64 filter, exact
    refinement, each flagged defect decided exactly.
    """
    _check_tol(tol)
    d = c.d if isinstance(c, Causet) else _as_matrix(c)
    f, err = c._image[:2] if isinstance(c, Causet) else _float_image(d)
    exact = d.dtype == object
    # Fraction payloads: a float filter widened by f's bound, exact decisions
    widen, tol = (err, 0) if exact else (-tol, tol)
    n = d.shape[0]
    out: list[Violation] = []
    with np.errstate(invalid="ignore"):
        for i, j in np.argwhere(np.isnan(f) | (d < 0)):
            out.append(Violation("negative-entry", (int(i), int(j)),
                                 float(d[i, j])))
        for i in np.flatnonzero(np.diag(d) > tol):
            out.append(Violation("diagonal", (int(i),), float(d[i, i])))

        # Only the light cones of j can witness a defect at j: the past
        # ii = {i : d(i,j) > 0} and the future kk = {k : d(j,k) > 0}.
        # NaN compares False everywhere below, matching naive float checks.
        pos = d > 0
        for j in range(n):
            ii = np.flatnonzero(pos[:, j])
            kk = np.flatnonzero(pos[j])
            sums = f[ii, j][:, None] + f[j, kk][None, :]
            block = f[np.ix_(ii, kk)]
            hit = block < sums + widen
            if exact:
                hit |= ~np.isfinite(block)
            for p, q in np.argwhere(hit):
                i, k = int(ii[p]), int(kk[q])
                if d[i, k] < d[i, j] + d[j, k] - tol:  # as in hit, for floats
                    out.append(Violation("reverse-triangle", (i, j, k),
                                         float(d[i, j] + d[j, k] - d[i, k])))

        for i, j, gap in zip(*_twins(f, tol)):
            if not exact or ((d[i] == d[j]).all()
                             and (d[:, i] == d[:, j]).all()):
                out.append(Violation("distinguishing", (int(i), int(j)),
                                     float(gap)))

        zero = np.abs(d) <= tol
        zi = np.flatnonzero(zero.all(axis=1) & zero.all(axis=0))
    if len(zi) >= 2:
        out.append(Violation("multiple-boundary", tuple(int(i) for i in zi), 0.0))

    # deterministic order regardless of the vectorized passes above
    order = {"negative-entry": 0, "diagonal": 1, "reverse-triangle": 2,
             "distinguishing": 3, "multiple-boundary": 4}
    out.sort(key=lambda v: (order[v.kind], v.witness))
    return ValidationReport(not out, tuple(out))


def _min_slack(d: np.ndarray, pos: np.ndarray) -> float | Fraction:
    """Minimum of d(i,k) - d(i,j) - d(j,k) over pos(i,j), pos(j,k); +inf if
    no triple applies.  Visits the past x future block of each j, so memory
    stays O(n^2), and computes exactly only the slacks whose float value
    (d_ik - d_ij) - d_jk is within 2E of the least one, or not finite.
    """
    f, err = _float_image(d) if d.dtype == object else (d, 0.0)
    cones = [(np.flatnonzero(pos[:, j]), np.flatnonzero(pos[j]))
             for j in range(d.shape[0])]
    live = [j for j, (ii, kk) in enumerate(cones) if len(ii) and len(kk)]

    def block(j):
        ii, kk = cones[j]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in a loop
            return (f[np.ix_(ii, kk)] - f[ii, j][:, None]) - f[j, kk][None, :]

    thr = min((np.min(s, where=np.isfinite(s), initial=np.inf)
               for s in map(block, live)), default=np.inf) + 2 * err
    best = None
    for j in live:
        ii, kk = cones[j]
        s = block(j)
        for p, q in np.argwhere((s <= thr) | ~np.isfinite(s)):
            v = d[ii[p], kk[q]] - d[ii[p], j] - d[j, kk[q]]
            if best is None or v < best:
                best = v
    return float("inf") if best is None else best


def reverse_triangle_slack(c: Causet) -> float | Fraction:
    """Minimum of d(i,k) - d(i,j) - d(j,k) over triples with d(i,j), d(j,k) > 0.

    Positive slack means every reverse-triangle inequality holds strictly;
    returns +inf when no triple applies.  Rational payloads are exact:
    float64 filter, exact refinement; float ones go through as_float.
    """
    return _min_slack(c.d if c.is_rational else c.as_float(), c.d > 0)


def chronological_relation(c: Causet) -> set[tuple[int, int]]:
    """The relation I = {(i, j) : d(i, j) > 0}."""
    return {(int(i), int(j)) for i, j in np.argwhere(c.d > 0)}


def diameter(c: Causet) -> float:
    return float(c.as_float().max()) if c.n else 0.0


def adjoin_boundary(c: Causet, label: str = "i0") -> Causet:
    """Append a point with an all-zero row and column."""
    if c.boundary is not None:
        raise ValueError("causet already contains a boundary point")
    n = c.n
    lab = label
    k = 1
    while lab in c.labels:
        lab = f"{label}_{k}"
        k += 1
    m = np.full((n + 1, n + 1), Fraction(0) if c.is_rational else 0.0,
                dtype=c.d.dtype)
    m[:n, :n] = c.d
    return Causet(c.labels + (lab,), m, boundary=n, meta=c.meta)


def strip_boundary(c: Causet) -> Causet:
    if c.boundary is None:
        raise ValueError("causet has no boundary point to strip")
    keep = [i for i in range(c.n) if i != c.boundary]
    m = c.d[np.ix_(keep, keep)].copy()
    labels = tuple(c.labels[i] for i in keep)
    return Causet(labels, m, boundary=None, meta=c.meta)


def induced(c: Causet, indices: Sequence[int]) -> Causet:
    """Sub-causet on the given point indices (order preserved)."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    m = c.d[np.ix_(idx, idx)].copy()
    labels = tuple(c.labels[i] for i in idx)
    return Causet(labels, m, boundary=_detect_boundary(m), meta=None)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def distance_quotient(m: Causet | np.ndarray, tol: float = 0.0
                      ) -> tuple[Causet, list[int]]:
    """Merge points with identical distance rows and columns.

    Returns the quotient causet (representatives keep their labels, first
    occurrence wins) and the class map sending each input index to its
    output index.  With tol > 0, rows/columns within tol merge; closeness
    is propagated transitively.
    """
    c = m if isinstance(m, Causet) else Causet.from_matrix(m)
    d, n = c.d, c.n

    uf = _UnionFind(n)
    if tol == 0.0:
        seen: dict = {}
        for i in range(n):
            if c.is_rational:
                key = (tuple(d[i, :]), tuple(d[:, i]))
            else:
                key = (d[i, :].tobytes(), d[:, i].tobytes())
            if key in seen:
                uf.union(seen[key], i)
            else:
                seen[key] = i
    else:
        for i, j in zip(*_twins(c.as_float(), tol)[:2]):
            uf.union(int(i), int(j))

    reps: list[int] = []
    rep_pos: dict[int, int] = {}
    class_map: list[int] = []
    for i in range(n):
        r = uf.find(i)
        if r not in rep_pos:
            rep_pos[r] = len(reps)
            reps.append(r)
        class_map.append(rep_pos[r])

    q = d[np.ix_(reps, reps)].copy()
    labels = tuple(c.labels[r] for r in reps)
    out = Causet(labels, q, boundary=_detect_boundary(q), meta=c.meta)
    return out, class_map


def _profile_keys(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.sort(d, axis=1), np.sort(d, axis=0).T


def find_isometries(a: Causet, b: Causet, tol: float = DEFAULT_TOL
                    ) -> list[tuple[int, ...]]:
    """All bijections a -> b preserving d in both directions within tol.

    Backtracking search; candidate images are pruned by comparing sorted
    row and column multisets, and points with the fewest candidates are
    assigned first.
    """
    if a.n != b.n:
        return []
    n = a.n
    da, db = a.as_float(), b.as_float()
    rka, cka = _profile_keys(da)
    rkb, ckb = _profile_keys(db)

    candidates: list[list[int]] = []
    for x in range(n):
        cand = [y for y in range(n)
                if np.abs(rka[x] - rkb[y]).max() <= tol
                and np.abs(cka[x] - ckb[y]).max() <= tol]
        if not cand:
            return []
        candidates.append(cand)

    order = sorted(range(n), key=lambda x: len(candidates[x]))
    mapping = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def backtrack(pos: int) -> None:
        if pos == n:
            found.append(tuple(mapping))
            return
        x = order[pos]
        for y in candidates[x]:
            if not used[y] and all(
                    abs(da[x, xp] - db[y, mapping[xp]]) <= tol
                    and abs(da[xp, x] - db[mapping[xp], y]) <= tol
                    for xp in order[:pos]):
                mapping[x] = y
                used[y] = True
                backtrack(pos + 1)
                used[y] = False
                mapping[x] = -1

    backtrack(0)
    return found
