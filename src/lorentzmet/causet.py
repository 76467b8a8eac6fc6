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

import contextlib
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import _PUBLIC

__all__ = list(_PUBLIC["causet"])

DEFAULT_TOL = 1e-9


def _as_matrix(d) -> np.ndarray:
    """Copy input to a square matrix, float64 or object-of-Fraction."""
    if isinstance(d, np.ndarray) and d.dtype == object:
        m = d.copy()
    else:
        try:
            m = np.array(d, dtype=float)
        except (TypeError, ValueError):
            m = np.array(d, dtype=object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {m.shape}")
    return m


def _detect_boundary(d: np.ndarray) -> int | None:
    """Index of the unique point with an all-zero row and column, if any."""
    zero = d == 0
    idx = np.flatnonzero(zero.all(axis=1) & zero.all(axis=0))
    return int(idx[0]) if len(idx) == 1 else None


def _is_number(t: type) -> bool:
    """Whether t is the type of a JSON number: int or float, not bool."""
    return t is not bool and issubclass(t, (int, float))


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
            if isinstance(self.boundary, bool):
                raise TypeError("boundary must be a point index, not a bool")
            b = operator.index(self.boundary)  # TypeError for 1.5
            if not 0 <= b < m.shape[0]:
                raise ValueError(f"boundary index {b} out of range")
            if (m[b] != 0).any() or (m[:, b] != 0).any():
                raise BoundaryError(
                    f"boundary point {b} has a nonzero row or column")
            object.__setattr__(self, "boundary", b)
        m.flags.writeable = False
        object.__setattr__(self, "d", m)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def is_rational(self) -> bool:
        return self.d.dtype == object

    @cached_property
    def _image(self) -> tuple[np.ndarray, float, np.ndarray | None,
                              tuple[int, int] | None]:
        """_signed_image of d, read-only, and its first non-finite entry."""
        f, err, sign = _signed_image(self.d)
        f.flags.writeable = False
        bad = np.argwhere(~np.isfinite(f)).tolist()
        return f, err, sign, tuple(bad[0]) if bad else None

    def _positive(self) -> np.ndarray:
        """d > 0, read from the exact sign pattern on a Fraction payload."""
        return self._image[2] > 0 if self.is_rational else self.d > 0

    def _floors(self) -> np.ndarray:
        """Each point's slack floor (`_slack_floors` of the image and
        `_positive`), read-only and cached by the first call."""
        if "_floor_cache" not in self.__dict__:
            floors = _slack_floors(self._image[0], self._positive())
            floors.flags.writeable = False
            self.__dict__["_floor_cache"] = floors
        return self.__dict__["_floor_cache"]

    def as_float(self) -> np.ndarray:
        """d in float64, computed once and read-only (d itself for a float
        payload); a ValueError names the first entry (i, j) with no finite
        float64 value, which only `validate` reports instead."""
        f, _, _, bad = self._image
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
            # integers only: JSON true would read as 1, 1.5 as a float
            bad = next(((i, j, p) for i, row in enumerate(rows)
                        for j, p in enumerate(row)
                        if not type(p[0]) is int is type(p[1])), None)
            if bad is not None:
                raise ValueError("field 'd' entry ({}, {}) is not a pair of "
                                 "integers: {!r}".format(*bad))
            # a zero pair is Fraction(0): one shared object
            zero = Fraction(0)
            m = np.array([zero if p[0] == 0 else Fraction(p[0], p[1])
                          for row in rows for p in row],
                         dtype=object).reshape(n, n)
        else:
            # numbers only: numpy would read "1e3" as 1000.0 and null as NaN
            kinds = set(map(type, itertools.chain.from_iterable(rows)))
            if not all(map(_is_number, kinds)):
                i, j, v = next((i, j, v) for i, row in enumerate(rows)
                               for j, v in enumerate(row)
                               if not _is_number(type(v)))
                raise ValueError(f"field 'd' entry ({i}, {j}) is not a "
                                 f"number: {v!r}")
            m = np.asarray(rows, dtype=float).reshape(n, n)
        labels = obj.get("labels")
        if labels is None:
            labels = [f"p{i}" for i in range(n)]
        if not (isinstance(labels, list)
                and all(isinstance(s, str) for s in labels)):
            raise ValueError("field 'labels' must be a list of strings")
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


def _signed_image(d: np.ndarray
                  ) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Float64 image f of an object-Fraction (or float) matrix, a bound E,
    and the exact sign (-1, 0, 1) of each Fraction entry (None for floats).

    Entries are correctly rounded (off by u|f| plus an underflow term, u =
    2**-53), or +-inf past 2**1023, left by callers to exact arithmetic.
    E = 32 u max|f| + 2**-1060 over the finite entries bounds, with room
    to spare, the error of comparing sums and differences of three of them.
    Only the nonzero entries (Fraction.__bool__) are converted, and their
    signs are those of f but where f underflows to +-0.0, decided exactly.
    """
    if d.dtype != object:
        f, sign = d.astype(float, copy=False), None
    else:
        nz = d.astype(bool)
        v = d[nz]
        f = np.zeros(d.shape)
        try:
            f[nz] = v.astype(float)
        except OverflowError:
            f[nz] = [float(x) if abs(x) < 2**1023 else
                     np.inf if x > 0 else -np.inf for x in v]
        sign = (f > 0).astype(np.int8) - (f < 0)
        under = nz & (sign == 0)  # an object NaN counts as negative
        sign[under] = [1 if x > 0 else -1 for x in d[under]]
        sign.flags.writeable = False
    fin = np.abs(f[np.isfinite(f)])
    return f, 32 * 2.0**-53 * fin.max(initial=0.0) + 2.0**-1060, sign


def _check_tol(tol) -> None:
    if tol != tol:  # NaN compares False everywhere: checks would be silent
        raise ValueError("tol must not be NaN")


def _integer(value, name: str) -> int:
    """value as an int; a TypeError names the parameter if it is none."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _ordering(n: int, ordering: Sequence[int] | None) -> list[int]:
    """The identity order of n points, or ordering as ints checked to
    permute them; a non-integer entry is a TypeError."""
    ordering = list(range(n)) if ordering is None \
        else [operator.index(p) for p in ordering]
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of all points")
    return ordering


def _points(n: int, points: Iterable[int]) -> list[int]:
    """points as ints, each checked to index one of n points; a non-integer
    index is a TypeError."""
    pts = [operator.index(p) for p in points]
    for p in pts:
        if not 0 <= p < n:  # a negative index would wrap silently
            raise ValueError(f"point index {p} out of range")
    return pts


SUP_GAPS_NUMPY_MAX = 128
"""Largest row count whose sup-norm gaps `_sup_gaps` computes in numpy.

Past it, scipy's pdist.  Once loaded, pdist is the faster (medians of 31
warm calls on diamond samples, 2-core x86-64, numpy vs pdist: 28 vs 13 us
at n = 10, 175 vs 28 us at 40, 0.90 vs 0.18 ms at 100, 1.6 vs 0.35 ms at
128, 14.3 vs 4.2 ms at 300), but importing scipy.spatial takes about
0.22 s, most of a command-line start: at n <= 128 a process would need
170 calls or more to repay it, at n = 300 about 20.
"""


def _sup_gaps(m: np.ndarray) -> np.ndarray:
    """Sup-norm gap of every two rows of m, NaN differences (inf - inf
    among them) skipped; a zero diagonal.  Up to SUP_GAPS_NUMPY_MAX rows, a
    numpy loop over the upper triangle, one row at a time, mirrored: O(n^2)
    memory.  Past it, pdist on m (contiguous: pdist is several times slower
    on a strided view): the one scipy import, made here on first use.  Both
    give the bytes of cdist(m, m, "chebyshev")."""
    n = len(m)
    if n > SUP_GAPS_NUMPY_MAX:
        from scipy.spatial.distance import pdist, squareform
        return squareform(pdist(m, "chebyshev"))
    out = np.zeros((n, n))
    with np.errstate(invalid="ignore", over="ignore"):  # as pdist: silent
        for x in range(n - 1):
            gap = np.abs(m[x + 1:] - m[x])
            out[x, x + 1:] = out[x + 1:, x] = np.fmax.reduce(
                gap, axis=1, initial=0.0)
    return out


# coordinates in the filtering block of validate's distinguishing pass
TWIN_BLOCK = 16


def _sum_window(f: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The order sorting the sums s_i of row and column i of f (non-finite
    entries counted as 0), and for the p-th point in that order a bound
    hi[p] past every partner q > p within tol >= 0.

    Such partners agree on every coordinate but those where both are
    non-finite, so their exact sums differ by at most 2n tol; hi adds
    the rounding error of the sums to that.
    """
    fin = np.isfinite(f)
    top = max(f.max(where=fin, initial=0.0), -f.min(where=fin, initial=0.0))
    # past 2**900 the entries are scaled below 1, so that no sum overflows;
    # a power of two scales exactly but for underflow, 2**-1075 an entry
    scale = 1.0 if top < 2.0**900 else np.ldexp(1.0, -np.frexp(top)[1])
    g = f if scale == 1 else f * scale
    s = g.sum(axis=1, where=fin) + g.sum(axis=0, where=fin)
    order = np.argsort(s, kind="stable")
    s = s[order]
    # a sum of N = 2n terms of size at most a, in any order, errs by at
    # most gamma_N N a <= (4/3) u N^2 a (Higham, Accuracy and Stability,
    # sec. 4.2); w adds N tol-gaps and N underflows to two such errors,
    # with a margin for the rounding of w itself
    size = 2 * len(f)
    w = (size * tol * scale + 4.0 * size * size * 2.0**-53 * top * scale
         + size * 2.0**-1074) * (1 + 2.0**-40)
    return order, np.searchsorted(s, np.nextafter(s + w, np.inf), "right")


def _twins(f: np.ndarray, tol: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j whose rows and columns of f are within tol in the sup
    norm, and that gap, in lexicographic order.  A NaN difference counts
    as +inf when f holds a NaN; otherwise one from inf - inf is skipped.

    Candidates are the pairs close in the sorted row-plus-column sums
    (`_sum_window`): O(n log n) plus time per candidate.  Those within tol
    on the first TWIN_BLOCK row and column coordinates (NaN differences
    skipped: a lower bound on the gap) are measured in full, n/4 at a
    time, so memory stays O(n^2).
    """
    n = len(f)
    none = np.zeros(0, dtype=np.intp)
    if n < 2 or not tol >= 0:  # a gap is never negative
        return none, none, np.zeros(0)
    order, hi = _sum_window(f, tol)
    count = hi - np.arange(1, n + 1)
    ends = np.cumsum(count)
    block = np.hstack([f[:, :TWIN_BLOCK], f.T[:, :TWIN_BLOCK]])
    step = max(n * n // 64, n)  # candidate pairs per chunk
    found_i, found_j = [none], [none]
    p0 = 0
    with np.errstate(invalid="ignore"):  # inf - inf: a skipped difference
        while p0 < n:
            base = ends[p0 - 1] if p0 else 0
            p1 = max(p0 + 1, int(np.searchsorted(ends, base + step, "right")))
            c = count[p0:p1]
            p = np.repeat(np.arange(p0, p1), c)
            q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(c) - c, c)
            a, b = order[p], order[q]
            low = np.fmax.reduce(np.abs(block[a] - block[b]), axis=1,
                                 initial=0.0)
            near = low <= tol
            a, b = a[near], b[near]
            found_i.append(np.minimum(a, b))
            found_j.append(np.maximum(a, b))
            p0 = p1
        i, j = np.concatenate(found_i), np.concatenate(found_j)
        lex = np.lexsort((j, i))
        i, j = i[lex], j[lex]
        nan = np.inf if np.isnan(f).any() else 0.0
        gap = np.empty(len(i))
        step = n // 4 + 1
        for s in range(0, len(i), step):
            a, b = i[s:s + step], j[s:s + step]
            g = np.abs(np.hstack([f[a] - f[b], f.T[a] - f.T[b]]))
            g[np.isnan(g)] = nan
            gap[s:s + step] = g.max(axis=1, initial=0.0)
    near = gap <= tol
    return i[near], j[near], gap[near]


def _indistinguishable(f: np.ndarray, tol: float, d: np.ndarray | None = None):
    """Pairs (i, j, gap) of `_twins(f, tol)`; given an exact payload d whose
    image is f, only those whose rows and columns of d are equal."""
    for i, j, gap in zip(*_twins(f, tol)):
        if d is None or ((d[i] == d[j]).all() and (d[:, i] == d[:, j]).all()):
            yield int(i), int(j), float(gap)


def _cone_slacks(f: np.ndarray, pos: np.ndarray,
                 only: Iterable[int] | None = None):
    """For each j (of only, if given) whose past ii = {i : pos(i,j)} and
    future kk = {k : pos(j,k)} are nonempty, (j, ii, kk, s) with s the
    float slack block (f[ii,kk] - f[ii,j]) - f[j,kk]: only these triples
    can witness a reverse-triangle defect at j.  inf - inf gives NaN, as
    in a loop."""
    n = len(f)
    only = range(n) if only is None else [int(j) for j in only]
    # every j's past and future as flat lists, one np.flatnonzero per side,
    # sliced per j by offsets: past[p_at[j]:p_at[j + 1]]
    m = max(n, 1)
    past, fut = np.flatnonzero(pos.T) % m, np.flatnonzero(pos) % m
    p_at = [0] + np.cumsum(np.count_nonzero(pos, axis=0)).tolist()
    f_at = [0] + np.cumsum(np.count_nonzero(pos, axis=1)).tolist()
    # entries below 2**1023 in magnitude differ without inf - inf or overflow
    quiet = (contextlib.nullcontext if (np.abs(f) < 2.0**1023).all()
             else lambda: np.errstate(invalid="ignore", over="ignore"))
    for j in only:
        ii, kk = past[p_at[j]:p_at[j + 1]], fut[f_at[j]:f_at[j + 1]]
        if not (len(ii) and len(kk)):
            continue
        s = f.take(ii[:, None] * n + kk)
        with quiet():
            s -= f[ii, j][:, None]
            s -= f[j, kk]
        yield j, ii, kk, s


def _slack_floors(f: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Each point j's slack floor: the least entry of its `_cone_slacks`
    block, -inf if the block holds a NaN or +-inf, +inf if it is empty."""
    out = np.full(len(f), np.inf)
    # entries below 2**1021 in magnitude give finite slacks: no max needed
    finite = max(f.max(initial=0.0), -f.min(initial=0.0)) < 2.0**1021
    for j, _, _, s in _cone_slacks(f, pos):
        lo = s.min()
        out[j] = lo if finite or -np.inf < lo and s.max() < np.inf \
            else -np.inf
    return out


def _magnitude(v) -> float:
    """v as a float, +-inf for a Fraction past the float64 range."""
    try:
        return float(v)
    except OverflowError:
        return np.inf if v > 0 else -np.inf


def _defect(d: np.ndarray, i: int, j: int, k: int) -> float:
    """d(i,j) + d(j,k) - d(i,k) as a float, correctly rounded also where
    the float sum of three finite entries overflows."""
    ij, jk, ik = d[i, j], d[j, k], d[i, k]
    v = _magnitude(ij + jk - ik)
    if v in (np.inf, -np.inf) and d.dtype != object \
            and np.isfinite((ij, jk, ik)).all():
        v = _magnitude(Fraction(ij) + Fraction(jk) - Fraction(ik))
    return v


def validate(c: Causet | np.ndarray, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the defining axioms and report every violation found.

    `tol` is the slack for the float checks: a reverse-triangle defect is
    flagged only beyond tol, rows/columns within tol count as identical,
    and |entry| <= tol counts as zero for boundary detection.  Exact
    payloads ignore tol; a NaN tol raises ValueError.

    The reverse-triangle pass visits for each j only its past x future,
    once, for j's slack floor: the least float slack (f_ik - f_ij) - f_jk
    over that block (-inf if the block holds a NaN or +-inf, +inf if it is
    empty).  Only a block whose floor is below the threshold is gathered
    again for its defects.  The floors are cached on the causet (a matrix
    is first wrapped by `Causet.from_matrix`) and shared with
    `reverse_triangle_slack` and `causal_relation`.  The distinguishing
    pass measures in full only the pairs within tol on a first block of
    coordinates.  The report is that of the full O(n^3) comparisons.
    Fraction payloads are exact: float64 filter, exact refinement, each
    flagged defect decided exactly.  Their signs (negative entries,
    diagonal, light cones, zero rows) are read from the float image
    cached with the causet, and decided exactly only where a nonzero entry
    underflows to +-0.0 (_signed_image).  A defect's magnitude is correctly
    rounded, also where the float sum of three finite entries overflows.
    """
    _check_tol(tol)
    c = c if isinstance(c, Causet) else Causet.from_matrix(c)
    d, (f, err, sign) = c.d, c._image[:3]
    exact = d.dtype == object
    # Fraction payloads: signs from the sign pattern, exact decisions
    s, tol = (sign, 0) if exact else (d, tol)
    out: list[Violation] = []
    with np.errstate(invalid="ignore", over="ignore"):
        for i, j in np.argwhere(np.isnan(f) | (s < 0)):
            out.append(Violation("negative-entry", (int(i), int(j)),
                                 _magnitude(d[i, j])))
        for i in np.flatnonzero(np.diag(s) > tol):
            out.append(Violation("diagonal", (int(i),),
                                 _magnitude(d[i, i])))

        # Every defect d(i,k) < d(i,j) + d(j,k) - tol (exact, or the naive
        # float check) has a slack not finite or below thr: on entries up
        # to M the slack and the naive sum err by 9 u M + u |tol| at most
        # (u = 2**-53), the image by 3 u M; E = 32 u M + 2**-1060 and
        # 4 u |tol| cover them, with a sign that keeps inf - inf out.
        thr = err - tol * (1 - np.copysign(4 * 2.0**-53, tol))
        # only a block whose floor is below thr can hold a defect
        bad = np.flatnonzero(~(c._floors() >= thr))
        for j, ii, kk, slack in _cone_slacks(f, s > 0, bad) if len(bad) \
                else ():
            for p, q in zip(*np.nonzero((slack < thr)
                                        | ~np.isfinite(slack))):
                i, k = int(ii[p]), int(kk[q])
                if d[i, k] < d[i, j] + d[j, k] - tol:
                    out.append(Violation("reverse-triangle", (i, j, k),
                                         _defect(d, i, j, k)))

        for i, j, gap in _indistinguishable(f, tol, d if exact else None):
            out.append(Violation("distinguishing", (i, j), gap))

        zero = np.abs(s) <= tol
        zi = np.flatnonzero(zero.all(axis=1) & zero.all(axis=0))
    if len(zi) >= 2:
        out.append(Violation("multiple-boundary", tuple(int(i) for i in zi), 0.0))

    # deterministic order regardless of the vectorized passes above
    order = {"negative-entry": 0, "diagonal": 1, "reverse-triangle": 2,
             "distinguishing": 3, "multiple-boundary": 4}
    out.sort(key=lambda v: (order[v.kind], v.witness))
    return ValidationReport(not out, tuple(out))


def _min_slack(d: np.ndarray, pos: np.ndarray, f: np.ndarray, err: float,
               floors: np.ndarray | None = None) -> float | Fraction:
    """Minimum of d(i,k) - d(i,j) - d(j,k) over pos(i,j), pos(j,k); +inf if
    no triple applies.  Computes exactly only the slacks whose float value
    (d_ik - d_ij) - d_jk, on the float image f with bound err, is within
    2 err of the least one, or not finite.

    The least finite floor (`_slack_floors` of f and pos, unless given)
    sets that threshold; only the blocks whose floor is within it or -inf
    are walked again, one at a time, so memory stays O(n^2).
    """
    floors = _slack_floors(f, pos) if floors is None else floors
    thr = floors[np.isfinite(floors)].min(initial=np.inf) + 2 * err
    best = None
    for j, ii, kk, s in _cone_slacks(f, pos, np.flatnonzero(floors <= thr)):
        p, q = np.nonzero((s <= thr) | ~np.isfinite(s))
        a, b = ii[p], kk[q]
        with np.errstate(invalid="ignore", over="ignore"):  # as in a loop
            v = (d[a, b] - d[a, j] - d[j, b]).min()
        if best is None or v < best:
            best = v
    return float("inf") if best is None else best


def reverse_triangle_slack(c: Causet) -> float | Fraction:
    """Minimum of d(i,k) - d(i,j) - d(j,k) over triples with d(i,j), d(j,k) > 0.

    Positive slack means every reverse-triangle inequality holds strictly;
    returns +inf when no triple applies.  Rational payloads are exact:
    float64 filter, exact refinement; float ones go through as_float.
    The filter is the causet's cached slack floors (see validate), filled
    here by one cone walk if no call has yet; only the points whose floor
    is -inf or within 2 E of the least one get their blocks walked again.
    """
    f, err = c._image[:2] if c.is_rational else (c.as_float(), 0.0)
    return _min_slack(c.d, c._positive(), f, err, c._floors())


def chronological_relation(c: Causet) -> set[tuple[int, int]]:
    """The relation I = {(i, j) : d(i, j) > 0}."""
    return {(int(i), int(j)) for i, j in np.argwhere(c._positive())}


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
    m = c.d[np.ix_(keep, keep)]
    labels = tuple(c.labels[i] for i in keep)
    return Causet(labels, m, boundary=None, meta=c.meta)


def induced(c: Causet, indices: Sequence[int]) -> Causet:
    """Sub-causet on the given point indices (order preserved)."""
    idx = _points(c.n, indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    m = c.d[np.ix_(idx, idx)]
    labels = tuple(c.labels[i] for i in idx)
    return Causet(labels, m, boundary=_detect_boundary(m), meta=None)


def distance_quotient(m: Causet | np.ndarray, tol: float = 0.0
                      ) -> tuple[Causet, list[int]]:
    """Merge points with identical distance rows and columns.

    Returns the quotient causet (representatives keep their labels, first
    occurrence wins) and the class map sending each input index to its
    output index.  Points whose rows and columns are within tol in the
    sup norm merge, and closeness is propagated transitively.  At tol = 0,
    and at any tol on a float payload, the merged pairs are exactly those
    `validate(m, tol)` reports as distinguishing; a Fraction payload at
    tol = 0 is compared exactly, past the float range too.  A float
    payload, and a Fraction one at tol != 0, go through `as_float`: a
    non-finite entry raises ValueError, and so does a NaN tol.
    """
    _check_tol(tol)
    c = m if isinstance(m, Causet) else Causet.from_matrix(m)
    exact = c.is_rational and tol == 0
    parent = list(range(c.n))  # union-find; a class's root is its first point

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in _indistinguishable(c._image[0] if exact else c.as_float(),
                                      tol, c.d if exact else None):
        a, b = sorted((root(i), root(j)))
        parent[b] = a
    reps, class_map = np.unique(np.array([root(x) for x in range(c.n)],
                                         dtype=np.intp), return_inverse=True)
    q = c.d[np.ix_(reps, reps)]
    labels = tuple(c.labels[r] for r in reps)
    out = Causet(labels, q, boundary=_detect_boundary(q), meta=c.meta)
    return out, class_map.tolist()


def _profile_mismatch(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """mismatch[x, y]: sorted-profile sup gap, a heuristic match cost.

    Profiles are padded at the front with zeros to a common length k and
    stored coordinate first, so the sup runs over the leading axis; the
    gaps are taken a few rows x at a time, so memory stays
    O(m n + (m + n) k).
    """
    m, n = len(da), len(db)
    k = max(m, n)

    def profiles(d):  # column x: the sorted row, then the sorted column
        p = np.zeros((2, k, len(d)))
        p[0, k - len(d):] = np.sort(d, axis=1).T
        p[1, k - len(d):] = np.sort(d, axis=0)
        return p.reshape(2 * k, len(d))

    pa, pb = profiles(da), profiles(db)
    out = np.empty((m, n))
    # rows x per chunk: at most max(m n + (m + n) k, 2**15) + 2 n k gaps
    step = max(1, max(m * n + (m + n) * k, 2**15) // max(1, 2 * n * k))
    for s in range(0, m, step):
        gap = pa[:, s:s + step, None] - pb[:, None]
        np.abs(gap, out=gap)
        gap.max(axis=0, out=out[s:s + step])
    return out


def _isometries(a: Causet, b: Causet, tol: float
                ) -> Iterator[tuple[int, ...]]:
    """The bijections of find_isometries, one at a time, in its order; a
    NaN tol raises ValueError at the first one asked for."""
    _check_tol(tol)
    n = a.n
    if b.n != n:
        return
    da, db = a.as_float(), b.as_float()
    # the sorted row and column multisets of x and of its image agree
    # within tol
    candidates = [np.flatnonzero(row).tolist()
                  for row in _profile_mismatch(da, db) <= tol]
    order = sorted(range(n), key=lambda x: len(candidates[x]))
    mapping = [-1] * n
    used = [False] * n

    def backtrack(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(mapping)
            return
        x = order[pos]
        for y in candidates[x]:
            if not used[y] and all(
                    abs(da[x, xp] - db[y, mapping[xp]]) <= tol
                    and abs(da[xp, x] - db[mapping[xp], y]) <= tol
                    for xp in order[:pos]):
                mapping[x] = y
                used[y] = True
                yield from backtrack(pos + 1)
                used[y] = False
                mapping[x] = -1

    yield from backtrack(0)


def find_isometries(a: Causet, b: Causet, tol: float = DEFAULT_TOL
                    ) -> list[tuple[int, ...]]:
    """All bijections a -> b preserving d in both directions within tol.

    Backtracking search; candidate images are pruned by comparing sorted
    row and column multisets, and points with the fewest candidates are
    assigned first.  A NaN tol raises ValueError.
    """
    return list(_isometries(a, b, tol))
