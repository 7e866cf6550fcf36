"""Finite (pseudo)metric spaces and the Hausdorff distance.

A space is a list of labelled points together with a dense symmetric distance
matrix.  For nonempty sets A, B of point indices of one space the module
computes

    |xA| = min{|xa| : a in A}
    |AB| = min{|ab| : a in A, b in B}
    d_H(A, B) = max{ max_{a in A} |aB|, max_{b in B} |Ab| }

which is the classical Hausdorff distance.  Matrices are validated against
the metric axioms with an absolute tolerance, so distance matrices computed
from floating-point embeddings are accepted, and stored in one normal form:
exactly symmetric, nonnegative and zero on the diagonal.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    EmptyMatrix,
    EmptySubset,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
)

Kind = Literal["metric", "pseudometric"]

DEFAULT_TOL = 1e-9


def _finite_square(d: np.ndarray) -> np.ndarray:
    """``d``, once checked to be a nonempty square matrix of finite entries,
    as every matrix the library holds is; names the first non-finite one."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NonSquareMatrix(f"expected a square matrix, got shape {d.shape}")
    if d.size == 0:
        raise EmptyMatrix("distance matrix is empty (0 x 0)")
    finite = np.isfinite(d)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteEntry(f"d[{i}][{j}] = {float(d[i, j])!r} is not finite")
    return d


def _check_form(d: np.ndarray, tol: float) -> bool:
    """Raise unless the finite square ``d`` is symmetric, nonnegative and zero
    on the diagonal within ``tol``, naming the worst entry.  Returns whether
    ``d`` is exactly in that form, the normal form every space holds."""
    asym = np.abs(d - d.T)
    worst = float(asym.max())
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(asym)), d.shape)
        raise AsymmetricMatrix(f"d[{i}][{j}] = {d[i, j]!r} but d[{j}][{i}] = {d[j, i]!r}")
    low = float(d.min())
    if low < -tol:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeEntry(f"d[{i}][{j}] = {d[i, j]!r} is negative")
    diag = np.abs(d.diagonal())
    worst_diag = float(diag.max())
    if worst_diag > tol:
        i = int(np.argmax(diag))
        raise NonzeroDiagonal(f"d[{i}][{i}] = {d[i, i]!r} is nonzero")
    return worst == 0.0 and low >= 0.0 and worst_diag == 0.0


def _labels(labels: Iterable | None, n: int, prefix: str) -> tuple[str, ...]:
    """One string label per point, ``prefix`` and the index by default, by
    the file loaders' rule: no str(), which would read 1 as the label "1"."""
    if labels is None:
        return tuple(f"{prefix}{i}" for i in range(n))
    labels = tuple(map(_json_str, labels))
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} points")
    return labels


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite set of labelled points with a (pseudo)metric distance matrix.

    ``kind`` is derived from the matrix: "metric" when all off-diagonal
    distances are strictly positive, "pseudometric" when distinct points may
    be at distance zero.  The matrix is finite and in normal form: exactly
    symmetric, nonnegative and zero on the diagonal.  Instances are
    immutable; the matrix is read-only.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    kind: Kind = field(init=False)
    name: str = ""

    def __post_init__(self):
        arr = _finite_square(np.array(self.dist, dtype=float))
        object.__setattr__(self, "labels", _labels(self.labels, arr.shape[0], "p"))
        _check_form(arr, 0.0)
        self._freeze(arr)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], dist: np.ndarray, name: str) -> "FiniteMetricSpace":
        """A space over ``dist``, a fresh float matrix already in normal form
        with one label per row, frozen in place: no copy and no check."""
        space = object.__new__(cls)
        object.__setattr__(space, "labels", labels)
        object.__setattr__(space, "name", name)
        space._freeze(dist)
        return space

    def _freeze(self, arr: np.ndarray) -> None:
        """Store ``arr`` read-only and derive ``kind`` from it."""
        arr.setflags(write=False)
        object.__setattr__(self, "dist", arr)
        n = arr.shape[0]
        strict = np.count_nonzero(arr > 0.0) == n * (n - 1)  # the diagonal is 0
        object.__setattr__(self, "kind", "metric" if strict else "pseudometric")

    def __len__(self) -> int:
        return self.dist.shape[0]

    def distance(self, i: int, j: int) -> float:
        [i], [j] = _point_indices(self, (i,)), _point_indices(self, (j,))
        return float(self.dist[i, j])

    def diameter(self) -> float:
        return float(self.dist.max())

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "points": list(self.labels),
            "matrix": self.dist.tolist(),
        }


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# largest temporary of the triangle scan's blocked value pass, in float64
# elements: 1 MiB
BLOCK_ELEMENTS = 1 << 17


@np.errstate(over="ignore")
def _min_plus_deficit(
    d: np.ndarray, above: float = -math.inf
) -> tuple[float, tuple[int, int, int] | None]:
    """The worst triangle deficit of a finite matrix and, unless it is below
    ``above``, the first triple (i, j, k) attaining it, in the order k
    ascending, then i * n + j.  Sums beyond the float range read as infinities.

    max_{i,j} (d[i][j] - min_k (d[i][k] + d[k][j])) is the worst deficit
    over all triples: the min-plus product holds one of the very sums the
    triple scan subtracts, and rounding of d - s is monotone in s.  An
    exactly symmetric d has a symmetric min-plus product, so each block of
    rows starting at row r needs only the columns j >= r, which hold the
    first pair (i <= j) of every mirrored one.  The block's sums live in one
    reused buffer of at most BLOCK_ELEMENTS elements (or one row, if a row
    is larger).  The block's pairs attaining the worst value so far are read
    again from its sums, for the k below the best witness so far: earlier
    blocks hold smaller i * n + j.
    """
    n = d.shape[0]
    dT = np.ascontiguousarray(d.T)
    symmetric = bool((d == dT).all())
    buf = np.empty(max(n * n, min(BLOCK_ELEMENTS, n**3)))
    worst, k_best, witness = -math.inf, n, None
    r = 0
    while r < n:
        c0 = r if symmetric else 0
        rows = max(1, min(n - r, buf.size // ((n - c0) * n)))
        sums = buf[: rows * (n - c0) * n].reshape(rows, n - c0, n)
        np.add(d[r : r + rows, None, :], dT[None, c0:, :], out=sums)
        block = d[r : r + rows, c0:]
        deficit = block - np.minimum.reduce(sums, axis=2)
        top = float(deficit.max())
        if top > worst:
            worst, k_best = top, n
        if top == worst and top >= above and k_best:
            a, b = np.nonzero(deficit == top)
            v = block[a, b][:, None] - sums[a, b, :k_best]
            # transposed, nonzero runs k first, then the pairs in order
            k, hit = np.nonzero((v == top).T)
            if k.size:
                k_best, h = int(k[0]), hit[0]
                witness = float(v[h, k_best]), (r + int(a[h]), c0 + int(b[h]), k_best)
        r += rows
    return witness or (worst, None)


def max_triangle_deficit(matrix) -> tuple[float, tuple[int, int, int]]:
    """Worst triangle deficit max_{i,j,k} (d[i][j] - d[i][k] - d[k][j]) of a
    nonempty square matrix of finite entries.

    Returns the deficit and the first triple (i, j, k) attaining it, in the
    order k ascending, then i * n + j, from one min-plus pass.  The value is
    >= 0 for any matrix with zero diagonal (degenerate triples give exactly
    zero) and exceeds zero only on genuine violations.  Any other matrix
    raises NonSquareMatrix, EmptyMatrix or NonFiniteEntry.
    """
    return _min_plus_deficit(_finite_square(np.asarray(matrix, dtype=float)))


def _check_tol(tol: float) -> None:
    """Every axiom check reads ``value > tol``, which a NaN tol never fails."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol = {tol!r} must be finite and >= 0")


def validate_metric(
    matrix,
    kind: Kind = "pseudometric",
    tol: float = DEFAULT_TOL,
    labels: Sequence[str] | None = None,
    name: str = "",
) -> FiniteMetricSpace:
    """Check the (pseudo)metric axioms on ``matrix`` with the absolute
    tolerance ``tol`` (finite, >= 0) and build a space holding its normal
    form max(d, d.T, 0) with a zero diagonal, whose worst triangle deficit is
    at most max(d's, 0).  ``kind`` is the weakest kind the caller accepts:
    "metric" rejects zero off-diagonal entries of the stored matrix.  The
    space reports the strictest kind that holds.
    """
    _check_tol(tol)
    d = _finite_square(np.array(matrix, dtype=float))
    labels = _labels(labels, len(d), "p")
    exact = _check_form(d, tol)
    deficit, witness = _min_plus_deficit(d, above=tol)
    if deficit > tol:
        raise TriangleViolation(*witness, deficit)

    # a matrix already in normal form is kept bit for bit, signed zeros
    # included; np.maximum(-0.0, 0.0) reads 0.0
    normal = d
    if not exact:
        normal = np.maximum(d, d.T)
        np.maximum(normal, 0.0, out=normal)
        np.fill_diagonal(normal, 0.0)

    space = FiniteMetricSpace._trusted(labels, normal, name)
    if kind == "metric" and space.kind != "metric":
        mask = (normal <= 0.0) & ~np.eye(len(d), dtype=bool)
        i, j = np.argwhere(mask)[0]
        raise ZeroOffDiagonal(
            f"distinct points {i} and {j} at distance {d[i, j]!r}"
        )
    return space


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _point_indices(space: FiniteMetricSpace, points: Iterable) -> list[int]:
    """The distinct indices of ``points``, sorted.  Any integer but a bool is
    an index, numpy integers included: int() would read 1.9 and True as 1,
    and numpy would read -1 as the last point."""
    idx = set()
    for i in points:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"point index {i!r} is not an integer")
        idx.add(int(i))
    if not idx:
        raise EmptySubset("point subset is empty")
    n = len(space)
    idx = sorted(idx)
    bad = [i for i in idx if not 0 <= i < n]
    if bad:
        raise ValueError(f"subset indices {bad} out of range for n={n}")
    return idx


def point_set_distance(space: FiniteMetricSpace, x: int, a: Iterable[int]) -> float:
    """|xA| = min over a in A of dist[x][a]."""
    [x] = _point_indices(space, (x,))
    return float(space.dist[x, _point_indices(space, a)].min())


def set_set_distance(space: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]) -> float:
    """|AB| = min over a in A, b in B of dist[a][b]."""
    sub = space.dist[np.ix_(_point_indices(space, a), _point_indices(space, b))]
    return float(sub.min())


def hausdorff_distance(space: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]) -> float:
    """Hausdorff distance max{max_a |aB|, max_b |Ab|} between two point sets."""
    sub = space.dist[np.ix_(_point_indices(space, a), _point_indices(space, b))]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _json_fields(data, what: str, keys: Sequence[str]) -> list:
    """The values of ``keys`` in the JSON object ``data``.

    Raises ValueError, naming ``what``, when ``data`` is not an object or
    lacks one of the keys.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the {key!r} field")
    return [data[key] for key in keys]


def _json_convert(convert, value, what: str, key: str):
    """convert(value); a value of the wrong type raises ValueError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} field {key!r} is invalid: {exc}") from None


def _json_int(value) -> int:
    """A JSON integer as int; int() would truncate 1.9 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _json_float(value) -> float:
    """A JSON number as float; float() would read "1.5" as 1.5 and false as 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _json_str(value) -> str:
    """A JSON string; str() would read 1 and null as labels "1" and "None"."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _parse_json(text: str):
    """json.loads, with nesting too deep for the parser reported as ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to parse") from None


# the types json.loads gives a number; bool, a subclass of int, is not one
_JSON_NUMBERS = frozenset({float, int})


def _float_array(value) -> np.ndarray:
    """A JSON matrix as a float array.  np.array reads "1.5" and false as
    numbers, even mixed into a row of floats, so each row's types are read."""
    arr = np.array(value, dtype=float)
    if arr.ndim == 2:
        for row in value:
            if not _JSON_NUMBERS.issuperset(map(type, row)):
                for v in row:
                    _json_float(v)
    return arr


def space_from_json_dict(data: dict, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    what = "space JSON"
    name, points, matrix = _json_fields(data, what, ("name", "points", "matrix"))
    name = _json_convert(_json_str, name, what, "name")
    # a string or an object would iterate as labels
    if not isinstance(points, list):
        raise ValueError(f"{what} field 'points' must be an array, got {type(points).__name__}")
    labels = [_json_convert(_json_str, s, what, "points") for s in points]
    matrix = _json_convert(_float_array, matrix, what, "matrix")
    return validate_metric(matrix, kind="pseudometric", tol=tol, labels=labels, name=name)


def space_from_text(text: str, tol: float = DEFAULT_TOL, name: str = "") -> FiniteMetricSpace:
    """Parse a whitespace-separated square matrix; labels default to p0, p1, ..."""
    rows = [[float(x) for x in line.split()] for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    return validate_metric(rows, kind="pseudometric", tol=tol, name=name)


def load_space(path: str | Path, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Load a space from JSON ({"name", "points", "matrix"}) or plain text."""
    p = Path(path)
    text = p.read_text()
    if text.lstrip().startswith("{"):
        return space_from_json_dict(_parse_json(text), tol=tol)
    return space_from_text(text, tol=tol, name=p.stem)


def dump_space(space: FiniteMetricSpace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(space.to_json_dict(), indent=2) + "\n")
