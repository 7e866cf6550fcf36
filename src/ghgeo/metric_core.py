"""Finite (pseudo)metric spaces, point subsets, and the Hausdorff distance.

A space is a list of labelled points together with a dense symmetric distance
matrix.  For nonempty subsets A, B of one space the module computes

    |xA| = min{|xa| : a in A}
    |AB| = min{|ab| : a in A, b in B}
    d_H(A, B) = max{ max_{a in A} |aB|, max_{b in B} |Ab| }

which is the classical Hausdorff distance.  Matrices are validated against
the metric axioms with an absolute tolerance, so distance matrices computed
from floating-point embeddings are accepted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    EmptySubset,
    MixedOwners,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
)

Kind = Literal["metric", "pseudometric"]

DEFAULT_TOL = 1e-9


def _frozen_matrix(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite set of labelled points with a (pseudo)metric distance matrix.

    ``kind`` records whether all off-diagonal distances are strictly positive
    ("metric") or zero distances between distinct points are allowed
    ("pseudometric").  Instances are immutable; the matrix is read-only.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    kind: Kind = "metric"
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        arr = _frozen_matrix(self.dist)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSquareMatrix(f"distance matrix has shape {arr.shape}")
        if arr.shape[0] != len(self.labels):
            raise ValueError(
                f"{len(self.labels)} labels for a {arr.shape[0]}-point matrix"
            )
        if self.kind not in ("metric", "pseudometric"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "dist", arr)

    def __len__(self) -> int:
        return self.dist.shape[0]

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def distance(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def diameter(self) -> float:
        return float(self.dist.max())

    def subset(self, indices: Iterable[int]) -> "PointSubset":
        return PointSubset(self, frozenset(int(i) for i in indices))

    def all_points(self) -> "PointSubset":
        return PointSubset(self, frozenset(range(len(self))))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "points": list(self.labels),
            "matrix": self.dist.tolist(),
        }


@dataclass(frozen=True, eq=False)
class PointSubset:
    """A nonempty set of point indices of one space."""

    owner: FiniteMetricSpace
    indices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))
        if not self.indices:
            raise EmptySubset("point subset is empty")
        n = len(self.owner)
        bad = [i for i in self.indices if i < 0 or i >= n]
        if bad:
            raise ValueError(f"subset indices {bad} out of range for n={n}")

    def sorted_indices(self) -> list[int]:
        return sorted(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# largest temporary of a blocked kernel (the triangle scan's value pass, the
# product build), in float64 elements: 1 MiB
BLOCK_ELEMENTS = 1 << 17


def _min_plus_deficit(d: np.ndarray) -> float:
    """max_{i,j} (d[i][j] - min_k (d[i][k] + d[k][j])) for a finite matrix.

    Equal to the worst deficit over all triples: the min-plus product holds
    one of the very sums the triple scan subtracts, and rounding of d - s is
    monotone in s.  An exactly symmetric d has a symmetric min-plus product,
    so each block of rows starting at row r needs only the columns j >= r.
    The block's sums live in one reused buffer of at most
    BLOCK_ELEMENTS elements (or one row, if a row is larger).
    """
    n = d.shape[0]
    dT = np.ascontiguousarray(d.T)
    symmetric = bool((d == dT).all())
    buf = np.empty(max(n * n, min(BLOCK_ELEMENTS, n**3)))
    worst = -math.inf
    r = 0
    while r < n:
        c0 = r if symmetric else 0
        rows = max(1, min(n - r, buf.size // ((n - c0) * n)))
        sums = buf[: rows * (n - c0) * n].reshape(rows, n - c0, n)
        np.add(d[r : r + rows, None, :], dT[None, c0:, :], out=sums)
        deficit = d[r : r + rows, c0:] - np.minimum.reduce(sums, axis=2)
        worst = max(worst, float(deficit.max()))
        r += rows
    return worst


def max_triangle_deficit(matrix) -> tuple[float, tuple[int, int, int]]:
    """Worst triangle deficit max_{i,j,k} (d[i][j] - d[i][k] - d[k][j]).

    Returns the deficit and the first triple (i, j, k) attaining it, in the
    order k ascending, then i * n + j.  The value is >= 0 for any matrix with
    zero diagonal (degenerate triples give exactly zero) and exceeds zero
    only on genuine violations.  A NaN entry makes the deficit NaN, with the
    first triple that meets one.

    A finite matrix costs one min-plus pass for the value and a scan over k
    that stops at the first k attaining it (at once on an exact metric,
    where k = 0 already gives 0).  Non-finite matrices take the full scan.
    """
    d = np.asarray(matrix, dtype=float)
    n = d.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        target = _min_plus_deficit(d) if n and np.isfinite(d).all() else None
        worst = -math.inf
        witness = (0, 0, 0)
        for k in range(n):
            v = d - (d[:, k : k + 1] + d[k : k + 1, :])
            flat = int(np.argmax(v))
            m = float(v.flat[flat])
            if math.isnan(m):  # argmax stops at the first NaN
                return m, (flat // n, flat % n, k)
            if m > worst:
                worst = m
                witness = (flat // n, flat % n, k)
                if m == target:
                    break
    return worst, witness


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
    """Check the (pseudo)metric axioms and build a validated space.

    ``kind`` is the weakest kind the caller will accept: demanding "metric"
    rejects zero off-diagonal entries, demanding "pseudometric" allows them.
    The returned space reports the strictest kind that actually holds.
    All checks use the absolute tolerance ``tol``, a finite number >= 0.
    """
    _check_tol(tol)
    d = np.array(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NonSquareMatrix(f"expected a square matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    n = d.shape[0]

    asym = float(np.abs(d - d.T).max()) if n else 0.0
    if asym > tol:
        i, j = np.unravel_index(int(np.argmax(np.abs(d - d.T))), d.shape)
        raise AsymmetricMatrix(
            f"d[{i}][{j}] = {d[i, j]!r} but d[{j}][{i}] = {d[j, i]!r}"
        )
    if float(d.min()) < -tol:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeEntry(f"d[{i}][{j}] = {d[i, j]!r} is negative")
    diag = np.abs(np.diag(d))
    if n and float(diag.max()) > tol:
        i = int(np.argmax(diag))
        raise NonzeroDiagonal(f"d[{i}][{i}] = {d[i, i]!r} is nonzero")

    deficit, (i, j, k) = max_triangle_deficit(d)
    if deficit > tol:
        raise TriangleViolation(i, j, k, deficit)

    off = d[~np.eye(n, dtype=bool)] if n > 1 else np.array([1.0])
    is_metric = bool((off > 0.0).all())
    if kind == "metric" and not is_metric:
        mask = (d <= 0.0) & ~np.eye(n, dtype=bool)
        i, j = np.argwhere(mask)[0]
        raise ZeroOffDiagonal(
            f"distinct points {i} and {j} at distance {d[i, j]!r}"
        )

    if labels is None:
        labels = [f"p{i}" for i in range(n)]
    return FiniteMetricSpace(
        labels=tuple(labels),
        dist=d,
        kind="metric" if is_metric else "pseudometric",
        name=name,
    )


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _check_owner(space: FiniteMetricSpace, *subsets: PointSubset) -> None:
    for s in subsets:
        if s.owner is not space:
            raise MixedOwners("subset does not belong to the given space")


def point_set_distance(space: FiniteMetricSpace, x: int, a: PointSubset) -> float:
    """|xA| = min over a in A of dist[x][a]."""
    _check_owner(space, a)
    if x < 0 or x >= len(space):
        raise ValueError(f"point index {x} out of range")
    idx = a.sorted_indices()
    return float(space.dist[x, idx].min())


def set_set_distance(space: FiniteMetricSpace, a: PointSubset, b: PointSubset) -> float:
    """|AB| = min over a in A, b in B of dist[a][b]."""
    _check_owner(space, a, b)
    sub = space.dist[np.ix_(a.sorted_indices(), b.sorted_indices())]
    return float(sub.min())


def hausdorff_distance(space: FiniteMetricSpace, a: PointSubset, b: PointSubset) -> float:
    """Hausdorff distance max{max_a |aB|, max_b |Ab|} between two subsets."""
    _check_owner(space, a, b)
    sub = space.dist[np.ix_(a.sorted_indices(), b.sorted_indices())]
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


def _parse_json(text: str):
    """json.loads, with nesting too deep for the parser reported as ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to parse") from None


def _float_array(value) -> np.ndarray:
    return np.array(value, dtype=float)


def space_from_json_dict(data: dict, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    what = "space JSON"
    name, points, matrix = _json_fields(data, what, ("name", "points", "matrix"))
    labels = _json_convert(lambda v: [str(s) for s in v], points, what, "points")
    matrix = _json_convert(_float_array, matrix, what, "matrix")
    return validate_metric(
        matrix, kind="pseudometric", tol=tol, labels=labels, name=str(name),
    )


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
