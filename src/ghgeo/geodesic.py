"""Rectilinear geodesic slices between two finite metric spaces.

For a correspondence R between X and Y, the slice at parameter t is the set
R with the interpolated distance

    |(x,y),(x',y')|_t = (1-t)|xx'| + t|yy'|,

so t = 0 reproduces the X-distances pulled back through the first projection
and t = 1 the Y-distances through the second.  For an optimal R this family
is a shortest curve between X and Y: the GH distance between slices scales
linearly, d_GH(R_t, R_s) = |t-s| * d_GH(X, Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import (
    Correspondence,
    _pullback,
    _require_within_cap,
    distortion,
    gh_distance_exact,
)
from .errors import NotOptimalCorrespondence, ParameterOutOfRange
from .metric_core import FiniteMetricSpace

# half-distortion must match the exact GH value this closely for the
# correspondence to count as optimal
OPTIMALITY_TOL = 1e-12


def pullback_matrices(
    R: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Distance matrices of X and Y pulled back to the elements of R.

    Elements of R are ordered by sorted pair; labels are composed as
    "(<x label>,<y label>)".
    """
    ps, dx, dy = _pullback(R, x, y)
    labels = tuple(f"({x.labels[i]},{y.labels[j]})" for i, j in ps)
    return dx, dy, labels


@dataclass(frozen=True, eq=False)
class GeodesicSlice:
    """The set R with the metric interpolated at parameter t."""

    corr: Correspondence
    t: float
    dx: np.ndarray
    dy: np.ndarray
    labels: tuple[str, ...]

    @property
    def matrix(self) -> np.ndarray:
        return (1.0 - self.t) * self.dx + self.t * self.dy

    def distance(self, p: int, q: int) -> float:
        return float((1.0 - self.t) * self.dx[p, q] + self.t * self.dy[p, q])

    def __len__(self) -> int:
        return self.dx.shape[0]

    def as_space(self) -> FiniteMetricSpace:
        """Export as a space; kind is the strictest that holds for the matrix."""
        m = self.matrix
        n = m.shape[0]
        off = m[~np.eye(n, dtype=bool)] if n > 1 else np.array([1.0])
        kind = "metric" if bool((off > 0.0).all()) else "pseudometric"
        return FiniteMetricSpace(
            labels=self.labels, dist=m, kind=kind, name=f"geodesic(t={self.t})"
        )


def geodesic_slice(
    R: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace, t: float
) -> GeodesicSlice:
    """Build the slice R_t for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"t = {t!r} outside [0, 1]")
    dx, dy, labels = pullback_matrices(R, x, y)
    return GeodesicSlice(corr=R, t=float(t), dx=dx, dy=dy, labels=labels)


@dataclass(frozen=True)
class SliceGHCheck:
    """Expected vs. computed GH distance between two slices of one geodesic."""

    expected: float
    actual: float

    @property
    def error(self) -> float:
        return abs(self.actual - self.expected)


def slice_gh_check(
    R: Correspondence,
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    t: float,
    s: float,
) -> SliceGHCheck:
    """Compare d_GH(R_t, R_s) against |t-s| * d_GH(X, Y) for an optimal R.

    Both slices have |R| points, so the exact solver needs |R|^2 within its
    cap MAX_EXACT_BITS.
    Raises NotOptimalCorrespondence when half the distortion of R does not
    match the exact GH distance of (X, Y).
    """
    for v in (t, s):
        if not 0.0 <= v <= 1.0:
            raise ParameterOutOfRange(f"parameter {v!r} outside [0, 1]")
    _require_within_cap(len(R), len(R))
    base = gh_distance_exact(x, y)
    half_dis = 0.5 * distortion(R, x, y)
    if abs(half_dis - base.value) > OPTIMALITY_TOL:
        raise NotOptimalCorrespondence(
            f"half distortion {half_dis!r} differs from d_GH = {base.value!r}"
        )
    slice_t = geodesic_slice(R, x, y, t).as_space()
    slice_s = geodesic_slice(R, x, y, s).as_space()
    actual = gh_distance_exact(slice_t, slice_s).value
    return SliceGHCheck(expected=abs(t - s) * base.value, actual=actual)
