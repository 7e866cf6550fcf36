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

from .correspondence import Correspondence, _min_distortion, _pullback, _require_within_cap
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


def _slice(dx: np.ndarray, dy: np.ndarray, labels: tuple[str, ...], t: float) -> FiniteMetricSpace:
    t = float(t)
    # a convex combination of two normal-form matrices is in normal form
    return FiniteMetricSpace._trusted(labels, (1.0 - t) * dx + t * dy, f"geodesic(t={t})")


def geodesic_slice(
    R: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace, t: float
) -> FiniteMetricSpace:
    """The slice R_t for t in [0, 1], as a space of the strictest kind that holds."""
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"t = {t!r} outside [0, 1]")
    return _slice(*pullback_matrices(R, x, y), t)


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

    Runs the exact solver's value search only, with no witness search, so
    both values are the exact solver's bit for bit.  R is pulled back once
    and both slices are built from that pullback.  d_GH(X, Y) is searched
    from R itself, which for an optimal R is one cover search that finds
    nothing, or none when the diameter bound |diam X - diam Y| / 2 already
    equals it; d_GH(R_t, R_s) likewise from the diagonal {(r, r)} of
    R_t x R_s, which is usually optimal too.  The searches are capped like
    the solver's: |R|^2 and len(x) * len(y) slots within MAX_EXACT_BITS.
    Raises NotOptimalCorrespondence when half the distortion of R does not
    match the exact GH distance of (X, Y).
    """
    for v in (t, s):
        if not 0.0 <= v <= 1.0:
            raise ParameterOutOfRange(f"parameter {v!r} outside [0, 1]")
    k, n = len(R), len(y)
    _require_within_cap(k * k, "|R|^2")
    _require_within_cap(len(x) * n)
    dx, dy, labels = pullback_matrices(R, x, y)
    half_dis = 0.5 * float(np.abs(dx - dy).max())
    base = 0.5 * _min_distortion(x, y, [i * n + j for i, j in R.pairs])[0]
    if abs(half_dis - base) > OPTIMALITY_TOL:
        raise NotOptimalCorrespondence(
            f"half distortion {half_dis!r} differs from d_GH = {base!r}"
        )
    slice_t, slice_s = _slice(dx, dy, labels, t), _slice(dx, dy, labels, s)
    diagonal = list(range(0, k * k, k + 1))  # slot r*k + r holds the pair (r, r)
    actual = 0.5 * _min_distortion(slice_t, slice_s, diagonal)[0]
    return SliceGHCheck(expected=abs(t - s) * base, actual=actual)
