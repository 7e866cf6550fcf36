"""Exception hierarchy for the ghgeo library.

Every contract violation raises a subclass of :class:`GHGeoError`, so callers
(including the CLI) can distinguish library errors from programming bugs.
"""

from __future__ import annotations


class GHGeoError(Exception):
    """Base class for all ghgeo errors."""


# ---------------------------------------------------------------------------
# metric validation
# ---------------------------------------------------------------------------

class MetricValidationError(GHGeoError):
    """A distance matrix failed one of the (pseudo)metric axioms."""


class NonSquareMatrix(MetricValidationError):
    pass


class EmptyMatrix(MetricValidationError):
    """A 0 x 0 distance matrix: a space needs at least one point."""


class NonFiniteEntry(MetricValidationError):
    pass


class AsymmetricMatrix(MetricValidationError):
    pass


class NegativeEntry(MetricValidationError):
    pass


class NonzeroDiagonal(MetricValidationError):
    pass


class ZeroOffDiagonal(MetricValidationError):
    """Distinct points at distance zero, when a genuine metric was demanded."""


class TriangleViolation(MetricValidationError):
    """dist[i][j] exceeds dist[i][k] + dist[k][j] beyond the tolerance."""

    def __init__(self, i: int, j: int, k: int, deficit: float):
        self.i = i
        self.j = j
        self.k = k
        self.deficit = deficit
        super().__init__(
            f"triangle inequality violated: d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}] "
            f"by {deficit:.6g}"
        )


class EmptySubset(GHGeoError):
    """A point subset must contain at least one index."""


class MixedOwners(GHGeoError):
    """The two subsets belong to different metric spaces."""


# ---------------------------------------------------------------------------
# relations and correspondences
# ---------------------------------------------------------------------------

class InvalidRelation(GHGeoError):
    """Empty pair set or an index outside [0, m) x [0, n)."""


class NotSurjective(InvalidRelation):
    """A correspondence must project onto all of both index ranges."""


class SizeMismatch(GHGeoError):
    """Correspondence shape does not match the given spaces."""


class SearchSpaceTooLarge(GHGeoError):
    """Exhaustive search refused: m*n (or |R|^2 for a slice check) exceeds the hard cap."""


# ---------------------------------------------------------------------------
# geodesics and realization
# ---------------------------------------------------------------------------

class ParameterOutOfRange(GHGeoError):
    """Interpolation parameter outside the family's segment."""


class NotOptimalCorrespondence(GHGeoError):
    """The given correspondence does not attain the exact GH distance."""


class NonpositiveC(GHGeoError):
    """The vertical scale constant of the product metric must be positive."""


class DegenerateGeodesic(GHGeoError):
    """Distortion zero (isometric endpoints): no default c exists."""


class ConditionFailed(GHGeoError):
    """A sufficient condition for the product metric failed; carries both checks."""

    def __init__(self, monotone, lipschitz):
        self.monotone = monotone
        self.lipschitz = lipschitz
        failed = [c.condition for c in (monotone, lipschitz) if not c.ok]
        super().__init__(
            "product-metric condition(s) failed: " + ", ".join(failed)
        )
