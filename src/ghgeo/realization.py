"""Product metrics on Z x [a,b] realizing interpolation families of metrics.

Given a one-parameter family of (pseudo)metrics rho_t on a finite ground set
Z and a constant c > 0, the product distance between (z1, t) and (z2, s) is

    min over z in Z of ( |z1 z|_t + |z z2|_s )  +  c|t - s|.

Its restriction to each slice Z x {t} reproduces rho_t, every vertical fiber
{z} x [a,b] carries the distance c|t - s|, and the minimum set distance
between two slices is c|t - s|.  Two sufficient conditions make it a metric:

  1. monotonicity: t -> |zz'|_t is monotone for every pair z, z';
  2. a two-sided Lipschitz bound: | |zz'|_t - |zz'|_s | <= 2c|t - s|.

For the rectilinear family of a correspondence R between metric spaces X and
Y, every pairwise distance is affine in t with slope dy - dx, so condition 1
holds identically and condition 2 holds exactly when max|dy - dx| <= 2c,
i.e. for any c >= half the distortion of R.  With c = dis(R)/2 and R optimal,
the Hausdorff distance between slices equals d_GH(X, Y) * |t - s|: the
geodesic is realized as a shortest curve in Hausdorff distance.

All verification here is numeric and grid-based: the continuum statement is
certified on the chosen parameter grid only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .correspondence import Correspondence
from .errors import (
    ConditionFailed,
    DegenerateGeodesic,
    NonFiniteEntry,
    NonpositiveC,
    ParameterOutOfRange,
)
from .geodesic import pullback_matrices
from .metric_core import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    _check_tol,
    _finite_square,
    _float_array,
    _json_convert,
    _json_fields,
    _json_float,
    _json_int,
    _json_str,
    _labels,
    _parse_json,
    _ReadOnlyArrays,
    max_triangle_deficit,
    validate_metric,
)

# restriction / fiber identities hold by construction; they are checked at
# a much tighter tolerance than the triangle and Hausdorff certificates
IDENTITY_TOL = 1e-12

# number of parameter values in the default uniform grid on [0, 1]
DEFAULT_GRID_SIZE = 11


# ---------------------------------------------------------------------------
# interpolation families
# ---------------------------------------------------------------------------

class CallableFamily(_ReadOnlyArrays):
    """An immutable one-parameter family of pseudometric matrices: a ground
    set of ``ground_size`` points, a segment [a, b] and a matrix-valued
    function of t.  Constructors store attributes through ``vars(self)``."""

    def __init__(
        self,
        ground_size: int,
        a: float,
        b: float,
        fn: Callable[[float], np.ndarray],
        labels: Sequence[str] | None = None,
    ):
        what = type(self).__name__
        ground_size = _json_convert(_json_int, ground_size, what, "ground_size")
        if ground_size <= 0:
            raise ValueError("ground set must be nonempty")
        a = _json_convert(_json_float, a, what, "a")
        b = _json_convert(_json_float, b, what, "b")
        # finite ends, as ParamGrid's values are; a NaN fails a < b as well
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
        labels = _labels(labels, ground_size, "z")
        vars(self).update(a=a, b=b, ground_size=ground_size, labels=labels, _fn=fn)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; {name!r} cannot change")

    __delattr__ = __setattr__

    def dist_at(self, t: float) -> np.ndarray:
        if not self.a <= t <= self.b:
            raise ParameterOutOfRange(f"t = {t!r} outside [{self.a}, {self.b}]")
        m = np.asarray(self._fn(float(t)), dtype=float)
        if m.shape != (self.ground_size, self.ground_size):
            raise ValueError(f"family evaluator returned shape {m.shape}")
        return m


class RectilinearFamily(CallableFamily):
    """Affine interpolation (1-t)*dx + t*dy on [0, 1].

    dx and dy are the distance matrices of the two endpoint spaces pulled
    back to a common ground set, e.g. the elements of a correspondence.  The
    function is a bound method, so the family pickles and deep-copies.
    """

    def __init__(self, dx, dy, labels: Sequence[str] | None = None):
        dx = np.array(dx, dtype=float)
        dy = np.array(dy, dtype=float)
        if dx.shape != dy.shape or dx.ndim != 2 or dx.shape[0] != dx.shape[1]:
            raise ValueError("dx and dy must be square matrices of equal shape")
        super().__init__(dx.shape[0], 0.0, 1.0, self._affine, labels)
        dx.setflags(write=False)
        dy.setflags(write=False)
        vars(self).update(dx=dx, dy=dy)

    @classmethod
    def from_correspondence(
        cls, R: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace
    ) -> "RectilinearFamily":
        dx, dy, labels = pullback_matrices(R, x, y)
        return cls(dx, dy, labels)

    def _affine(self, t: float) -> np.ndarray:
        return (1.0 - t) * self.dx + t * self.dy

    @property
    def slopes(self) -> np.ndarray:
        return self.dy - self.dx

    def max_abs_slope(self) -> float:
        return float(np.abs(self.slopes).max())


# ---------------------------------------------------------------------------
# parameter grids
# ---------------------------------------------------------------------------

def _json_floats(values) -> tuple[float, ...]:
    return tuple(map(_json_float, values))


@dataclass(frozen=True)
class ParamGrid:
    """Finite, strictly increasing parameter values spanning [values[0], values[-1]]."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = _json_convert(_json_floats, self.values, "ParamGrid", "values")
        if len(vals) < 2:
            raise ValueError("a grid needs at least two values")
        # a NaN fails every comparison, so each value is tested for finiteness
        if not (all(map(math.isfinite, vals)) and all(s < t for s, t in zip(vals, vals[1:]))):
            raise ValueError("grid values must be finite and strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, count: int = DEFAULT_GRID_SIZE) -> "ParamGrid":
        """``count`` equally spaced values on [0, 1], the segment of every
        rectilinear family."""
        count = _json_convert(_json_int, count, "ParamGrid.uniform", "count")
        if count < 2:
            raise ValueError("a grid needs at least two values")
        return cls(tuple(np.linspace(0.0, 1.0, count).tolist()))

    @property
    def a(self) -> float:
        return self.values[0]

    @property
    def b(self) -> float:
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def _check_c(c: float) -> None:
    """The vertical scale must be finite and > 0.

    A NaN c would turn every c-dependent error into NaN or 0, and an
    infinite one makes each same-slice block inf * 0 = NaN.
    """
    if not 0.0 < c < math.inf:
        raise NonpositiveC(f"c = {c!r} must be positive and finite")


def _check_overflow(top: float, c: float, grid: ParamGrid) -> None:
    """Refuse a product whose entries could overflow: with every slice entry
    at most ``top``, every product entry is at most 2 * top + c * (b - a)."""
    if not math.isfinite(2.0 * top + float(c) * (grid.b - grid.a)):
        raise NonFiniteEntry(f"product entries overflow for slice entry {top!r} and c = {c!r}")


@dataclass(frozen=True)
class ConditionWitness:
    """Ground pair (z1, z2) and parameters (t, s) where a check is worst."""

    z1: int
    z2: int
    t: float
    s: float


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one sufficient-condition check.

    ``worst`` is the violation magnitude (0 when clean); ``max_slope`` is the
    largest observed |d/dt| of a pairwise distance, exact for the closed-form
    method and a grid difference quotient otherwise.
    """

    condition: str  # "monotone" | "lipschitz"
    method: str  # "grid" | "closed_form"
    ok: bool
    worst: float
    witness: ConditionWitness | None
    tol: float
    max_slope: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def run_condition_checks(
    family: CallableFamily, c: float, grid: ParamGrid, tol: float = DEFAULT_TOL
) -> tuple[ConditionCheck, ConditionCheck]:
    """Check monotonicity and the 2c-Lipschitz bound in one pass over grid pairs.

    For each pair the monotone violation is min(worst drop, worst rise) over
    grid parameter pairs: the smaller residual of the two monotone readings.
    The Lipschitz deficit is | |zz'|_t - |zz'|_s | - 2c|t - s|.  Every
    pairwise distance of an affine family is affine in t, so the same pass on
    the segment's endpoints (a, b) decides both conditions exactly; it runs
    at tol = 0 and is labelled "closed_form".  A non-finite slice raises
    NonFiniteEntry.
    """
    _check_c(c)
    if isinstance(family, RectilinearFamily):
        ts, tol, method = (family.a, family.b), 0.0, "closed_form"
    else:
        ts, method = grid.values, "grid"
    tv = np.array(ts)
    k = len(ts)
    f = np.stack([_finite_square(family.dist_at(t)) for t in ts])
    drop = np.zeros(f.shape[1:])
    rise = np.zeros(f.shape[1:])
    raw = -math.inf
    slopes = []
    at = None
    for a in range(k - 1):
        diff = f[a] - f[a + 1 :]  # against every later grid value at once
        np.maximum(drop, diff.max(axis=0), out=drop)
        np.maximum(rise, -diff.min(axis=0), out=rise)
        dt = tv[a + 1 :] - tv[a]
        g = np.abs(diff)
        slopes.append((g.max(axis=(1, 2)) / dt).max())
        # 2c(b - a) may overflow where c(b - a) does not; an infinite
        # budget admits every pair, which is the right answer
        with np.errstate(over="ignore"):
            budget = 2.0 * c * dt
        deficit = g - budget[:, None, None]
        flat = int(np.argmax(deficit))  # first in (b, z1, z2) order
        m = float(deficit.flat[flat])
        if m > raw:
            raw = m
            b, z1, z2 = np.unravel_index(flat, deficit.shape)
            at = (int(z1), int(z2), a, a + 1 + int(b))

    viol = np.minimum(drop, rise)
    worst = float(viol.max())
    if worst <= 0.0:
        worst = 0.0
    witness = None
    if worst > 0.0:
        z1, z2 = np.unravel_index(int(np.argmax(viol)), viol.shape)
        z1, z2 = int(z1), int(z2)
        g = f[:, z1, z2]
        v = g[:, None] - g[None, :]  # v[a, b] = f[a] - f[b], read for a < b
        if drop[z1, z2] > rise[z1, z2]:
            v = -v
        v[np.tril_indices(k)] = -math.inf
        a, b = np.unravel_index(int(np.argmax(v)), v.shape)
        witness = ConditionWitness(z1, z2, ts[a], ts[b])
    mono = ConditionCheck("monotone", method, worst <= tol, worst, witness, tol)

    witness = None
    if raw > 0.0:
        z1, z2, a, b = at
        if f[a, z1, z2] < f[b, z1, z2]:
            a, b = b, a
        witness = ConditionWitness(z1, z2, ts[a], ts[b])
    worst = 0.0 if raw <= 0.0 else raw
    lips = ConditionCheck(
        "lipschitz", method, raw <= tol, worst, witness, tol, float(np.max(slopes))
    )
    return mono, lips


# ---------------------------------------------------------------------------
# the product space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductSpace(_ReadOnlyArrays):
    """The finite product Z x grid with the shortcut-plus-vertical metric.

    Points are ordered slice-major: index k * |Z| + z is ground point z at
    grid value number k.
    """

    family: CallableFamily
    c: float
    grid: ParamGrid
    dist: np.ndarray

    @property
    def ground_size(self) -> int:
        return self.family.ground_size

    def point_index(self, z: int, grid_pos: int) -> int:
        return grid_pos * self.ground_size + z

    def slice_indices(self, grid_pos: int) -> range:
        z = self.ground_size
        return range(grid_pos * z, (grid_pos + 1) * z)

    def slice_matrix(self, grid_pos: int) -> np.ndarray:
        idx = self.slice_indices(grid_pos)
        return self.dist[idx.start : idx.stop, idx.start : idx.stop]

    def to_json_dict(self) -> dict:
        labels = self.family.labels
        return {
            "c": self.c,
            "grid": list(self.grid.values),
            "points": [
                {"z": z, "label": labels[z], "t": t}
                for t in self.grid.values
                for z in range(self.ground_size)
            ],
            "matrix": self.dist.tolist(),
        }


def build_product(
    family: CallableFamily,
    c: float,
    grid: ParamGrid,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> ProductSpace:
    """Materialize the full product distance matrix over Z x grid.

    Each slice of the family is validated as a pseudometric first; a product
    whose entries could overflow raises NonFiniteEntry.  The two
    sufficient conditions are checked (closed-form for affine families) and
    failure raises ConditionFailed unless ``force`` is set, in which case the
    product is built anyway and verification will report the violations.
    """
    _check_c(c)
    _check_tol(tol)
    if grid.a != family.a or grid.b != family.b:
        raise ParameterOutOfRange(
            f"grid spans [{grid.a}, {grid.b}] but the family is defined on "
            f"[{family.a}, {family.b}]"
        )
    stacked = np.stack([family.dist_at(t) for t in grid.values])
    for t, mat in zip(grid.values, stacked):
        validate_metric(mat, kind="pseudometric", tol=tol, name=f"slice(t={t})")
    _check_overflow(float(stacked.max()), c, grid)

    mono, lips = run_condition_checks(family, c, grid, tol)
    if not (mono.ok and lips.ok) and not force:
        raise ConditionFailed(mono, lips)

    # d[(i, a), (j, b)] = min_m rho_i[a, m] + rho_j[m, b] + c|t_i - t_j|: the
    # min-plus product of the slices stacked as rows with the slices stacked
    # as columns, one in-place minimum per m
    z = family.ground_size
    k = len(grid)
    rows = stacked.reshape(k * z, z)
    cols = stacked.transpose(1, 0, 2).reshape(z, k * z)
    d = rows[:, :1] + cols[:1]
    sums = np.empty_like(d)
    for m in range(1, z):
        np.add(rows[:, m : m + 1], cols[m : m + 1], out=sums)
        np.minimum(d, sums, out=d)
    ts = np.array(grid.values)
    blocks = d.reshape(k, z, k, z)
    blocks += (c * np.abs(ts[:, None] - ts[None, :]))[:, None, :, None]
    # each block below the diagonal is the transpose of its mirror, as for
    # symmetric slices, also where the slices are symmetric only within tol
    np.copyto(sums, d.T)
    below = np.tri(k, k, -1, dtype=bool)[:, None, :, None]
    np.copyto(blocks, sums.reshape(k, z, k, z), where=below)
    d.setflags(write=False)
    return ProductSpace(family=family, c=float(c), grid=grid, dist=d)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Numeric certificate for one product space.

    Deviations are absolute.  ``passed`` requires the sufficient conditions
    to hold, the triangle scan and both slice-distance identities to stay
    within ``tol``, the restriction and fiber identities within the stricter
    IDENTITY_TOL, and exact symmetry and zero diagonal.
    """

    monotone: ConditionCheck
    lipschitz: ConditionCheck
    max_triangle_violation: float
    triangle_witness: tuple[int, int, int] | None
    slice_hausdorff_max_error: float
    slice_min_distance_max_error: float
    restriction_max_error: float
    fiber_max_error: float
    symmetry_error: float
    diagonal_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.monotone.ok
            and self.lipschitz.ok
            and self.max_triangle_violation <= self.tol
            and self.slice_hausdorff_max_error <= self.tol
            and self.slice_min_distance_max_error <= self.tol
            and self.restriction_max_error <= IDENTITY_TOL
            and self.fiber_max_error <= IDENTITY_TOL
            and self.symmetry_error == 0.0
            and self.diagonal_error == 0.0
        )

    def to_json_dict(self) -> dict:
        """The fields in declaration order, then ``passed``."""
        data = asdict(self)
        if self.triangle_witness is not None:
            data["triangle_witness"] = list(self.triangle_witness)
        data["passed"] = self.passed
        return data


def verify_product(prod: ProductSpace, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Re-derive every certificate of a product from its distance matrix.

    Scans all point triples for triangle violations, compares slice-to-slice
    Hausdorff and minimum distances against c|t - s|, and checks the
    restriction and vertical-fiber identities.  Never raises on failures;
    everything is reported.  A non-finite entry raises NonFiniteEntry.
    """
    _check_tol(tol)
    d = prod.dist
    z = prod.ground_size
    ts = prod.grid.values
    k = len(ts)
    c = prod.c

    mono, lips = run_condition_checks(prod.family, c, prod.grid, tol)

    tri, tri_wit = max_triangle_deficit(d)
    tri = float(np.maximum(tri, 0.0))

    sym = float(np.abs(d - d.T).max())
    diag = float(np.abs(np.diag(d)).max())

    restr = float(np.max([
        np.abs(prod.slice_matrix(i) - prod.family.dist_at(ts[i])).max() for i in range(k)
    ]))

    # blocks[i, a, j, b] is the distance from (a, t_i) to (b, t_j); only
    # the blocks with i <= j are read
    blocks = d.reshape(k, z, k, z)
    upper = np.triu(np.ones((k, k), dtype=bool))
    t = np.array(ts)
    target = (c * np.abs(t[None, :] - t[:, None]))[upper]
    fiber = np.abs(blocks.diagonal(axis1=1, axis2=3)[upper] - target[:, None])
    # row_min[i, a, j]: distance from (a, t_i) to slice t_j
    row_min = blocks.min(axis=3)
    dh = np.maximum(row_min.max(axis=1), blocks.min(axis=1).max(axis=2))
    dh_err = np.abs(dh[upper] - target)
    md_err = np.abs(row_min.min(axis=1)[upper] - target)
    fiber, dh_err, md_err = (float(errs.max()) for errs in (fiber, dh_err, md_err))

    return VerificationReport(
        monotone=mono,
        lipschitz=lips,
        max_triangle_violation=tri,
        triangle_witness=None if tri == 0.0 else tri_wit,
        slice_hausdorff_max_error=dh_err,
        slice_min_distance_max_error=md_err,
        restriction_max_error=restr,
        fiber_max_error=fiber,
        symmetry_error=sym,
        diagonal_error=diag,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# geodesic realization
# ---------------------------------------------------------------------------

def realize_geodesic(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    R: Correspondence,
    grid: ParamGrid | None = None,
    c_override: float | None = None,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> tuple[ProductSpace, VerificationReport]:
    """Realize the rectilinear geodesic of R inside a product space.

    The vertical scale defaults to c = dis(R)/2, the smallest value for
    which the Lipschitz condition holds; isometric inputs (distortion zero)
    have no such c and require an explicit override.  When R is optimal this
    c equals d_GH(X, Y), so the certified slice Hausdorff distances read
    d_H(R_t, R_s) = d_GH(X, Y) * |t - s|.
    """
    _check_tol(tol)
    family = RectilinearFamily.from_correspondence(R, x, y)
    if c_override is None:
        # the largest |dy - dx| over R x R is dis(R), bit for bit
        dis = family.max_abs_slope()
        if dis == 0.0:
            raise DegenerateGeodesic(
                "distortion is zero (isometric inputs); pass an explicit c"
            )
        c = 0.5 * dis
    else:
        _check_c(c_override)
        c = float(c_override)
    if grid is None:
        grid = ParamGrid.uniform()
    prod = build_product(family, c, grid, tol=tol, force=force)
    report = verify_product(prod, tol=tol)
    return prod, report


# ---------------------------------------------------------------------------
# product file format
# ---------------------------------------------------------------------------

class _GridSlices(_ReadOnlyArrays):
    """A loaded product's family function: the diagonal block of its matrix
    at each grid value.  A module-level class, so loaded products pickle."""

    def __init__(self, d: np.ndarray, z: int, pos_of: dict[float, int]):
        self.d, self.z, self.pos_of = d, z, pos_of

    def __call__(self, t: float) -> np.ndarray:
        if t not in self.pos_of:
            raise ParameterOutOfRange(
                f"t = {t!r} is not one of the sampled parameter values"
            )
        i, z = self.pos_of[t], self.z
        return self.d[i * z : (i + 1) * z, i * z : (i + 1) * z]


def product_from_json_dict(data: dict) -> ProductSpace:
    """Rebuild a product from its JSON export.

    The family is reconstructed from the slice submatrices (it is only known
    at the grid values), points are permuted into canonical slice-major
    order, and nothing is verified here but finiteness and build_product's
    overflow bound (NonFiniteEntry); run verify_product afterwards.
    """
    if isinstance(data, dict) and "product" in data:
        data = data["product"]
    what = "product JSON"
    c, grid, pts, mat = _json_fields(data, what, ("c", "grid", "points", "matrix"))
    c = _json_convert(_json_float, c, what, "c")
    _check_c(c)
    grid = ParamGrid(_json_convert(_json_floats, grid, what, "grid"))
    pts = _json_convert(list, pts, what, "points")
    mat = _json_convert(_float_array, mat, what, "matrix")
    n = len(pts)
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match {n} points")
    _finite_square(mat)
    k = len(grid)
    if n % k != 0:
        raise ValueError(f"{n} points cannot split into {k} equal slices")
    z = n // k

    pos_of = {t: i for i, t in enumerate(grid.values)}
    labels: list[str | None] = [None] * z
    where: dict[tuple[int, int], int] = {}
    for file_idx, p in enumerate(pts):
        where_p = f"product JSON point {file_idx}"
        zi, t, label = _json_fields(p, where_p, ("z", "t", "label"))
        zi = _json_convert(_json_int, zi, where_p, "z")
        t = _json_convert(_json_float, t, where_p, "t")
        label = _json_convert(_json_str, label, where_p, "label")
        if not 0 <= zi < z:
            raise ValueError(f"point z index {zi} out of range")
        if t not in pos_of:
            raise ValueError(f"point parameter {t!r} is not a grid value")
        key = (zi, pos_of[t])
        if key in where:
            raise ValueError(f"duplicate point (z={zi}, t={t!r})")
        where[key] = file_idx
        if labels[zi] is None:
            labels[zi] = label
        elif labels[zi] != label:
            raise ValueError(f"inconsistent labels for ground point {zi}")

    perm = [where[(zz, pos)] for pos in range(k) for zz in range(z)]
    d = mat[np.ix_(perm, perm)]
    d.setflags(write=False)
    # the slices are the diagonal blocks
    _check_overflow(float(d.reshape(k, z, k, z).diagonal(axis1=0, axis2=2).max()), c, grid)

    family = CallableFamily(z, grid.a, grid.b, _GridSlices(d, z, pos_of), labels)
    return ProductSpace(family=family, c=c, grid=grid, dist=d)


def load_product(path: str | Path) -> ProductSpace:
    return product_from_json_dict(_parse_json(Path(path).read_text()))
