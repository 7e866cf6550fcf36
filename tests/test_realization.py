"""Tests for the product metric construction, condition checks, and
verification reports."""

import dataclasses
import hashlib
import importlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ghgeo import (
    CallableFamily,
    ConditionFailed,
    Correspondence,
    DegenerateGeodesic,
    NonFiniteEntry,
    NonpositiveC,
    ParamGrid,
    ParameterOutOfRange,
    RectilinearFamily,
    build_product,
    gh_distance_exact,
    distortion,
    geodesic_slice,
    load_product,
    product_from_json_dict,
    realize_geodesic,
    run_condition_checks,
    validate_metric,
    verify_product,
)

from instances import (
    graph_matrix, line_space, one_point_space, planar_matrix, planar_pair, two_point_space,
)
from oracles import product_distance

DATA_DIR = Path(__file__).parent / "data"


def interp_family():
    """Two ground points moving from distance 2 to distance 1."""
    return RectilinearFamily([[0, 2], [2, 0]], [[0, 1], [1, 0]])


def sin_family():
    return CallableFamily(
        2, 0.0, 1.0,
        lambda t: np.array([[0.0, 1.0 + math.sin(math.pi * t)],
                            [1.0 + math.sin(math.pi * t), 0.0]]),
    )


def constant_family(matrix):
    m = np.asarray(matrix, dtype=float)
    return RectilinearFamily(m, m)


def on_grid(fam):
    """The same affine family, checked on the grid rather than in closed form."""
    return CallableFamily(fam.ground_size, fam.a, fam.b, fam.dist_at, fam.labels)


def monotone(fam, grid=ParamGrid.uniform(11)):
    return run_condition_checks(fam, 1.0, grid, 1e-9)[0]


def lipschitz(fam, c, grid=ParamGrid.uniform(11)):
    return run_condition_checks(fam, c, grid, 1e-9)[1]


class TestParamGrid:
    def test_uniform_endpoints(self):
        grid = ParamGrid.uniform(11)
        assert grid.values[0] == 0.0
        assert grid.values[-1] == 1.0
        assert len(grid) == 11

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            ParamGrid((0.0, 0.5, 0.5, 1.0))

    def test_at_least_two_values(self):
        with pytest.raises(ValueError):
            ParamGrid((0.0,))

    @pytest.mark.parametrize(
        "values", [(0.0, math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan)]
    )
    def test_non_finite_values_rejected(self, values):
        # a NaN fails every `>=` test, so it passed the ordering check
        with pytest.raises(ValueError, match="finite"):
            ParamGrid(values)


def product_entry(fam, c, grid, p, q) -> float:
    """The distance between points p = (z1, t) and q = (z2, s) of the
    product built over ``grid``."""
    prod = build_product(fam, c, ParamGrid(grid))
    (z1, t), (z2, s) = p, q
    return float(prod.dist[prod.point_index(z1, grid.index(t)), prod.point_index(z2, grid.index(s))])


class TestProductDistance:
    GRID = (0.0, 0.2, 0.25, 0.3, 0.9, 1.0)

    def test_equal_parameters_reduce_to_slice(self):
        fam = interp_family()
        for t in (0.0, 0.3, 1.0):
            want = float(fam.dist_at(t)[0, 1])
            assert product_entry(fam, 0.7, self.GRID, (0, t), (1, t)) == want

    def test_vertical_fiber_is_scaled_euclidean(self):
        fam = interp_family()
        for z in (0, 1):
            assert product_entry(fam, 0.7, self.GRID, (z, 0.25), (z, 1.0)) == 0.7 * 0.75

    def test_cross_corner_value(self):
        fam = interp_family()
        c = 0.8
        # min(0 + dy01, dx01 + 0) + c = min(1, 2) + c
        assert product_entry(fam, c, self.GRID, (0, 0.0), (1, 1.0)) == 1.0 + c

    def test_symmetric_in_arguments(self):
        fam = interp_family()
        a = product_entry(fam, 0.6, self.GRID, (0, 0.2), (1, 0.9))
        b = product_entry(fam, 0.6, self.GRID, (1, 0.9), (0, 0.2))
        assert a == b == product_distance(fam, 0.6, (0, 0.2), (1, 0.9))


class TestMonotoneCheck:
    def test_rectilinear_always_passes(self):
        chk = monotone(on_grid(interp_family()))
        assert chk.ok
        assert chk.worst <= 1e-12

    def test_constant_family_passes(self):
        assert monotone(on_grid(constant_family(line_space().dist))).ok

    def test_sin_family_fails_near_midpoint(self):
        chk = monotone(sin_family())
        assert not chk.ok
        assert chk.worst == pytest.approx(1.0, abs=1e-12)
        assert chk.witness is not None
        assert {chk.witness.z1, chk.witness.z2} == {0, 1}
        assert chk.witness.t == pytest.approx(0.5)

    def test_closed_form_rectilinear(self):
        chk = monotone(interp_family())
        assert chk.ok
        assert chk.method == "closed_form"
        assert chk.worst == 0.0
        assert chk.tol == 0.0


class TestLipschitzCheck:
    def test_half_distortion_scale_passes_exactly(self):
        fam = interp_family()
        c = 0.5 * fam.max_abs_slope()
        exact = lipschitz(fam, c)
        assert exact.ok
        assert exact.worst == 0.0
        assert lipschitz(on_grid(fam), c).ok

    def test_generous_scale_passes(self):
        fam = interp_family()
        assert lipschitz(fam, fam.max_abs_slope()).ok

    def test_quarter_distortion_scale_fails_with_witness(self):
        fam = interp_family()
        dis = fam.max_abs_slope()  # = 1
        c = 0.25 * dis
        exact = lipschitz(fam, c)
        assert not exact.ok
        assert exact.method == "closed_form"
        # deficit per unit |t-s| is dis/2, over [0,1] the same number
        assert exact.worst == pytest.approx(0.5 * dis)
        assert exact.witness is not None
        assert {exact.witness.z1, exact.witness.z2} == {0, 1}
        # slope is negative, so the larger value sits at t = a
        assert (exact.witness.t, exact.witness.s) == (0.0, 1.0)
        grid = lipschitz(on_grid(fam), c)
        assert not grid.ok
        assert grid.method == "grid"
        assert grid.worst == pytest.approx(exact.worst, abs=1e-12)

    def test_max_slope_reported(self):
        fam = interp_family()
        assert lipschitz(fam, 1.0).max_slope == 1.0
        assert lipschitz(on_grid(fam), 1.0).max_slope == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_keeps_a_nan(self):
        # the closed form read monotone ok and a Lipschitz worst of 0.0 here,
        # later a NaN worst; a non-finite slice is now rejected on either path
        fam = RectilinearFamily([[0, math.nan], [math.nan, 0]], [[0, 1], [1, 0]])
        for family in (fam, on_grid(fam)):
            with pytest.raises(NonFiniteEntry):
                run_condition_checks(family, 0.5, ParamGrid.uniform(3))

    @pytest.mark.parametrize("kind", ["planar", "graph"])
    def test_closed_form_matches_slope_formula(self, kind):
        # max|dy - dx| <= 2c exactly, deficit (max|slope| - 2c)(b - a), the
        # larger end of the witness pair first
        for seed in range(8):
            x, y = seeded_pair(kind, seed)
            fam = RectilinearFamily.from_correspondence(gh_distance_exact(x, y).witness, x, y)
            smax = fam.max_abs_slope()
            for c in {0.5 * smax, 0.25 * smax, 0.3 + seed} - {0.0}:
                chk = lipschitz(fam, c, ParamGrid.uniform(3))
                assert (chk.ok, chk.max_slope) == (smax <= 2.0 * c, smax)
                assert chk.worst == max(0.0, smax - 2.0 * c)
                if chk.ok:
                    assert chk.witness is None
                    continue
                w = chk.witness
                assert abs(fam.slopes[w.z1, w.z2]) == smax
                assert fam.dist_at(w.t)[w.z1, w.z2] >= fam.dist_at(w.s)[w.z1, w.z2]
                assert {w.t, w.s} == {0.0, 1.0}


class TestBuildProduct:
    def test_single_ground_point_is_scaled_grid(self):
        fam = constant_family([[0.0]])
        grid = ParamGrid.uniform(5)
        prod = build_product(fam, 2.0, grid)
        for i, t in enumerate(grid.values):
            for j, s in enumerate(grid.values):
                assert prod.dist[i, j] == 2.0 * abs(t - s)

    def test_constant_family_is_l1_product(self):
        base = line_space().dist
        fam = constant_family(base)
        grid = ParamGrid((0.0, 0.5, 1.0))
        c = 0.4
        prod = build_product(fam, c, grid)
        for ki, t in enumerate(grid.values):
            for kj, s in enumerate(grid.values):
                for z1 in range(3):
                    for z2 in range(3):
                        got = prod.dist[prod.point_index(z1, ki), prod.point_index(z2, kj)]
                        assert got == pytest.approx(base[z1, z2] + c * abs(t - s), abs=1e-15)

    def test_cross_corner_spot_value(self):
        fam = interp_family()
        c = 0.8
        prod = build_product(fam, c, ParamGrid((0.0, 0.5, 1.0)))
        assert prod.dist.shape == (6, 6)
        assert prod.dist[prod.point_index(0, 0), prod.point_index(1, 2)] == 1.0 + c

    def test_condition_failure_raises_with_fragments(self):
        fam = interp_family()
        with pytest.raises(ConditionFailed) as exc:
            build_product(fam, 0.25, ParamGrid.uniform(5))
        assert exc.value.monotone.ok
        assert not exc.value.lipschitz.ok

    def test_forced_build_records_violation(self):
        fam = interp_family()
        prod = build_product(fam, 0.25, ParamGrid.uniform(5), force=True)
        assert not verify_product(prod).lipschitz.ok

    def test_nonpositive_c_rejected(self):
        with pytest.raises(NonpositiveC):
            build_product(interp_family(), -1.0, ParamGrid.uniform(5))

    def test_overflowing_c_rejected_before_building(self):
        # 2 * 1e307 + 1.7e308 is beyond the float range: the build warned of
        # an overflow and held infinite entries
        fam = constant_family([[0, 1e307], [1e307, 0]])
        with pytest.raises(NonFiniteEntry, match="overflow"):
            build_product(fam, 1.7e308, ParamGrid.uniform(3))
        prod = build_product(fam, 1.5e308, ParamGrid.uniform(3))
        assert np.isfinite(prod.dist).all()
        # the loader applies the same bound: what the build writes reloads
        data = prod.to_json_dict()
        assert product_from_json_dict(data).dist.tobytes() == prod.dist.tobytes()
        data["c"] = 1.7e308
        with pytest.raises(NonFiniteEntry, match="c = 1.7e"):
            product_from_json_dict(data)

    def test_nan_c_rejected(self):
        # NaN passed `c <= 0`; the product then verified with fiber error 0.0
        fam = CallableFamily(2, 0, 1, lambda t: [[0, 1], [1, 0]])
        with pytest.raises(NonpositiveC):
            build_product(fam, float("nan"), ParamGrid.uniform(3), force=True)

    def test_nan_c_rejected_by_every_check(self):
        nan = float("nan")
        for fam in (sin_family(), interp_family()):
            with pytest.raises(NonpositiveC):
                run_condition_checks(fam, nan, ParamGrid.uniform(3))
        ident = Correspondence(3, 3, frozenset((i, i) for i in range(3)))
        with pytest.raises(NonpositiveC):
            realize_geodesic(line_space(), line_space(), ident, c_override=nan)

    @pytest.mark.parametrize("c", [math.inf, -math.inf])
    def test_infinite_c_rejected_by_every_check(self, c):
        # inf passed `not c > 0`; each same-slice block was then inf * 0 = NaN
        with pytest.raises(NonpositiveC):
            build_product(interp_family(), c, ParamGrid.uniform(3), force=True)
        for fam in (sin_family(), interp_family()):
            with pytest.raises(NonpositiveC):
                run_condition_checks(fam, c, ParamGrid.uniform(3))
        x, y = two_point_space(2.0), one_point_space()
        corr = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        with pytest.raises(NonpositiveC):
            realize_geodesic(x, y, corr, c_override=c)
        prod, _ = realize_geodesic(x, y, corr, grid=ParamGrid.uniform(3))
        data = prod.to_json_dict()
        data["c"] = c
        with pytest.raises(NonpositiveC):
            product_from_json_dict(data)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        fam = interp_family()
        with pytest.raises(ValueError):
            build_product(fam, 1.0, ParamGrid.uniform(3), tol=tol)
        prod = build_product(fam, 1.0, ParamGrid.uniform(3))
        with pytest.raises(ValueError):
            verify_product(prod, tol=tol)
        x, y = two_point_space(2.0), one_point_space()
        corr = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        with pytest.raises(ValueError):
            realize_geodesic(x, y, corr, tol=tol)

    @pytest.mark.parametrize("kind", ["planar", "graph", "non-affine"])
    def test_every_entry_equals_product_distance(self, kind):
        # the oracle's product_distance is the reference for the min-plus
        # build
        grid = ParamGrid((0.0, 0.1, 0.35, 0.8, 1.0))
        for seed in range(4):
            x, y = seeded_pair("graph" if kind == "graph" else "planar", seed)
            fam = RectilinearFamily.from_correspondence(gh_distance_exact(x, y).witness, x, y)
            c = 0.5 * fam.max_abs_slope() or 1.0
            if kind == "non-affine":
                dx, dy = fam.dx, fam.dy
                w = lambda t: math.sin(math.pi * t)  # noqa: E731
                fam = CallableFamily(len(dx), 0.0, 1.0, lambda t: (1 - w(t)) * dx + w(t) * dy)
            prod = build_product(fam, c, grid, force=True)
            points = [(z, t) for t in grid for z in range(fam.ground_size)]
            ref = [[product_distance(fam, c, p, q) for q in points] for p in points]
            assert np.array(ref).tobytes() == prod.dist.tobytes()

    def test_grid_must_span_family_segment(self):
        with pytest.raises(ParameterOutOfRange):
            build_product(interp_family(), 1.0, ParamGrid((0.0, 0.5)))


class TestVerifyProduct:
    def test_compliant_product_passes(self):
        fam = interp_family()
        prod = build_product(fam, 0.5 * fam.max_abs_slope(), ParamGrid.uniform(11))
        report = verify_product(prod)
        assert report.passed
        assert report.max_triangle_violation <= 1e-9
        assert report.slice_hausdorff_max_error <= 1e-9
        assert report.slice_min_distance_max_error <= 1e-9
        assert report.restriction_max_error <= 1e-12
        assert report.fiber_max_error <= 1e-12
        assert report.symmetry_error == 0.0
        assert report.diagonal_error == 0.0

    def test_single_point_product_passes_exactly(self):
        # dyadic grid and c keep every value representable, so "exact" means 0.0
        prod = build_product(constant_family([[0.0]]), 1.5, ParamGrid.uniform(9))
        report = verify_product(prod)
        assert report.passed
        assert report.max_triangle_violation == 0.0
        assert report.slice_hausdorff_max_error == 0.0
        assert report.slice_min_distance_max_error == 0.0

    def test_forced_small_c_reports_triangle_violation(self):
        fam = interp_family()
        prod = build_product(fam, 0.1 * fam.max_abs_slope(), ParamGrid((0.0, 1.0)),
                             force=True)
        report = verify_product(prod)
        assert not report.passed
        assert report.max_triangle_violation > 0.1
        assert report.triangle_witness is not None
        assert not report.lipschitz.ok

    def test_nan_entry_is_reported_not_dropped(self):
        # a NaN off the slices used to read as NaN errors in the report; no
        # report certifies it now
        fam = interp_family()
        prod = build_product(fam, 0.5 * fam.max_abs_slope(), ParamGrid.uniform(3))
        d = prod.dist.copy()
        d[0, 2] = math.nan  # ground point 0 at t = 0 against itself at t = 0.5
        with pytest.raises(NonFiniteEntry):
            verify_product(dataclasses.replace(prod, dist=d))

    def test_nan_in_a_reloaded_slice_fails_both_grid_checks(self):
        # the grid checks once dropped a NaN in a slice, then read it as a
        # NaN worst; the loader now rejects any non-finite entry
        prod, _ = realize_geodesic(
            two_point_space(2.0), one_point_space(),
            Correspondence(2, 1, frozenset({(0, 0), (1, 0)})), grid=ParamGrid.uniform(5),
        )
        for value in (math.nan, math.inf, -math.inf):
            data = prod.to_json_dict()
            data["matrix"][0][1] = data["matrix"][1][0] = value
            with pytest.raises(NonFiniteEntry, match=r"d\[0\]\[1\]"):
                product_from_json_dict(data)

    def test_triangle_scan_matches_naive_triple_loop(self):
        from oracles import naive_triangle_witness

        fam = interp_family()
        prod = build_product(fam, 0.1 * fam.max_abs_slope(), ParamGrid((0.0, 0.5, 1.0)),
                             force=True)
        report = verify_product(prod)
        value, witness = naive_triangle_witness(prod.dist.tolist())
        assert value > 0.0
        assert report.max_triangle_violation == value
        assert report.triangle_witness == witness


class TestRealizeGeodesic:
    def test_collapse_to_point_realization(self):
        x, y = two_point_space(2.0), one_point_space()
        r = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        prod, report = realize_geodesic(x, y, r, grid=ParamGrid((0.0, 0.5, 1.0)))
        assert prod.c == 1.0
        assert prod.dist.shape == (6, 6)
        assert report.passed
        # d_H(Z_0, Z_1) must equal c*1 = d_GH(X, Y) = 1
        block = prod.dist[0:2, 4:6]
        dh = max(block.min(axis=1).max(), block.min(axis=0).max())
        assert dh == 1.0

    def test_isometric_inputs_degenerate(self):
        x = line_space()
        ident = Correspondence(3, 3, frozenset((i, i) for i in range(3)))
        with pytest.raises(DegenerateGeodesic):
            realize_geodesic(x, x, ident)

    def test_degenerate_override_builds_constant_product(self):
        x = line_space()
        ident = Correspondence(3, 3, frozenset((i, i) for i in range(3)))
        prod, report = realize_geodesic(x, x, ident, c_override=1.0)
        assert report.passed
        assert prod.c == 1.0

    def test_nonpositive_override_rejected(self):
        x = line_space()
        ident = Correspondence(3, 3, frozenset((i, i) for i in range(3)))
        with pytest.raises(NonpositiveC):
            realize_geodesic(x, x, ident, c_override=-0.5)

    def test_two_v_two_eleven_point_grid(self):
        x = two_point_space(2.0)
        y = validate_metric([[0, 1], [1, 0]], name="Y")
        res = gh_distance_exact(x, y)
        prod, report = realize_geodesic(x, y, res.witness)
        assert prod.c == res.value == 0.5
        assert report.passed
        assert report.slice_hausdorff_max_error <= 1e-9

    def test_non_optimal_correspondence_still_certifies(self):
        # any correspondence works with c = dis/2; only the c = d_GH reading
        # needs optimality
        x, y = planar_pair(77, sizes=(2, 3))
        full = Correspondence(
            len(x), len(y),
            frozenset((i, j) for i in range(len(x)) for j in range(len(y))),
        )
        dis = distortion(full, x, y)
        prod, report = realize_geodesic(x, y, full, grid=ParamGrid.uniform(5))
        assert prod.c == 0.5 * dis
        assert report.passed


class TestFamilies:
    @pytest.mark.parametrize("name", ["dx", "dy", "a", "b", "labels", "ground_size"])
    def test_rectilinear_attributes_cannot_change(self, name):
        # rebinding dx after a passing realization used to turn the next
        # report into restriction_max_error 1.0, passed: false
        x, y = two_point_space(2.0), two_point_space(1.0)
        prod, report = realize_geodesic(x, y, gh_distance_exact(x, y).witness)
        assert report.passed
        with pytest.raises(AttributeError):
            setattr(prod.family, name, np.array([[0, 3.0], [3.0, 0]]))
        with pytest.raises(AttributeError):
            delattr(prod.family, name)
        assert verify_product(prod).to_json_dict() == report.to_json_dict()

    def test_callable_family_labels_must_be_strings(self):
        # labels [1, 2] built a product whose own JSON export did not reload
        with pytest.raises(ValueError, match="expected a string, got 1$"):
            CallableFamily(2, 0.0, 1.0, lambda t: np.eye(2), labels=[1, 2])
        family = CallableFamily(2, 0.0, 1.0, lambda t: [[0, 1], [1, 0]], labels=["1", "2"])
        prod = build_product(family, 1.0, ParamGrid.uniform(3))
        assert product_from_json_dict(prod.to_json_dict()).family.labels == ("1", "2")

    def test_callable_attributes_cannot_change(self):
        family = sin_family()
        for name in ("a", "b", "_fn", "new"):
            with pytest.raises(AttributeError):
                setattr(family, name, 0.5)
        assert (family.a, family.b) == (0.0, 1.0)


class TestLinearHausdorffIdentity:
    def test_hausdorff_between_slices_scales_with_gh(self):
        # read the identity through metric_core's own Hausdorff distance
        from ghgeo import FiniteMetricSpace, hausdorff_distance

        for seed in range(6):
            x, y = planar_pair(seed + 600, sizes=(2, 3))
            res = gh_distance_exact(x, y)
            if res.value == 0.0:
                continue
            prod, _ = realize_geodesic(x, y, res.witness, grid=ParamGrid.uniform(5))
            ambient = FiniteMetricSpace(
                labels=tuple(f"q{i}" for i in range(prod.dist.shape[0])),
                dist=prod.dist,
            )
            for ki, t in enumerate(prod.grid.values):
                for kj, s in enumerate(prod.grid.values):
                    dh = hausdorff_distance(
                        ambient,
                        prod.slice_indices(ki),
                        prod.slice_indices(kj),
                    )
                    assert abs(dh - res.value * abs(t - s)) <= 1e-9

    def test_grid_checks_at_zero_tol_imply_triangle_bound(self):
        for seed in range(6):
            x, y = planar_pair(seed + 640, sizes=(2, 3))
            res = gh_distance_exact(x, y)
            if res.value == 0.0:
                continue
            prod, report = realize_geodesic(x, y, res.witness)
            mono, lips = run_condition_checks(on_grid(prod.family), prod.c, prod.grid, tol=0.0)
            if mono.ok and lips.ok:
                assert report.max_triangle_violation <= 1e-9


class TestProductFormat:
    def _sample(self):
        x = two_point_space(2.0)
        y = validate_metric([[0, 1], [1, 0]], name="Y")
        r = gh_distance_exact(x, y).witness
        return realize_geodesic(x, y, r, grid=ParamGrid((0.0, 0.5, 1.0)))

    def _reloaded(self, tmp_path):
        prod, _ = self._sample()
        path = tmp_path / "prod.json"
        path.write_text(json.dumps(prod.to_json_dict()))
        return prod, load_product(path)

    def test_round_trip_verifies(self, tmp_path):
        prod, loaded = self._reloaded(tmp_path)
        assert np.array_equal(loaded.dist, prod.dist)
        assert verify_product(loaded).passed

    def test_loaded_family_is_known_on_the_grid_only(self, tmp_path):
        _, loaded = self._reloaded(tmp_path)
        for i, t in enumerate(loaded.grid):
            assert np.array_equal(loaded.family.dist_at(t), loaded.slice_matrix(i))
        for t in (0.25, 0.75, -0.5, 1.5):
            with pytest.raises(ParameterOutOfRange):
                loaded.family.dist_at(t)

    def test_loaded_family_is_read_only(self, tmp_path):
        # a write into a loaded slice used to change the next verification
        _, loaded = self._reloaded(tmp_path)
        before = verify_product(loaded).to_json_dict()
        with pytest.raises(ValueError):
            loaded.family.dist_at(0.5)[0, 1] += 0.25
        assert verify_product(loaded).to_json_dict() == before

    def test_wrapped_payload_accepted(self, tmp_path):
        prod, report = self._sample()
        path = tmp_path / "combined.json"
        path.write_text(json.dumps({"product": prod.to_json_dict(),
                                    "report": report.to_json_dict()}))
        assert verify_product(load_product(path)).passed

    def test_permuted_points_are_canonicalized(self):
        prod, _ = self._sample()
        data = prod.to_json_dict()
        order = list(range(len(data["points"])))[::-1]
        data["points"] = [data["points"][i] for i in order]
        data["matrix"] = [[data["matrix"][i][j] for j in order] for i in order]
        loaded = product_from_json_dict(data)
        assert np.array_equal(loaded.dist, prod.dist)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            product_from_json_dict({"c": 1.0, "grid": [0.0, 1.0], "points": []})


def seeded_pair(kind: str, seed: int):
    """Planar pairs from planar_pair, or tie-heavy graph pairs of 2-4 points."""
    if kind == "planar":
        return planar_pair(seed + 1100, sizes=(2, 3, 4))
    rng = random.Random(seed + 1100)
    return tuple(
        validate_metric(graph_matrix(rng, rng.randint(2, 4)), name=name) for name in "XY"
    )


class TestOneGeodesic:
    """geodesic_slice and RectilinearFamily spell the same R_t."""

    @pytest.mark.parametrize("kind", ["planar", "graph"])
    def test_slice_equals_family_bit_for_bit(self, kind):
        for seed in range(8):
            x, y = seeded_pair(kind, seed)
            r = gh_distance_exact(x, y).witness
            family = RectilinearFamily.from_correspondence(r, x, y)
            for t in ParamGrid.uniform(11):
                slice_t = geodesic_slice(r, x, y, t).dist
                assert slice_t.tobytes() == family.dist_at(t).tobytes()

    @pytest.mark.parametrize("kind", ["planar", "graph"])
    def test_default_c_is_half_distortion(self, kind):
        checked = 0
        for seed in range(8):
            x, y = seeded_pair(kind, seed)
            full = Correspondence(len(x), len(y), frozenset(
                (i, j) for i in range(len(x)) for j in range(len(y))
            ))
            for r in (gh_distance_exact(x, y).witness, full):
                dis = distortion(r, x, y)
                if dis == 0.0:
                    continue
                prod, _ = realize_geodesic(x, y, r)
                assert prod.c == 0.5 * dis
                checked += 1
        assert checked >= 8


class TestGoldenProducts:
    def test_golden_file_reproduced_byte_for_byte(self, monkeypatch):
        monkeypatch.syspath_prepend(str(DATA_DIR))
        generator = importlib.import_module("generate_realization_golden")
        assert generator.render() == (DATA_DIR / "realization_golden.json").read_text()


def near_symmetric_family():
    """A non-affine family whose slices are symmetric only within 1e-11 and
    carry -0.0 on the diagonal."""
    rng = random.Random("frozen/near-symmetric")
    base = np.array(planar_matrix(rng, 4))
    skew = np.array([[rng.uniform(-1e-11, 1e-11) for _ in range(4)] for _ in range(4)])

    def at(t):
        m = (1.0 + t * t) * base + t * skew
        np.fill_diagonal(m, -0.0)
        return m

    return CallableFamily(4, 0.0, 1.0, at)


def frozen_builds() -> dict:
    x, y = planar_pair(1200, sizes=(3,))
    fam = RectilinearFamily.from_correspondence(gh_distance_exact(x, y).witness, x, y)
    half = 0.5 * fam.max_abs_slope()
    return {
        "near_symmetric": build_product(near_symmetric_family(), 3.0, ParamGrid.uniform(6)),
        "one_point": build_product(
            RectilinearFamily([[0.0]], [[0.0]]), 0.7, ParamGrid((0.0, 0.3, 1.0))
        ),
        "two_values": build_product(fam, half, ParamGrid.uniform(2)),
        "small_c": build_product(fam, 0.2 * half, ParamGrid.uniform(7), force=True),
    }


# sha256 of build_product(...).dist.tobytes() for the cases of frozen_builds,
# recorded before the build became one min-plus product
FROZEN_BUILD_SHA256 = {
    "near_symmetric": "f5f076f87cdc0c300cd6e98f9b927c7b9bc508c155c8e1900cff50e3975713c5",
    "one_point": "5d866c20cc9dbe745e6cf6b7a4e72e7ee39ef731778594735fba6b30724e5f00",
    "two_values": "a9de8246528ba609647c83de8ce46f72a6ac1bb3b62ac936afb22db8f047787d",
    "small_c": "9dd7d59d9d70345ca163ecb2a612d4a81b7e853a904e9ddd338b50304522ebcc",
}


class TestFrozenBuilds:
    """Byte-for-byte build_product outputs that realization_golden.json does
    not cover: slices symmetric only within tol, |Z| = 1, a two-value grid."""

    def test_builds_match_frozen_digests(self):
        digests = {
            name: hashlib.sha256(prod.dist.tobytes()).hexdigest()
            for name, prod in frozen_builds().items()
        }
        assert digests == FROZEN_BUILD_SHA256
