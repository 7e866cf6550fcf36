"""Tests for rectilinear geodesic slices and the shortest-curve property."""

import numpy as np
import pytest

from ghgeo import (
    Correspondence,
    NotOptimalCorrespondence,
    ParameterOutOfRange,
    SearchSpaceTooLarge,
    gh_distance_exact,
    geodesic_slice,
    pullback_matrices,
    slice_gh_check,
    validate_metric,
)

from instances import one_point_space, planar_pair, two_point_space


def two_v_two():
    return two_point_space(2.0), validate_metric([[0, 1], [1, 0]], name="Y")


def optimal_bijection():
    x, y = two_v_two()
    return x, y, gh_distance_exact(x, y).witness


class TestSliceConstruction:
    def test_endpoint_t0_pulls_back_source(self):
        x, y, r = optimal_bijection()
        dx, _, _ = pullback_matrices(r, x, y)
        assert np.array_equal(geodesic_slice(r, x, y, 0.0).dist, dx)

    def test_endpoint_t1_pulls_back_target(self):
        x, y, r = optimal_bijection()
        _, dy, _ = pullback_matrices(r, x, y)
        assert np.array_equal(geodesic_slice(r, x, y, 1.0).dist, dy)

    def test_midpoint_value(self):
        x, y, r = optimal_bijection()
        s = geodesic_slice(r, x, y, 0.5)
        assert s.distance(0, 1) == 0.5 * 2.0 + 0.5 * 1.0

    def test_parameter_range_enforced(self):
        x, y, r = optimal_bijection()
        with pytest.raises(ParameterOutOfRange):
            geodesic_slice(r, x, y, 1.5)

    def test_slice_is_read_only(self):
        x, y, r = optimal_bijection()
        space = geodesic_slice(r, x, y, 0.5)
        with pytest.raises(ValueError):
            space.dist[0, 1] = 0.0
        assert space.distance(0, 1) == 1.5

    def test_labels_and_name(self):
        x, y, r = optimal_bijection()
        space = geodesic_slice(r, x, y, 0.25)
        assert space.name == "geodesic(t=0.25)"
        # witness is {(0,1),(1,0)}; labels compose source then target label
        assert space.labels == ("(p0,p1)", "(p1,p0)")

    def test_interior_slice_is_metric(self):
        x, y = two_point_space(2.0), one_point_space()
        r = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        space = geodesic_slice(r, x, y, 0.5)
        assert space.kind == "metric"

    def test_collapsed_endpoint_is_pseudometric(self):
        x, y = two_point_space(2.0), one_point_space()
        r = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        space = geodesic_slice(r, x, y, 1.0)
        assert space.kind == "pseudometric"
        assert space.distance(0, 1) == 0.0

    def test_uncollapsed_endpoint_stays_metric(self):
        # collapse happens only on the far coordinate at t=0
        x, y = two_point_space(2.0), one_point_space()
        r = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        assert geodesic_slice(r, x, y, 0.0).kind == "metric"

    def test_slice_matrices_validate(self):
        for seed in range(5):
            x, y = planar_pair(seed + 30, sizes=(2, 3))
            r = gh_distance_exact(x, y).witness
            for t in (0.0, 0.3, 0.5, 1.0):
                m = geodesic_slice(r, x, y, t).dist
                validate_metric(m, kind="pseudometric", tol=1e-9)


class TestSliceProperties:
    def test_linearity_in_t(self):
        for seed in range(8):
            x, y = planar_pair(seed + 50, sizes=(2, 3))
            r = gh_distance_exact(x, y).witness
            m0 = geodesic_slice(r, x, y, 0.0).dist
            m1 = geodesic_slice(r, x, y, 1.0).dist
            for t in (0.1, 0.25, 0.5, 0.75, 0.9):
                mt = geodesic_slice(r, x, y, t).dist
                assert np.abs(mt - ((1 - t) * m0 + t * m1)).max() <= 1e-15

    def test_pairwise_monotonicity_in_t(self):
        for seed in range(8):
            x, y = planar_pair(seed + 70, sizes=(2, 3))
            r = gh_distance_exact(x, y).witness
            ts = [0.0, 0.25, 0.5, 0.75, 1.0]
            mats = [geodesic_slice(r, x, y, t).dist for t in ts]
            diffs = np.stack([mats[i + 1] - mats[i] for i in range(len(ts) - 1)])
            rising = (diffs >= 0).all(axis=0)
            falling = (diffs <= 0).all(axis=0)
            assert (rising | falling).all()

    def test_interior_triangle_inequality(self):
        from ghgeo import max_triangle_deficit

        for seed in range(8):
            x, y = planar_pair(seed + 90, sizes=(2, 3))
            r = gh_distance_exact(x, y).witness
            for t in (0.1, 0.5, 0.9):
                worst, _ = max_triangle_deficit(geodesic_slice(r, x, y, t).dist)
                assert worst <= 1e-12


class TestSliceGHCheck:
    def test_equal_parameters(self):
        x, y, r = optimal_bijection()
        chk = slice_gh_check(r, x, y, 0.5, 0.5)
        assert chk.expected == 0.0
        assert chk.actual == 0.0

    def test_full_segment_reproduces_endpoints(self):
        x, y, r = optimal_bijection()
        chk = slice_gh_check(r, x, y, 0.0, 1.0)
        assert chk.expected == 0.5
        assert chk.actual == pytest.approx(0.5, abs=1e-12)

    def test_half_segment(self):
        x, y, r = optimal_bijection()
        chk = slice_gh_check(r, x, y, 0.0, 0.5)
        assert chk.expected == 0.25
        assert chk.actual == pytest.approx(0.25, abs=1e-12)

    def test_rejects_non_optimal_correspondence(self):
        x, y = two_v_two()
        full = Correspondence(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
        with pytest.raises(NotOptimalCorrespondence):
            slice_gh_check(full, x, y, 0.0, 0.5)

    def test_rejects_oversized_witness(self):
        x, y = planar_pair(123, sizes=(6,))
        r = Correspondence(6, 6, frozenset((i, i) for i in range(6)))
        with pytest.raises(SearchSpaceTooLarge):
            slice_gh_check(r, x, y, 0.0, 1.0)

    def test_geodesic_property_on_grid(self):
        checked = 0
        seed = 0
        while checked < 6:
            seed += 1
            x, y = planar_pair(seed + 900, sizes=(2, 3))
            res = gh_distance_exact(x, y)
            if res.value == 0.0 or len(res.witness) > 4:
                continue
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                    chk = slice_gh_check(res.witness, x, y, t, s)
                    assert chk.error <= 1e-9
            checked += 1
