"""Tests for rectilinear geodesic slices and the shortest-curve property."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghgeo import (
    Correspondence,
    NotOptimalCorrespondence,
    ParameterOutOfRange,
    SearchSpaceTooLarge,
    SliceGHCheck,
    gh_distance_exact,
    geodesic_slice,
    pullback_matrices,
    slice_gh_check,
    validate_metric,
)

from instances import graph_matrix, one_point_space, planar_matrix, planar_pair, two_point_space
from oracles import reference_slice_gh_check


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

    def test_cap_message_names_the_relation_size(self):
        # the message read "m*n = 36" for this 3 x 4 pair, whose m*n is 12
        x = validate_metric(planar_matrix(random.Random(1), 3))
        y = validate_metric(planar_matrix(random.Random(2), 4))
        r = Correspondence(3, 4, frozenset({(0, 0), (1, 1), (2, 2), (2, 3), (0, 1), (1, 0)}))
        with pytest.raises(SearchSpaceTooLarge) as err:
            slice_gh_check(r, x, y, 0.0, 1.0)
        assert str(err.value) == "|R|^2 = 36 exceeds the exhaustive-search cap of 25"

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


@st.composite
def slice_check_inputs(draw):
    """Planar or graph pairs up to 6 x 5 with the exact solver's witness, a
    relation of arbitrary pairs, or one of another shape, and (t, s) in
    [0, 1] with an occasional value outside it."""
    kind = draw(st.sampled_from([planar_matrix, graph_matrix]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.integers(0, 9)) == 0:
        m = 6  # past the cap for every relation of this shape
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x, y = validate_metric(kind(rng, m)), validate_metric(kind(rng, n))
    if m * n <= 25 and draw(st.booleans()):
        r = gh_distance_exact(x, y).witness
    else:
        rm, rn = draw(st.sampled_from([(m, n), (m, n), (m, n), (2, 3)]))
        rows, cols = draw(st.permutations(range(rm))), draw(st.permutations(range(rn)))
        pairs = {(rows[a % rm], cols[a % rn]) for a in range(max(rm, rn))}
        extra = st.tuples(st.integers(0, rm - 1), st.integers(0, rn - 1))
        r = Correspondence(rm, rn, frozenset(pairs | draw(st.sets(extra, max_size=2))))
    unit = st.floats(0.0, 1.0)
    param = st.one_of(unit, unit, unit, st.sampled_from([0.0, 0.25, 1.0, 1.5]))
    t = draw(param)
    other = param.filter(lambda v: v != t)
    return r, x, y, t, draw(st.one_of(other, other, other, st.just(t)))


def outcome(check, *args):
    """The bits of (expected, actual), or the exception's type and message."""
    try:
        result = check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, SliceGHCheck):
        result = result.expected, result.actual
    return tuple(v.hex() for v in result)


class TestSliceGHCheckAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(slice_check_inputs())
    def test_matches_two_exact_solves(self, inputs):
        # the value searches return the exact solver's floats bit for bit,
        # and every exception comes in the former order with its message
        assert outcome(slice_gh_check, *inputs) == outcome(reference_slice_gh_check, *inputs)

    def test_no_witness_search_on_the_solvers_witness(self, monkeypatch):
        from ghgeo import correspondence, geodesic

        cases = []
        for seed in range(40):
            rng = random.Random(seed)
            kind = (planar_matrix, graph_matrix)[seed % 2]
            x, y = validate_metric(kind(rng, 5)), validate_metric(kind(rng, 4 + seed % 2))
            r = gh_distance_exact(x, y).witness
            if len(r) <= 5:
                cases.append((r, x, y, reference_slice_gh_check(r, x, y, 0.25, 0.75)))
        assert len(cases) >= 10

        def forbidden(*args, **kwargs):
            raise AssertionError("slice_gh_check ran a full exact solve")

        monkeypatch.setattr(correspondence, "_canonical_cover", forbidden)
        monkeypatch.setattr(correspondence, "gh_distance_exact", forbidden)
        # a name imported into geodesic would escape the first patch
        monkeypatch.setattr(geodesic, "gh_distance_exact", forbidden, raising=False)
        for r, x, y, expected in cases:
            chk = slice_gh_check(r, x, y, 0.25, 0.75)
            assert (chk.expected, chk.actual) == expected
