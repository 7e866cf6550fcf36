"""Tests for space validation, point/set distances, and Hausdorff distance."""

import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghgeo import (
    AsymmetricMatrix,
    EmptySubset,
    MixedOwners,
    NegativeEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
    hausdorff_distance,
    max_triangle_deficit,
    point_set_distance,
    set_set_distance,
    space_from_text,
    validate_metric,
)
from ghgeo import metric_core
from ghgeo.metric_core import BLOCK_ELEMENTS

from instances import line_space, planar_matrix, planar_space
from oracles import (
    naive_hausdorff,
    naive_point_set_distance,
    naive_set_set_distance,
    naive_triangle_witness,
)

# entry pools for the triangle-scan property: small-integer ties, signed
# zeros, sums that overflow, and non-finite values
TRIANGLE_ENTRIES = {
    "ties": st.integers(0, 3).map(float),
    "floats": st.floats(-2.0, 10.0, allow_nan=False, allow_infinity=False),
    "signed_zeros": st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    "huge": st.sampled_from([0.0, 1.0, 1e308, -1e308]),
    "non_finite": st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf]),
}


@st.composite
def triangle_matrices(draw):
    n = draw(st.integers(1, 8))
    entries = TRIANGLE_ENTRIES[draw(st.sampled_from(sorted(TRIANGLE_ENTRIES)))]
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    if draw(st.booleans()):
        zero = draw(st.sampled_from([0.0, -0.0]))
        for i in range(n):
            m[i][i] = zero
    return m


class TestValidateMetric:
    def test_one_point_space(self):
        space = validate_metric([[0]], kind="metric")
        assert len(space) == 1
        assert space.kind == "metric"

    def test_two_point_metric(self):
        space = validate_metric([[0, 1], [1, 0]], kind="metric")
        assert space.kind == "metric"
        assert space.distance(0, 1) == 1.0

    def test_triangle_violation_witness(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        e = exc.value
        assert (e.i, e.j, e.k) == (0, 2, 1)
        assert e.deficit == pytest.approx(1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            validate_metric([[0, 1], [2, 0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_metric([[0, -1], [-1, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NonzeroDiagonal):
            validate_metric([[1, 1], [1, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareMatrix):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_zero_off_diagonal_only_when_metric_demanded(self):
        matrix = [[0, 0], [0, 0]]
        with pytest.raises(ZeroOffDiagonal):
            validate_metric(matrix, kind="metric")
        space = validate_metric(matrix, kind="pseudometric")
        assert space.kind == "pseudometric"

    def test_reported_kind_is_strictest_that_holds(self):
        space = validate_metric([[0, 1], [1, 0]], kind="pseudometric")
        assert space.kind == "metric"

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_accepts_planar_distance_matrices(self, seed, n):
        rng = random.Random(seed)
        space = validate_metric(planar_matrix(rng, n), tol=1e-9)
        assert len(space) == n

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # a NaN tol used to pass every `value > tol` check, so this
        # asymmetric, triangle-violating matrix came back as a metric
        with pytest.raises(ValueError):
            validate_metric([[0, 5, 1], [2, 0, 1], [1, 1, 0]], tol=tol)

    def test_zero_tol_accepts_an_exact_metric(self):
        assert validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], tol=0).kind == "metric"

    def test_matrix_is_read_only(self):
        space = validate_metric([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            space.dist[0, 1] = 5.0


class TestPointAndSetDistances:
    def test_member_gives_zero(self):
        space = line_space()
        assert point_set_distance(space, 1, space.subset({0, 1})) == 0.0

    def test_singleton_subset(self):
        space = line_space()
        assert point_set_distance(space, 0, space.subset({2})) == 2.0

    def test_min_over_two_points(self):
        space = line_space()
        assert point_set_distance(space, 0, space.subset({1, 2})) == 1.0

    def test_set_set_overlapping(self):
        space = line_space()
        assert set_set_distance(space, space.subset({0, 1}), space.subset({1, 2})) == 0.0

    def test_set_set_singletons(self):
        space = line_space()
        assert set_set_distance(space, space.subset({0}), space.subset({2})) == 2.0

    def test_set_set_min(self):
        space = line_space()
        assert set_set_distance(space, space.subset({0, 1}), space.subset({2})) == 1.0

    def test_empty_subset_rejected(self):
        space = line_space()
        with pytest.raises(EmptySubset):
            space.subset(set())

    def test_out_of_range_subset_rejected(self):
        space = line_space()
        with pytest.raises(ValueError):
            space.subset({0, 7})


class TestHausdorff:
    def test_equal_subsets(self):
        space = line_space()
        a = space.subset({0, 2})
        assert hausdorff_distance(space, a, a) == 0.0

    def test_point_against_pair(self):
        space = line_space()
        assert hausdorff_distance(space, space.subset({0}), space.subset({0, 2})) == 2.0

    def test_singletons(self):
        space = line_space()
        assert hausdorff_distance(space, space.subset({0}), space.subset({2})) == 2.0

    def test_mixed_owners_rejected(self):
        a = line_space()
        b = line_space()
        with pytest.raises(MixedOwners):
            hausdorff_distance(a, a.subset({0}), b.subset({0}))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_double_loop_exactly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        space = planar_space(seed, n)
        a = set(rng.sample(range(n), rng.randint(1, n)))
        b = set(rng.sample(range(n), rng.randint(1, n)))
        got = hausdorff_distance(space, space.subset(a), space.subset(b))
        dist = space.dist.tolist()
        assert got == naive_hausdorff(dist, sorted(a), sorted(b))
        assert point_set_distance(space, 0, space.subset(b)) == naive_point_set_distance(
            dist, 0, sorted(b)
        )
        assert set_set_distance(space, space.subset(a), space.subset(b)) == (
            naive_set_set_distance(dist, sorted(a), sorted(b))
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dominates_set_set_distance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        space = planar_space(seed, n)
        a = space.subset(set(rng.sample(range(n), rng.randint(1, n))))
        b = space.subset(set(rng.sample(range(n), rng.randint(1, n))))
        assert hausdorff_distance(space, a, b) >= set_set_distance(space, a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms_on_subsets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        space = planar_space(seed, n)
        subsets = [
            space.subset(set(rng.sample(range(n), rng.randint(1, n)))) for _ in range(3)
        ]
        a, b, c = subsets
        # symmetry
        assert hausdorff_distance(space, a, b) == hausdorff_distance(space, b, a)
        # identity of indiscernibles (kind=metric, so equal iff same index set)
        assert (hausdorff_distance(space, a, b) == 0.0) == (a.indices == b.indices)
        # triangle inequality
        assert hausdorff_distance(space, a, c) <= (
            hausdorff_distance(space, a, b) + hausdorff_distance(space, b, c) + 1e-9
        )


class TestFormats:
    def test_text_format_auto_labels(self):
        space = space_from_text("0 1 2\n1 0 1\n2 1 0\n", name="line")
        assert space.labels == ("p0", "p1", "p2")
        assert space.name == "line"

    def test_json_round_trip(self, tmp_path):
        import json

        from ghgeo import load_space

        space = line_space()
        path = tmp_path / "s.json"
        path.write_text(json.dumps(space.to_json_dict()))
        loaded = load_space(path)
        assert loaded.labels == space.labels
        assert np.array_equal(loaded.dist, space.dist)
        assert loaded.kind == "metric"

    def test_max_triangle_deficit_zero_on_line(self):
        worst, _ = max_triangle_deficit(line_space().dist)
        assert worst == 0.0


class TestTriangleScan:
    @settings(max_examples=400, deadline=None)
    @given(matrix=triangle_matrices(), block=st.sampled_from([1, 20, 100, BLOCK_ELEMENTS]))
    def test_matches_naive_first_triple(self, matrix, block):
        # small blocks split even these matrices into several row blocks
        with mock.patch.object(metric_core, "BLOCK_ELEMENTS", block):
            value, witness = max_triangle_deficit(np.array(matrix))
        want, want_witness = naive_triangle_witness(matrix)
        assert witness == want_witness
        if math.isnan(want):
            assert math.isnan(value)
        else:
            assert value == want
            assert math.copysign(1.0, value) == math.copysign(1.0, want)

    @pytest.mark.parametrize("block", [1, BLOCK_ELEMENTS])
    def test_violation_only_below_the_diagonal(self, block, monkeypatch):
        # the upper triangle is a metric; only d[2][0] > d[2][1] + d[1][0]
        monkeypatch.setattr(metric_core, "BLOCK_ELEMENTS", block)
        d = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        assert max_triangle_deficit(np.array(d)) == naive_triangle_witness(d) == (3.0, (2, 0, 1))

    def test_exact_graph_metric_stops_at_first_k(self):
        # a 20 x 20 grid graph: every pair ties at deficit 0, so the witness
        # is (0, 0, 0) and the witness scan ends after k = 0
        side = np.arange(400)
        x, y = side // 20, side % 20
        d = (np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])).astype(float)
        start = time.perf_counter()
        assert max_triangle_deficit(d) == (0.0, (0, 0, 0))
        assert time.perf_counter() - start < 1.0
