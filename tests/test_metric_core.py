"""Tests for space validation, point/set distances, and Hausdorff distance."""

import math
import random
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghgeo import (
    AsymmetricMatrix,
    EmptyMatrix,
    EmptySubset,
    FiniteMetricSpace,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
    dump_space,
    geodesic_slice,
    gh_distance_exact,
    hausdorff_distance,
    load_space,
    max_triangle_deficit,
    point_set_distance,
    realize_geodesic,
    set_set_distance,
    slice_gh_check,
    space_from_text,
    validate_metric,
)
from ghgeo import metric_core
from ghgeo.metric_core import BLOCK_ELEMENTS

from instances import graph_matrix, line_space, planar_matrix, planar_space, two_point_space
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

    def test_empty_matrix_rejected(self):
        # not numpy's zero-size reduction error
        with pytest.raises(EmptyMatrix, match="empty"):
            validate_metric(np.zeros((0, 0)))
        with pytest.raises(EmptyMatrix, match="empty"):
            FiniteMetricSpace((), np.zeros((0, 0)))

    def test_zero_off_diagonal_only_when_metric_demanded(self):
        matrix = [[0, 0], [0, 0]]
        with pytest.raises(ZeroOffDiagonal):
            validate_metric(matrix, kind="metric")
        space = validate_metric(matrix, kind="pseudometric")
        assert space.kind == "pseudometric"

    def test_reported_kind_is_strictest_that_holds(self):
        space = validate_metric([[0, 1], [1, 0]], kind="pseudometric")
        assert space.kind == "metric"

    def test_space_kind_is_derived_from_the_matrix(self):
        # a zero distance between distinct points was stored as kind "metric"
        assert FiniteMetricSpace(("a", "b"), [[0, 0], [0, 0]]).kind == "pseudometric"
        assert FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]]).kind == "metric"
        with pytest.raises(TypeError):
            FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]], kind="pseudometric")

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


# each entry of a within-tol matrix moves by at most this; three of them move
# a triangle deficit by at most 9e-10, below the default tol
JITTER = 3e-10


@st.composite
def within_tol_matrices(draw, max_size: int = 7, jitter: bool = True):
    """A planar or graph matrix, optionally with point 0 duplicated (a zero
    off-diagonal entry), every entry moved by at most JITTER: asymmetric,
    nonzero on the diagonal and negative where zero, each within tol.
    Without jitter the matrix is in normal form, with a random choice of
    -0.0 diagonal entries."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([planar_matrix, graph_matrix]))(rng, draw(st.integers(1, max_size)))
    if draw(st.booleans()):
        d = [row + [row[0]] for row in d]
        d.append(list(d[0]))
    if not jitter:
        for i in range(len(d)):
            d[i][i] = draw(st.sampled_from([0.0, -0.0]))
        return d
    noise = st.floats(-JITTER, JITTER)
    return [[v + draw(noise) for v in row] for row in d]


def accepted_matrices(max_size: int = 7):
    """Matrices validate_metric accepts, within tol of the normal form or in it."""
    return st.one_of(within_tol_matrices(max_size), within_tol_matrices(max_size, jitter=False))


def points(d) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(len(d)))


class TestNormalForm:
    @settings(max_examples=150, deadline=None)
    @given(matrix=within_tol_matrices())
    def test_stored_matrix_is_the_normal_form(self, matrix):
        d = validate_metric(matrix).dist
        assert np.array_equal(d, d.T)
        assert (d >= 0.0).all()
        assert (np.diag(d) == 0.0).all()
        given_deficit, _ = max_triangle_deficit(np.array(matrix))
        assert max_triangle_deficit(d)[0] <= max(given_deficit, 0.0)
        assert validate_metric(d).dist.tobytes() == d.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.json"
            dump_space(validate_metric(matrix), path)
            assert load_space(path).dist.tobytes() == d.tobytes()

    def test_normal_input_is_stored_bit_for_bit(self):
        # np.maximum(-0.0, 0.0) returns 0.0, which would flip signed zeros
        d = np.array([[-0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [-0.0, 1.0, -0.0]])
        assert validate_metric(d).dist.tobytes() == d.tobytes()

    def test_metric_kind_is_read_from_the_stored_matrix(self):
        # d[0][1] is zero but its mirror is 5e-10: the stored distance is 5e-10
        space = validate_metric([[0, 0], [5e-10, 0]], kind="metric")
        assert space.kind == "metric"
        assert space.distance(0, 1) == space.distance(1, 0) == 5e-10

    def test_zero_distance_message_reads_the_input(self):
        with pytest.raises(ZeroOffDiagonal, match="-1e-10"):
            validate_metric([[0, -1e-10], [-1e-10, 0]], kind="metric")

    @pytest.mark.parametrize("matrix, error", [
        ([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]], AsymmetricMatrix),
        ([[0.0, -1e-300], [-1e-300, 0.0]], NegativeEntry),
        ([[0.0, 1.0], [1.0, 5e-324]], NonzeroDiagonal),
        ([[0.0, math.nan], [math.nan, 0.0]], NonFiniteEntry),
    ], ids=["one-ulp-asymmetry", "negative", "nonzero-diagonal", "nan"])
    def test_construction_rejects(self, matrix, error):
        with pytest.raises(error):
            FiniteMetricSpace(points(matrix), matrix)

    def test_construction_accepts_signed_zero_diagonal_and_products(self):
        d = [[-0.0, 1.0], [1.0, -0.0]]
        assert FiniteMetricSpace(points(d), d).dist.tobytes() == np.array(d).tobytes()
        x, y = two_point_space(2.0), two_point_space(1.0)
        prod, _ = realize_geodesic(x, y, gh_distance_exact(x, y).witness)
        assert np.array_equal(FiniteMetricSpace(points(prod.dist), prod.dist).dist, prod.dist)


class TestTrustedConstruction:
    """validate_metric and geodesic_slice build spaces without the public
    constructor's checks; rebuilding one through it changes nothing."""

    @staticmethod
    def assert_unchanged_by_public_constructor(space):
        again = FiniteMetricSpace(space.labels, space.dist, space.name)
        assert again.dist.tobytes() == space.dist.tobytes()
        assert (again.kind, again.labels, again.name) == (space.kind, space.labels, space.name)
        assert not space.dist.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(matrix=accepted_matrices())
    def test_validated_space(self, matrix):
        labels = [str(i) for i in range(len(matrix))]
        space = validate_metric(matrix, labels=labels, name="X")
        assert space.labels == tuple(labels)
        self.assert_unchanged_by_public_constructor(space)

    @settings(max_examples=40, deadline=None)
    @given(dx=accepted_matrices(4), dy=accepted_matrices(4), t=st.floats(0.0, 1.0))
    def test_slices_of_solver_witnesses(self, dx, dy, t):
        x, y = validate_metric(dx), validate_metric(dy)
        r = gh_distance_exact(x, y).witness
        for v in (0.0, t, 1.0):
            self.assert_unchanged_by_public_constructor(geodesic_slice(r, x, y, v))

    def test_form_checked_once_per_validation_and_never_per_slice(self, monkeypatch):
        calls = []
        check = metric_core._check_form
        monkeypatch.setattr(
            metric_core, "_check_form", lambda d, tol: calls.append(tol) or check(d, tol)
        )
        x = validate_metric(planar_matrix(random.Random(3), 3))
        y = validate_metric(graph_matrix(random.Random(4), 3), tol=0.0)
        assert calls == [1e-9, 0.0]
        r = gh_distance_exact(x, y).witness
        for t in (0.0, 0.5, 1.0):
            geodesic_slice(r, x, y, t)
        slice_gh_check(r, x, y, 0.25, 0.75)
        assert calls == [1e-9, 0.0]
        FiniteMetricSpace(x.labels, x.dist)
        assert calls == [1e-9, 0.0, 0.0]


class TestLabels:
    """Labels are strings: str() stored 1 and None as "1" and "None", labels
    a space file cannot hold."""

    @pytest.mark.parametrize("labels, bad", [([1, None], "1"), (["a", None], "None")])
    def test_validate_metric_rejects_non_strings(self, labels, bad):
        with pytest.raises(ValueError, match=f"expected a string, got {bad}$"):
            validate_metric([[0, 1], [1, 0]], labels=labels)

    def test_space_constructor_rejects_non_strings(self):
        with pytest.raises(ValueError, match="expected a string, got 2$"):
            FiniteMetricSpace([2, None], [[0, 1], [1, 0]])


class TestPointAndSetDistances:
    def test_member_gives_zero(self):
        space = line_space()
        assert point_set_distance(space, 1, {0, 1}) == 0.0

    def test_singleton_subset(self):
        space = line_space()
        assert point_set_distance(space, 0, {2}) == 2.0

    def test_min_over_two_points(self):
        space = line_space()
        assert point_set_distance(space, 0, {1, 2}) == 1.0

    def test_set_set_overlapping(self):
        space = line_space()
        assert set_set_distance(space, {0, 1}, {1, 2}) == 0.0

    def test_set_set_singletons(self):
        space = line_space()
        assert set_set_distance(space, {0}, {2}) == 2.0

    def test_set_set_min(self):
        space = line_space()
        assert set_set_distance(space, {0, 1}, {2}) == 1.0

    def test_empty_subset_rejected(self):
        space = line_space()
        with pytest.raises(EmptySubset):
            hausdorff_distance(space, set(), {0})

    def test_out_of_range_subset_rejected(self):
        space = line_space()
        with pytest.raises(ValueError):
            hausdorff_distance(space, {0, 7}, {0})

    @pytest.mark.parametrize("bad", [1.9, True, "2", np.float64(2.0), -1])
    def test_only_integers_in_range_are_indices(self, bad):
        # int() read 1.9 as point 1, numpy read -1 as the last point, and
        # True or 1.5 as a point leaked raw numpy errors
        space = line_space()
        calls = [
            lambda: point_set_distance(space, bad, {0}),
            lambda: point_set_distance(space, 0, [bad]),
            lambda: set_set_distance(space, [bad], {0}),
            lambda: set_set_distance(space, {0}, [bad]),
            lambda: hausdorff_distance(space, [bad], {0}),
            lambda: hausdorff_distance(space, {0}, [0, bad]),
            lambda: space.distance(bad, 0),
            lambda: space.distance(0, bad),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_numpy_integers_and_duplicates_accepted(self):
        space = line_space()
        two = np.int64(2)
        assert space.distance(two, np.int32(0)) == 2.0
        assert point_set_distance(space, two, np.array([0, 1])) == 1.0
        assert set_set_distance(space, [two, two], range(2)) == 1.0
        assert hausdorff_distance(space, (two, 0, 0), [0]) == 2.0

    def test_out_of_range_message_lists_indices_in_order(self):
        space = line_space()
        with pytest.raises(ValueError, match=r"^subset indices \[-3, 5, 9\] out of range for n=3$"):
            hausdorff_distance(space, {0}, (5, 9, -3, 1))


class TestHausdorff:
    def test_equal_subsets(self):
        space = line_space()
        a = {0, 2}
        assert hausdorff_distance(space, a, a) == 0.0

    def test_point_against_pair(self):
        space = line_space()
        assert hausdorff_distance(space, {0}, {0, 2}) == 2.0

    def test_singletons(self):
        space = line_space()
        assert hausdorff_distance(space, {0}, {2}) == 2.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_double_loop_exactly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        space = planar_space(seed, n)
        a = set(rng.sample(range(n), rng.randint(1, n)))
        b = set(rng.sample(range(n), rng.randint(1, n)))
        got = hausdorff_distance(space, a, b)
        dist = space.dist.tolist()
        assert got == naive_hausdorff(dist, sorted(a), sorted(b))
        assert point_set_distance(space, 0, b) == naive_point_set_distance(
            dist, 0, sorted(b)
        )
        assert set_set_distance(space, a, b) == (
            naive_set_set_distance(dist, sorted(a), sorted(b))
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dominates_set_set_distance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        space = planar_space(seed, n)
        a = set(rng.sample(range(n), rng.randint(1, n)))
        b = set(rng.sample(range(n), rng.randint(1, n)))
        assert hausdorff_distance(space, a, b) >= set_set_distance(space, a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms_on_subsets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        space = planar_space(seed, n)
        subsets = [
            set(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)
        ]
        a, b, c = subsets
        # symmetry
        assert hausdorff_distance(space, a, b) == hausdorff_distance(space, b, a)
        # identity of indiscernibles (kind=metric, so equal iff same index set)
        assert (hausdorff_distance(space, a, b) == 0.0) == (a == b)
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
        # a NaN or infinite entry used to give a NaN or infinite deficit
        if not np.isfinite(matrix).all():
            with pytest.raises(NonFiniteEntry):
                max_triangle_deficit(np.array(matrix))
            return
        # small blocks split even these matrices into several row blocks
        with mock.patch.object(metric_core, "BLOCK_ELEMENTS", block):
            value, witness = max_triangle_deficit(np.array(matrix))
        want, want_witness = naive_triangle_witness(matrix)
        assert witness == want_witness
        assert value == want
        assert math.copysign(1.0, value) == math.copysign(1.0, want)

    @pytest.mark.parametrize("matrix, error", [
        ([], NonSquareMatrix),
        ([[]], NonSquareMatrix),
        ([[0, 1, 2], [1, 0, 1]], NonSquareMatrix),
        ([0.0, 1.0], NonSquareMatrix),
        (np.zeros((0, 0)), EmptyMatrix),
    ], ids=["empty-list", "empty-row", "2x3", "1-d", "0x0"])
    def test_malformed_shapes_rejected(self, matrix, error):
        # [] and 0 x 0 gave (-inf, (0, 0, 0)); [[]] and 2 x 3 leaked numpy's
        # ValueError, a 1-d list an IndexError
        with pytest.raises(error):
            max_triangle_deficit(matrix)

    @pytest.mark.parametrize("block", [1, BLOCK_ELEMENTS])
    def test_violation_only_below_the_diagonal(self, block, monkeypatch):
        # the upper triangle is a metric; only d[2][0] > d[2][1] + d[1][0]
        monkeypatch.setattr(metric_core, "BLOCK_ELEMENTS", block)
        d = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        assert max_triangle_deficit(np.array(d)) == naive_triangle_witness(d) == (3.0, (2, 0, 1))

    def test_every_sum_overflows(self):
        # every deficit is -inf; the first triple is still (0, 0, 0)
        d = [[1e308] * 3 for _ in range(3)]
        assert max_triangle_deficit(np.array(d)) == naive_triangle_witness(d) == (-math.inf, (0, 0, 0))

    def test_exact_graph_metric_stops_at_first_k(self):
        # a 20 x 20 grid graph: every pair ties at deficit 0, so the witness
        # is (0, 0, 0) and the witness scan ends after k = 0
        side = np.arange(400)
        x, y = side // 20, side % 20
        d = (np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])).astype(float)
        start = time.perf_counter()
        assert max_triangle_deficit(d) == (0.0, (0, 0, 0))
        assert time.perf_counter() - start < 1.0
