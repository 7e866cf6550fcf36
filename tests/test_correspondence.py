"""Tests for correspondences, distortion, and GH distance solvers."""

import importlib
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghgeo import (
    AsymmetricMatrix,
    Correspondence,
    FiniteMetricSpace,
    HeuristicConfig,
    InvalidRelation,
    NonzeroDiagonal,
    NotSurjective,
    SearchSpaceTooLarge,
    SizeMismatch,
    correspondence_from_json_dict,
    distortion,
    gh_distance_exact,
    gh_distance_heuristic,
    gh_lower_bound,
    slice_gh_check,
    validate_metric,
)
from ghgeo import correspondence as C

from instances import (
    graph_matrix,
    one_point_space,
    planar_matrix,
    planar_pair,
    planar_space,
    two_point_space,
)
from oracles import bnb_gh, naive_gh, naive_gh_heuristic, naive_surjective_masks

DATA_DIR = Path(__file__).parent / "data"
# every shape with 13 <= m*n <= 25: above naive_gh's reach, within the cap
ORACLE_SHAPES = [(m, n) for m in range(1, 26) for n in range(1, 26) if 13 <= m * n <= 25]
# every shape naive_gh enumerates quickly
NAIVE_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


SMALL_INTEGERS = st.integers(0, 3).map(float)


@st.composite
def symmetric_zero_diagonal(draw, size: int, entry=st.one_of(SMALL_INTEGERS, st.floats(0.0, 4.0))):
    """An exactly symmetric matrix with zero diagonal; small integers give ties."""
    d = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = draw(entry)
    return d


def two_v_two():
    return two_point_space(2.0), validate_metric([[0, 1], [1, 0]], name="Y")


class TestRelationTypes:
    def test_empty_pairs_rejected(self):
        # an empty or out-of-range pair set is an invalid relation, checked
        # before surjectivity
        with pytest.raises(InvalidRelation) as err:
            Correspondence(2, 2, frozenset())
        assert type(err.value) is InvalidRelation

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidRelation) as err:
            Correspondence(2, 2, frozenset({(0, 0), (1, 1), (0, 2)}))
        assert type(err.value) is InvalidRelation

    def test_non_surjective_rejected(self):
        with pytest.raises(NotSurjective):
            Correspondence(2, 2, frozenset({(0, 0)}))

    def test_surjectivity_check_is_independent_of_index_range(self):
        # an index range read from a file can be huge; the check never
        # materializes it
        with pytest.raises(NotSurjective):
            Correspondence(10**18, 1, frozenset({(0, 0)}))

    @pytest.mark.parametrize(
        "m, n, pairs, bad",
        [
            (2, 2, {(0, 0), (1, 1.9)}, "1.9"),
            (2, 2, {(0, 0), (True, 1)}, "True"),
            (2, 2, {(0, 0), (1, 1.0)}, "1.0"),
            (2.5, 2, {(0, 0), (1, 1)}, "2.5"),
            (2, True, {(0, 0), (1, 0)}, "True"),
            (2, "2", {(0, 0), (1, 1)}, "'2'"),
        ],
    )
    def test_indices_must_be_integers(self, m, n, pairs, bad):
        # int() used to read 1.9 and True as 1, and m, n were never checked
        with pytest.raises(InvalidRelation, match="not an integer") as err:
            Correspondence(m, n, frozenset(pairs))
        assert type(err.value) is InvalidRelation
        assert bad in str(err.value)

    def test_numpy_integers_accepted_as_ints(self):
        corr = Correspondence(np.int64(2), 2, frozenset({(np.int64(0), 0), (1, np.int32(1))}))
        assert corr == Correspondence(2, 2, frozenset({(0, 0), (1, 1)}))
        assert all(type(v) is int for v in (corr.m, corr.n, *(v for p in corr.pairs for v in p)))

    def test_bitmask_round_trip(self):
        corr = Correspondence(2, 2, frozenset({(0, 1), (1, 0)}))
        assert corr.bitmask() == 6
        assert Correspondence.from_bitmask(2, 2, 6).pairs == corr.pairs

    def test_transpose(self):
        corr = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        assert corr.transpose().pairs == frozenset({(0, 0), (0, 1)})

    def test_json_round_trip(self):
        corr = Correspondence(2, 2, frozenset({(0, 1), (1, 0)}))
        assert correspondence_from_json_dict(corr.to_json_dict()).pairs == corr.pairs


class TestDistortion:
    def test_identity_correspondence_zero(self):
        x = planar_space(3, 3)
        ident = Correspondence(3, 3, frozenset((i, i) for i in range(3)))
        assert distortion(ident, x, x) == 0.0

    def test_collapse_to_point(self):
        x, y = two_point_space(2.0), one_point_space()
        r = Correspondence(2, 1, frozenset({(0, 0), (1, 0)}))
        assert distortion(r, x, y) == 2.0

    def test_full_product(self):
        x, y = two_v_two()
        full = Correspondence(2, 2, frozenset(itertools.product(range(2), range(2))))
        assert distortion(full, x, y) == 2.0

    def test_size_mismatch(self):
        x, y = two_v_two()
        with pytest.raises(SizeMismatch):
            distortion(Correspondence(3, 2, frozenset({(0, 0), (1, 1), (2, 1)})), x, y)


class TestEnumeration:
    def test_min_distortion_dominates_diameter_gap(self):
        for seed in range(12):
            rng = random.Random(seed)
            x = planar_space(seed * 2 + 1, rng.randint(1, 3))
            y = planar_space(seed * 2 + 2, rng.randint(1, 4))
            lo = abs(x.diameter() - y.diameter())
            m, n = len(x), len(y)
            dis_min = min(
                distortion(Correspondence.from_bitmask(m, n, mask), x, y)
                for mask in naive_surjective_masks(m, n)
            )
            assert dis_min >= lo - 1e-12


class TestExactSolver:
    def test_equal_matrices_give_zero(self):
        x = planar_space(7, 3)
        y = validate_metric(x.dist, name="copy")
        res = gh_distance_exact(x, y)
        assert res.value == 0.0
        assert res.method == "exact"
        assert res.is_certified_optimal

    def test_two_points_vs_one(self):
        res = gh_distance_exact(two_point_space(2.0), one_point_space())
        assert res.value == 1.0
        assert res.witness.pairs == frozenset({(0, 0), (1, 0)})

    def test_two_v_two(self):
        x, y = two_v_two()
        res = gh_distance_exact(x, y)
        assert res.value == 0.5
        assert len(res.witness.pairs) == res.witness.m == res.witness.n
        # canonical witness: smallest bitmask among the two optimal bijections
        assert res.witness.bitmask() == 6

    def test_value_is_half_witness_distortion(self):
        x, y = planar_pair(11, sizes=(2, 3))
        res = gh_distance_exact(x, y)
        assert res.value == 0.5 * distortion(res.witness, x, y)

    def test_matches_naive_enumeration(self):
        for seed in range(25):
            x, y = planar_pair(seed)
            value, mask = naive_gh(x.dist.tolist(), y.dist.tolist())
            res = gh_distance_exact(x, y)
            assert res.value == value
            assert res.witness.bitmask() == mask

    def test_tie_break_matches_oracle_on_equal_spaces(self):
        # many zero-distortion correspondences exist; the canonical witness
        # (fewest pairs, then smallest bitmask) must match the naive scan
        x = planar_space(55, 3)
        y = validate_metric(x.dist, name="copy")
        value, mask = naive_gh(x.dist.tolist(), y.dist.tolist())
        res = gh_distance_exact(x, y)
        assert res.value == value == 0.0
        assert res.witness.bitmask() == mask

    def test_symmetry_under_transpose(self):
        for seed in range(10):
            x, y = planar_pair(seed + 100)
            fwd = gh_distance_exact(x, y)
            bwd = gh_distance_exact(y, x)
            assert fwd.value == bwd.value
            assert distortion(fwd.witness.transpose(), y, x) == 2.0 * bwd.value

    def test_self_distance_zero(self):
        for seed in range(5):
            x = planar_space(seed, 1 + seed % 4)
            assert gh_distance_exact(x, x).value == 0.0

    def test_triangle_inequality_on_small_triples(self):
        for seed in range(15):
            rng = random.Random(seed)
            spaces = [planar_space(seed * 10 + i, rng.randint(1, 3)) for i in range(3)]
            x, y, z = spaces
            dxy = gh_distance_exact(x, y).value
            dyz = gh_distance_exact(y, z).value
            dxz = gh_distance_exact(x, z).value
            assert dxz <= dxy + dyz + 1e-12

    def test_golden_file_reproduced_byte_for_byte(self, monkeypatch):
        monkeypatch.syspath_prepend(str(DATA_DIR))
        generator = importlib.import_module("generate_exact_golden")
        assert generator.render() == (DATA_DIR / "exact_golden.json").read_text()

    def test_tail_golden_reproduced(self):
        # the benchmark's slowest pairs for the index-order branch and bound;
        # the stored values are checked, the generator is not rerun
        data = json.loads((DATA_DIR / "exact_tail.json").read_text())
        for inst in data["instances"]:
            res = gh_distance_exact(validate_metric(inst["X"]), validate_metric(inst["Y"]))
            assert (res.value, res.witness.bitmask()) == (inst["value"], inst["mask"]), inst

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from(ORACLE_SHAPES),
        make=st.sampled_from([planar_matrix, graph_matrix]),
        seed=st.integers(0, 2**32 - 1),
        jitter=st.booleans(),
    )
    def test_matches_branch_and_bound_oracle(self, shape, make, seed, jitter):
        # planar pairs rarely tie, graph pairs tie a lot; jittered entries are
        # symmetric and zero on the diagonal only within tol, and the solver
        # reads the normal form validate_metric stores
        rng = random.Random(seed)
        dx, dy = (make(rng, size) for size in shape)
        if jitter:
            dx, dy = ([[v + rng.uniform(-4e-10, 4e-10) for v in row] for row in d] for d in (dx, dy))
        # +-4e-10 on every entry can add up to 1.2e-9 to a triangle deficit
        x, y = validate_metric(dx, tol=2e-9), validate_metric(dy, tol=2e-9)
        res = gh_distance_exact(x, y)
        assert (res.value, res.witness.bitmask()) == bnb_gh(x.dist.tolist(), y.dist.tolist())
        assert res.value == 0.5 * distortion(res.witness, x, y)

    def test_cap_enforced(self):
        x = planar_space(1, 6)
        y = planar_space(2, 5)
        with pytest.raises(SearchSpaceTooLarge):
            gh_distance_exact(x, y)


class TestLowerBound:
    def test_identical_spaces(self):
        x = planar_space(3, 3)
        assert gh_lower_bound(x, x) == 0.0

    def test_two_points_vs_one(self):
        assert gh_lower_bound(two_point_space(2.0), one_point_space()) == 1.0

    def test_two_v_two(self):
        x, y = two_v_two()
        assert gh_lower_bound(x, y) == 0.5

    def test_never_exceeds_exact(self):
        for seed in range(20):
            x, y = planar_pair(seed + 400)
            assert gh_lower_bound(x, y) <= gh_distance_exact(x, y).value + 1e-15


def drawn_pair(shape, make, seed: int, jitter: bool):
    """A pair from ``make`` (planar or tie-heavy graph), its entries moved by
    up to +-4e-10 when ``jitter`` is set."""
    rng = random.Random(seed)
    dx, dy = (make(rng, size) for size in shape)
    if jitter:
        dx, dy = ([[v + rng.uniform(-4e-10, 4e-10) for v in row] for row in d] for d in (dx, dy))
    # +-4e-10 on every entry can add up to 1.2e-9 to a triangle deficit
    return validate_metric(dx, tol=2e-9), validate_metric(dy, tol=2e-9)


class TestDiameterFloor:
    """The value search stops at |diam X - diam Y|, which must bound every
    distortion exactly in floats, or it could return a value above the
    optimum."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(NAIVE_SHAPES),
        make=st.sampled_from([planar_matrix, graph_matrix]),
        seed=st.integers(0, 2**32 - 1),
        jitter=st.booleans(),
    )
    def test_floor_bounds_every_distortion_and_any_start_agrees(self, shape, make, seed, jitter):
        x, y = drawn_pair(shape, make, seed, jitter)
        m, n = shape
        floor = C._diameter_gap(x, y)
        for mask in naive_surjective_masks(m, n):
            assert distortion(Correspondence.from_bitmask(m, n, mask), x, y) >= floor
        value, witness = naive_gh(x.dist.tolist(), y.dist.tolist())
        starts = [C._greedy_codes(x, y), list(range(m * n)),
                  [k for k in range(m * n) if witness >> k & 1]]
        assert {C._min_distortion(x, y, start)[0] for start in starts} == {2.0 * value}

    def test_no_cover_search_when_the_start_meets_the_floor(self, monkeypatch):
        calls = []
        find_cover = C._find_cover

        def counted(*args):
            calls.append(1)
            return find_cover(*args)

        monkeypatch.setattr(C, "_find_cover", counted)
        met = 0
        for seed in range(40):
            x, y = drawn_pair(NAIVE_SHAPES[seed % len(NAIVE_SHAPES)], graph_matrix, seed, False)
            value, witness = naive_gh(x.dist.tolist(), y.dist.tolist())
            calls.clear()
            best, _ = C._min_distortion(x, y, [k for k in range(len(x) * len(y)) if witness >> k & 1])
            assert best == 2.0 * value
            # from an optimal start: no search when it meets the floor, else
            # the one that finds nothing
            at_floor = best == C._diameter_gap(x, y)
            assert (not calls) == at_floor, seed
            met += at_floor
        assert 0 < met < 40
        calls.clear()
        assert gh_distance_exact(two_point_space(2.0), one_point_space()).value == 1.0
        assert not calls


class TestSearchKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 30), st.integers(1, 200)).flatmap(
        lambda shape: arrays(np.bool_, shape)))
    def test_each_row_is_the_int_of_its_set_columns(self, allowed):
        # widths past 64 and 128 take a second and third word
        expected = [sum(1 << q for q in np.flatnonzero(row).tolist()) for row in allowed]
        assert C._bitsets(allowed) == expected


class TestHeuristic:
    def test_identical_spaces_reach_zero(self):
        x = planar_space(42, 4)
        y = validate_metric(x.dist, name="copy")
        res = gh_distance_heuristic(x, y)
        assert res.value == 0.0
        assert res.method == "heuristic"
        assert not res.is_certified_optimal

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_two_v_two_any_seed(self, seed):
        x, y = two_v_two()
        res = gh_distance_heuristic(x, y, HeuristicConfig(seed=seed))
        assert res.value == 0.5

    def test_upper_bounds_exact_on_five_point_pairs(self):
        for seed in range(12):
            rng = random.Random(seed)
            x = planar_space(seed * 3 + 1, rng.randint(2, 5))
            y = planar_space(seed * 3 + 2, rng.randint(2, 5))
            exact = gh_distance_exact(x, y).value
            heur = gh_distance_heuristic(x, y).value
            assert heur >= exact - 1e-12

    def test_deterministic_for_fixed_seed(self):
        x = planar_space(9, 5)
        y = planar_space(10, 4)
        cfg = HeuristicConfig(seed=3)
        a = gh_distance_heuristic(x, y, cfg)
        b = gh_distance_heuristic(x, y, cfg)
        assert a.value == b.value
        assert a.witness.pairs == b.witness.pairs

    def test_witness_backs_the_value(self):
        x = planar_space(21, 5)
        y = planar_space(22, 3)
        res = gh_distance_heuristic(x, y)
        assert res.value == 0.5 * distortion(res.witness, x, y)

    def test_value_is_half_witness_distortion_when_symmetric_within_tol(self):
        # validate_metric accepts asymmetry and diagonals up to tol and stores
        # the normal form; both solvers read it as distortion() does, and the
        # exact one matches the oracle's canonical witness
        pairs = [
            ([[0, 1 + 5e-10, 2], [1, 0, 1.5], [2, 1.5, 0]], [[0, 1], [1, 0]]),
            ([[0, 1.9999999996], [2.0000000004, 0]], [[0, 3.0000000004], [3.0000000004, 0]]),
            ([[0, 1.0000000004], [0.9999999996, 0]], [[0, 3, 2], [3, 0, 1], [2, 1, 0]]),
            ([[3e-10]], [[0.0]]),
        ]
        for mx, my in pairs:
            x, y = validate_metric(mx), validate_metric(my)
            for a, b in ((x, y), (y, x)):
                res = gh_distance_heuristic(a, b)
                assert res.value == 0.5 * distortion(res.witness, a, b)
                res = gh_distance_exact(a, b)
                assert res.value == 0.5 * distortion(res.witness, a, b)
                value, mask = naive_gh(a.dist.tolist(), b.dist.tolist())
                assert (res.value, res.witness.bitmask()) == (value, mask)
        assert gh_distance_exact(validate_metric([[3e-10]]), validate_metric([[0.0]])).value == 0.0
        # the slice check accepts the exact solver's own witness
        x, y = (validate_metric(mx) for mx in pairs[2])
        check = slice_gh_check(gh_distance_exact(x, y).witness, x, y, 0.25, 0.75)
        assert check.error < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 6))
    def test_value_is_half_witness_distortion_on_any_matrix(self, data, m, n):
        entry = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 4.0))
        dx = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
        dy = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        # a space holds only the normal form: symmetric by max, zero diagonal
        normal = []
        for d in (dx, dy):
            a = np.maximum(np.array(d), np.array(d).T)
            np.fill_diagonal(a, 0.0)
            if not np.array_equal(a, d):
                with pytest.raises((AsymmetricMatrix, NonzeroDiagonal)):
                    FiniteMetricSpace(tuple(f"p{i}" for i in range(len(d))), d)
            normal.append(a.tolist())
        dx, dy = normal
        x = FiniteMetricSpace(tuple(f"x{i}" for i in range(m)), dx)
        y = FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), dy)
        res = gh_distance_heuristic(x, y, HeuristicConfig(iterations=50, restarts=2))
        assert res.value == 0.5 * distortion(res.witness, x, y)
        if m * n <= 12:
            res = gh_distance_exact(x, y)
            assert res.value == 0.5 * distortion(res.witness, x, y)
            value, mask = naive_gh(dx, dy)
            assert (res.value, res.witness.bitmask()) == (value, mask)

    @pytest.mark.parametrize("size, limit_mib", [(40, 8), (60, 8), (100, 64), ((50, 200), 8)])
    def test_peak_memory(self, size, limit_mib):
        # the (mn)^2 delta table alone took 97.7 MiB at 40 x 40, and an
        # |R| x mn array per descent 17.3 MiB at 50 x 200
        m, n = size if isinstance(size, tuple) else (size, size)
        x, y = planar_space(1, m), planar_space(2, n)
        tracemalloc.start()
        try:
            gh_distance_heuristic(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    def test_golden_file_reproduced_exactly(self):
        data = json.loads((DATA_DIR / "heuristic_golden.json").read_text())
        for inst in data["instances"]:
            x = validate_metric(inst["X"])
            y = validate_metric(inst["Y"])
            res = gh_distance_heuristic(x, y, HeuristicConfig(**inst["config"]))
            assert res.value == inst["value"], inst["seed"]
            assert res.witness.to_json_dict()["pairs"] == inst["witness"], inst["seed"]

    def test_scale_golden_reproduced(self):
        # the benchmark's shapes, where descents make dozens of swaps; the
        # stored values are checked, the generator is not rerun
        data = json.loads((DATA_DIR / "heuristic_scale_golden.json").read_text())
        for inst in data["instances"]:
            x, y = validate_metric(inst["X"]), validate_metric(inst["Y"])
            res = gh_distance_heuristic(x, y, HeuristicConfig(**inst["config"]))
            assert res.value == inst["value"], inst["seed"]
            assert res.witness.to_json_dict()["pairs"] == inst["witness"], inst["seed"]

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        iterations=st.one_of(st.integers(1, 4), st.just(1000)),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 5),
    )
    def test_matches_table_oracle(self, data, m, n, iterations, seed, restarts):
        dx = data.draw(symmetric_zero_diagonal(m))
        dy = data.draw(symmetric_zero_diagonal(n))
        x = FiniteMetricSpace(tuple(f"x{i}" for i in range(m)), dx)
        y = FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), dy)
        res = gh_distance_heuristic(x, y, HeuristicConfig(iterations, seed, restarts))
        value, pairs = naive_gh_heuristic(dx, dy, iterations, seed, restarts)
        assert res.value == value
        assert res.witness.sorted_pairs() == pairs

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 10),
        kind=st.sampled_from(["ties", "jittered", "isometric"]),
        iterations=st.one_of(st.integers(1, 4), st.just(1000)),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 5),
    )
    def test_matches_table_oracle_on_square_pairs(self, data, n, kind, iterations, seed, restarts):
        # every start of a square pair is a bijection, which _descend scores
        # without building its move array; an isometric pair (Y a permutation
        # of X) has distortion 0
        entry = SMALL_INTEGERS
        if kind == "jittered":
            entry = st.tuples(SMALL_INTEGERS, st.floats(0.0, 4e-10)).map(sum)
        dx = data.draw(symmetric_zero_diagonal(n, entry))
        if kind == "isometric":
            perm = data.draw(st.permutations(range(n)))
            dy = [[dx[a][b] for b in perm] for a in perm]
        else:
            dy = data.draw(symmetric_zero_diagonal(n, entry))
        x = FiniteMetricSpace(tuple(f"x{i}" for i in range(n)), dx)
        y = FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), dy)
        res = gh_distance_heuristic(x, y, HeuristicConfig(iterations, seed, restarts))
        value, pairs = naive_gh_heuristic(dx, dy, iterations, seed, restarts)
        assert res.value == value
        assert res.witness.sorted_pairs() == pairs

    @pytest.mark.parametrize("shape, calls", [((12, 12), 0), ((30, 30), 0), ((8, 20), 0)])
    def test_delta_rows_built(self, monkeypatch, shape, calls):
        # the greedy start and the descents build their deltas one row or
        # one line of slots at a time, never through _deltas
        deltas, count = C._deltas, []

        def counting(*args):
            count.append(1)
            return deltas(*args)

        monkeypatch.setattr(C, "_deltas", counting)
        gh_distance_heuristic(planar_space(1, shape[0]), planar_space(2, shape[1]))
        assert len(count) == calls

    @pytest.mark.parametrize("field", ["iterations", "restarts"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, True, False, "3", None])
    def test_config_counts_are_positive_integers(self, field, value):
        # restarts=2.5 escaped as a TypeError from range; iterations=2.5 and
        # True were accepted
        with pytest.raises(ValueError, match=field):
            HeuristicConfig(**{field: value})
        assert getattr(HeuristicConfig(**{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("value", [None, 2.5, 3.0, True, False, "a"])
    def test_config_seed_is_an_integer(self, value):
        # seed=None seeded random.Random from the OS: 14 different witnesses
        # in 20 calls on this pair
        with pytest.raises(ValueError, match="seed"):
            HeuristicConfig(seed=value)
        x, y = planar_space(1, 6), planar_space(2, 9)
        runs = [gh_distance_heuristic(x, y, HeuristicConfig(seed=s)).to_json_dict()
                for s in (-3, np.int64(-3))]
        assert runs[0] == runs[1]

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        small=st.integers(1, 3),
        large=st.integers(4, 12),
        transpose=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_table_oracle_on_skewed_ties(self, data, small, large, transpose, seed):
        # on one to three rows (or columns) most members are alone in their
        # column (or row), so swaps are confined to one line, and integer
        # entries put many deltas exactly at the current distortion
        m, n = (large, small) if transpose else (small, large)
        dx = data.draw(symmetric_zero_diagonal(m, SMALL_INTEGERS))
        dy = data.draw(symmetric_zero_diagonal(n, SMALL_INTEGERS))
        x = FiniteMetricSpace(tuple(f"x{i}" for i in range(m)), dx)
        y = FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), dy)
        res = gh_distance_heuristic(x, y, HeuristicConfig(seed=seed, restarts=3))
        value, pairs = naive_gh_heuristic(dx, dy, seed=seed, restarts=3)
        assert res.value == value
        assert res.witness.sorted_pairs() == pairs

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        small=st.integers(1, 3),
        large=st.integers(4, 12),
        transpose=st.booleans(),
        iterations=st.one_of(st.integers(1, 6), st.just(1000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_table_oracle_on_truncated_skewed_descents(
        self, data, small, large, transpose, iterations, seed
    ):
        # descents cut after a few swaps stop in states of the kept member
        # order and line counts, not only in a local minimum; float entries
        # give steps with a single hot pair, whose two members may both be
        # candidates, tried in code order
        m, n = (large, small) if transpose else (small, large)
        dx = data.draw(symmetric_zero_diagonal(m))
        dy = data.draw(symmetric_zero_diagonal(n))
        x = FiniteMetricSpace(tuple(f"x{i}" for i in range(m)), dx)
        y = FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), dy)
        res = gh_distance_heuristic(x, y, HeuristicConfig(iterations, seed, 3))
        value, pairs = naive_gh_heuristic(dx, dy, iterations, seed, 3)
        assert res.value == value
        assert res.witness.sorted_pairs() == pairs

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        max_steps=st.one_of(st.integers(0, 4), st.just(1000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_start_and_descent_is_a_map_onto_the_smaller_side(
        self, data, m, n, max_steps, seed
    ):
        # each point of the larger side has exactly one partner and every
        # point of the smaller side has one at least: the graph of a map
        # from the larger side onto the smaller, which _descend relies on
        x = FiniteMetricSpace(tuple(f"x{i}" for i in range(m)), data.draw(symmetric_zero_diagonal(m)))
        y = FiniteMetricSpace(tuple(f"y{j}" for j in range(n)), data.draw(symmetric_zero_diagonal(n)))
        rng = random.Random(seed)
        starts = [C._greedy_codes(x, y)] + [C._random_codes(rng, m, n) for _ in range(3)]
        for codes in starts + [C._descend(x, y, start, max_steps)[1] for start in starts]:
            rows, cols = [c // n for c in codes], [c % n for c in codes]
            big, small = (rows, cols) if m >= n else (cols, rows)
            assert sorted(big) == list(range(max(m, n)))
            assert set(small) == set(range(min(m, n)))

    def test_candidates_are_tried_in_code_order(self):
        # a descent step on this 3 x 5 planar pair has one hot pair, whose
        # two points of Y can both move; slot codes i*n + j order them by
        # (image, point), not by point, and trying them by point ends at
        # 0.15239207305515973
        dx = [[0.0, 0.5856423760974991, 0.7693976439826878],
              [0.5856423760974991, 0.0, 0.264199260012427],
              [0.7693976439826878, 0.264199260012427, 0.0]]
        dy = [[0.0, 0.8487501813506666, 0.30478414611031945, 0.6769312840790632, 0.20875441798623573],
              [0.8487501813506666, 0.0, 0.5942598926940639, 0.21271405432663548, 0.6509435277995677],
              [0.30478414611031945, 0.5942598926940639, 0.0, 0.4693385828263944, 0.10746026844049457],
              [0.6769312840790632, 0.21271405432663548, 0.4693385828263944, 0.0, 0.4971955780041977],
              [0.20875441798623573, 0.6509435277995677, 0.10746026844049457, 0.4971955780041977, 0.0]]
        res = gh_distance_heuristic(validate_metric(dx), validate_metric(dy))
        expected = (0.15002953057814672, [(0, 1), (0, 3), (1, 0), (1, 4), (2, 2)])
        assert (res.value, res.witness.sorted_pairs()) == expected
        assert naive_gh_heuristic(dx, dy) == expected

    @pytest.mark.parametrize("kind", ["planar", "graph"])
    @pytest.mark.parametrize("m, n", [(8, 60), (16, 40), (60, 8)])
    def test_every_budget_leaves_a_correspondence_worth_its_value(self, kind, m, n):
        # the benchmark's skewed shapes, where the table oracle is too slow:
        # random-start descents cut at every step count up to their end
        # return a correspondence whose distortion is the value returned,
        # and more steps never raise the value
        make = {"planar": planar_matrix, "graph": graph_matrix}[kind]
        rng = random.Random(f"{kind} {m}x{n}")
        x = validate_metric(make(rng, m), kind="pseudometric", tol=1e-9)
        y = validate_metric(make(rng, n), kind="pseudometric", tol=1e-9)
        for _ in range(2):
            start = C._random_codes(rng, m, n)
            end = C._descend(x, y, start, 1000)
            steps, last = 0, float("inf")
            while True:
                value, codes = C._descend(x, y, start, steps)
                witness = Correspondence(m, n, frozenset(divmod(c, n) for c in codes))
                assert distortion(witness, x, y) == value
                assert value <= last
                if (value, codes) == end:
                    break
                steps, last = steps + 1, value
            # ties leave most starts of a graph pair without a move
            assert kind == "graph" or steps > 0
