"""Tests for the command-line front end and its exit-code contract."""

import copy
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghgeo import (
    IDENTITY_TOL,
    correspondence_from_json_dict,
    distortion,
    load_space,
    product_from_json_dict,
    space_from_json_dict,
)
from ghgeo.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_SEARCH_CAP,
    EXIT_VERIFICATION_FAILED,
    main,
    run,
)

from instances import planar_space

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
README = BENCH_DIR.parent / "README.md"


@pytest.fixture
def space_files(tmp_path):
    x = tmp_path / "X.json"
    y = tmp_path / "Y.json"
    x.write_text(json.dumps({"name": "X", "points": ["a", "b"],
                             "matrix": [[0, 2], [2, 0]]}))
    y.write_text(json.dumps({"name": "Y", "points": ["u", "v"],
                             "matrix": [[0, 1], [1, 0]]}))
    return str(x), str(y)


class TestOptionChecks:
    def test_invalid_values_exit_2(self, space_files):
        x, y = space_files
        for argv in (
            ["realize", x, y, "--grid", "1"],
            ["realize", x, y, "--tol", "0"],
            ["dist", x, y, "--iterations", "0"],
            ["dist", x, y, "--restarts", "0"],
        ):
            res = run(argv)
            assert res.exit_code == EXIT_INPUT_ERROR, argv
            assert json.loads(res.output)["error"] == "ValueError", argv

    def test_checked_before_files_are_read(self):
        res = run(["dist", "/nonexistent/X.json", "/nonexistent/Y.json", "--iterations", "0"])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert "iterations" in json.loads(res.output)["message"]


class TestValidateCommand:
    def test_valid_metric(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("0 1\n1 0\n")
        res = run(["validate", str(f)])
        assert res.exit_code == EXIT_OK
        payload = json.loads(res.output)
        assert payload["kind"] == "metric"
        assert payload["max_triangle_deficit"] == 0.0

    def test_invalid_matrix_exits_2(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1 3\n1 0 1\n3 1 0\n")
        res = run(["validate", str(f)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "TriangleViolation"

    def test_missing_file_exits_2(self):
        res = run(["validate", "/nonexistent/space.json"])
        assert res.exit_code == EXIT_INPUT_ERROR


class TestHausdorffCommand:
    def test_line_space(self, tmp_path):
        f = tmp_path / "line.txt"
        f.write_text("0 1 2\n1 0 1\n2 1 0\n")
        res = run(["hausdorff", str(f), "--a", "0", "--b", "0,2"])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["value"] == 2.0

    def test_bad_indices_exit_2(self, tmp_path):
        f = tmp_path / "line.txt"
        f.write_text("0 1 2\n1 0 1\n2 1 0\n")
        res = run(["hausdorff", str(f), "--a", "0", "--b", "9"])
        assert res.exit_code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("b, error, message", [
        ("9", "ValueError", "subset indices [9] out of range for n=3"),
        ("-1", "ValueError", "subset indices [-1] out of range for n=3"),
        (",", "EmptySubset", "point subset is empty"),
        # int() read each of the next four but 1.5 and 1.0 as the point 2
        ("1.5", "ValueError", "--b: '1.5' is not an integer"),
        ("1.0", "ValueError", "--b: '1.0' is not an integer"),
        ("0_2", "ValueError", "--b: '0_2' is not an integer"),
        (" +2", "ValueError", "--b: '+2' is not an integer"),
        ("\u0662", "ValueError", "--b: '\u0662' is not an integer"),
    ])
    def test_bad_indices_error_payload(self, tmp_path, b, error, message):
        f = tmp_path / "line.txt"
        f.write_text("0 1 2\n1 0 1\n2 1 0\n")
        res = run(["hausdorff", str(f), "--a", "0", f"--b={b}"])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output) == {"error": error, "message": message}

    @pytest.mark.parametrize("b", ["0,,2", " 2", "2 ,0"])
    def test_blank_parts_and_spaces_are_skipped(self, tmp_path, b):
        f = tmp_path / "line.txt"
        f.write_text("0 1 2\n1 0 1\n2 1 0\n")
        res = run(["hausdorff", str(f), "--a", "0", f"--b={b}"])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output) == {"value": 2.0}


class TestDistCommand:
    def test_exact(self, space_files):
        x, y = space_files
        res = run(["dist", x, y, "--exact"])
        assert res.exit_code == EXIT_OK
        payload = json.loads(res.output)
        assert payload["value"] == 0.5
        assert payload["certified"] is True
        assert payload["witness"]["pairs"] == [[0, 1], [1, 0]]

    def test_heuristic(self, space_files):
        x, y = space_files
        res = run(["dist", x, y, "--heuristic", "--seed", "5"])
        assert res.exit_code == EXIT_OK
        payload = json.loads(res.output)
        assert payload["value"] == 0.5
        assert payload["certified"] is False

    def test_cap_exceeded_exits_3(self, tmp_path):
        from ghgeo import dump_space

        x = tmp_path / "big1.json"
        y = tmp_path / "big2.json"
        dump_space(planar_space(1, 6), x)
        dump_space(planar_space(2, 5), y)
        res = run(["dist", str(x), str(y), "--exact"])
        assert res.exit_code == EXIT_SEARCH_CAP
        assert json.loads(res.output)["error"] == "SearchSpaceTooLarge"


class TestGeodesicCommand:
    def test_export_slice(self, space_files, tmp_path):
        x, y = space_files
        out = tmp_path / "slice.json"
        res = run(["geodesic", x, y, "--t", "0.5", "-o", str(out)])
        assert res.exit_code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["name"] == "geodesic(t=0.5)"
        assert payload["matrix"][0][1] == 1.5

    def test_with_explicit_correspondence(self, space_files, tmp_path):
        x, y = space_files
        corr = tmp_path / "R.json"
        corr.write_text(json.dumps({"m": 2, "n": 2, "pairs": [[0, 0], [1, 1]]}))
        res = run(["geodesic", x, y, "--t", "0.0", "--corr", str(corr)])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["matrix"][0][1] == 2.0

    def test_bad_t_exits_2(self, space_files):
        x, y = space_files
        res = run(["geodesic", x, y, "--t", "1.5"])
        assert res.exit_code == EXIT_INPUT_ERROR


class TestRealizeAndVerify:
    def test_round_trip(self, space_files, tmp_path):
        x, y = space_files
        out = tmp_path / "prod.json"
        res = run(["realize", x, y, "-o", str(out)])
        assert res.exit_code == EXIT_OK
        report = json.loads(res.output)
        assert report["passed"] is True

        res2 = run(["verify", str(out)])
        assert res2.exit_code == EXIT_OK
        assert json.loads(res2.output)["passed"] is True

    def test_isometric_without_c_exits_2(self, space_files):
        x, _ = space_files
        res = run(["realize", x, x])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "DegenerateGeodesic"

    def test_isometric_with_c_override_passes(self, space_files):
        x, _ = space_files
        res = run(["realize", x, x, "--c", "1.0"])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["report"]["passed"] is True

    def test_small_c_rejected_without_force(self, space_files):
        x, y = space_files
        res = run(["realize", x, y, "--c", "0.1"])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "ConditionFailed"

    def test_forced_small_c_fails_verification(self, space_files, tmp_path):
        x, y = space_files
        out = tmp_path / "forced.json"
        res = run(["realize", x, y, "--c", "0.1", "--force", "-o", str(out)])
        assert res.exit_code == EXIT_VERIFICATION_FAILED
        # report still written
        payload = json.loads(out.read_text())
        assert payload["report"]["passed"] is False
        assert payload["report"]["max_triangle_violation"] > 0

        res2 = run(["verify", str(out)])
        assert res2.exit_code == EXIT_VERIFICATION_FAILED

    def test_custom_grid_size(self, space_files):
        x, y = space_files
        res = run(["realize", x, y, "--grid", "5"])
        assert res.exit_code == EXIT_OK
        assert len(json.loads(res.output)["product"]["grid"]) == 5


class TestDeterminism:
    def test_byte_identical_output(self, space_files):
        x, y = space_files
        a = run(["dist", x, y, "--heuristic", "--seed", "7"])
        b = run(["dist", x, y, "--heuristic", "--seed", "7"])
        assert a.output == b.output

        r1 = run(["realize", x, y])
        r2 = run(["realize", x, y])
        assert r1.output == r2.output

    def test_json_floats_round_trip(self, space_files, tmp_path):
        import numpy as np

        from ghgeo import load_product, realize_geodesic, gh_distance_exact, load_space

        xs = load_space(space_files[0])
        ys = load_space(space_files[1])
        witness = gh_distance_exact(xs, ys).witness
        prod, _ = realize_geodesic(xs, ys, witness)
        out = tmp_path / "p.json"
        out.write_text(json.dumps(prod.to_json_dict()))
        assert np.array_equal(load_product(out).dist, prod.dist)


class TestNearlySymmetricSpaces:
    """Spaces that validate_metric accepts, symmetric only within tol; every
    command reads the normal form it stores."""

    @pytest.fixture
    def near_files(self, tmp_path):
        x = tmp_path / "X.json"
        y = tmp_path / "Y.json"
        x.write_text(json.dumps({"name": "X", "points": ["a", "b"],
                                 "matrix": [[0, 1.9999999996], [2.0000000004, 0]]}))
        y.write_text(json.dumps({"name": "Y", "points": ["u", "v"],
                                 "matrix": [[0, 3.0000000004], [3.0000000004, 0]]}))
        return str(x), str(y)

    @pytest.mark.parametrize("options", [["dist"], ["geodesic", "--t", "0.5"], ["realize"]])
    def test_json_and_exit_0(self, near_files, options):
        x, y = near_files
        res = run([options[0], x, y, *options[1:]])
        assert res.exit_code == EXIT_OK
        payload = json.loads(res.output)
        if options[0] == "dist":
            # the stored X is [[0, 2.0000000004], [2.0000000004, 0]]
            assert payload["value"] == 0.5

    @pytest.mark.parametrize("matrices", [
        ([[0, 1.9999999996], [2.0000000004, 0]], [[0, 3.0000000004], [3.0000000004, 0]]),
        ([[0, 1.0000000004, 2], [0.9999999996, 0, 1], [2, 1, 0]], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
    ])
    def test_realize_certifies(self, tmp_path, matrices):
        # the product used to inherit the asymmetry: symmetry_error 8e-10,
        # and 4e-10 restriction error on the second pair, exit 1
        paths = []
        for name, matrix in zip("XY", matrices):
            path = tmp_path / f"{name}.json"
            points = [f"p{i}" for i in range(len(matrix))]
            path.write_text(json.dumps({"name": name, "points": points, "matrix": matrix}))
            paths.append(str(path))
        res = run(["realize", *paths])
        assert res.exit_code == EXIT_OK
        report = json.loads(res.output)["report"]
        assert report["passed"] is True
        assert report["symmetry_error"] == 0.0
        assert report["restriction_max_error"] <= IDENTITY_TOL

    def test_dist_value_is_half_witness_distortion(self, near_files):
        x, y = near_files
        payload = json.loads(run(["dist", x, y]).output)
        witness = correspondence_from_json_dict(payload["witness"])
        assert payload["value"] == 0.5 * distortion(witness, load_space(x), load_space(y))


class TestMainEntry:
    def test_main_returns_exit_code(self, space_files, capsys):
        x, y = space_files
        code = main(["dist", x, y, "--exact"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["value"] == 0.5


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text: str):
    """json.loads without the NaN, Infinity and -Infinity tokens it accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_contract(res):
    """Exit code in {0, 1, 2, 3}, strict JSON on stdout, exit 1 only for a
    failed report."""
    assert res.exit_code in (EXIT_OK, EXIT_VERIFICATION_FAILED, EXIT_INPUT_ERROR, EXIT_SEARCH_CAP)
    payload = strict_json(res.output)
    if res.exit_code == EXIT_VERIFICATION_FAILED:
        assert payload.get("report", payload)["passed"] is False


class TestMalformedFiles:
    def test_points_not_a_list_exits_2(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"name": "X", "points": 5, "matrix": [[0]]}))
        res = run(["validate", str(f)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert "'points'" in payload["message"]

    def test_product_point_without_label_exits_2(self, space_files, tmp_path):
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        del data["product"]["points"][0]["label"]
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert "'label'" in payload["message"]

    def test_top_level_not_an_object_exits_2(self, space_files, tmp_path):
        x, y = space_files
        f = tmp_path / "five.json"
        f.write_text("5")
        for argv in (
            ["validate", str(f)],
            ["geodesic", x, y, "--t", "0.5", "--corr", str(f)],
            ["realize", x, y, "--corr", str(f)],
            ["verify", str(f)],
        ):
            res = run(argv)
            assert res.exit_code == EXIT_INPUT_ERROR, argv
            assert "error" in json.loads(res.output), argv

    def test_deeply_nested_json_exits_2(self, space_files, tmp_path):
        x, y = space_files
        f = tmp_path / "deep.json"
        f.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
        for argv in (
            ["validate", str(f)],
            ["geodesic", x, y, "--t", "0.5", "--corr", str(f)],
            ["verify", str(f)],
        ):
            res = run(argv)
            assert res.exit_code == EXIT_INPUT_ERROR, argv
            assert "nested too deeply" in json.loads(res.output)["message"], argv

    def test_product_with_nan_c_exits_2(self, space_files, tmp_path):
        # a NaN scale makes every c-dependent error read 0, so it must not load
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        data["product"]["c"] = float("nan")
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "NonpositiveC"

    def test_infinite_c_exits_2(self, space_files, tmp_path):
        # an infinite scale built a product of NaN blocks and printed Infinity
        x, y = space_files
        out = tmp_path / "prod.json"
        res = run(["realize", x, y, "--c", "inf", "-o", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "NonpositiveC"
        assert not out.exists()
        assert run(["realize", x, y, "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        data["product"]["c"] = float("inf")
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "NonpositiveC"

    @pytest.mark.parametrize("field, corr", [
        ("pairs", {"m": 2, "n": 2, "pairs": [[0, 0], [1, 1.9]]}),
        ("pairs", {"m": 2, "n": 2, "pairs": [[0, 0], [True, 1]]}),
        ("n", {"m": 2, "n": 2.9, "pairs": [[0, 0], [1, 1]]}),
        ("m", {"m": 2.0, "n": 2, "pairs": [[0, 0], [1, 1]]}),
        ("m", {"m": "2", "n": 2, "pairs": [[0, 0], [1, 1]]}),
    ])
    def test_correspondence_indices_must_be_integers(self, space_files, tmp_path, field, corr):
        # int() read the pair [1, 1.9] as (1, 1) and true as 1
        x, y = space_files
        f = tmp_path / "corr.json"
        f.write_text(json.dumps(corr))
        res = run(["realize", x, y, "--corr", str(f)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert f"'{field}'" in payload["message"]

    def test_space_matrix_must_hold_json_numbers(self, tmp_path):
        # np.array(..., dtype=float) read "0" and false as numbers: exit 0
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"name": "X", "points": ["a", "b"],
                                 "matrix": [["0", "1.5"], ["1.5", False]]}))
        res = run(["validate", str(f)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert "'matrix'" in payload["message"]

    @pytest.mark.parametrize("field", ["c", "grid", "t", "matrix"])
    def test_product_float_fields_must_be_json_numbers(self, space_files, tmp_path, field):
        # float() read "0.5" and false as numbers, so each file loaded
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "--grid", "2", "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        prod = data["product"]
        assert prod["c"] == 0.5 and prod["grid"] == [0.0, 1.0]
        if field == "c":
            prod["c"] = "0.5"
        elif field == "grid":
            prod["grid"] = [False, True]
        elif field == "t":
            for p in prod["points"]:
                p["t"] = bool(p["t"])
        else:
            prod["matrix"][0][0] = False
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert f"'{field}'" in payload["message"]

    @pytest.mark.parametrize("field, space", [
        ("points", {"name": "X", "points": "ab", "matrix": [[0, 1], [1, 0]]}),
        ("points", {"name": "X", "points": {"a": 0, "b": 1}, "matrix": [[0, 1], [1, 0]]}),
        ("points", {"name": "X", "points": [1, None], "matrix": [[0, 1], [1, 0]]}),
        ("points", {"name": "X", "points": ["a", ["b"]], "matrix": [[0, 1], [1, 0]]}),
        ("name", {"name": 7, "points": ["a", "b"], "matrix": [[0, 1], [1, 0]]}),
        ("name", {"name": None, "points": ["a", "b"], "matrix": [[0, 1], [1, 0]]}),
    ])
    def test_space_string_fields_must_be_json_strings(self, tmp_path, field, space):
        # str() read "ab" as labels a and b, and [1, null] as "1" and "None": exit 0
        f = tmp_path / "s.json"
        f.write_text(json.dumps(space))
        res = run(["validate", str(f)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert f"'{field}'" in payload["message"]

    @pytest.mark.parametrize("label", [7, None, ["a"], True])
    def test_product_point_label_must_be_a_json_string(self, space_files, tmp_path, label):
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        for p in data["product"]["points"]:
            if p["z"] == 0:
                p["label"] = label
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert "'label'" in payload["message"]

    @pytest.mark.parametrize("z", [0.7, True, 1.0])
    def test_product_point_index_must_be_an_integer(self, space_files, tmp_path, z):
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        point = next(p for p in data["product"]["points"] if p["z"] == int(z))
        point["z"] = z
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = json.loads(res.output)
        assert payload["error"] == "ValueError"
        assert "'z'" in payload["message"]

    def test_product_with_infinite_grid_value_exits_2(self, space_files, tmp_path):
        # the grid used to load and verify with NaN errors, exit 1
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "--grid", "3", "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        data["product"]["grid"][-1] = float("inf")
        for p in data["product"]["points"]:
            if p["t"] == 1.0:
                p["t"] = float("inf")
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert "finite" in json.loads(res.output)["message"]

    @pytest.mark.parametrize(
        "loader", [space_from_json_dict, correspondence_from_json_dict, product_from_json_dict]
    )
    def test_loaders_reject_non_objects(self, loader):
        for data in (5, [1, 2], "product", None):
            with pytest.raises(ValueError, match="must be an object"):
                loader(data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one position replaced by a random JSON value, or removed."""
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    x, y = d / "X.json", d / "Y.json"
    space = {"name": "X", "points": ["a", "b"], "matrix": [[0, 2], [2, 0]]}
    x.write_text(json.dumps(space))
    y.write_text(json.dumps({"name": "Y", "points": ["u", "v"], "matrix": [[0, 1], [1, 0]]}))
    prod = d / "prod.json"
    assert run(["realize", str(x), str(y), "--grid", "3", "-o", str(prod)]).exit_code == EXIT_OK
    return {
        "dir": d, "x": str(x), "y": str(y),
        "space": space,
        "corr": {"m": 2, "n": 2, "pairs": [[0, 1], [1, 0]]},
        "product": json.loads(prod.read_text()),
    }


class TestStrictJson:
    """No stdout holds NaN or Infinity, which strict JSON parsers reject."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_verify_rejects_non_finite_matrix(self, space_files, tmp_path, value):
        # such a file used to exit 1 with NaN or Infinity in its report
        x, y = space_files
        out = tmp_path / "prod.json"
        assert run(["realize", x, y, "--grid", "3", "-o", str(out)]).exit_code == EXIT_OK
        data = json.loads(out.read_text())
        data["product"]["matrix"][0][3] = value
        out.write_text(json.dumps(data))
        res = run(["verify", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert strict_json(res.output)["error"] == "NonFiniteEntry"

    def test_realize_refuses_overflowing_c(self, tmp_path):
        # 2 * 1e307 + 1.7e308 overflows: realize warned, exited 1 and wrote
        # Infinity into the product file
        y = tmp_path / "Y.json"
        y.write_text(json.dumps({"name": "Y", "points": ["u", "v"],
                                 "matrix": [[0, 1e307], [1e307, 0]]}))
        out = tmp_path / "out.json"
        res = run(["realize", str(y), str(y), "--c", "1.7e308", "--grid", "3", "-o", str(out)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert strict_json(res.output)["error"] == "NonFiniteEntry"
        assert not out.exists()

    def test_verify_refuses_overflowing_c(self, tmp_path):
        # c * (b - a) = 5e308 overflows: verify warned twice of an overflow
        # and exited 2 with a message that named no field.  The suite turns
        # any warning into an error, so this also pins that none is raised
        prod = tmp_path / "prod.json"
        prod.write_text(json.dumps({
            "c": 5e307, "grid": [0.0, 10.0],
            "points": [{"z": 0, "label": "a", "t": 0.0}, {"z": 0, "label": "a", "t": 10.0}],
            "matrix": [[0.0, 1.0], [1.0, 0.0]],
        }))
        res = run(["verify", str(prod)])
        assert res.exit_code == EXIT_INPUT_ERROR
        payload = strict_json(res.output)
        assert payload["error"] == "NonFiniteEntry"
        assert "c = 5e+307" in payload["message"]

    def test_verify_lipschitz_budget_may_overflow(self, tmp_path):
        # c * (b - a) = 1e308 is within the overflow bound, but the Lipschitz
        # budget 2c(b - a) is not: numpy warned of the overflow, which the
        # suite turns into an error.  An infinite budget admits every pair
        prod = tmp_path / "prod.json"
        prod.write_text(json.dumps({
            "c": 1e307, "grid": [0.0, 10.0],
            "points": [{"z": 0, "label": "a", "t": 0.0}, {"z": 0, "label": "a", "t": 10.0}],
            "matrix": [[0.0, 1e308], [1e308, 0.0]],
        }))
        res = run(["verify", str(prod)])
        assert res.exit_code == EXIT_OK
        report = strict_json(res.output)
        assert report["passed"] is True
        assert report["lipschitz"]["ok"] is True

    def test_overflowing_report_number_exits_2(self, tmp_path):
        # symmetry_error = |1e308 - (-1e308)| overflows.  numpy warns of the
        # overflow, which the suite turns into an error, so this runs in a
        # separate interpreter
        prod = tmp_path / "prod.json"
        prod.write_text(json.dumps({
            "c": 1.0, "grid": [0.0, 1.0],
            "points": [{"z": 0, "label": "a", "t": 0.0}, {"z": 0, "label": "a", "t": 1.0}],
            "matrix": [[0.0, 1e308], [-1e308, 0.0]],
        }))
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "ghgeo.cli", "verify", str(prod)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_INPUT_ERROR
        assert strict_json(proc.stdout)["error"] == "ValueError"


class TestContractProperty:
    """Any JSON in any field of an input file keeps the exit-code contract."""

    COMMANDS = {
        "space": (["validate", "{f}"], ["dist", "{f}", "{y}"],
                  ["realize", "{f}", "{y}", "--grid", "3"]),
        "corr": (["geodesic", "{x}", "{y}", "--t", "0.5", "--corr", "{f}"],
                 ["realize", "{x}", "{y}", "--grid", "3", "--corr", "{f}"]),
        "product": (["verify", "{f}"],),
    }

    @pytest.mark.parametrize("kind", ["space", "corr", "product"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_file(self, contract_files, kind, data):
        doc = data.draw(mutated(contract_files[kind]))
        f = contract_files["dir"] / f"{kind}.json"
        f.write_text(json.dumps(doc))
        names = dict(f=str(f), x=contract_files["x"], y=contract_files["y"])
        for argv in self.COMMANDS[kind]:
            assert_contract(run([a.format(**names) for a in argv]))


class TestBenchmarkContract:
    def test_traced_names_resolve(self, monkeypatch):
        # the traced benchmark run wraps these by name; a removed one would
        # only show up there
        import ghgeo
        import ghgeo.cli  # noqa: F401

        monkeypatch.syspath_prepend(str(BENCH_DIR))
        tracing = importlib.import_module("tracing")
        for mod, fname in [*tracing.TRACED, *tracing.ALIASES]:
            assert callable(getattr(getattr(ghgeo, mod), fname)), (mod, fname)
        assert callable(ghgeo.realization.ProductSpace.to_json_dict)

    def test_realize_verify_op_and_self_check(self, monkeypatch, tmp_path):
        # the benchmark's report checks read this tree's condition reports;
        # one realize-verify op and the harness's self-check must hold
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
        files = workloads.FreshFiles(tmp_path / "bench")
        try:
            wl = workloads.RealizeVerify(401, files, BENCH_DIR.parent)
            wl.setup()
            assert wl.SLOTS[1] == (5, 31)
            assert wl.check(1, wl.run(1, tracing.NullTracer())) == []
            caught = workloads.self_check(files, BENCH_DIR.parent)
            assert caught and all(caught.values()), caught
        finally:
            files.cleanup()

    def test_exact_cap_ops_pass_their_checks(self, monkeypatch, tmp_path):
        # ops 0-11 of the exact-cap stream cover every shape of both kinds,
        # with the 5 x 5 and 4 x 5 slice checks; each must pass the
        # harness's own checks
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
        monkeypatch.setattr(workloads.ExactCap, "STREAM", 12)
        files = workloads.FreshFiles(tmp_path / "bench")
        try:
            wl = workloads.ExactCap(1, files, BENCH_DIR.parent)
            wl.setup()
            assert {wl.shape(0), wl.shape(4)} == {"planar 5x5", "planar 4x5"}
            sliced = 0
            for k in range(12):
                out = wl.run(k, tracing.NullTracer())
                sliced += out[1] is not None
                assert wl.check(k, out) == [], (k, wl.shape(k))
            assert sliced
        finally:
            files.cleanup()

    def test_heuristic_scale_ops_pass_their_checks(self, monkeypatch, tmp_path):
        # a stream of one op per shape covers every square size and both
        # kinds of the skewed shapes; each op must pass the harness's own
        # checks
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
        shapes = len(workloads.HeuristicScale.SHAPES)
        monkeypatch.setattr(workloads.HeuristicScale, "STREAM", shapes)
        files = workloads.FreshFiles(tmp_path / "bench")
        try:
            wl = workloads.HeuristicScale(1, files, BENCH_DIR.parent)
            wl.setup()
            assert {wl.shape(k) for k in range(shapes)} >= {"planar 8x60", "graph 16x40"}
            for k in range(shapes):
                assert wl.check(k, wl.run(k, tracing.NullTracer())) == [], (k, wl.shape(k))
        finally:
            files.cleanup()


class TestReadme:
    def test_library_quick_start_runs(self):
        # a public name removed from the code but left in the README fails here
        section = README.read_text().split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert "hausdorff_distance(X, [0], [1])" in block
        exec(compile(block, str(README), "exec"), {})
