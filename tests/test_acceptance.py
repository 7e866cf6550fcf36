"""Acceptance suite: every criterion with its frozen tolerance and budget.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).
Instance streams are seeded per criterion, so the suite is deterministic.

  1. exact GH solver agrees with naive full enumeration (50 pairs, < 10 s)
  2. geodesic property: d_GH(R_t, R_s) = |t-s| d_GH(X, Y) within 1e-9 (< 60 s)
  3. product metric certificate: triangle <= 1e-9, symmetry and diagonal
     exact, on 30 certified products (< 30 s, includes building them)
  4. slice Hausdorff and min-distance identities within 1e-9, c = d_GH
  5. restriction and fiber identities within 1e-12
  6. closed-form condition checks pass at c = dis/2, fail with a located
     witness at c = dis/4, and agree with the grid checker
  7. degenerate path: isometric inputs exit 2; c override builds a product
     passing criteria 3-5
  8. heuristic is an upper bound (1e-12) and matches the exact solver on the
     frozen 10-instance regression set
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ghgeo import (
    CallableFamily,
    ParamGrid,
    gh_distance_exact,
    gh_distance_heuristic,
    HeuristicConfig,
    RectilinearFamily,
    realize_geodesic,
    run_condition_checks,
    validate_metric,
)
from ghgeo.cli import EXIT_INPUT_ERROR, EXIT_OK, run

from instances import planar_pair
from oracles import naive_gh

DATA_DIR = Path(__file__).parent / "data"

TRIANGLE_TOL = 1e-9
SLICE_TOL = 1e-9
GEODESIC_TOL = 1e-9
IDENTITY_TOL = 1e-12
HEURISTIC_TOL = 1e-12


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def certified_products():
    """30 seeded nonisometric pairs realized on the default 11-point grid.

    Shared by criteria 3-6; the build time is charged to criterion 3.
    """
    t0 = time.monotonic()
    items = []
    seed = 0
    while len(items) < 30:
        seed += 1
        x, y = planar_pair(3000 + seed, sizes=(2, 3))
        res = gh_distance_exact(x, y)
        if res.value == 0.0:
            continue
        assert len(res.witness) <= 6
        prod, report = realize_geodesic(x, y, res.witness)
        items.append((x, y, res, prod, report))
    return items, time.monotonic() - t0


def test_criterion_1_exact_solver_vs_enumeration_oracle():
    with criterion(1, "exact GH agrees with naive enumeration"):
        t0 = time.monotonic()
        for seed in range(50):
            x, y = planar_pair(1000 + seed, sizes=(1, 2, 3))
            value, mask = naive_gh(x.dist.tolist(), y.dist.tolist())
            res = gh_distance_exact(x, y)
            assert res.value == value
            assert res.witness.bitmask() == mask
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_geodesic_property():
    from ghgeo import slice_gh_check

    with criterion(2, "slices interpolate d_GH linearly"):
        t0 = time.monotonic()
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            x, y = planar_pair(2000 + seed, sizes=(2, 3))
            res = gh_distance_exact(x, y)
            if len(res.witness) > 4:
                continue
            for t in grid:
                for s in grid:
                    chk = slice_gh_check(res.witness, x, y, t, s)
                    assert chk.error <= GEODESIC_TOL, (seed, t, s, chk)
            checked += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_metric_certificate(certified_products):
    items, elapsed = certified_products
    with criterion(3, "product triangle scan within 1e-9"):
        for _, _, _, prod, report in items:
            assert prod.dist.shape[0] <= 66
            assert report.max_triangle_violation <= TRIANGLE_TOL
            assert report.symmetry_error == 0.0
            assert report.diagonal_error == 0.0
        assert elapsed < 30.0, f"criterion 3 build+scan took {elapsed:.1f}s"


def test_criterion_4_hausdorff_identities(certified_products):
    items, _ = certified_products
    with criterion(4, "slice Hausdorff and min distances equal c|t-s|"):
        for _, _, res, prod, report in items:
            assert prod.c == res.value  # c = dis/2 = d_GH for an optimal witness
            assert report.slice_hausdorff_max_error <= SLICE_TOL
            assert report.slice_min_distance_max_error <= SLICE_TOL


def test_criterion_5_restriction_and_fiber_identities(certified_products):
    items, _ = certified_products
    with criterion(5, "restriction and fiber identities"):
        for _, _, _, prod, report in items:
            assert report.restriction_max_error <= IDENTITY_TOL
            assert report.fiber_max_error <= IDENTITY_TOL


def test_criterion_6_condition_checkers(certified_products):
    items, _ = certified_products
    grid = ParamGrid.uniform(11)
    with criterion(6, "closed-form and grid condition checks agree"):
        for x, y, res, prod, _ in items:
            fam = prod.family
            assert isinstance(fam, RectilinearFamily)
            dis = 2.0 * res.value
            good_c = 0.5 * dis
            bad_c = 0.25 * dis

            mono, good = run_condition_checks(fam, good_c, grid)
            assert mono.method == good.method == "closed_form"
            assert mono.ok
            assert good.ok

            _, bad = run_condition_checks(fam, bad_c, grid)
            assert not bad.ok
            assert bad.witness is not None
            # the witness pair attains the distortion
            assert abs(fam.slopes[bad.witness.z1, bad.witness.z2]) == dis
            assert bad.worst == pytest.approx(0.5 * dis, abs=1e-12)

            # the same affine family, checked on the grid
            g_fam = CallableFamily(fam.ground_size, fam.a, fam.b, fam.dist_at, fam.labels)
            g_mono, g_good = run_condition_checks(g_fam, good_c, grid, tol=1e-9)
            _, g_bad = run_condition_checks(g_fam, bad_c, grid, tol=1e-9)
            assert g_mono.method == g_good.method == g_bad.method == "grid"
            assert g_mono.ok == mono.ok
            assert g_good.ok == good.ok
            assert g_bad.ok == bad.ok
            assert g_bad.worst == pytest.approx(bad.worst, abs=1e-9)
            assert g_bad.max_slope == pytest.approx(dis, abs=1e-9)


def test_criterion_7_degenerate_path(tmp_path):
    with criterion(7, "isometric inputs: refusal and c-override product"):
        x, y = planar_pair(7000, sizes=(3,))
        xf = tmp_path / "X.json"
        xf.write_text(json.dumps(x.to_json_dict()))

        def cli(argv):
            return run(argv)

        res = cli(["realize", str(xf), str(xf)])
        assert res.exit_code == EXIT_INPUT_ERROR
        assert json.loads(res.output)["error"] == "DegenerateGeodesic"

        res = cli(["realize", str(xf), str(xf), "--c", "1.0"])
        assert res.exit_code == EXIT_OK
        report = json.loads(res.output)["report"]
        assert report["passed"] is True
        assert report["max_triangle_violation"] <= TRIANGLE_TOL
        assert report["symmetry_error"] == 0.0
        assert report["diagonal_error"] == 0.0
        assert report["slice_hausdorff_max_error"] <= SLICE_TOL
        assert report["slice_min_distance_max_error"] <= SLICE_TOL
        assert report["restriction_max_error"] <= IDENTITY_TOL
        assert report["fiber_max_error"] <= IDENTITY_TOL


def test_criterion_8_heuristic_sanity():
    with criterion(8, "heuristic upper bound and regression equality"):
        for seed in range(20):
            x, y = planar_pair(8000 + seed, sizes=(2, 3, 4, 5))
            exact = gh_distance_exact(x, y).value
            heur = gh_distance_heuristic(x, y).value
            assert heur >= exact - HEURISTIC_TOL

        data = json.loads((DATA_DIR / "heuristic_regression.json").read_text())
        cfg = HeuristicConfig(**data["config"])
        for inst in data["instances"]:
            x = validate_metric(inst["X"])
            y = validate_metric(inst["Y"])
            exact = gh_distance_exact(x, y)
            assert exact.value == inst["exact_value"]
            heur = gh_distance_heuristic(x, y, cfg)
            assert heur.value == inst["exact_value"], inst["seed"]
