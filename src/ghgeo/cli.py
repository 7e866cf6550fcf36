"""Command-line interface.

Exit codes:
    0  success, all requested certifications passed
    1  verification failure (the report is still written)
    2  input or validation error
    3  exhaustive-search cap exceeded

All payloads are JSON.  Floats are serialized with the shortest
representation that round-trips exactly, so saved products re-verify
bit-for-bit, and identical inputs plus seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .correspondence import (
    Correspondence,
    HeuristicConfig,
    gh_distance_exact,
    gh_distance_heuristic,
    load_correspondence,
)
from .errors import GHGeoError, SearchSpaceTooLarge
from .geodesic import geodesic_slice
from .metric_core import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    hausdorff_distance,
    load_space,
    max_triangle_deficit,
)
from .realization import (
    DEFAULT_GRID_SIZE,
    ParamGrid,
    load_product,
    realize_geodesic,
    verify_product,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SEARCH_CAP = 3


@dataclass
class RunResult:
    exit_code: int
    output: str = ""


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _error_payload(exc: Exception) -> str:
    return _dumps({"error": type(exc).__name__, "message": str(exc)})


def _load_two_spaces(args) -> tuple[FiniteMetricSpace, FiniteMetricSpace]:
    return load_space(args.x, args.tol), load_space(args.y, args.tol)


def _witness_for(args, x: FiniteMetricSpace, y: FiniteMetricSpace) -> Correspondence:
    if args.corr is not None:
        return load_correspondence(args.corr)
    return gh_distance_exact(x, y).witness


def _cmd_validate(args) -> RunResult:
    space = load_space(args.space, args.tol)
    deficit, _ = max_triangle_deficit(space.dist)
    out = _dumps(
        {
            "name": space.name,
            "kind": space.kind,
            "points": len(space),
            "max_triangle_deficit": max(0.0, deficit),
        }
    )
    return RunResult(EXIT_OK, out)


def _cmd_hausdorff(args) -> RunResult:
    a, b = _indices(args.a), _indices(args.b)
    space = load_space(args.space, args.tol)
    a, b = space.subset(a), space.subset(b)
    return RunResult(EXIT_OK, _dumps({"value": hausdorff_distance(space, a, b)}))


def _cmd_dist(args) -> RunResult:
    config = HeuristicConfig(args.iterations, args.seed, args.restarts)
    x, y = _load_two_spaces(args)
    if args.heuristic:
        result = gh_distance_heuristic(x, y, config)
    else:
        result = gh_distance_exact(x, y)
    return RunResult(EXIT_OK, _dumps(result.to_json_dict()))


def _cmd_geodesic(args) -> RunResult:
    x, y = _load_two_spaces(args)
    witness = _witness_for(args, x, y)
    space = geodesic_slice(witness, x, y, args.t)
    payload = _dumps(space.to_json_dict())
    if args.output:
        Path(args.output).write_text(payload)
    return RunResult(EXIT_OK, payload)


def _cmd_realize(args) -> RunResult:
    grid = ParamGrid.uniform(args.grid)
    x, y = _load_two_spaces(args)
    witness = _witness_for(args, x, y)
    prod, report = realize_geodesic(
        x, y, witness,
        grid=grid, c_override=args.c, tol=args.tol, force=args.force,
    )
    payload = _dumps(
        {"product": prod.to_json_dict(), "report": report.to_json_dict()}
    )
    code = EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED
    if args.output:
        Path(args.output).write_text(payload)
        return RunResult(code, _dumps(report.to_json_dict()))
    return RunResult(code, payload)


def _cmd_verify(args) -> RunResult:
    prod = load_product(args.product)
    report = verify_product(prod, tol=args.tol)
    code = EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED
    return RunResult(code, _dumps(report.to_json_dict()))


def _indices(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghgeo",
        description=(
            "Gromov-Hausdorff distances, geodesic slices, and certified "
            "Hausdorff realizations for finite metric spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="absolute tolerance")
        return p

    p = command("validate", _cmd_validate, "check the metric axioms of a space file")
    p.add_argument("space")

    p = command("hausdorff", _cmd_hausdorff, "Hausdorff distance between two subsets")
    p.add_argument("space")
    p.add_argument("--a", required=True, help="comma-separated point indices")
    p.add_argument("--b", required=True, help="comma-separated point indices")

    p = command("dist", _cmd_dist, "Gromov-Hausdorff distance between two spaces")
    p.add_argument("x")
    p.add_argument("y")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true", help="exhaustive search (default)")
    g.add_argument("--heuristic", action="store_true", help="seeded local search")
    p.add_argument("--seed", type=int, default=HeuristicConfig.seed)
    p.add_argument("--iterations", type=int, default=HeuristicConfig.iterations)
    p.add_argument("--restarts", type=int, default=HeuristicConfig.restarts)

    p = command("geodesic", _cmd_geodesic, "export one slice of the rectilinear geodesic")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--t", type=float, required=True, help="parameter in [0, 1]")
    p.add_argument("--corr", help="correspondence JSON (default: exact optimum)")
    p.add_argument("-o", "--output")

    p = command("realize", _cmd_realize, "build and certify the product realization")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--corr", help="correspondence JSON (default: exact optimum)")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE,
                   help="uniform grid size on [0, 1]")
    p.add_argument("--c", type=float, default=None, help="override the vertical scale")
    p.add_argument("--force", action="store_true",
                   help="build even if the metric conditions fail")
    p.add_argument("-o", "--output", help="write product + report JSON here")

    p = command("verify", _cmd_verify, "re-verify a saved product file")
    p.add_argument("product")

    return parser


def run(argv: list[str] | None = None) -> RunResult:
    """Parse and execute one command; exceptions become exit codes, never escape.

    Invalid arguments end the process through argparse (exit 2, usage on
    stderr); invalid option values and inputs give exit 2 with a JSON error.
    """
    args = build_parser().parse_args(argv)
    try:
        if not args.tol > 0:
            raise ValueError("tolerance must be positive")
        return args.handler(args)
    except SearchSpaceTooLarge as exc:
        return RunResult(EXIT_SEARCH_CAP, _error_payload(exc))
    except (GHGeoError, ValueError, OSError) as exc:
        return RunResult(EXIT_INPUT_ERROR, _error_payload(exc))


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    sys.stdout.write(result.output)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
