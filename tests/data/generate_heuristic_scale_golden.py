"""Regenerate heuristic_scale_golden.json.

Freezes (value, witness pairs) of ``gh_distance_heuristic`` on the shapes the
``heuristic-scale`` benchmark workload measures: planar and graph pairs at
8 x 60, 16 x 40 and 40 x 40 to 48 x 48, with the default configuration and
one ``restarts`` and one ``iterations`` variant.  At these sizes the descent
makes dozens of swap moves per restart, which the smaller pairs of
heuristic_golden.json rarely reach.  The matrices are stored verbatim, so the
test reads the file and never reruns this script.  Regenerate it only when a
change of the heuristic's moves is intended.  Run from the repository root:

    PYTHONPATH=src python3 tests/data/generate_heuristic_scale_golden.py
"""

import json
import random
from pathlib import Path

from generate_heuristic_golden import graph_matrix, planar_matrix
from ghgeo import HeuristicConfig, gh_distance_heuristic, validate_metric

# (kind, m, n, config overrides)
CASES = [
    ("planar", 8, 60, {}),
    ("graph", 8, 60, {}),
    ("planar", 16, 40, {}),
    ("graph", 16, 40, {}),
    ("planar", 60, 8, {}),
    ("planar", 40, 40, {}),
    ("graph", 42, 42, {}),
    ("planar", 44, 44, {}),
    ("graph", 46, 46, {}),
    ("planar", 48, 48, {}),
    ("graph", 48, 48, {}),
    ("planar", 16, 40, {"seed": 3, "restarts": 7}),
    ("graph", 40, 40, {"iterations": 5}),
]


def cases() -> list[dict]:
    out = []
    for seed, (kind, m, n, overrides) in enumerate(CASES, start=1):
        rng = random.Random(f"heuristic-scale-golden/{seed}")
        make = planar_matrix if kind == "planar" else graph_matrix
        mx, my = make(rng, m), make(rng, n)
        config = HeuristicConfig(**overrides)
        res = gh_distance_heuristic(validate_metric(mx), validate_metric(my), config)
        out.append({
            "seed": seed, "kind": kind, "m": m, "n": n,
            "config": {
                "iterations": config.iterations,
                "seed": config.seed,
                "restarts": config.restarts,
            },
            "value": res.value,
            "witness": res.witness.to_json_dict()["pairs"],
            "X": mx, "Y": my,
        })
    return out


def render() -> str:
    # one instance per line keeps the file diffable
    body = ",\n".join(json.dumps(case, allow_nan=False) for case in cases())
    return '{"instances": [\n' + body + "\n]}\n"


def main() -> None:
    out = Path(__file__).with_name("heuristic_scale_golden.json")
    text = render()
    out.write_text(text)
    print(f"wrote {out} with {text.count(chr(10)) - 2} instances")


if __name__ == "__main__":
    main()
