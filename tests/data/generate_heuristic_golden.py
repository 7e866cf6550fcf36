"""Regenerate heuristic_golden.json.

Freezes (value, witness) of ``gh_distance_heuristic`` on twenty seeded pairs
of up to 32 x 32 points: random planar point sets (few ties) and shortest-path
metrics of random weighted graphs (many ties), square and skewed, mostly with
the default configuration.  The matrices are stored verbatim.  The heuristic
must reproduce the file exactly; regenerate it only when a change of its
moves is intended.  Run from the repository root:

    PYTHONPATH=src python3 tests/data/generate_heuristic_golden.py
"""

import json
import math
import random
from pathlib import Path

from ghgeo import HeuristicConfig, gh_distance_heuristic, validate_metric

# (kind, m, n, config overrides)
CASES = [
    ("planar", 2, 3, {}),
    ("graph", 3, 7, {}),
    ("planar", 5, 5, {}),
    ("graph", 6, 6, {"seed": 11}),
    ("planar", 4, 9, {"iterations": 1}),
    ("graph", 9, 4, {}),
    ("planar", 8, 8, {"restarts": 1}),
    ("graph", 10, 14, {}),
    ("planar", 12, 12, {}),
    ("graph", 12, 12, {"seed": 5, "restarts": 7}),
    ("planar", 16, 8, {}),
    ("graph", 16, 16, {}),
    ("planar", 20, 20, {"iterations": 3}),
    ("graph", 25, 18, {}),
    ("planar", 6, 32, {}),
    ("graph", 4, 28, {}),
    ("planar", 24, 30, {}),
    ("planar", 32, 12, {"seed": 2}),
    ("planar", 32, 32, {}),
    ("graph", 32, 32, {}),
]


def planar_matrix(rng: random.Random, n: int) -> list[list[float]]:
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    return [[math.hypot(px - qx, py - qy) for qx, qy in pts] for px, py in pts]


def graph_matrix(rng: random.Random, n: int) -> list[list[float]]:
    """All-pairs shortest paths on a random tree plus chords, weights 1-3."""
    d = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]

    def edge(i: int, j: int) -> None:
        w = float(rng.randint(1, 3))
        if w < d[i][j]:
            d[i][j] = d[j][i] = w

    for i in range(1, n):
        edge(i, rng.randrange(i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edge(i, j)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def main() -> None:
    instances = []
    for seed, (kind, m, n, overrides) in enumerate(CASES, start=1):
        rng = random.Random(f"golden/{seed}")
        make = planar_matrix if kind == "planar" else graph_matrix
        mx, my = make(rng, m), make(rng, n)
        config = HeuristicConfig(**overrides)
        res = gh_distance_heuristic(validate_metric(mx), validate_metric(my), config)
        instances.append(
            {
                "seed": seed,
                "kind": kind,
                "m": m,
                "n": n,
                "config": {
                    "iterations": config.iterations,
                    "seed": config.seed,
                    "restarts": config.restarts,
                },
                "value": res.value,
                "witness": res.witness.to_json_dict()["pairs"],
                "X": mx,
                "Y": my,
            }
        )
    # one instance per line keeps the file diffable
    body = ",\n".join(json.dumps(inst) for inst in instances)
    out = Path(__file__).with_name("heuristic_golden.json")
    out.write_text('{"instances": [\n' + body + "\n]}\n")
    print(f"wrote {out} with {len(instances)} instances")


if __name__ == "__main__":
    main()
