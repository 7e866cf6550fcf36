"""Regenerate exact_golden.json.

Freezes (value, canonical witness mask) of ``gh_distance_exact`` on thirty
seeded, exactly symmetric pairs: random planar point sets (few ties) and
shortest-path metrics of random weighted graphs (many ties), at every shape
the benchmark runs at the exhaustive-search cap (5x5, 4x6, 3x8, 2x12, 4x5,
3x6) and at small shapes.  The naive oracle cannot reach m*n = 25, so this
file is what guards the canonical witness at the cap.  The matrices are
stored verbatim.  The solver must reproduce the file byte for byte;
regenerate it only when a change of the exact output is intended.  Run from
the repository root:

    PYTHONPATH=src python3 tests/data/generate_exact_golden.py
"""

import json
import random
from pathlib import Path

from generate_heuristic_golden import graph_matrix, planar_matrix
from ghgeo import gh_distance_exact, validate_metric

CAP_SHAPES = [(5, 5), (4, 6), (3, 8), (2, 12), (4, 5), (3, 6)]
SMALL_SHAPES = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (3, 4)]

# (kind, m, n): every cap shape twice per kind, every small shape once
CASES = [
    (kind, m, n) for _ in range(2) for kind in ("planar", "graph") for m, n in CAP_SHAPES
] + [
    ("planar" if k % 2 == 0 else "graph", m, n) for k, (m, n) in enumerate(SMALL_SHAPES)
]


def cases() -> list[dict]:
    out = []
    for seed, (kind, m, n) in enumerate(CASES, start=1):
        rng = random.Random(f"exact-golden/{seed}")
        make = planar_matrix if kind == "planar" else graph_matrix
        mx, my = make(rng, m), make(rng, n)
        res = gh_distance_exact(validate_metric(mx), validate_metric(my))
        out.append({
            "seed": seed, "kind": kind, "m": m, "n": n,
            "value": res.value, "mask": res.witness.bitmask(),
            "X": mx, "Y": my,
        })
    return out


def render() -> str:
    # one instance per line keeps the file diffable
    body = ",\n".join(json.dumps(case, allow_nan=False) for case in cases())
    return '{"instances": [\n' + body + "\n]}\n"


def main() -> None:
    out = Path(__file__).with_name("exact_golden.json")
    text = render()
    out.write_text(text)
    print(f"wrote {out} with {text.count(chr(10)) - 2} instances")


if __name__ == "__main__":
    main()
