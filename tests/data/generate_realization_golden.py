"""Regenerate realization_golden.json.

Freezes the product matrices and ``VerificationReport``s of ``build_product``
and ``verify_product`` on seeded products:

* rectilinear products of exact GH witnesses between random planar point
  sets (few ties) and shortest-path metrics of random weighted graphs (many
  ties), |R| from 2 to 7 on grids of 3 to 101 values, at c = dis(R)/2;
* the same kind of products forced with a small c, whose reports carry
  Lipschitz and triangle witnesses, and with a generous c;
* non-affine ``CallableFamily`` products, one of which fails monotonicity
  with a witness;
* every product again after a JSON round trip through
  ``product_from_json_dict``, once in file order and once with its points
  (and matrix) permuted by a seeded shuffle.

Each product is stored as the sha256 of ``json.dumps(to_json_dict())``, and
in full when it has at most ``FULL_PRODUCT_POINTS`` points; each report as
its ``to_json_dict()``.  The library must reproduce the file byte for byte;
regenerate it only when a change of the certified output is intended.  Run
from the repository root:

    PYTHONPATH=src python3 tests/data/generate_realization_golden.py
"""

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from generate_heuristic_golden import graph_matrix, planar_matrix
from ghgeo import (
    CallableFamily,
    ParamGrid,
    build_product,
    distortion,
    gh_distance_exact,
    product_from_json_dict,
    realize_geodesic,
    validate_metric,
    verify_product,
)

# products this small are stored in full, larger ones by digest only
FULL_PRODUCT_POINTS = 24

# (kind, |X|, |R|, grid size, c as a multiple of dis(R)/2)
RECTILINEAR = [
    ("planar", 2, 2, 3, 1.0),
    ("graph", 2, 2, 101, 1.0),
    ("planar", 3, 3, 11, 1.0),
    ("graph", 3, 3, 21, 1.0),
    ("planar", 3, 4, 101, 1.0),
    ("graph", 3, 4, 31, 1.0),
    ("planar", 3, 5, 31, 1.0),
    ("graph", 3, 5, 51, 1.0),
    ("planar", 3, 6, 21, 1.0),
    ("graph", 3, 6, 31, 1.0),
    ("planar", 3, 7, 51, 1.0),
    ("graph", 3, 7, 11, 1.0),
    ("planar", 3, 4, 11, 0.25),
    ("graph", 3, 5, 7, 0.5),
    ("planar", 2, 3, 5, 0.1),
    ("graph", 3, 6, 3, 0.3),
    ("planar", 3, 5, 21, 3.0),
    ("graph", 3, 4, 11, 2.0),
]


def exact_pair(rng: random.Random, kind: str, m: int, r: int):
    """A seeded non-isometric pair whose canonical exact witness has r pairs."""
    make = planar_matrix if kind == "planar" else graph_matrix
    while True:
        x = validate_metric(make(rng, m))
        y = validate_metric(make(rng, r))
        res = gh_distance_exact(x, y)
        if len(res.witness) == r and res.value > 0.0:
            return x, y, res.witness


def circle_family(rng: random.Random, size: int):
    """Points turning on circles at their own speeds: distances rise and fall."""
    centres = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)]
    speeds = [rng.uniform(-3, 3) for _ in range(size)]

    def at(t: float) -> np.ndarray:
        pts = [(cx + 0.5 * math.cos(w * t), cy + 0.5 * math.sin(w * t))
               for (cx, cy), w in zip(centres, speeds)]
        return np.array([[math.hypot(px - qx, py - qy) for qx, qy in pts]
                         for px, py in pts])

    return CallableFamily(size, 0.0, 1.0, at)


def scaled_family(rng: random.Random, size: int):
    """A planar metric scaled by 1 + t^2: monotone in t but not affine."""
    base = np.array(planar_matrix(rng, size))
    return CallableFamily(size, 0.0, 1.0, lambda t: (1.0 + t * t) * base)


def sin_family(rng: random.Random, size: int):
    """Two points whose distance 1 + sin(pi t) rises and falls."""
    def at(t: float) -> np.ndarray:
        v = 1.0 + math.sin(math.pi * t)
        return np.array([[0.0, v], [v, 0.0]])

    return CallableFamily(2, 0.0, 1.0, at)


# (name, maker, ground size, grid size, c, force)
CALLABLE = [
    ("sin", sin_family, 2, 11, 2.0, True),
    ("sin", sin_family, 2, 21, 1.0, True),
    ("circle", circle_family, 4, 11, 5.0, True),
    ("circle", circle_family, 3, 31, 0.5, True),
    ("scaled", scaled_family, 5, 21, 4.0, False),
]


def product_record(prod) -> dict:
    data = prod.to_json_dict()
    text = json.dumps(data, allow_nan=False)
    out = {"points": len(prod.points), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if len(prod.points) <= FULL_PRODUCT_POINTS:
        out["product"] = data
    return out


def reload_records(prod, rng: random.Random) -> dict:
    """Verify the product again after a JSON round trip, plain and permuted."""
    data = json.loads(json.dumps(prod.to_json_dict(), allow_nan=False))
    plain = product_from_json_dict(data)
    order = list(range(len(data["points"])))
    rng.shuffle(order)
    data["points"] = [data["points"][i] for i in order]
    data["matrix"] = [[data["matrix"][i][j] for j in order] for i in order]
    permuted = product_from_json_dict(data)
    return {
        "reloaded": product_record(plain),
        "reloaded_report": verify_product(plain).to_json_dict(),
        "permuted": product_record(permuted),
        "permuted_report": verify_product(permuted).to_json_dict(),
    }


def cases() -> list[dict]:
    out = []
    for seed, (kind, m, r, g, factor) in enumerate(RECTILINEAR, start=1):
        rng = random.Random(f"realization-golden/{seed}")
        x, y, w = exact_pair(rng, kind, m, r)
        c = factor * 0.5 * distortion(w, x, y)
        prod, report = realize_geodesic(
            x, y, w, grid=ParamGrid.uniform(g), c_override=c, force=factor < 1.0
        )
        out.append({
            "seed": seed, "family": "rectilinear", "kind": kind, "grid": g, "c": c,
            "X": x.dist.tolist(), "Y": y.dist.tolist(),
            "R": w.to_json_dict()["pairs"],
            **product_record(prod), "report": report.to_json_dict(),
            **reload_records(prod, rng),
        })
    for seed, (name, make, size, g, c, force) in enumerate(CALLABLE, start=len(out) + 1):
        rng = random.Random(f"realization-golden/{seed}")
        prod = build_product(make(rng, size), c, ParamGrid.uniform(g), force=force)
        out.append({
            "seed": seed, "family": name, "ground_size": size, "grid": g, "c": c,
            **product_record(prod), "report": verify_product(prod).to_json_dict(),
            **reload_records(prod, rng),
        })
    return out


def render() -> str:
    # one product per line keeps the file diffable
    body = ",\n".join(json.dumps(case, allow_nan=False) for case in cases())
    return '{"products": [\n' + body + "\n]}\n"


def main() -> None:
    out = Path(__file__).with_name("realization_golden.json")
    text = render()
    out.write_text(text)
    print(f"wrote {out} with {text.count(chr(10)) - 2} products")


if __name__ == "__main__":
    main()
