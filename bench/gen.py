"""Seeded generators for the benchmark's metric spaces.

Two families, chosen because the exact solver behaves very differently on
them:

* planar: random points in the unit square with Euclidean distances, so
  distinct distances almost never tie;
* graph: shortest paths on a small random connected graph with integer edge
  weights 1-3, so many distances are equal and the branch-and-bound search
  meets many ties.

Every instance is drawn from its own ``random.Random`` seeded with a string
made of the workload name, the run seed and the instance number, so an
instance does not depend on how many others were generated before it.
"""

from __future__ import annotations

import math
import random

from ghgeo.metric_core import validate_metric


def instance_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def planar_matrix(rng: random.Random, n: int) -> list[list[float]]:
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    return [[math.hypot(px - qx, py - qy) for qx, qy in pts] for px, py in pts]


def graph_matrix(rng: random.Random, n: int, extra_edge_p: float = 0.25) -> list[list[float]]:
    """All-pairs shortest paths on a random spanning tree plus random chords."""
    d = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]

    def edge(i: int, j: int) -> None:
        w = float(rng.randint(1, 3))
        if w < d[i][j]:
            d[i][j] = d[j][i] = w

    for i in range(1, n):
        edge(i, rng.randrange(i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_p:
                edge(i, j)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            dik = di[k]
            for j in range(n):
                v = dik + dk[j]
                if v < di[j]:
                    di[j] = v
    return d


KINDS = {"planar": planar_matrix, "graph": graph_matrix}


def pair(rng: random.Random, kind: str, m: int, n: int):
    """Two validated spaces of the given kind with m and n points."""
    make = KINDS[kind]
    x = validate_metric(make(rng, m), kind="metric", name=f"{kind}{m}")
    y = validate_metric(make(rng, n), kind="metric", name=f"{kind}{n}")
    return x, y
