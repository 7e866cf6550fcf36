"""Seeded instance generators shared across the test suite.

Spaces come from random planar point sets, so every matrix satisfies the
metric axioms up to floating-point rounding.  random.Random keeps the
streams stable across platforms and Python versions.
"""

from __future__ import annotations

import math
import random

from ghgeo import FiniteMetricSpace, validate_metric


def planar_matrix(rng: random.Random, n: int) -> list[list[float]]:
    pts = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(n)]
    return [
        [math.hypot(px - qx, py - qy) for qx, qy in pts] for px, py in pts
    ]


def graph_matrix(rng: random.Random, n: int) -> list[list[float]]:
    """Shortest paths on a random tree plus chords with integer weights 1-3,
    so many distances and many distortions tie."""
    d = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    for i, j in edges:
        d[i][j] = d[j][i] = min(d[i][j], float(rng.randint(1, 3)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def planar_space(seed: int, n: int, name: str = "") -> FiniteMetricSpace:
    rng = random.Random(seed)
    return validate_metric(
        planar_matrix(rng, n), kind="pseudometric", tol=1e-9,
        name=name or f"planar{seed}n{n}",
    )


def planar_pair(seed: int, sizes=(1, 2, 3)) -> tuple[FiniteMetricSpace, FiniteMetricSpace]:
    """A pair of planar spaces with sizes drawn from ``sizes``."""
    rng = random.Random(seed)
    m = rng.choice(sizes)
    n = rng.choice(sizes)
    return (
        validate_metric(planar_matrix(rng, m), name=f"X{seed}"),
        validate_metric(planar_matrix(rng, n), name=f"Y{seed}"),
    )


def line_space() -> FiniteMetricSpace:
    return validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], kind="metric", name="line")


def two_point_space(d: float = 2.0) -> FiniteMetricSpace:
    return validate_metric([[0, d], [d, 0]], kind="metric", name=f"pair{d}")


def one_point_space() -> FiniteMetricSpace:
    return validate_metric([[0]], kind="metric", name="point")
