"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive pure Python (plain loops, full
enumerations, no pruning, no shared code with the implementations under
test).
"""

from __future__ import annotations

import math


def naive_point_set_distance(dist, x: int, a) -> float:
    return min(dist[x][i] for i in a)


def naive_set_set_distance(dist, a, b) -> float:
    return min(dist[i][j] for i in a for j in b)


def naive_hausdorff(dist, a, b) -> float:
    """Literal max of the two directed sup-inf readings."""
    forward = max(min(dist[i][j] for j in b) for i in a)
    backward = max(min(dist[i][j] for i in a) for j in b)
    return max(forward, backward)


def naive_triangle_max(dist) -> float:
    n = len(dist)
    worst = -math.inf
    for i in range(n):
        for j in range(n):
            for k in range(n):
                worst = max(worst, dist[i][j] - (dist[i][k] + dist[k][j]))
    return worst


def naive_distortion_mask(mask: int, n: int, dx, dy) -> float:
    codes = [k for k in range(len(dx) * n) if mask >> k & 1]
    worst = 0.0
    for p in codes:
        for q in codes:
            v = abs(dx[p // n][q // n] - dy[p % n][q % n])
            worst = max(worst, v)
    return worst


def naive_surjective_masks(m: int, n: int) -> list[int]:
    """All bitmasks over [0, m*n) whose projections cover both index sets."""
    out = []
    for mask in range(1, 1 << (m * n)):
        rows = set()
        cols = set()
        for k in range(m * n):
            if mask >> k & 1:
                rows.add(k // n)
                cols.add(k % n)
        if rows == set(range(m)) and cols == set(range(n)):
            out.append(mask)
    return out


def naive_gh(dx, dy) -> tuple[float, int]:
    """Minimum half-distortion and the canonical witness mask.

    The witness minimizes (distortion, cardinality, mask) lexicographically,
    scanning every surjective bitmask.
    """
    m, n = len(dx), len(dy)
    best = None
    for mask in naive_surjective_masks(m, n):
        dis = naive_distortion_mask(mask, n, dx, dy)
        key = (dis, bin(mask).count("1"), mask)
        if best is None or key < best:
            best = key
    assert best is not None
    return 0.5 * best[0], best[2]


def naive_gh_heuristic(dx, dy, iterations: int = 1000, seed: int = 0, restarts: int = 4):
    """The table-based local search that ``gh_distance_heuristic`` must match.

    Builds the full (mn)^2 delta table, starts from the eccentricity-greedy
    correspondence and then from seeded random ones, and climbs with first
    improvement: removals before swaps, members ascending, absent slots
    ascending, strict improvement only.  Distortion is read over unordered
    pairs of distinct members, which equals the library's objective on
    exactly symmetric, zero-diagonal matrices.  Returns (value, sorted pairs).
    """
    import random

    m, n = len(dx), len(dy)
    mn = m * n
    delta = [
        [abs(dx[p // n][q // n] - dy[p % n][q % n]) for q in range(mn)]
        for p in range(mn)
    ]

    def dis(codes) -> float:
        cs = sorted(codes)
        return max(
            (delta[cs[a]][cs[b]] for a in range(len(cs)) for b in range(a + 1, len(cs))),
            default=0.0,
        )

    def greedy() -> set:
        order_x = sorted(range(m), key=lambda i: (-max(dx[i]), i))
        order_y = sorted(range(n), key=lambda j: (-max(dy[j]), j))
        codes = [order_x[a] * n + order_y[a] for a in range(min(m, n))]

        def attach(candidates):
            best_code, best_val = -1, None
            for code in candidates:
                val = max(delta[code][q] for q in codes)
                if best_val is None or val < best_val:
                    best_code, best_val = code, val
            return best_code

        for a in range(n, m):
            codes.append(attach([order_x[a] * n + j for j in range(n)]))
        for a in range(m, n):
            codes.append(attach([i * n + order_y[a] for i in range(m)]))
        return set(codes)

    def random_start(rng) -> set:
        xs, ys = list(range(m)), list(range(n))
        rng.shuffle(xs)
        rng.shuffle(ys)
        k = min(m, n)
        codes = {xs[a] * n + ys[a] for a in range(k)}
        for a in range(k, m):
            codes.add(xs[a] * n + rng.randrange(n))
        for a in range(k, n):
            codes.add(rng.randrange(m) * n + ys[a])
        return codes

    def still_covers(codes) -> bool:
        return {c // n for c in codes} == set(range(m)) and {c % n for c in codes} == set(range(n))

    def descend(codes: set) -> float:
        cur = dis(codes)
        for _ in range(iterations):
            move = None
            members = sorted(codes)
            for p in members:
                rest = codes - {p}
                if still_covers(rest) and dis(rest) < cur:
                    move = (p, None, dis(rest))
                    break
            for p in members if move is None else ():
                rest = codes - {p}
                base = dis(rest)
                if base >= cur:
                    continue
                for q in range(mn):
                    if q in codes or not still_covers(rest | {q}):
                        continue
                    d2 = max([base] + [delta[q][u] for u in rest])
                    if d2 < cur:
                        move = (p, q, d2)
                        break
                if move is not None:
                    break
            if move is None:
                break
            p, q, cur = move
            codes.discard(p)
            if q is not None:
                codes.add(q)
        return cur

    rng = random.Random(seed)
    best = None
    for restart in range(restarts):
        codes = greedy() if restart == 0 else random_start(rng)
        value = descend(codes)
        if best is None or value < best[0]:
            best = (value, sorted(codes))
        if best[0] == 0.0:
            break
    return 0.5 * best[0], [(c // n, c % n) for c in best[1]]
