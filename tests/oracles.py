"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive pure Python (plain loops, full
enumerations, no pruning, no shared code with the implementations under
test).  Two exceptions: ``bnb_gh``, the exact solver's former index-order
branch and bound, which prunes so that it reaches m*n = 25 where
``naive_gh`` cannot; and ``reference_slice_gh_check``, the slice checker's
former body, which composes the library's own exact solver.
``product_distance`` also reads the family's slices through its ``dist_at``.
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


def naive_triangle_witness(dist) -> tuple[float, tuple[int, int, int]]:
    """Largest d[i][j] - (d[i][k] + d[k][j]) and the first triple attaining it.

    Triples are visited k ascending, then i, then j.
    """
    n = len(dist)
    worst = -math.inf
    witness = (0, 0, 0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                v = dist[i][j] - (dist[i][k] + dist[k][j])
                if v > worst:
                    worst = v
                    witness = (i, j, k)
    return worst, witness


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


# ---------------------------------------------------------------------------
# the index-order branch and bound, kept as an oracle above naive_gh's reach
# ---------------------------------------------------------------------------

def _coverage_tables(m: int, n: int):
    mn = m * n
    row_bit = [1 << (k // n) for k in range(mn)]
    col_bit = [1 << (k % n) for k in range(mn)]
    # pref_*[b] = index bits coverable by codes < b
    pref_rows = [0] * (mn + 1)
    pref_cols = [0] * (mn + 1)
    for b in range(mn):
        pref_rows[b + 1] = pref_rows[b] | row_bit[b]
        pref_cols[b + 1] = pref_cols[b] | col_bit[b]
    return row_bit, col_bit, pref_rows, pref_cols


def _min_distortion_value(delta, m: int, n: int, incumbent: float, floor: float) -> float:
    """Branch-and-bound minimum distortion over all correspondences.

    ``delta[p][q]`` carries the own terms of p and q, and ``floor`` (the
    smallest own term) stands for a set without pairs.  ``incumbent`` must
    be attained by some correspondence; partial sets whose distortion
    already reaches the best value are pruned (distortion is monotone under
    adding pairs).
    """
    mn = m * n
    row_bit, col_bit, pref_rows, pref_cols = _coverage_tables(m, n)
    full_rows = (1 << m) - 1
    full_cols = (1 << n) - 1
    best = incumbent
    chosen: list[int] = []

    def go(b: int, rows: int, cols: int, cur: float) -> None:
        nonlocal best
        if cur >= best:
            return
        if b < 0:
            if rows == full_rows and cols == full_cols:
                best = cur
            return
        if (full_rows & ~rows) & ~pref_rows[b + 1]:
            return
        if (full_cols & ~cols) & ~pref_cols[b + 1]:
            return
        nd = cur
        row = delta[b]
        for q in chosen:
            v = row[q]
            if v > nd:
                nd = v
        if nd < best:
            chosen.append(b)
            go(b - 1, rows | row_bit[b], cols | col_bit[b], nd)
            chosen.pop()
        go(b - 1, rows, cols, cur)

    go(mn - 1, 0, 0, floor)
    return best


def _canonical_witness_mask(delta, m: int, n: int, d_star: float, floor: float) -> int:
    """Smallest-cardinality, then smallest-bitmask correspondence with
    distortion d_star.

    Any optimal correspondence contains a covering subset of at most
    m + n - 1 pairs whose distortion cannot exceed (hence equals) d_star,
    so the cardinality loop always terminates.
    """
    mn = m * n
    row_bit, col_bit, pref_rows, pref_cols = _coverage_tables(m, n)
    full_rows = (1 << m) - 1
    full_cols = (1 << n) - 1
    chosen: list[int] = []

    def go(b: int, rows: int, cols: int, cur: float, count: int, mask: int, budget: int):
        need_r = full_rows & ~rows
        need_c = full_cols & ~cols
        if count + max(need_r.bit_count(), need_c.bit_count()) > budget:
            return None
        if b < 0:
            if count == budget and not need_r and not need_c:
                return mask
            return None
        if count + b + 1 < budget:
            return None
        if need_r & ~pref_rows[b + 1] or need_c & ~pref_cols[b + 1]:
            return None
        # exclude-first keeps masks in ascending numeric order
        res = go(b - 1, rows, cols, cur, count, mask, budget)
        if res is not None:
            return res
        nd = cur
        row = delta[b]
        for q in chosen:
            v = row[q]
            if v > nd:
                nd = v
        if nd <= d_star:
            chosen.append(b)
            res = go(
                b - 1, rows | row_bit[b], cols | col_bit[b], nd,
                count + 1, mask | 1 << b, budget,
            )
            chosen.pop()
            if res is not None:
                return res
        return None

    for budget in range(max(m, n), m + n):
        mask = go(mn - 1, 0, 0, floor, 0, 0, budget)
        if mask is not None:
            return mask
    raise AssertionError("no witness within m+n-1 pairs; unreachable")


def bnb_gh(dx, dy) -> tuple[float, int]:
    """Minimum half-distortion and the canonical witness mask, by branch and
    bound over slots in index order.

    Builds the folded delta table in plain Python: the larger of the two
    orientations of each pair entry and every slot's own term
    |dx[i][i] - dy[j][j]|.  The search starts from the full product X x Y,
    a correspondence, so it needs no heuristic incumbent.
    """
    m, n = len(dx), len(dy)
    mn = m * n
    own = [abs(dx[p // n][p // n] - dy[p % n][p % n]) for p in range(mn)]
    delta = [
        [
            max(
                abs(dx[p // n][q // n] - dy[p % n][q % n]),
                abs(dx[q // n][p // n] - dy[q % n][p % n]),
                own[p],
                own[q],
            )
            for q in range(mn)
        ]
        for p in range(mn)
    ]
    floor = min(own)
    full = max(max(row) for row in delta)
    d_star = _min_distortion_value(delta, m, n, full, floor)
    return 0.5 * d_star, _canonical_witness_mask(delta, m, n, d_star, floor)


def reference_slice_gh_check(R, x, y, t: float, s: float) -> tuple[float, float]:
    """(expected, actual) of the slice check by two full exact solves plus
    ``distortion``, raising what ``slice_gh_check`` raises, in the same order."""
    from ghgeo import (
        NotOptimalCorrespondence,
        ParameterOutOfRange,
        SearchSpaceTooLarge,
        distortion,
        geodesic_slice,
        gh_distance_exact,
    )

    for v in (t, s):
        if not 0.0 <= v <= 1.0:
            raise ParameterOutOfRange(f"parameter {v!r} outside [0, 1]")
    if len(R) ** 2 > 25:
        raise SearchSpaceTooLarge(f"|R|^2 = {len(R) ** 2} exceeds the exhaustive-search cap of 25")
    base = gh_distance_exact(x, y)
    half_dis = 0.5 * distortion(R, x, y)
    if abs(half_dis - base.value) > 1e-12:
        raise NotOptimalCorrespondence(
            f"half distortion {half_dis!r} differs from d_GH = {base.value!r}"
        )
    slice_t = geodesic_slice(R, x, y, t)
    slice_s = geodesic_slice(R, x, y, s)
    return abs(t - s) * base.value, gh_distance_exact(slice_t, slice_s).value


def product_distance(family, c: float, p1, p2) -> float:
    """Distance between (z1, t) and (z2, s) in the product over ``family``:
    min over z of |z1 z|_t + |z z2|_s, plus c|t - s|, one point pair at a
    time.  The reference for build_product's blocked min-plus pass."""
    (z1, t), (z2, s) = p1, p2
    a, b = family.dist_at(t).tolist(), family.dist_at(s).tolist()
    return min(a[z1][z] + b[z][z2] for z in range(family.ground_size)) + c * abs(t - s)
