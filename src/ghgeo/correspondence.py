"""Relations, correspondences, distortion, and Gromov-Hausdorff distance.

The Gromov-Hausdorff distance between finite spaces X, Y is half the minimum
distortion over all correspondences R (subsets of X x Y projecting onto both
factors), where

    dis R = max{ | |xx'| - |yy'| | : (x,y), (x',y') in R }.

The exact solver enumerates correspondences as bitmasks over the m*n pairs
(bit i*n + j encodes pair (i, j)) with depth-first branch and bound, and is
capped at m*n <= 25 bits.  A seeded local-search heuristic handles larger
instances and returns an upper bound with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidRelation,
    NotSurjective,
    SearchSpaceTooLarge,
    SizeMismatch,
)
from .metric_core import FiniteMetricSpace, _json_convert, _json_fields, _parse_json

# Hard cap on exhaustive search: at most 2^25 candidate bitmasks.
MAX_EXACT_BITS = 25


@dataclass(frozen=True)
class Relation:
    """A nonempty set of index pairs between [0, m) and [0, n)."""

    m: int
    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", frozenset((int(i), int(j)) for i, j in self.pairs)
        )
        if self.m <= 0 or self.n <= 0:
            raise InvalidRelation(f"index ranges must be positive, got {self.m}, {self.n}")
        if not self.pairs:
            raise InvalidRelation("relation has no pairs")
        for i, j in self.pairs:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise InvalidRelation(f"pair ({i}, {j}) outside [0,{self.m}) x [0,{self.n})")

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def bitmask(self) -> int:
        mask = 0
        for i, j in self.pairs:
            mask |= 1 << (i * self.n + j)
        return mask

    def is_surjective(self) -> bool:
        # every pair is in range, so covering means hitting m rows and n columns
        return (
            len({i for i, _ in self.pairs}) == self.m
            and len({j for _, j in self.pairs}) == self.n
        )

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Correspondence(Relation):
    """A relation whose projections cover all of [0, m) and [0, n)."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_surjective():
            raise NotSurjective("projections of the pair set are not surjective")

    @classmethod
    def from_bitmask(cls, m: int, n: int, mask: int) -> "Correspondence":
        pairs = frozenset(
            (k // n, k % n) for k in range(m * n) if mask >> k & 1
        )
        return cls(m, n, pairs)

    def transpose(self) -> "Correspondence":
        return Correspondence(self.n, self.m, frozenset((j, i) for i, j in self.pairs))

    @property
    def is_bijection(self) -> bool:
        return len(self.pairs) == self.m == self.n

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "pairs": [list(p) for p in self.sorted_pairs()]}


def correspondence_from_json_dict(data: dict) -> Correspondence:
    what = "correspondence JSON"
    m, n, pairs = _json_fields(data, what, ("m", "n", "pairs"))
    return Correspondence(
        _json_convert(int, m, what, "m"),
        _json_convert(int, n, what, "n"),
        _json_convert(lambda v: frozenset((int(i), int(j)) for i, j in v), pairs, what, "pairs"),
    )


def load_correspondence(path: str | Path) -> Correspondence:
    return correspondence_from_json_dict(_parse_json(Path(path).read_text()))


@dataclass(frozen=True)
class GHResult:
    """GH distance value with its witness correspondence.

    ``value`` is always half the distortion of ``witness``; only the exact
    solver certifies optimality.
    """

    value: float
    witness: Correspondence
    method: str  # "exact" | "heuristic"
    is_certified_optimal: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "certified": self.is_certified_optimal,
            "witness": self.witness.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def _check_sizes(rel: Relation, x: FiniteMetricSpace, y: FiniteMetricSpace) -> None:
    if rel.m != len(x) or rel.n != len(y):
        raise SizeMismatch(
            f"relation is {rel.m} x {rel.n} but spaces have {len(x)} and {len(y)} points"
        )


def _pullback(
    rel: Relation, x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The sorted pairs of the relation and the X and Y distances between them."""
    _check_sizes(rel, x, y)
    ps = rel.sorted_pairs()
    xi = [i for i, _ in ps]
    yj = [j for _, j in ps]
    return ps, x.dist[np.ix_(xi, xi)], y.dist[np.ix_(yj, yj)]


def distortion(rel: Relation, x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """max | |xx'| - |yy'| | over pairs of elements of the relation."""
    _, dx, dy = _pullback(rel, x, y)
    return float(np.abs(dx - dy).max())


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """Half the diameter difference; never exceeds the GH distance."""
    return 0.5 * abs(x.diameter() - y.diameter())


def _require_within_cap(m: int, n: int) -> None:
    if m * n > MAX_EXACT_BITS:
        raise SearchSpaceTooLarge(
            f"m*n = {m * n} exceeds the exhaustive-search cap of {MAX_EXACT_BITS}"
        )


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def _delta_table(x: FiniteMetricSpace, y: FiniteMetricSpace) -> list[list[float]]:
    """delta[i*n+j][k*n+l] = | dX[i][k] - dY[j][l] | as plain Python lists."""
    m, n = len(x), len(y)
    d = np.abs(
        x.dist[:, None, :, None] - y.dist[None, :, None, :]
    ).reshape(m * n, m * n)
    return d.tolist()


def _dis_codes(delta: list[list[float]], codes) -> float:
    best = 0.0
    cs = list(codes)
    for a in range(len(cs)):
        row = delta[cs[a]]
        for b in range(a + 1, len(cs)):
            v = row[cs[b]]
            if v > best:
                best = v
    return best


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


def _greedy_codes(x: FiniteMetricSpace, y: FiniteMetricSpace, delta) -> list[int]:
    """Deterministic starting correspondence: zip points sorted by eccentricity,
    then attach leftover points of the larger side greedily."""
    m, n = len(x), len(y)
    order_x = sorted(range(m), key=lambda i: (-float(x.dist[i].max()), i))
    order_y = sorted(range(n), key=lambda j: (-float(y.dist[j].max()), j))
    k = min(m, n)
    codes = [order_x[a] * n + order_y[a] for a in range(k)]

    def attach(candidates: list[int]) -> int:
        best_code, best_val = -1, None
        for code in candidates:
            row = delta[code]
            val = max((row[q] for q in codes), default=0.0)
            if best_val is None or val < best_val:
                best_code, best_val = code, val
        return best_code

    if m > n:
        for a in range(n, m):
            i = order_x[a]
            codes.append(attach([i * n + j for j in range(n)]))
    elif n > m:
        for a in range(m, n):
            j = order_y[a]
            codes.append(attach([i * n + j for i in range(m)]))
    return codes


def _min_distortion_value(delta, m: int, n: int, incumbent: float) -> float:
    """Branch-and-bound minimum distortion over all correspondences.

    ``incumbent`` must be attained by some correspondence; partial sets whose
    distortion already reaches the best value are pruned (distortion is
    monotone under adding pairs).
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

    if best > 0.0:
        go(mn - 1, 0, 0, 0.0)
    return best


def _canonical_witness_mask(delta, m: int, n: int, d_star: float) -> int:
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
        mask = go(mn - 1, 0, 0, 0.0, 0, 0, budget)
        if mask is not None:
            return mask
    raise AssertionError("no witness within m+n-1 pairs; unreachable")


def gh_distance_exact(x: FiniteMetricSpace, y: FiniteMetricSpace) -> GHResult:
    """Exact GH distance: half the minimum distortion over all correspondences.

    The witness is canonical: among all minimizers it has the fewest pairs,
    with remaining ties broken by the smallest bitmask.  Requires
    len(x) * len(y) <= 25.
    """
    m, n = len(x), len(y)
    _require_within_cap(m, n)
    delta = _delta_table(x, y)
    start = _greedy_codes(x, y, delta)
    d_star = _min_distortion_value(delta, m, n, _dis_codes(delta, start))
    mask = _canonical_witness_mask(delta, m, n, d_star)
    witness = Correspondence.from_bitmask(m, n, mask)
    return GHResult(0.5 * d_star, witness, "exact", True)


# ---------------------------------------------------------------------------
# heuristic solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeuristicConfig:
    iterations: int = 1000
    seed: int = 0
    restarts: int = 4

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


class _DeltaRows:
    """delta[code] for one code at a time, computed from the two distance
    matrices: the rows of _delta_table without the (mn)^2 table."""

    def __init__(self, x: FiniteMetricSpace, y: FiniteMetricSpace):
        self.dx = x.dist
        self.dy = y.dist

    def __getitem__(self, code: int) -> list[float]:
        i, j = divmod(code, self.dy.shape[0])
        return np.abs(self.dx[i][:, None] - self.dy[j][None, :]).ravel().tolist()


def _member_deltas(views, n: int, members: np.ndarray) -> np.ndarray:
    """D[q, b] = delta between slot q and member b, the larger of its two
    orientations when a matrix is not exactly symmetric."""
    ui, uj = np.divmod(members, n)
    d = None
    for dx, dy in views:
        e = dx[:, ui][:, None, :] - dy[:, uj][None, :, :]
        np.abs(e, out=e)
        d = e if d is None else np.maximum(d, e, out=d)
    return d.reshape(-1, len(members))


def _top2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row maximum, the column holding it, and the maximum of the other
    columns (-inf for one column).  ``a`` is restored before returning."""
    rows = np.arange(a.shape[0])
    at = a.argmax(axis=1)
    top = a[rows, at]
    a[rows, at] = -np.inf
    second = a.max(axis=1)
    a[rows, at] = top
    return top, at, second


def _first_move(
    d: np.ndarray, cur: float, diag: np.ndarray, members: np.ndarray, m: int, n: int
) -> np.ndarray | None:
    """The members after the first improving move, or None at a local minimum.

    Moves are scanned in a fixed order: remove a member (surjectivity
    permitting), then swap a member for an absent slot; members and slots
    ascending, strict improvement only.  Adding a slot is never a move, since
    distortion is monotone under inclusion.
    """
    rows, cols = np.divmod(members, n)
    row_short = np.bincount(rows, minlength=m)[rows] < 2
    col_short = np.bincount(cols, minlength=n)[cols] < 2
    # dis(R - {p}) for every member p, from the top two of each row of the
    # member block: row a without column p keeps its top unless p holds it
    top, top_at, second = _top2(d[members])
    own = np.arange(len(members))
    rest = np.where(top_at[:, None] == own, second[:, None], top[:, None])
    rest[own, own] = -np.inf
    base = rest.max(axis=0)
    hit = np.flatnonzero(~row_short & ~col_short & (base < cur))
    if hit.size:
        return np.delete(members, hit[0])
    # max over u in R - {p} of delta[q][u] for every slot q, the same way
    top, top_at, second = _top2(d)
    open_slots = diag < cur
    open_slots[members] = False
    slot_rows, slot_cols = np.divmod(np.arange(m * n), n)
    for b in np.flatnonzero(base < cur):
        ok = open_slots & (np.where(top_at == b, second, top) < cur)
        if row_short[b]:
            ok &= slot_rows == rows[b]
        if col_short[b]:
            ok &= slot_cols == cols[b]
        hit = np.flatnonzero(ok)
        if hit.size:
            return np.sort(np.append(np.delete(members, b), hit[0]))
    return None


def _descend(views, diag: np.ndarray, m: int, n: int, codes, max_steps: int) -> tuple[float, set[int]]:
    """First-improvement hill climbing on distortion, at most ``max_steps``
    moves.  Each step scores every move from one (mn) x |R| array."""
    members = np.array(sorted(codes))
    steps = 0
    while True:
        d = _member_deltas(views, n, members)
        cur = float(d[members].max())
        moved = _first_move(d, cur, diag, members, m, n) if steps < max_steps else None
        if moved is None:
            return cur, set(members.tolist())
        members = moved
        steps += 1


def _random_codes(rng, m: int, n: int) -> set[int]:
    xs = list(range(m))
    ys = list(range(n))
    rng.shuffle(xs)
    rng.shuffle(ys)
    k = min(m, n)
    codes = {xs[a] * n + ys[a] for a in range(k)}
    for a in range(k, m):
        codes.add(xs[a] * n + rng.randrange(n))
    for a in range(k, n):
        codes.add(rng.randrange(m) * n + ys[a])
    return codes


def gh_distance_heuristic(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    config: HeuristicConfig | None = None,
) -> GHResult:
    """Seeded local-search upper bound for the GH distance.

    Starts from the eccentricity-greedy correspondence, then runs
    first-improvement hill climbing with random restarts.  The result is
    deterministic for a fixed seed and always an upper bound (its witness is
    a genuine correspondence).
    """
    import random

    cfg = config or HeuristicConfig()
    m, n = len(x), len(y)
    # the objective is distortion()'s own maximum: both orientations of every
    # pair of members, and each member with itself
    views = [(x.dist, y.dist)]
    if not (np.array_equal(x.dist, x.dist.T) and np.array_equal(y.dist, y.dist.T)):
        views.append((x.dist.T, y.dist.T))
    diag = np.abs(np.diag(x.dist)[:, None] - np.diag(y.dist)[None, :]).ravel()
    rng = random.Random(cfg.seed)

    best_dis = None
    best_codes: set[int] = set()
    for restart in range(cfg.restarts):
        if restart == 0:
            codes = _greedy_codes(x, y, _DeltaRows(x, y))
        else:
            codes = _random_codes(rng, m, n)
        dis_val, codes = _descend(views, diag, m, n, codes, cfg.iterations)
        if best_dis is None or dis_val < best_dis:
            best_dis = dis_val
            best_codes = codes
        if best_dis == 0.0:
            break

    pairs = frozenset((c // n, c % n) for c in best_codes)
    witness = Correspondence(m, n, pairs)
    return GHResult(0.5 * best_dis, witness, "heuristic", False)
