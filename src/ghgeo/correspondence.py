"""Correspondences, distortion, and Gromov-Hausdorff distance.

The Gromov-Hausdorff distance between finite spaces X, Y is half the minimum
distortion over all correspondences R (subsets of X x Y projecting onto both
factors), where

    dis R = max{ | |xx'| - |yy'| | : (x,y), (x',y') in R }.

The exact solver, capped at m*n <= 25 pair slots (bit i*n + j encodes pair
(i, j)), searches over int bitsets of slots for covers of every row (point
of X) and column (point of Y), branching on the line with the fewest
candidates left (Knuth's Algorithm X).  The value search stops once it
reaches the diameter bound |diam X - diam Y|, which no distortion goes
below.  A seeded local-search heuristic handles larger instances and
returns an upper bound with a witness.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidRelation,
    NotSurjective,
    SearchSpaceTooLarge,
    SizeMismatch,
)
from .metric_core import FiniteMetricSpace, _json_convert, _json_fields, _json_int, _parse_json

# Hard cap on the exact covering search: 25 pair slots, so 25-bit masks.
MAX_EXACT_BITS = 25


def _index(value, what: str) -> int:
    """An index as int: any integer but a bool, as the JSON loader reads
    them; int() would read 1.9 and True as 1."""
    if type(value) is int:
        return value
    try:
        return _json_int(value)
    except TypeError:
        raise InvalidRelation(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class Correspondence:
    """A nonempty set of index pairs between [0, m) and [0, n) whose
    projections cover both ranges."""

    m: int
    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "m", _index(self.m, "m ="))
        object.__setattr__(self, "n", _index(self.n, "n ="))
        object.__setattr__(
            self,
            "pairs",
            frozenset((_index(i, "pair index"), _index(j, "pair index")) for i, j in self.pairs),
        )
        if self.m <= 0 or self.n <= 0:
            raise InvalidRelation(f"index ranges must be positive, got {self.m}, {self.n}")
        if not self.pairs:
            raise InvalidRelation("relation has no pairs")
        for i, j in self.pairs:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise InvalidRelation(f"pair ({i}, {j}) outside [0,{self.m}) x [0,{self.n})")
        if not self.is_surjective():
            raise NotSurjective("projections of the pair set are not surjective")

    @classmethod
    def from_bitmask(cls, m: int, n: int, mask: int) -> "Correspondence":
        pairs = frozenset(
            (k // n, k % n) for k in range(m * n) if mask >> k & 1
        )
        return cls(m, n, pairs)

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

    def transpose(self) -> "Correspondence":
        return Correspondence(self.n, self.m, frozenset((j, i) for i, j in self.pairs))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "pairs": [list(p) for p in self.sorted_pairs()]}


def correspondence_from_json_dict(data: dict) -> Correspondence:
    what = "correspondence JSON"
    m, n, pairs = _json_fields(data, what, ("m", "n", "pairs"))
    return Correspondence(
        _json_convert(_json_int, m, what, "m"),
        _json_convert(_json_int, n, what, "n"),
        _json_convert(lambda v: {(_json_int(i), _json_int(j)) for i, j in v}, pairs, what, "pairs"),
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

def _pullback(
    R: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The sorted pairs of R and the X and Y distances between them."""
    if R.m != len(x) or R.n != len(y):
        raise SizeMismatch(
            f"relation is {R.m} x {R.n} but spaces have {len(x)} and {len(y)} points"
        )
    ps = R.sorted_pairs()
    xi = [i for i, _ in ps]
    yj = [j for _, j in ps]
    return ps, x.dist[np.ix_(xi, xi)], y.dist[np.ix_(yj, yj)]


def distortion(R: Correspondence, x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """max | |xx'| - |yy'| | over pairs of elements of R."""
    _, dx, dy = _pullback(R, x, y)
    return float(np.abs(dx - dy).max())


def _diameter_gap(x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """|diam X - diam Y|, a floor on every distortion, exactly in floats.

    Every correspondence holds pairs over X's diameter pair, so one of its
    deltas is |fl(diam X - dY[j][j'])| >= fl(diam X - diam Y), since
    rounding is monotone; the same holds for Y's diameter pair.
    """
    return abs(x.diameter() - y.diameter())


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """Half the diameter difference; never exceeds the GH distance."""
    return 0.5 * _diameter_gap(x, y)


def _require_within_cap(slots: int, what: str = "m*n") -> None:
    if slots > MAX_EXACT_BITS:
        raise SearchSpaceTooLarge(
            f"{what} = {slots} exceeds the exhaustive-search cap of {MAX_EXACT_BITS}"
        )


# ---------------------------------------------------------------------------
# the objective: one pair-delta kernel for every search
# ---------------------------------------------------------------------------

def _deltas(x: FiniteMetricSpace, y: FiniteMetricSpace) -> np.ndarray:
    """T[p, q] = | dX[i][i'] - dY[j][j'] | for slots p = i*n+j and
    q = i'*n+j', the exact solver's table.

    Both matrices are in normal form, so T is exactly symmetric with a zero
    diagonal: the maximum of T[R][:, R] is distortion()'s own maximum, and
    the solver optimizes exactly the value it reports.  The greedy start and
    heuristic descent compute the same deltas a row or a column at a time,
    bit for bit.
    """
    d = x.dist[:, None, :, None] - y.dist[None, :, None, :]
    np.abs(d, out=d)
    return d.reshape(-1, len(x) * len(y))


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def _greedy_codes(x: FiniteMetricSpace, y: FiniteMetricSpace) -> list[int]:
    """Deterministic starting correspondence: zip points sorted by eccentricity,
    then attach leftover points of the larger side greedily."""
    m, n = len(x), len(y)
    dx, dy = x.dist, y.dist
    ecc_x, ecc_y = (-dx.max(axis=1)).tolist(), (-dy.max(axis=1)).tolist()
    order_x = sorted(range(m), key=ecc_x.__getitem__)
    order_y = sorted(range(n), key=ecc_y.__getitem__)
    k = min(m, n)
    if m == n:
        return [order_x[a] * n + order_y[a] for a in range(k)]
    # each leftover point takes the slot whose largest delta against the
    # slots chosen so far is smallest, the first one on ties; worst[i*n+j]
    # is slot (i, j)'s largest delta, so a leftover point's candidates are
    # one row or one column of it
    codes = []
    worst = np.zeros(m * n)
    for a in range(max(m, n)):
        if a < k:
            i, j = order_x[a], order_y[a]
        elif m > n:
            i = order_x[a]
            j = int(worst[i * n : (i + 1) * n].argmin())
        else:
            j = order_y[a]
            i = int(worst[j::n].argmin())
        codes.append(i * n + j)
        # slot (i, j)'s row of _deltas, without building index arrays
        np.maximum(worst, np.abs(dx[i][:, None] - dy[j]).ravel(), out=worst)
    return codes


def _bitsets(allowed: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as an int whose bit q is column q.

    Rows are packed little-endian into 64-bit words, read with one
    ``tolist``; words past the first are needed only for rows wider than
    64 columns.
    """
    rows, width = allowed.shape
    words = -(-width // 64)
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(allowed, axis=1, bitorder="little")
    vals = packed.view("<u8")
    if words == 1:
        return vals.ravel().tolist()
    return [sum(v << (64 * q) for q, v in enumerate(row)) for row in vals.tolist()]


def _line_masks(m: int, n: int) -> list[int]:
    """The slots of each line: rows 0..m-1, then columns as lines m..m+n-1;
    slot c lies on lines c // n and m + c % n."""
    column = sum(1 << (i * n) for i in range(m))
    return [((1 << n) - 1) << (i * n) for i in range(m)] + [column << j for j in range(n)]


def _find_cover(compat, feas: int, lines, open_lines: list[int], m: int, n: int):
    """Pairwise compatible slots from ``feas`` covering every open line, or
    None.  Branches on the open line with the fewest candidates left, and
    drops each tried candidate before the next."""
    if not open_lines:
        return []
    fewest = min([feas & lines[line] for line in open_lines], key=int.bit_count)
    while fewest:
        low = fewest & -fewest
        c = low.bit_length() - 1
        row, col = c // n, m + c % n
        rest = [line for line in open_lines if line != row and line != col]
        cover = _find_cover(compat, feas & compat[c], lines, rest, m, n)
        if cover is not None:
            cover.append(c)
            return cover
        feas ^= low
        fewest ^= low
    return None


def _min_distortion(x: FiniteMetricSpace, y: FiniteMetricSpace, start) -> tuple[float, np.ndarray]:
    """Minimum distortion over all correspondences between x and y, searched
    from the correspondence with slot codes ``start``, and the delta table
    it read, where ``table[p][q]`` is the distortion of {p, q}.

    Each cover found with all entries strictly below the best value becomes
    the best, until none is found or the best reaches the diameter gap
    |diam X - diam Y|, below which no distortion lies (_diameter_gap).  The
    best is always the distortion of a correspondence, so the value returned
    is the same float whatever the start.  From an optimal start it costs
    one failed cover search, or none when the optimum is the diameter gap.
    A single slot has distortion 0, so every slot starts feasible.
    """
    m, n = len(x), len(y)
    table = _deltas(x, y)
    lines = _line_masks(m, n)
    floor = _diameter_gap(x, y)
    best = float(table[start][:, start].max())
    while best > floor:
        compat = _bitsets(table < best)
        cover = _find_cover(compat, (1 << m * n) - 1, lines, list(range(m + n)), m, n)
        if cover is None:
            break
        best = float(table[cover][:, cover].max())
    return best, table


def _canonical_cover(table: np.ndarray, m: int, n: int, d_star: float) -> int:
    """Smallest-cardinality, then smallest-bitmask correspondence with
    distortion d_star.  Any optimal correspondence holds a cover of at most
    m + n - 1 pairs, so the cardinality loop ends.  A slot whose row and
    column are both covered is never taken: that set is not the smallest."""
    within = table <= d_star
    compat = _bitsets(within)
    lines = _line_masks(m, n)

    def go(feas: int, open_lines: list[int], count: int, mask: int, budget: int):
        if not open_lines:
            return mask
        open_rows = bisect_left(open_lines, m)  # ascending, rows first
        if count + max(open_rows, len(open_lines) - open_rows) > budget:
            return None
        useful = forced = 0
        for line in open_lines:
            cand = feas & lines[line]
            if not cand:
                return None
            if not cand & (cand - 1):
                forced = cand
            useful |= cand
        # a line with one candidate left forces it; otherwise deciding the
        # highest slot first, exclude-first, keeps masks in ascending order
        if forced:
            high = forced
        else:
            high = 1 << (useful.bit_length() - 1)
            found = go(useful ^ high, open_lines, count, mask, budget)
            if found is not None:
                return found
        b = high.bit_length() - 1
        row, col = b // n, m + b % n
        rest = [line for line in open_lines if line != row and line != col]
        return go(useful & compat[b], rest, count + 1, mask | high, budget)

    for budget in range(max(m, n), m + n):
        mask = go((1 << m * n) - 1, list(range(m + n)), 0, 0, budget)
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
    _require_within_cap(m * n)
    d_star, table = _min_distortion(x, y, _greedy_codes(x, y))
    mask = _canonical_cover(table, m, n, d_star)
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
        # the seed may be negative; random.Random(None) would seed from the
        # OS, and random.Random(np.int64(3)) raises TypeError
        for name in ("iterations", "restarts", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _json_int(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 1 and name != "seed":
                raise ValueError(f"{name} must be >= 1")


def _swap_target(
    big: np.ndarray, small: np.ndarray, g: np.ndarray, p: int, cur: float
) -> tuple[int, np.ndarray] | None:
    """The first image, ascending, that point p of the larger side can move
    to, as (image, p's pullback column after the move), or None.

    Image k qualifies when no point but p reaches ``cur`` against p mapped
    to k.
    """
    line = big[:, p][:, None] - small.take(g, 0)
    np.abs(line, out=line)
    hot = line >= cur
    hot[p] = False
    taken = hot.any(axis=0)
    taken[g[p]] = True  # p's own image
    k = int(taken.argmin())
    if taken[k]:
        return None
    return k, line[:, k]


def _descend(x: FiniteMetricSpace, y: FiniteMetricSpace, codes, max_steps: int) -> tuple[float, set[int]]:
    """First-improvement hill climbing on distortion, at most ``max_steps``
    moves.

    ``codes`` holds exactly one slot per point of the larger side L and
    covers the smaller side S, as every start of ``gh_distance_heuristic``
    does: it is the graph of a map g from L onto S.  A move reassigns one
    point's image, and a point may move only when its image has another
    preimage, so g stays onto.  Removing a member never helps, since it
    would uncover a point of L, and adding one never does, since distortion
    is monotone under inclusion.  Points are tried by slot code i*n+j, which
    is (g(p), p) when L is Y, then images ascending; strict improvement
    only.

    A step reads the pullback ``pull[p, q] = |dL[p][q] - dS[g p][g q]|``,
    built once and updated in place: a move rewrites one row and column,
    the moved point's deltas against the others for each image
    (``_swap_target``).  The number of preimages of each point of S is kept
    the same way.  A step thus costs O(|L|^2) in a fixed handful of numpy
    calls.  Every delta is computed as in ``_deltas``, bit for bit, since
    |a - b| and |b - a| are the same float.

    A bijection has no improving move, since every image has a single
    preimage.  So a bijection is scored on its pullback and returned.
    """
    m, n = len(x), len(y)
    i, j = np.divmod(np.array(list(codes)), n)
    if m >= n:
        big, small, points, images = x.dist, y.dist, i, j
    else:
        big, small, points, images = y.dist, x.dist, j, i
    g = np.empty(len(big), dtype=np.intp)
    g[points] = images
    # point p's slot is (rows[p], cols[p]); one of them is g, moved in place
    on = np.arange(len(g))
    rows, cols = (on, g) if m >= n else (g, on)
    pull = np.abs(big - small.take(g, 0).take(g, 1))
    if m == n:
        return float(pull.max()), set((rows * n + cols).tolist())
    preimages = np.bincount(g, minlength=len(small)).tolist()
    steps = 0
    while True:
        top = int(pull.argmax())
        cur = pull.item(top)
        if steps >= max_steps or cur <= 0.0:
            return cur, set((rows * n + cols).tolist())
        # a move of p improves only when every pair at or above cur
        # involves p, so p is a member of the first such pair argmax finds;
        # the pullback is symmetric with a zero diagonal, so p's pairs are
        # twice those in its row
        hot = pull >= cur
        total = np.count_nonzero(hot)
        for p in sorted(divmod(top, len(g)), key=lambda p: rows[p] * n + cols[p]):
            if preimages[g[p]] > 1 and 2 * np.count_nonzero(hot[p]) == total:
                swap = _swap_target(big, small, g, p, cur)
                if swap is not None:
                    break
        else:
            return cur, set((rows * n + cols).tolist())
        k, column = swap
        preimages[g[p]] -= 1
        preimages[k] += 1
        g[p] = k
        pull[p] = pull[:, p] = column
        pull[p, p] = 0.0
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
    a genuine correspondence).  A bijection is a local minimum of the move
    set, so on square pairs, where every start is one, the result is the
    best of the ``restarts`` starts.
    """
    import random

    cfg = config or HeuristicConfig()
    m, n = len(x), len(y)
    rng = random.Random(cfg.seed)

    best_dis = None
    best_codes: set[int] = set()
    for restart in range(cfg.restarts):
        if restart == 0:
            codes = _greedy_codes(x, y)
        else:
            codes = _random_codes(rng, m, n)
        dis_val, codes = _descend(x, y, codes, cfg.iterations)
        if best_dis is None or dis_val < best_dis:
            best_dis = dis_val
            best_codes = codes
        if best_dis == 0.0:
            break

    pairs = frozenset((c // n, c % n) for c in best_codes)
    witness = Correspondence(m, n, pairs)
    return GHResult(0.5 * best_dis, witness, "heuristic", False)
