"""Output checks behind ``failed`` and ``correct``, and the self-check that
feeds known-bad outputs through them.

Each check returns a list of problems; an empty list means the output passed.
Checks run between ops, when the tracer records nothing, so checking never
adds to the trace.
"""

from __future__ import annotations

import hashlib
import json

from ghgeo.correspondence import distortion, gh_lower_bound

# Slack for comparisons between independently computed floats.
EPS = 1e-12
# Largest accepted |d_GH(R_t, R_s) - |t - s| d_GH(X, Y)| in the slice check.
SLICE_TOL = 1e-9


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(records) -> str:
    return hashlib.sha256(canonical(records).encode()).hexdigest()


# ---------------------------------------------------------------------------
# GH results
# ---------------------------------------------------------------------------

def check_result(x, y, result) -> list[str]:
    """Checks that hold for any GH result, exact or heuristic."""
    w = result.witness
    if (w.m, w.n) != (len(x), len(y)) or not w.is_surjective():
        return ["witness is not a correspondence of X and Y"]
    problems = []
    if result.value != 0.5 * distortion(w, x, y):
        problems.append("value differs from half the witness distortion")
    if not gh_lower_bound(x, y) <= result.value + EPS:
        problems.append("value below the diameter lower bound")
    return problems


def check_exact(x, y, result, heuristic_value: float) -> list[str]:
    problems = check_result(x, y, result)
    if not result.value <= heuristic_value + EPS:
        problems.append("value above the heuristic upper bound")
    return problems


def check_slice(check) -> list[str]:
    if not check.error <= SLICE_TOL:
        return [f"slice GH error {check.error!r} above {SLICE_TOL}"]
    return []


def brute_force_gh(dx, dy) -> tuple[float, int]:
    """Minimum distortion and canonical witness mask by full enumeration.

    The witness minimises (distortion, number of pairs, bitmask), where pair
    (i, j) is bit i*n + j.  Pure Python, shares no code with the library.
    """
    m, n = len(dx), len(dy)
    mn = m * n
    delta = [[abs(dx[p // n][q // n] - dy[p % n][q % n]) for q in range(mn)] for p in range(mn)]
    full_rows, full_cols = (1 << m) - 1, (1 << n) - 1
    best = None
    for mask in range(1, 1 << mn):
        codes = [k for k in range(mn) if mask >> k & 1]
        rows = cols = 0
        for k in codes:
            rows |= 1 << (k // n)
            cols |= 1 << (k % n)
        if rows != full_rows or cols != full_cols:
            continue
        dis = 0.0
        for a, p in enumerate(codes):
            row = delta[p]
            for q in codes[a + 1:]:
                if row[q] > dis:
                    dis = row[q]
        key = (dis, len(codes), mask)
        if best is None or key < best:
            best = key
    return best[0], best[2]


def check_against_brute_force(x, y, result) -> list[str]:
    dis, mask = brute_force_gh(x.dist.tolist(), y.dist.tolist())
    problems = []
    if result.value != 0.5 * dis:
        problems.append(f"value {result.value!r} != brute force {0.5 * dis!r}")
    if result.witness.bitmask() != mask:
        problems.append("witness is not the canonical brute-force witness")
    return problems


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

# The in-memory product keeps its affine family: it checks the conditions in
# closed form and compares each slice with the family, where tie-heavy
# metrics leave rounding-level restriction errors.  A reloaded product only
# has its own slices as the family, so it checks the conditions on the grid
# and its restriction error is zero by construction.  These entries may
# differ; every other entry must be equal.
_CONDITION_KEYS = ("monotone", "lipschitz")
_NOT_REDERIVED = _CONDITION_KEYS + ("restriction_max_error",)


def check_reports(report, reloaded) -> list[str]:
    problems = []
    if not report.passed:
        problems.append("in-memory report failed")
    if not reloaded.passed:
        problems.append("reloaded report failed")
    a, b = report.to_json_dict(), reloaded.to_json_dict()
    diff = sorted(k for k in a if k not in _NOT_REDERIVED and a[k] != b[k])
    if diff:
        problems.append(f"reloaded report differs in {diff}")
    for key in _CONDITION_KEYS:
        if not (a[key]["ok"] and b[key]["ok"]):
            problems.append(f"{key} condition failed")
    return problems


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def check_cli(returncode: int, stdout: str, expected: str | None = None) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems = []
    if isinstance(payload, dict) and payload.get("passed") is False:
        problems.append("report did not pass")
    if expected is not None and stdout != expected:
        problems.append("stdout differs from the in-process result")
    return problems
