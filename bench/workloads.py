"""The four benchmark workloads.

Each workload builds a seeded op stream in ``setup``, runs one op at a time in
``run`` (the timed part) and checks its output in ``check`` (untimed).  The
library is always reached through module attributes looked up at call time,
so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from ghgeo import cli as CLI
from ghgeo import correspondence as C
from ghgeo import geodesic as G
from ghgeo import metric_core as M
from ghgeo import realization as R

import checks
from gen import instance_rng, pair


class FreshFiles:
    """Hands out paths that were never used before, in one private directory.

    Overwriting a file that was just written can cost tens of milliseconds on
    ext4 (the file system flushes the replaced data), while a new name costs
    almost nothing, so every write goes to a new path and is deleted once
    read.  The directory is removed by ``cleanup``.
    """

    def __init__(self, base: Path):
        import tempfile

        base.mkdir(exist_ok=True)
        self.base = base
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.count = 0
        self.bytes_written = 0

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.dir / f"{self.count:07d}-{stem}.json"

    def write(self, stem: str, text: str) -> Path:
        p = self.path(stem)
        data = text.encode()
        p.write_bytes(data)
        self.bytes_written += len(data)
        return p

    def cleanup(self) -> None:
        import shutil

        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.base.rmdir()


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(root: Path, argv: list[str]) -> tuple[int, str]:
    """One ``python -m ghgeo.cli`` child process; waits for it to end."""
    proc = subprocess.run(
        [sys.executable, "-m", "ghgeo.cli", *argv],
        cwd=root, env=cli_env(root), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def cli_dumps(obj) -> str:
    """The CLI's payload format: indented JSON and a final newline."""
    return json.dumps(obj, indent=2) + "\n"


class Workload:
    name = ""
    why = ""
    # every untraced run makes at least this many ops, so that at least ten
    # samples lie beyond the p90
    MIN_OPS = 100
    # ops 0 .. block-1 form the traced block and are covered by the output
    # digest; None means the whole stream
    BLOCK: int | None = None

    def __init__(self, seed: int, files: FreshFiles, root: Path):
        self.seed = seed
        self.files = files
        self.root = root
        self.items: list = []
        self.records: dict[int, object] = {}

    @property
    def block(self) -> int:
        """Ops in one traced block: whole blocks make per-op counters exact."""
        return self.BLOCK or len(self.items)

    def item(self, k: int):
        return self.items[k % len(self.items)]

    def instance(self, k: int) -> int:
        return k % len(self.items)

    def shape(self, k: int) -> str:
        return self.item(k)["shape"]

    def remember(self, k: int, record) -> list[str]:
        """Record an instance's output, or compare it with the first one."""
        i = self.instance(k)
        if i in self.records:
            if self.records[i] != record:
                return ["output differs from an earlier op on the same instance"]
            return []
        self.records[i] = record
        return []

    def digest(self) -> str:
        return checks.digest([self.records.get(i) for i in range(self.block)])

    def extra(self) -> dict:
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, k: int, tracer):
        raise NotImplementedError

    def check(self, k: int, out) -> list[str]:
        raise NotImplementedError

    def in_process(self) -> None:
        """Switch to the form of the op used in the traced run (only cli-desk
        differs: it calls the CLI in-process so its layers can be traced)."""


# ---------------------------------------------------------------------------

class ExactCap(Workload):
    name = "exact-cap"
    why = "exact B&B and canonical-witness search on pairs at the m*n<=25 cap; heavy-tailed op times"
    SHAPES = [(5, 5), (4, 6), (3, 8), (2, 12), (4, 5), (3, 6)]
    KINDS = ("planar", "graph")
    STREAM = 9000  # more than one run gets through, so every op sees a fresh pair
    BLOCK = 600
    BRUTE_EVERY = 50  # brute-force a sub-pair (m*n <= 12) of every 50th of the first block

    def setup(self) -> None:
        items = []
        for k in range(self.STREAM):
            m, n = self.SHAPES[k % len(self.SHAPES)]
            kind = self.KINDS[(k // len(self.SHAPES)) % 2]
            x, y = pair(instance_rng(self.name, self.seed, k), kind, m, n)
            items.append({"x": x, "y": y, "shape": f"{kind} {m}x{n}"})
        self.items = items
        self.heuristic: dict[int, tuple[float, float]] = {}
        self.brute_checked = 0

    def run(self, k: int, tracer):
        it = self.item(k)
        x, y = it["x"], it["y"]
        res = C.gh_distance_exact(x, y)
        sl = None
        if len(res.witness) <= 5:
            sl = G.slice_gh_check(res.witness, x, y, 0.25, 0.75)
        return res, sl

    def check(self, k: int, out) -> list[str]:
        res, sl = out
        it = self.item(k)
        x, y = it["x"], it["y"]
        i = self.instance(k)
        record = {"value": res.value, "witness": res.witness.to_json_dict()["pairs"],
                  "slice": None if sl is None else [sl.expected, sl.actual]}
        first = i not in self.records
        problems = self.remember(k, record)
        if not first:
            return problems
        h = C.gh_distance_heuristic(x, y)
        self.heuristic[i] = (res.value, h.value)
        problems += checks.check_exact(x, y, res, h.value)
        if sl is not None:
            problems += checks.check_slice(sl)
        if i < self.BLOCK and i % self.BRUTE_EVERY == 0:
            a = min(len(x), 3)
            b = min(len(y), 12 // a)
            xs = M.validate_metric(x.dist[:a, :a], kind="metric")
            ys = M.validate_metric(y.dist[:b, :b], kind="metric")
            self.brute_checked += 1
            problems += checks.check_against_brute_force(xs, ys, C.gh_distance_exact(xs, ys))
        return problems

    def heuristic_excess(self) -> float:
        """Mean (heuristic - exact) / exact over the instances of the block."""
        vals = [(h - e) / e for i, (e, h) in self.heuristic.items() if i < self.BLOCK and e > 0]
        return sum(vals) / len(vals) if vals else 0.0

    def extra(self) -> dict:
        worse = sum(1 for i, (e, h) in self.heuristic.items() if i < self.BLOCK and h > e)
        return {"heuristic_excess": self.heuristic_excess(),
                "heuristic_worse_pairs": worse,
                "brute_force_checked": self.brute_checked}


# ---------------------------------------------------------------------------

class HeuristicScale(Workload):
    name = "heuristic-scale"
    why = "local-search heuristic on 24-60 point pairs; the (mn)^2 delta table sets time and memory"
    # Square sizes in small steps with alternating kinds, plus both kinds of
    # the skewed shapes.  Every op gets a fresh pair: the heuristic's work
    # varies from pair to pair, so percentiles over many pairs of each shape
    # move far less with the seed than those of a few pairs run many times.
    SHAPES = [(n, n, "planar" if i % 2 == 0 else "graph") for i, n in enumerate(range(24, 49, 2))]
    SHAPES += [(m, n, kind) for m, n in ((8, 60), (16, 40)) for kind in ("planar", "graph")]
    STREAM = 20 * len(SHAPES)  # more than one run gets through
    BLOCK = 2 * len(SHAPES)

    def setup(self) -> None:
        items = []
        for k in range(self.STREAM):
            m, n, kind = self.SHAPES[k % len(self.SHAPES)]
            x, y = pair(instance_rng(self.name, self.seed, k), kind, m, n)
            items.append({"x": x, "y": y, "shape": f"{kind} {m}x{n}"})
        self.items = items

    def run(self, k: int, tracer):
        it = self.item(k)
        return C.gh_distance_heuristic(it["x"], it["y"])

    def check(self, k: int, out) -> list[str]:
        it = self.item(k)
        record = {"value": out.value, "witness": out.witness.to_json_dict()["pairs"]}
        return self.remember(k, record) + checks.check_result(it["x"], it["y"], out)


# ---------------------------------------------------------------------------

class RealizeVerify(Workload):
    name = "realize-verify"
    why = "realize, dump, reload and re-verify products of 124-404 points; N^3 scan, min-plus build and JSON"
    # (|R|, grid size): witness sizes 4-7 on grids of 31-101 values.  An odd
    # number of slots with distinct costs puts the median and p90 of a whole
    # number of passes inside one slot's samples.
    SLOTS = [(4, 101), (5, 31), (6, 51), (7, 31), (5, 51), (4, 31), (6, 31), (7, 51), (5, 71)]
    KINDS = ("planar", "graph")

    def setup(self) -> None:
        items = []
        for s, (r, g) in enumerate(self.SLOTS):
            kind = self.KINDS[s % 2]
            rng = instance_rng(self.name, self.seed, s)
            while True:  # the witness of a 3 x r pair nearly always has r pairs
                x, y = pair(rng, kind, 3, r)
                w = C.gh_distance_exact(x, y).witness
                if len(w) == r:
                    break
            items.append({"x": x, "y": y, "R": w, "grid": g,
                          "shape": f"{kind} 3x{r} |R|={r} grid={g} N={r * g}"})
        self.items = items

    def run(self, k: int, tracer):
        it = self.item(k)
        prod, report = R.realize_geodesic(it["x"], it["y"], it["R"], grid=R.ParamGrid.uniform(it["grid"]))
        with tracer.span("realization.product_dump"):
            text = cli_dumps({"product": prod.to_json_dict(), "report": report.to_json_dict()})
            path = self.files.write(f"product{k}", text)
        tracer.count("realization.product_dump.bytes", len(text))
        with tracer.span("realization.product_load"):
            reloaded = R.product_from_json_dict(json.loads(path.read_text()))
        return report, R.verify_product(reloaded), path, text

    def check(self, k: int, out) -> list[str]:
        report, reloaded, path, text = out
        path.unlink()
        record = {"report": report.to_json_dict(), "product_sha256": checks.digest(text)}
        return self.remember(k, record) + checks.check_reports(report, reloaded)


# ---------------------------------------------------------------------------

class CliDesk(Workload):
    name = "cli-desk"
    why = "one ghgeo CLI process per op (dist, dist --heuristic, realize -o, verify); start-up and import"
    CYCLES = 8
    COMMANDS = ("dist", "dist-heuristic", "realize", "verify")
    KINDS = ("planar", "graph")

    def setup(self) -> None:
        items = []
        for c in range(self.CYCLES):
            kind = self.KINDS[c % 2]
            rng = instance_rng(self.name, self.seed, c)
            x45, y45 = pair(rng, kind, 4, 5)
            x12, y12 = pair(rng, kind, 12, 12)
            xr, yr = pair(rng, kind, 3, 4)
            f = {name: str(self.files.write(name, cli_dumps(s.to_json_dict())))
                 for name, s in (("x45", x45), ("y45", y45), ("x12", x12), ("y12", y12),
                                 ("xr", xr), ("yr", yr))}
            expected = {
                "dist": cli_dumps(C.gh_distance_exact(x45, y45).to_json_dict()),
                "dist-heuristic": cli_dumps(C.gh_distance_heuristic(x12, y12).to_json_dict()),
            }
            for cmd in self.COMMANDS:
                shape = {"dist": f"{kind} 4x5", "dist-heuristic": f"{kind} 12x12",
                         "realize": f"{kind} 3x4 grid=11", "verify": f"{kind} 3x4 grid=11"}[cmd]
                items.append({"cmd": cmd, "files": f, "expected": expected.get(cmd),
                              "shape": f"{cmd} {shape}"})
        self.items = items
        self.product: Path | None = None
        self.main = None

    def in_process(self) -> None:
        self.main = CLI.main

    def argv(self, k: int) -> list[str]:
        it = self.item(k)
        f = it["files"]
        cmd = it["cmd"]
        if cmd == "dist":
            return ["dist", f["x45"], f["y45"]]
        if cmd == "dist-heuristic":
            return ["dist", "--heuristic", f["x12"], f["y12"]]
        if cmd == "realize":
            self.product = self.files.path("cli-product")
            return ["realize", f["xr"], f["yr"], "--grid", "11", "-o", str(self.product)]
        return ["verify", str(self.product)]

    def run(self, k: int, tracer):
        argv = self.argv(k)
        if self.main is None:
            code, stdout = run_cli(self.root, argv)
        else:
            buf = io.StringIO()
            with tracer.span(f"cli.main.{self.item(k)['cmd']}"), contextlib.redirect_stdout(buf):
                tracer.count("cli.main.calls", 1)
                code = self.main(argv)
            stdout = buf.getvalue()
        if self.item(k)["cmd"] == "realize" and self.product.exists():
            size = self.product.stat().st_size
            self.files.bytes_written += size
            tracer.count("realization.product_dump.bytes", size)
        return code, stdout

    def check(self, k: int, out) -> list[str]:
        code, stdout = out
        it = self.item(k)
        if it["cmd"] == "verify" and self.product is not None:
            self.product.unlink(missing_ok=True)
        return self.remember(k, stdout) + checks.check_cli(code, stdout, it["expected"])


WORKLOADS = {w.name: w for w in (ExactCap, HeuristicScale, RealizeVerify, CliDesk)}


# ---------------------------------------------------------------------------
# self-check of the checks
# ---------------------------------------------------------------------------

def self_check(files: FreshFiles, root: Path) -> dict[str, bool]:
    """Feed known-bad outputs through the checks; each must be caught."""
    import dataclasses

    x, y = pair(instance_rng("self-check", 0, 0), "planar", 3, 4)
    exact = C.gh_distance_exact(x, y)
    heur = C.gh_distance_heuristic(x, y)
    full = C.Correspondence(3, 4, frozenset((i, j) for i in range(3) for j in range(4)))
    caught = {}
    # the optimal value reported with a witness that does not attain it
    wrong_witness = dataclasses.replace(exact, witness=full)
    caught["non-optimal witness"] = bool(checks.check_exact(x, y, wrong_witness, heur.value))
    # a self-consistent but non-optimal result: only the brute force sees it
    suboptimal = C.GHResult(0.5 * C.distortion(full, x, y), full, "exact", True)
    caught["non-optimal value"] = bool(checks.check_against_brute_force(x, y, suboptimal))

    prod, report = R.realize_geodesic(x, y, exact.witness, grid=R.ParamGrid.uniform(5))
    data = {"product": prod.to_json_dict(), "report": report.to_json_dict()}
    data["product"]["matrix"][1][2] += 0.25
    data["product"]["matrix"][2][1] += 0.25
    bad_path = files.write("corrupted-product", cli_dumps(data))
    reloaded = R.product_from_json_dict(json.loads(bad_path.read_text()))
    caught["corrupted product matrix"] = bool(
        checks.check_reports(report, R.verify_product(reloaded)))
    code, stdout = run_cli(root, ["verify", str(bad_path)])
    caught["wrong exit code"] = code != 0 and bool(checks.check_cli(code, stdout))
    bad_path.unlink()
    return caught
