"""Seeded benchmark of the ghgeo pipeline, run from outside the library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-cap --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Each workload runs in a fresh process as a closed loop: one caller starts the
next op when the previous one has finished, with no threads and at most one
child process at a time.  The library comes from ``src/`` of the checkout and
receives only the generated inputs.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a block of
ops alternately untraced and with ghgeo's public functions wrapped, and
reports per-layer metrics per op plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a run record with the per-op log
(and the spans, when traced) goes to ``.bench_runs/``.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing  # imports no ghgeo module

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("exact-cap", "heuristic-scale", "realize-verify", "cli-desk")
# setup_s is the median time to import ghgeo plus the median time to build the
# workload's inputs; one of either is short and noisy, so each is repeated
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5  # this process and four fresh interpreters
PROBE_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import ghgeo; print(time.perf_counter() - t)"
# Printed and recorded but left out of the result line: exact-cap spends over
# a third of its time on its slowest 1% of pairs, so its throughput moves with
# the seed by more than any bound a regression check could use.
NOT_IN_RESULT = ("ops_per_s",)


def import_library():
    """Import ghgeo from this checkout's ``src``, or stop with exit code 2."""
    src = ROOT / "src"
    if not (src / "ghgeo" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ghgeo sources under {src}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ghgeo

    if Path(ghgeo.__file__).resolve().parent != (src / "ghgeo").resolve():
        sys.stderr.write(f"bench: imported ghgeo from {ghgeo.__file__}, not from {src}\n")
        sys.exit(2)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def import_probe_s(env: dict) -> float:
    """Time to import ghgeo in a fresh interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          check=True, capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def median_ms(cmd: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


class Loop:
    """Runs ops one after another and keeps times, failures and a per-op log."""

    def __init__(self, w):
        self.w = w
        self.samples: list[float] = []
        self.failed = 0
        self.log: list[list] = []
        self.problems: list[str] = []

    def one(self, k: int, tracer) -> None:
        w = self.w
        t = time.perf_counter()
        with tracer.op(k):
            try:
                out = w.run(k, tracer)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
        dt = (time.perf_counter() - t) * 1e3
        if error is None:
            try:
                problems = w.check(k, out)
            except Exception as exc:  # output too malformed to check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {k} ({w.shape(k)}): {'; '.join(problems)}")
        self.samples.append(dt)
        self.log.append([k, w.instance(k), round(dt, 4)])

    def until(self, seconds: float) -> None:
        """Run the op stream untraced until the ops themselves took
        ``seconds`` and at least ``MIN_OPS`` ops and the whole block ran.  A
        stream short enough to cycle stops only after a whole pass, so every
        instance is weighted the same."""
        w = self.w
        null = tracing.NullTracer()
        least = max(w.MIN_OPS, w.block)  # the digest covers the block
        cycle = len(w.items) if len(w.items) <= least else 1
        k = 0
        busy_ms = 0.0
        while k < least or k % cycle or busy_ms < seconds * 1e3:
            self.one(k, null)
            busy_ms += self.samples[-1]
            k += 1

    def block(self, tracer) -> None:
        """Ops 0 .. block-1 once: whole blocks make per-op counters exact."""
        for k in range(self.w.block):
            self.one(k, tracer)


def per_layer(tracer, loop, ref_p50: float, w, probes: dict) -> dict:
    """Per-op means of self times and counters from the traced block."""
    ops = tracer.ops
    self_ms = tracer.self_ms_by_name()
    c = tracer.counters

    def per_op(v):
        return v / ops

    m = {}
    for name in ("metric_core.validate_metric", "correspondence.gh_distance_exact",
                 "correspondence.gh_distance_heuristic", "geodesic.slice_gh_check"):
        m[name + ".calls"] = (per_op(c.get(name + ".calls", 0)), "count")
    for name in ("metric_core.validate_metric", "metric_core.max_triangle_deficit",
                 "correspondence.gh_distance_exact", "correspondence.gh_distance_heuristic",
                 "correspondence.distortion", "geodesic.slice_gh_check",
                 "geodesic.pullback_matrices", "realization.realize_geodesic",
                 "realization.build_product", "realization.verify_product",
                 "realization.run_condition_checks", "realization.product_dump",
                 "realization.product_load"):
        m[name + ".self_ms"] = (per_op(self_ms.get(name, 0.0)), "ms")
    for name, unit in (("metric_core.max_triangle_deficit.triples", "count"),
                       ("correspondence.gh_distance_exact.slots", "count"),
                       ("correspondence.gh_distance_heuristic.delta_cells", "count"),
                       ("realization.build_product.cells", "count"),
                       ("realization.product_dump.bytes", "B")):
        m[name] = (per_op(c.get(name, 0)), unit)
    m["cli.main.calls"] = (per_op(c.get("cli.main.calls", 0)), "count")
    for cmd in ("dist", "dist-heuristic", "realize", "verify"):
        m[f"cli.main.{cmd}.self_ms"] = (per_op(self_ms.get(f"cli.main.{cmd}", 0.0)), "ms")
    m["cli.interpreter_ms"] = (probes["interpreter_ms"], "ms")
    m["cli.import_ms"] = (probes["import_ms"], "ms")
    m["heuristic_excess"] = (w.extra().get("heuristic_excess", 0.0), "1")
    m["unattributed_ms"] = (per_op(self_ms.get("op", 0.0)), "ms")
    m["trace_overhead_ms"] = (statistics.median(loop.samples) - ref_p50, "ms")
    return m


def run_workload(args) -> int:
    # a terminated run still removes its temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t = time.perf_counter()
    import_library()
    own_import = time.perf_counter() - t
    import workloads

    files = workloads.FreshFiles(ROOT / ".bench_tmp")
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, files, ROOT)
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            w.setup()
            builds.append(time.perf_counter() - t)

        record = {
            "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": __import__("numpy").__version__, "nproc": os.cpu_count(),
            "git_commit": git_commit(), "setup_builds_s": builds,
        }
        if args.trace:
            # Untraced and traced blocks alternate, so a slow spell of the
            # machine does not land on one side of the overhead comparison.
            w.in_process()
            ref, loop = Loop(w), Loop(w)
            tracer = tracing.Tracer()
            deadline = time.perf_counter() + args.seconds
            while True:
                ref.block(tracing.NullTracer())
                tracer.install()
                try:
                    loop.block(tracer)
                finally:
                    tracer.uninstall()
                if time.perf_counter() >= deadline:
                    break
            ref_p50 = statistics.median(ref.samples)
            env = workloads.cli_env(ROOT)
            interp = median_ms([sys.executable, "-c", "pass"], env)
            probes = {"interpreter_ms": interp,
                      "import_ms": median_ms([sys.executable, "-c", "import ghgeo"], env) - interp}
            metrics = per_layer(tracer, loop, ref_p50, w, probes)
            attempted = len(ref.samples) + len(loop.samples)
            failed = ref.failed + loop.failed
            problems = ref.problems + loop.problems
            record.update(reference_ops=len(ref.samples), reference_p50_ms=ref_p50,
                          traced_ops=len(loop.samples),
                          tracing_overhead_ms=metrics["trace_overhead_ms"][0],
                          spans=tracer.dump())
        else:
            # cli-desk ops run in child processes: report the largest child
            who = resource.RUSAGE_CHILDREN if w.name == "cli-desk" else resource.RUSAGE_SELF
            loop = Loop(w)
            loop.until(args.seconds)
            peak_mb = resource.getrusage(who).ru_maxrss / 1024
            env = workloads.cli_env(ROOT)
            imports = [own_import] + [import_probe_s(env) for _ in range(IMPORT_SAMPLES - 1)]
            setup_s = statistics.median(imports) + statistics.median(builds)
            s = loop.samples
            tail = p90(s)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (len(s) / (sum(s) / 1e3), "1/s"),
                "op_p50_ms": (statistics.median(s), "ms"),
                "op_p90_ms": (tail, "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            attempted, failed, problems = len(s), loop.failed, loop.problems
            record.update(import_s=imports, samples=len(s),
                          p90_samples_beyond=sum(1 for v in s if v > tail),
                          fail_ratio=failed / len(s))

        caught = workloads.self_check(files, ROOT)
        digest = w.digest()
        correct = failed == 0 and all(caught.values())
        record.update(attempted=attempted, failed=failed, problems=problems,
                      self_check=caught, digest=digest, bytes_written=files.bytes_written,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      **w.extra())
        slowest = sorted(loop.log, key=lambda r: -r[2])[:5]
        record["slowest_ops"] = [[k, w.shape(k), ms] for k, _, ms in slowest]
        record["instances"] = {i: w.shape(i) for i in sorted({r[1] for r in loop.log})}
        record["ops"] = {"columns": ["op", "instance", "ms"], "rows": loop.log}
    finally:
        files.cleanup()

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    out = runs / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.4f} {unit}")
    print(f"  {'fail_ratio':52s} {failed / attempted:14.4f} 1 ({failed}/{attempted} ops)")
    for key, value in w.extra().items():
        print(f"  {key} {value}")
    if not args.trace:
        print(f"  percentiles over {len(loop.samples)} samples,"
              f" {record['p90_samples_beyond']} beyond p90")
    else:
        print(f"  tracing overhead {record['tracing_overhead_ms']:.4f} ms per op"
              f" (p50 {ref_p50:.4f} ms untraced over {len(ref.samples)} ops)")
    print(f"  slowest ops: {record['slowest_ops'][:3]}")
    print(f"  self-check: " + ", ".join(f"{k} {'caught' if v else 'MISSED'}" for k, v in caught.items()))
    for p in problems:
        print(f"  FAILED {p}")
    print(f"  output digest sha256 {digest}")
    print(f"  run record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in NOT_IN_RESULT},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
