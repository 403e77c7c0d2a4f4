"""Layered benchmark for erot.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports erot from ``./src`` and
nothing else, and exits with code 2 when that is missing.  Workloads:
resample_ref, solve_grid, plan_inference, cli_roundtrip (see README.md).

With ``--trace 0`` it times the workload with no instrumentation and prints
the end-to-end metrics; with ``--trace 1`` it times the workload untraced for
half the run, then wraps every public erot function (see spans.py), runs
whole traced passes for the other half and prints the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A full record (environment, every check, non-converged cases,
spans) goes to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics, percentile_summary

SETUP_REPS = 5  # set-ups per run; setup_s is their median
WARMUP_S = 1.0  # untimed ops before measuring; the first solves of a process run slow
IMPORT_REPS = 3  # child processes timing `import erot.cli`; cli.import_s is their median
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench_runs"

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# exact counts derived from sizes rather than read off the program
COMPUTED = {"sinkhorn.solve.cells", "sinkhorn.solve.cells_per_s",
            "sinkhorn.exact_ot_small.a_eq_bytes"}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Attempted, failed and non-converged operations, and every check."""

    def __init__(self, nonconvergence_checks):
        self.nonconvergence_checks = nonconvergence_checks
        self.attempted = 0
        self.failed = 0
        self.nonconverged: list = []
        self.failures: list = []
        self.checks: dict = {}  # check name -> [passed, failed, first failure, first detail]
        self._seen: set = set()

    def record(self, op, out) -> None:
        self.attempted += 1
        if out.status == "failed":
            self.failed += 1
            self.failures.append({"op": op.name, "error": out.error})
            return
        if out.status == "nonconverged":
            self.nonconverged.append({"op": op.name, **out.diagnostics})
            results = self.nonconvergence_checks(op, out.diagnostics)
        else:
            first = op.name not in self._seen
            self._seen.add(op.name)
            try:
                results = op.check(out.result, first) if op.check else []
            except Exception as exc:  # a check that crashes is a failed check
                results = [("check", False, f"{type(exc).__name__}: {exc}")]
        bad = [f"{name}: {detail}" for name, ok, detail in results if not ok]
        for name, ok, detail in results:
            entry = self.checks.setdefault(name, [0, 0, "", f"{op.name}: {detail}"])
            entry[0 if ok else 1] += 1
            if not ok and not entry[2]:
                entry[2] = f"{op.name}: {detail}"
        if bad:
            self.failed += 1
            self.failures.append({"op": op.name, "error": "; ".join(bad)})

    @property
    def failed_share(self) -> float:
        return (self.failed + len(self.nonconverged)) / max(1, self.attempted)


def warm_up(ops, ledger, execute) -> None:
    """Run ops, counted and checked but not timed, for WARMUP_S (at least one)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < WARMUP_S:
        op = ops[i % len(ops)]
        ledger.record(op, execute(op))
        i += 1


def measure(ops, seconds, ledger, execute):
    """Cycle through the ops until each ran once and the next one, taking as
    long as its last run, would end after `seconds`.

    Returns op name -> list of seconds.
    """
    times = {op.name: [] for op in ops}
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops) and (time.perf_counter() - start + times[op.name][-1]) > seconds:
            break
        out = execute(op)
        times[op.name].append(out.seconds)
        ledger.record(op, out)
        i += 1
    return times


def traced_passes(ops, seconds, ledger, execute, tracer):
    """Whole passes over the ops, traced, until the next pass, taking as long
    as the last one, would end after `seconds` (at least one pass).

    Checks run with the tracer paused; a pass's wall time is the sum of its
    operations' times.  Returns the pass wall times.
    """
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        wall = 0.0
        for op in ops:
            tracer.op = f"{op.name}#{len(walls)}"
            tracer.paused = False
            out = execute(op)
            tracer.paused = True
            wall += out.seconds
            ledger.record(op, out)
        walls.append(wall)
    return walls


def summarize(ops, times) -> dict:
    """wall_s: one pass, as the sum of each op's median; op_p50_s: median
    over ops of each op's median per unit; ops_per_s: units per pass / wall_s."""
    med = {op.name: statistics.median(times[op.name]) for op in ops}
    wall = sum(med.values())
    return {
        "wall_s": wall,
        "op_p50_s": statistics.median(med[op.name] / op.units for op in ops),
        "ops_per_s": sum(op.units for op in ops) / wall,
        "samples": sum(len(v) for v in times.values()),
        "per_op": {op.name: {**percentile_summary(times[op.name]), "units": op.units}
                   for op in ops},
    }


def child_seconds(code: str, src: Path) -> float:
    """Wall time of a fresh interpreter running `code` against the checkout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def environment(root: Path, src: Path, args) -> dict:
    import numpy
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "erot_threads": 1,
    }
    if hasattr(os, "sched_getaffinity"):
        env["cpus_usable"] = len(os.sched_getaffinity(0))
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        env["cpu_model"] = platform.processor() or platform.machine()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info is not a stable API
        env["blas"] = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        env["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = None
    digest = hashlib.sha256()
    for f in sorted((src / "erot").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def untraced_run(wl, ctx, seconds, ledger, execute):
    """Set up SETUP_REPS times, warm up, then time the ops for `seconds`."""
    setup_times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        t0 = time.perf_counter()
        child_seconds("import erot", ctx.src)
        state = wl.setup(ctx)
        setup_times.append(time.perf_counter() - t0)
    ops = wl.ops(state, in_process=False)
    warm_up(ops, ledger, execute)
    summary = summarize(ops, measure(ops, seconds, ledger, execute))
    record = {"end_to_end": {"setup_s": statistics.median(setup_times),
                             "wall_s": summary["wall_s"],
                             "peak_rss_mb": peak_rss_mb(wl.subprocess_ops)},
              "setup_samples_s": setup_times}
    return record, summary


def traced_run(wl, ctx, seconds, ledger, execute, spans_path):
    """Untraced for half the time, then whole traced passes for the other half.

    Both halves run in process (cli_roundtrip calls erot.cli.main), so their
    difference is the tracing alone.
    """
    import erot

    shutil.rmtree(ctx.workdir, ignore_errors=True)
    tracer = Tracer()
    restore = tracer.install(erot)
    try:
        state = wl.setup(ctx)
    finally:
        restore()
    ops = wl.ops(state, in_process=True)
    warm_up(ops, ledger, execute)
    summary = summarize(ops, measure(ops, seconds / 2, ledger, execute))
    tracer.phase = "pass"
    tracer.paused = True
    restore = tracer.install(erot)
    try:
        walls = traced_passes(ops, seconds / 2, ledger, execute, tracer)
    finally:
        restore()
    layer = layer_metrics(tracer.spans, len(walls), statistics.fmean(walls))
    layer["trace.overhead_share"] = statistics.median(walls) / summary["wall_s"] - 1.0
    layer["cli.import_s"] = (
        statistics.median(child_seconds("import erot.cli", ctx.src) for _ in range(IMPORT_REPS))
        if wl.subprocess_ops else 0.0)
    with spans_path.open("w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(sp)) + "\n")
    return {"per_layer": layer, "traced_pass_walls_s": walls}, summary


def run(args, root: Path, src: Path) -> dict:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Ctx(args.seed, root / OUT_DIR / f"work-{os.getpid()}", src)
    ledger = Ledger(workloads.nonconvergence_checks)
    try:
        if args.trace == 0:
            record, summary = untraced_run(wl, ctx, args.seconds, ledger, workloads.execute)
        else:
            spans_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            record, summary = traced_run(wl, ctx, args.seconds, ledger, workloads.execute,
                                         spans_path)
            record["spans_file"] = str(spans_path.relative_to(root))
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    record.update(
        untraced_wall_s=summary["wall_s"],
        op_p50_s=summary["op_p50_s"],
        ops_per_s=summary["ops_per_s"],
        samples=summary["samples"],
        per_op=summary["per_op"],
        unit=wl.unit,
        op_metric=wl.op_metric,
        attempted=ledger.attempted,
        failed=ledger.failed,
        nonconverged=ledger.nonconverged,
        failed_share=ledger.failed_share,
        failures=ledger.failures,
        checks={k: {"passed": v[0], "failed": v[1], "first_failure": v[2], "first_detail": v[3]}
                for k, v in ledger.checks.items()},
    )
    return record


def report(args, env, rec) -> dict:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    spec = json.loads(SPEC.read_text())
    values = rec["end_to_end"] if args.trace == 0 else rec["per_layer"]
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = sorted({m["name"] for m in wanted} - set(values))
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not produced: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for k, m in metrics.items():
        tag = " (computed)" if k in COMPUTED else ""
        print(f"metric {k} = {m['value']:.6g} {m['unit']}{tag}")
    if args.trace == 0:
        if rec["op_metric"] == "replications_per_s":
            named = f"{rec['ops_per_s']:.6g} 1/s"
        else:
            named = f"{rec['op_p50_s']:.6g} s"
        print(f"metric {rec['op_metric']} = {named} (per {rec['unit']}, "
              f"{rec['samples']} samples)")
    print(f"metric failed_share = {rec['failed_share']:.6g} ratio "
          f"(failed {rec['failed']} + nonconverged {len(rec['nonconverged'])} "
          f"of {rec['attempted']} attempted)")
    for name, p in rec["per_op"].items():
        print(f"op {name} p50={p['p50']:.6g} s n={p['n']} units={p['units']}")
    by_op: dict = {}
    for nc in rec["nonconverged"]:
        by_op.setdefault(nc["op"], []).append(nc)
    for name, ncs in by_op.items():
        nc = ncs[0]
        secs = statistics.median(x["seconds"] for x in ncs)
        print(f"nonconverged {name} iterations={nc['iterations']} "
              f"residual={nc['residual']:.3e} seconds={secs:.4g} (median of {len(ncs)})")
    for name, c in sorted(rec["checks"].items()):
        verdict = "PASS" if c["failed"] == 0 else "FAIL"
        print(f"check {verdict} {name} passed={c['passed']} failed={c['failed']}"
              + (f" first_failure={c['first_failure']}" if c["failed"] else ""))
    for f in rec["failures"][:20]:
        print(f"failure {f['op']}: {f['error']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "erot" / "__init__.py").is_file():
        print(f"perfbench: no erot sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # one BLAS thread per library (numpy and scipy each load OpenBLAS), so the
    # process never runs more OS threads than there are cores
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import erot

    if Path(erot.__file__).resolve().parent != (src / "erot").resolve():
        print(f"perfbench: erot imported from {erot.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    env = environment(root, src, args)
    rec = run(args, root, src)
    env["os_threads"] = os_threads()
    metrics = report(args, env, rec)
    path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, **rec}, indent=1, default=str) + "\n")
    print(f"record {path.relative_to(root)}")
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
