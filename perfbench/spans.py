"""In-memory spans around calls into erot, and the arithmetic on them.

The tracer records a span each time a wrapped function is called: its name
(``<layer>.<function>``, named after the module that defines the function),
start and end times, the span that was open when it started (its parent),
the operation it belongs to, and a few counts taken from the arguments and
the result.  Wrapping replaces module attributes, so a function is traced
under every name the package calls it by: ``erot.resampling.solve`` and
``erot.cli.solve`` record ``sinkhorn.solve`` spans just as
``erot.sinkhorn.solve`` does.  Nothing inside ``src/erot`` is changed.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field

# Modules of the package whose public functions are wrapped, in layer order.
LAYERS = ("measures", "costs", "sinkhorn", "sensitivity", "resampling", "io", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    phase: str  # "setup" or "pass"
    op: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts and is never negative.
    """
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sp.id, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp.id] = max(0.0, (sp.end - sp.start) - covered)
    return out


def percentile_summary(samples) -> dict:
    """Median with its sample count, plus the highest of p90/p99/p99.9 that
    has at least ten samples beyond it."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples")
    out = {"p50": statistics.median(xs), "n": len(xs)}
    for permille in (999, 990, 900):
        if len(xs) * (1000 - permille) >= 10 * 1000:  # in integers: no rounding at the edge
            k = round(permille * (len(xs) - 1) / 1000)
            out[f"p{permille / 10:g}"] = xs[k]
            break
    return out


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries


def _support(measure) -> int:
    return int((measure.weights > 0).sum())


def _probe_solve(a, out, exc, attrs):
    kx, ky = _support(a["r"]), _support(a["s"])
    attrs["cells_per_iter"] = 2 * kx * ky  # two logsumexp sweeps over kx x ky
    attrs["warm"] = a["warm_start"] is not None
    if exc is not None:
        attrs["iterations"] = getattr(exc, "iterations", None) or 0
        attrs["nonconverged"] = type(exc).__name__ == "NonConvergence"
    else:
        attrs["iterations"] = out.iterations
        attrs["nonconverged"] = False


def _probe_exact(a, out, exc, attrs):
    kx, ky = _support(a["r"]), _support(a["s"])
    # dense float64 constraint matrix: (kx + ky - 1) rows, kx * ky columns
    attrs["a_eq_bytes"] = 8 * (kx + ky - 1) * kx * ky


def _probe_tables(a, out, exc, attrs):
    attrs["tables"] = len(a["fns"])


def _probe_mc(a, out, exc, attrs):
    attrs["replications"] = a["cfg"].replications


def _probe_bootstrap(a, out, exc, attrs):
    attrs["replications"] = a["B"]


def _probe_vanishing(a, out, exc, attrs):
    attrs["replications"] = a["replications"] * len(a["sample_sizes"])


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _probe_read(a, out, exc, attrs):
    attrs["bytes_read"] = _size(a["path"])


def _probe_write(a, out, exc, attrs):
    attrs["bytes_written"] = _size(a["path"])


PROBES = {
    "sinkhorn.solve": _probe_solve,
    "sinkhorn.exact_ot_small": _probe_exact,
    "sensitivity.functional_covariance": _probe_tables,
    "resampling.mc_clt_experiment": _probe_mc,
    "resampling.bootstrap_value": _probe_bootstrap,
    "resampling.bootstrap_plan_functional": _probe_bootstrap,
    "resampling.vanishing_lambda_experiment": _probe_vanishing,
    # byte counts only at the leaves that touch files, so nothing is counted twice
    "io.load_json": _probe_read,
    "io.sha256_digest": _probe_read,
    "io.dump_json": _probe_write,
    "io.write_draws_csv": _probe_write,
    "io.write_qq_csv": _probe_write,
}


class Tracer:
    """Collects spans on one thread; erot runs with threads=1 here."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.phase = "setup"
        self.op = None
        self.paused = False  # set while the benchmark checks results

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        sp = Span(len(self.spans), name, self.clock(), parent, self.phase, self.op)
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = self.clock()
        popped = self.stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sp = self.open(name)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                self.close(sp)
                if probe is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    probe(bound.arguments, out, exc, sp.attrs)

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, package) -> "callable":
        """Wrap every public function bound in each layer module of the package
        (imported names too); returns a function that undoes it."""
        saved = []
        root = package.__name__ + "."
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(root) or getattr(obj, "__wrapped_by_tracer__", False):
                    continue
                name = f"{home[len(root):]}.{obj.__name__}"
                saved.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, name))

        def restore():
            for mod, attr, obj in reversed(saved):
                setattr(mod, attr, obj)

        return restore


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one setup and n traced passes


def _ancestors(sp, by_id):
    while sp.parent is not None:
        sp = by_id[sp.parent]
        yield sp


# per-layer metrics that are the accumulated value itself
PASSED_THROUGH = (
    "sinkhorn.solve.calls", "sinkhorn.solve.self_s", "sinkhorn.solve.iterations",
    "sinkhorn.solve.cells", "sinkhorn.solve.nonconverged",
    "sinkhorn.exact_ot_small.calls", "sinkhorn.exact_ot_small.self_s",
    "sinkhorn.exact_ot_small.a_eq_bytes",
    "sensitivity.build_operators.self_s", "sensitivity.functional_covariance.calls",
    "sensitivity.functional_covariance.self_s", "sensitivity.functional_covariance.tables",
    "sensitivity.plan_derivative.self_s", "sensitivity.divergence_variance.self_s",
    "measures.empirical_measure.calls", "measures.empirical_measure.self_s",
    "costs.build_cost.self_s", "cli.main.self_s", "trace.spans",
)


def layer_metrics(spans, n_passes: int, pass_wall_s: float) -> dict:
    """Per-layer figures for one set-up plus one pass.

    Set-up spans count once; pass spans are summed and divided by the number
    of traced passes, which all do identical work, so counts stay exact.
    """
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    acc: dict = {}

    def add(key, value, sp):
        weight = 1.0 if sp.phase == "setup" else 1.0 / n_passes
        acc[key] = acc.get(key, 0.0) + weight * value

    for sp in spans:
        st = selfs[sp.id]
        add("trace.spans", 1, sp)
        if sp.phase == "pass":
            add(f"layer.{sp.layer}", st, sp)
        add(f"{sp.name}.calls", 1, sp)
        add(f"{sp.name}.self_s", st, sp)
        for k, v in sp.attrs.items():
            if k == "cells_per_iter":
                add(f"{sp.name}.cells", v * sp.attrs.get("iterations", 0), sp)
            else:
                add(f"{sp.name}.{k}", float(v), sp)
        if sp.name == "sinkhorn.solve":
            in_resampling = any(a.layer == "resampling" for a in _ancestors(sp, by_id))
            if in_resampling:
                add("resampling.solves", 1, sp)
                add("resampling.solve_iterations", sp.attrs.get("iterations", 0), sp)

    def get(key):
        return acc.get(key, 0.0)

    def total(prefix, suffix):
        return sum(v for k, v in acc.items() if k.startswith(prefix) and k.endswith(suffix))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {k: get(k) for k in PASSED_THROUGH}
    reps = total("resampling.", ".replications")
    solve_s, iters = get("sinkhorn.solve.self_s"), get("sinkhorn.solve.iterations")
    m.update({
        "sinkhorn.solve.us_per_iter": ratio(solve_s, iters) * 1e6,
        "sinkhorn.solve.cells_per_s": ratio(get("sinkhorn.solve.cells"), solve_s),
        "sinkhorn.solve.warm_share": ratio(get("sinkhorn.solve.warm"),
                                           get("sinkhorn.solve.calls")),
        "resampling.replications": reps,
        "resampling.self_s": total("resampling.", ".self_s"),
        "resampling.solves_per_replication": ratio(get("resampling.solves"), reps),
        "resampling.iterations_per_replication": ratio(get("resampling.solve_iterations"), reps),
        "io.load_s": total("io.load", ".self_s") + total("io.sha256", ".self_s"),
        "io.dump_s": total("io.dump", ".self_s") + total("io.write", ".self_s"),
        "io.bytes_read": total("io.", ".bytes_read"),
        "io.bytes_written": total("io.", ".bytes_written"),
        "cli.calls": get("cli.main.calls"),
    })
    covered = 0.0
    for layer in LAYERS:
        share = ratio(get(f"layer.{layer}"), pass_wall_s)
        m[f"{layer}.share"] = share
        covered += share
    m["bench.share"] = max(0.0, 1.0 - covered)
    return m
