"""The four workloads, their operations and the checks on their outputs.

Every call into erot goes through a module attribute (``sinkhorn.solve``,
``cli.main``, ...) at call time, so the tracer in ``spans.py`` sees it.
All inputs come from the workload seed; erot itself only sees the generated
instances and the experiment seeds derived from it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from erot import cli, costs, measures, resampling, sensitivity, sinkhorn
from erot.errors import NonConvergence

# Replication counts of the acceptance tests, divided by this one factor.
SCALE = 40
CLI_CALL_TIMEOUT_S = 120


@dataclass(frozen=True)
class Ctx:
    seed: int
    workdir: Path  # scratch space inside the checkout
    src: Path  # the checkout's src directory, for child processes


@dataclass
class Op:
    name: str
    run: object  # () -> result; raises on failure
    check: object = None  # (result, first) -> [(check name, ok, detail)]
    units: int = 1  # replications for resampling experiments
    max_iter: int | None = None  # set for capped solves: NonConvergence is an outcome


@dataclass
class Outcome:
    status: str  # "ok" | "nonconverged" | "failed"
    seconds: float
    result: object = None
    error: str = ""
    diagnostics: dict = field(default_factory=dict)


def execute(op: Op) -> Outcome:
    """Run one operation and time it; errors become outcomes, not exits."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except NonConvergence as exc:
        dt = time.perf_counter() - t0
        diag = {"iterations": exc.iterations, "residual": exc.residual, "seconds": dt}
        if op.max_iter is not None:
            return Outcome("nonconverged", dt, None, str(exc), diag)
        return Outcome("failed", dt, None, f"NonConvergence: {exc}", diag)
    except Exception as exc:  # the benchmark keeps running and counts it
        return Outcome("failed", time.perf_counter() - t0, None,
                       f"{type(exc).__name__}: {exc}")
    return Outcome("ok", time.perf_counter() - t0, result)


def _seeds(seed: int, k: int) -> list:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(k)]


# ---------------------------------------------------------------------------
# shared checks


def solver_checks(sol, r, s, tag: str = "solve") -> list:
    """Marginal l1 residual and primal-dual gap recomputed from the plan."""
    res = float(np.abs(sol.plan.sum(axis=1) - r.weights).sum()
                + np.abs(sol.plan.sum(axis=0) - s.weights).sum())
    out = [(f"{tag}.residual<=1e-10", res <= 1e-10, f"{res:.3e}")]
    try:
        mi = sinkhorn.mutual_information(sol.plan, r, s)
    except Exception as exc:
        return out + [(f"{tag}.gap", False, f"{type(exc).__name__}: {exc}")]
    primal = sol.cost_part + sol.lam * mi
    dual = float(sol.alpha @ r.weights + sol.beta @ s.weights)
    gap = abs(primal - dual)
    return out + [(f"{tag}.gap<=1e-8(1+|v|)", gap <= 1e-8 * (1 + abs(sol.value)),
                   f"{gap:.3e}")]


def _finite(name, arr, size=None) -> list:
    arr = np.asarray(arr, dtype=float)
    out = [(f"{name}.finite", bool(np.all(np.isfinite(arr))), f"{arr.size} values")]
    if size is not None:
        out.append((f"{name}.count=={size}", arr.size == size, str(arr.size)))
    return out


# ---------------------------------------------------------------------------
# resample_ref: the simulation-study traffic on the reference instance

VANISHING_R = [0.28, 0.22, 0.17, 0.13, 0.11, 0.09]
VANISHING_S = [0.08, 0.12, 0.14, 0.18, 0.21, 0.27]
VANISHING_SIZES = (500, 2000, 8000)
REPLAYED = 2  # replications per experiment replayed with a cold solve


def setup_resample_ref(ctx: Ctx) -> dict:
    sp = measures.integer_grid(21)
    r = measures.geometric_measure(sp, 0.7)
    m, _ = costs.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
    sp6 = measures.integer_grid(6)
    r6 = measures.validate_measure(VANISHING_R, sp6)
    s6 = measures.validate_measure(VANISHING_S, sp6)
    m6, _ = costs.build_cost({"family": "bounded", "p": 1}, sp6, sp6, 1.0)
    s_value, s_cost, s_sample, s_boot, s_van = _seeds(ctx.seed, 5)
    sample = np.random.default_rng(s_sample).choice(sp.size, size=2000, p=r.weights)
    return dict(sp=sp, r=r, m=m, r6=r6, s6=s6, m6=m6, sample=sample,
                seeds=dict(value=s_value, cost=s_cost, boot=s_boot, van=s_van))


def _replay_checks(tag, draws, rate, base_value, draw_sample, solve_stat, seed, reps):
    """Replay replications from their spawned SeedSequence with a cold solve."""
    out = []
    children = np.random.SeedSequence(seed).spawn(reps)
    for i in sorted({0, reps - 1})[:REPLAYED]:
        rng = np.random.default_rng(children[i])
        replay = solve_stat(draw_sample(rng)) - base_value
        diff = abs(draws[i] / rate - replay)
        out.append((f"{tag}.replay[{i}]<=1e-8", diff <= 1e-8, f"{diff:.3e}"))
    return out


def ops_resample_ref(st: dict, in_process: bool = True) -> list:
    r, m, sp, sample = st["r"], st["m"], st["sp"], st["sample"]
    seeds = st["seeds"]
    reps = 2000 // SCALE
    van_reps = 120 // SCALE

    def mc(statistic, n, seed):
        cfg = resampling.ExperimentConfig(statistic=statistic, n=n, replications=reps,
                                          lam=1.0, seed=seed, threads=1)
        return resampling.mc_clt_experiment(r, r, m, cfg)

    def mc_check(stat_of, n, seed):
        def check(rep, first):
            out = _finite("draws", rep.standardized_draws, reps)
            out += [("target_sigma2>0", rep.target_sigma2 > 0, f"{rep.target_sigma2:.4g}")]
            if first:
                pop = stat_of(sinkhorn.solve(r, r, m, 1.0))
                out += _replay_checks(
                    "draws", rep.standardized_draws, np.sqrt(n), pop,
                    lambda rng: measures.empirical_measure(
                        rng.choice(sp.size, size=n, p=r.weights), sp),
                    lambda r_hat: stat_of(sinkhorn.solve(r_hat, r, m, 1.0)),
                    seed, reps)
            return out
        return check

    def boot():
        return resampling.bootstrap_value(sample, r, m, 1.0, B=reps, seed=seeds["boot"],
                                          threads=1)

    def boot_check(draws, first):
        out = _finite("draws", draws, reps)
        if first:
            n = sample.size
            base = sinkhorn.solve(measures.empirical_measure(sample, sp), r, m, 1.0).value
            out += _replay_checks(
                "draws", draws, np.sqrt(n), base,
                lambda rng: measures.empirical_measure(sample[rng.integers(0, n, size=n)], sp),
                lambda r_star: sinkhorn.solve(r_star, r, m, 1.0).value,
                seeds["boot"], reps)
        return out

    def vanishing():
        return resampling.vanishing_lambda_experiment(
            st["r6"], st["s6"], st["m6"], sample_sizes=VANISHING_SIZES,
            replications=van_reps, seed=seeds["van"], threads=1)

    def van_check(rep, first):
        return (_finite("draws", rep.standardized_draws, van_reps)
                + _finite("variance_trace", rep.variance_trace, len(VANISHING_SIZES))
                + [("var_alpha0>0", rep.var_alpha0 > 0, f"{rep.var_alpha0:.4g}")])

    value = lambda sol: sol.value  # noqa: E731
    cost = lambda sol: sol.cost_part  # noqa: E731
    return [
        Op("value_clt", lambda: mc(resampling.VALUE_CLT, 2000, seeds["value"]),
           mc_check(value, 2000, seeds["value"]), units=reps),
        Op("cost_clt", lambda: mc(resampling.SINKHORN_COST_CLT, 5000, seeds["cost"]),
           mc_check(cost, 5000, seeds["cost"]), units=reps),
        Op("bootstrap", boot, boot_check, units=reps),
        Op("vanishing_lambda", vanishing, van_check,
           units=van_reps * len(VANISHING_SIZES)),
    ]


# ---------------------------------------------------------------------------
# solve_grid: cold full-support solves, nothing but the solver

GRID_TOL = 1e-10
GRID_MAX_ITER = 1000


def setup_solve_grid(ctx: Ctx) -> dict:
    cases = []
    for n in (50, 200):
        sp = measures.integer_grid(n)
        tails = {
            "geometric": measures.geometric_measure(sp, 0.7),
            "polynomial": measures.polynomial_measure(sp, 2.0),
            "subweibull": measures.subweibull_measure(sp, 0.5, 0.8),
        }
        for lam in (1.0, 0.1):
            m, _ = costs.build_cost({"family": "bounded", "p": 1}, sp, sp, lam)
            for tail, r in tails.items():
                cases.append((f"n{n}_lam{lam:g}_{tail}", r, m, lam))
    order = np.random.default_rng(_seeds(ctx.seed, 1)[0]).permutation(len(cases))
    return {"cases": [cases[i] for i in order]}


def ops_solve_grid(st: dict, in_process: bool = True) -> list:
    cfg = sinkhorn.SolveConfig(tol=GRID_TOL, max_iter=GRID_MAX_ITER)

    def op(name, r, m, lam):
        def check(sol, first):
            return solver_checks(sol, r, r)
        return Op(name, lambda: sinkhorn.solve(r, r, m, lam, cfg), check,
                  max_iter=GRID_MAX_ITER)

    return [op(*case) for case in st["cases"]]


def nonconvergence_checks(op: Op, diag: dict) -> list:
    """A capped solve that stops must say where it stopped."""
    it, res = diag.get("iterations"), diag.get("residual")
    ok_res = res is not None and bool(np.isfinite(res)) and res > 0
    return [("nonconverged.iterations==max_iter", it == op.max_iter, str(it)),
            ("nonconverged.residual.finite>0", ok_res, f"{res}")]


# ---------------------------------------------------------------------------
# plan_inference: the sensitivity layer on large instances

PI_N = 1000
PI_INSTANCES = 3
PI_TABLES = 4
PI_DIRECTIONS = 2


def setup_plan_inference(ctx: Ctx) -> dict:
    insts = []
    for s_k in _seeds(ctx.seed, PI_INSTANCES):
        rng = np.random.default_rng(s_k)
        sp = measures.integer_grid(PI_N)
        a = rng.uniform(0.0, 2.0, (PI_N, PI_N))
        r = measures.validate_measure(rng.dirichlet(2.0 * np.ones(PI_N)), sp)
        s = measures.validate_measure(rng.dirichlet(2.0 * np.ones(PI_N)), sp)
        m, _ = costs.build_cost({"family": "bounded", "cost": 0.5 * (a + a.T)}, sp, sp, 1.0)
        tables = [rng.uniform(-1.0, 1.0, (PI_N, PI_N)) for _ in range(PI_TABLES)]
        dirs = []
        for _ in range(PI_DIRECTIONS):
            pair = []
            for _ in range(2):
                h = rng.standard_normal(PI_N)
                h -= h.mean()
                pair.append(measures.SignedVector(sp, h / np.abs(h).sum()))
            dirs.append(tuple(pair))
        insts.append(dict(r=r, s=s, m=m, tables=tables, dirs=dirs))
    return {"instances": insts}


def ops_plan_inference(st: dict, in_process: bool = True) -> list:
    def query(inst):
        r, s, m = inst["r"], inst["s"], inst["m"]
        sol = sinkhorn.solve(r, s, m, 1.0)
        out = {"sol": sol, "value_var": sensitivity.value_variance(sol, r, s)}
        ops = sensitivity.build_operators(sol, r, s, m)
        out["ops"] = ops
        out["cov_one"] = sensitivity.functional_covariance(ops, r, s, inst["tables"])
        out["cov_two"] = sensitivity.functional_covariance(
            ops, r, s, inst["tables"], sensitivity.TWO_SAMPLE, 0.5)
        out["cost_var"] = sensitivity.sinkhorn_cost_variance(ops, r, s, m)
        out["div_var"] = sensitivity.divergence_variance(
            r, s, m, 1.0, sensitivity.TWO_SAMPLE, 0.5)
        out["dpis"] = [sensitivity.plan_derivative(ops, hX, hY) for hX, hY in inst["dirs"]]
        return out

    def checker(inst):
        r, s, m = inst["r"], inst["s"], inst["m"]

        def check(q, first):
            out = solver_checks(q["sol"], r, s)
            for k, ((hX, hY), dpi) in enumerate(zip(inst["dirs"], q["dpis"])):
                er = float(np.max(np.abs(dpi.sum(axis=1) - hX.entries)))
                ec = float(np.max(np.abs(dpi.sum(axis=0) - hY.entries)))
                out.append((f"dpi[{k}].rows==hX<=1e-9", er <= 1e-9, f"{er:.3e}"))
                out.append((f"dpi[{k}].cols==hY<=1e-9", ec <= 1e-9, f"{ec:.3e}"))
            for key in ("cov_one", "cov_two"):
                cov = q[key]
                asym = float(np.max(np.abs(cov - cov.T)))
                out.append((f"{key}.symmetric", asym <= 1e-12 * max(1.0, np.abs(cov).max()),
                            f"{asym:.3e}"))
                out += _finite(key, cov)
            out += _finite("variances", [q["value_var"], q["cost_var"], q["div_var"]])
            if first:
                generic = float(sensitivity.functional_covariance(
                    q["ops"], r, s, [m.cost])[0, 0])
                d = abs(q["cost_var"] - generic)
                out.append(("cost_var==functional_covariance([c])<=1e-9", d <= 1e-9,
                            f"{d:.3e}"))
            return out
        return check

    return [Op(f"query{k}", (lambda inst=inst: query(inst)), checker(inst))
            for k, inst in enumerate(st["instances"])]


# ---------------------------------------------------------------------------
# cli_roundtrip: the command-line tool as a process, on files written in setup

CLI_N = 200
CLI_TABLES = 4
CLI_B = 10
CLI_R = 10
CLI_SAMPLE = 500

CLI_KEYS = {
    "solve": {"value", "sinkhorn_cost", "mutual_info", "alpha", "beta", "plan",
              "iterations", "marginal_residual"},
    "divergence": {"divergence"},
    "bounds": {"alpha_lower", "alpha_upper", "beta_lower", "beta_upper",
               "plan_lower", "plan_upper", "max"},
    "check-conditions": {"verdict", "theorem", "sums"},
    "variance": {"sigma2_value", "sigma_tilde2_cost", "sigma2_divergence"},
    "plan-cov": {"covariance", "n_functions", "contraction_norm"},
    "derivative-check": {"plan_fd_errors", "value_fd_errors", "plan_slope", "value_slope"},
    "bootstrap": {"sample_mean", "sample_var", "draws_csv"},
    "mc-clt": {"target_sigma2", "ks_distance", "sample_mean", "sample_var",
               "replications", "conditions"},
    "ot-exact": {"value", "alpha0", "beta0", "plan", "unique_potentials", "gap_report"},
}


def _dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj))


def setup_cli_roundtrip(ctx: Ctx) -> dict:
    s_inst, s_boot, s_mc, s_deriv = _seeds(ctx.seed, 4)
    rng = np.random.default_rng(s_inst)
    inputs = ctx.workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    labels = list(range(CLI_N))
    a = rng.uniform(0.0, 2.0, (CLI_N, CLI_N))
    for name in ("r", "s"):
        _dump({"labels": labels, "weights": rng.dirichlet(2.0 * np.ones(CLI_N)).tolist()},
              inputs / f"{name}.json")
    _dump({"family": "bounded", "cost": (0.5 * (a + a.T)).tolist()}, inputs / "cost.json")
    _dump([rng.uniform(-1.0, 1.0, (CLI_N, CLI_N)).tolist() for _ in range(CLI_TABLES)],
          inputs / "functions.json")
    _dump({"statistic": "ValueCLT", "n": CLI_SAMPLE, "replications": CLI_R, "seed": s_mc},
          inputs / "mc_config.json")
    return {"inputs": inputs, "out": ctx.workdir / "out", "seeds": (s_boot, s_deriv),
            "src": ctx.src}


def cli_calls(st: dict) -> list:
    """(subcommand, argv) for one pass; every output lands in st['out']."""
    i, o = st["inputs"], st["out"]
    s_boot, s_deriv = st["seeds"]
    inst = ["--r", str(i / "r.json"), "--s", str(i / "s.json"), "--cost", str(i / "cost.json")]
    lam = ["--lambda", "1"]
    extra = {
        "solve": lam,
        "divergence": lam,
        "bounds": lam,
        "check-conditions": lam + ["--theorem", "value"],
        "variance": lam,
        "plan-cov": lam + ["--functions", str(i / "functions.json")],
        "derivative-check": lam + ["--seed", str(s_deriv)],
        "bootstrap": lam + ["--n", str(CLI_SAMPLE), "--B", str(CLI_B), "--seed", str(s_boot)],
        "mc-clt": lam + ["--config", str(i / "mc_config.json")],
        "ot-exact": ["--lambdas", "1,0.5,0.1"],
    }
    return [(sub, [sub, *inst, *args, "--out", str(o / f"{sub}.json")])
            for sub, args in extra.items()]


class CliFailed(Exception):
    """An erot call that exited with a code other than 0."""


def run_cli_process(argv: list, src: Path) -> int:
    proc = subprocess.run([sys.executable, "-m", "erot.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CLI_CALL_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise CliFailed(f"exit {proc.returncode} {' '.join(tail)}".strip())
    return 0


def run_cli_in_process(argv: list) -> int:
    code = cli.main(argv)
    if code != 0:
        raise CliFailed(f"exit {code}")
    return 0


def cli_output_checks(sub: str, out_path: Path) -> list:
    try:
        payload = json.loads(out_path.read_text())
        manifest = json.loads(out_path.with_suffix(".manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [(f"{sub}.outputs", False, f"{type(exc).__name__}: {exc}")]
    missing = sorted(CLI_KEYS[sub] - set(payload))
    return [(f"{sub}.payload_keys", not missing, f"missing {missing}" if missing else "ok"),
            (f"{sub}.manifest", manifest.get("subcommand") == sub
             and str(out_path) in manifest.get("artifacts", []), "next to output")]


def ops_cli_roundtrip(st: dict, in_process: bool = False) -> list:
    src = st["src"]
    st["out"].mkdir(parents=True, exist_ok=True)

    def op(sub, argv):
        if in_process:
            run = lambda: run_cli_in_process(argv)  # noqa: E731
        else:
            run = lambda: run_cli_process(argv, src)  # noqa: E731
        out_path = Path(argv[argv.index("--out") + 1])
        return Op(sub, run, lambda _code, first: cli_output_checks(sub, out_path))

    return [op(sub, argv) for sub, argv in cli_calls(st)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object  # (Ctx) -> state
    ops: object  # (state, in_process) -> [Op]
    unit: str  # what one operation unit is: replication, case, query or call
    op_metric: str  # name printed for op_p50_s (ops_per_s for replications)
    subprocess_ops: bool = False  # ops are erot subprocesses: peak RSS is theirs


WORKLOADS = {
    "resample_ref": Workload(setup_resample_ref, ops_resample_ref,
                             "replication", "replications_per_s"),
    "solve_grid": Workload(setup_solve_grid, ops_solve_grid,
                           "case", "solve_p50_s"),
    "plan_inference": Workload(setup_plan_inference, ops_plan_inference,
                               "query", "query_p50_s"),
    "cli_roundtrip": Workload(setup_cli_roundtrip, ops_cli_roundtrip,
                              "call", "cli_call_p50_s", subprocess_ops=True),
}
