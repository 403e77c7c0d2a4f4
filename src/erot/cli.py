"""Command-line interface.

One executable with file-based I/O::

    erot solve --r r.json --s s.json --cost cost.json --lambda 1.0 --out sol.json

Exit codes: 0 success, 2 validation/configuration error (machine-readable
JSON on stderr), 3 solver non-convergence.  Every flag can also be provided
through an environment variable EROT_<FLAG> (the flag wins).  Each run writes
a manifest next to its outputs recording the resolved configuration, input
digests and artifact paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .costs import check_plan_conditions, check_value_conditions
from .errors import ConfigParse, ErotError, NonConvergence
from .measures import Design, SignedVector
from .resampling import (
    ExperimentConfig,
    bootstrap_plan_functional,
    bootstrap_value,
    mc_clt_experiment,
    vanishing_lambda_experiment,
)
from .sensitivity import (
    ONE_SAMPLE_R,
    build_operators,
    divergence_variance,
    functional_covariance,
    plan_derivative,
    sinkhorn_cost_variance,
    value_derivative,
    value_variance,
)
from .sinkhorn import (
    Normalization,
    SolveConfig,
    exact_ot_small,
    sinkhorn_divergence,
    solve,
    vanishing_reg_gap,
    verify_bounds,
)

PLAN_FLOOR = 1e-16

STOCHASTIC = {"bootstrap", "mc-clt", "vanishing-lambda", "derivative-check"}


def _resolve(args, name: str, cast=str, required: bool = False, default=None):
    """Flag value with EROT_<NAME> environment fallback (flag wins)."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        env = os.environ.get("EROT_" + name.replace("-", "_").upper())
        if env is not None:
            try:
                value = cast(env)
            except ValueError as exc:
                raise ConfigParse(f"bad value for EROT_{name.upper()}: {env}") from exc
    if value is None:
        value = default
    if required and value is None:
        raise ConfigParse(f"missing required option --{name}")
    return value


def _load_instance(args, lam: float | None = None):
    """(lam, r, s, model, profile); lam comes from --lambda unless given."""
    if lam is None:
        lam = _resolve(args, "lambda", float, required=True)
    r = io.load_measure(_resolve(args, "r", required=True))
    s = io.load_measure(_resolve(args, "s", required=True))
    model, profile = io.load_cost(
        _resolve(args, "cost", required=True), r.space, s.space, lam
    )
    return lam, r, s, model, profile


def _solved(args):
    """The instance solved at --lambda: (lam, r, s, model, cfg, sol)."""
    lam, r, s, model, _ = _load_instance(args)
    cfg = _solve_cfg(args)
    return lam, r, s, model, cfg, solve(r, s, model, lam, cfg)


def _design(args):
    """--mode (default one_sample_r) and --delta with the Design they name;
    an unknown mode is a ConfigParse error."""
    mode = _resolve(args, "mode", default=ONE_SAMPLE_R)
    delta = _resolve(args, "delta", float)
    return mode, delta, Design.of(mode, delta)


def _solve_cfg(args) -> SolveConfig:
    norm = _resolve(args, "normalization", default="balanced")
    try:
        normalization = Normalization(norm)
    except ValueError as exc:
        raise ConfigParse(f"unknown normalization {norm!r}") from exc
    return SolveConfig(
        tol=_resolve(args, "tol", float, default=1e-10),
        max_iter=_resolve(args, "max_iter", int, default=100_000),
        normalization=normalization,
    )


def _plan_triplets(plan: np.ndarray):
    xs, ys = np.nonzero(np.abs(plan) > PLAN_FLOOR)
    return [[int(x), int(y), float(plan[x, y])] for x, y in zip(xs, ys)]


def _inputs(args, names=("r", "s", "cost")):
    return [getattr(args, n) for n in names if getattr(args, n, None)]


def _finish(args, subcommand: str, out_path, payload, extra_artifacts=(),
            seed=None, runtime=None):
    io.dump_json(payload, out_path)
    manifest_path = Path(out_path).with_suffix(".manifest.json")
    config = {
        k: v for k, v in vars(args).items() if k != "func" and v is not None
    }
    io.write_manifest(
        manifest_path,
        subcommand,
        config,
        _inputs(args),
        [str(out_path), *map(str, extra_artifacts)],
        seed=seed,
        seed_used=subcommand in STOCHASTIC,
        runtime=runtime,
    )
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_solve(args):
    lam, r, s, model, _, sol = _solved(args)
    out = _resolve(args, "out", default="solution.json")
    payload = {
        "lambda": lam,
        "value": sol.value,
        "sinkhorn_cost": sol.cost_part,
        "mutual_info": sol.mutual_info,
        "alpha": sol.alpha,
        "beta": sol.beta,
        "plan": _plan_triplets(sol.plan),
        "iterations": sol.iterations,
        "marginal_residual": sol.marginal_residual,
        "normalization": sol.normalization.value,
    }
    return _finish(args, "solve", out, payload)


def _cmd_divergence(args):
    lam, r, s, model, _ = _load_instance(args)
    d = sinkhorn_divergence(r, s, model, lam, _solve_cfg(args))
    out = _resolve(args, "out", default="divergence.json")
    return _finish(args, "divergence", out, {"lambda": lam, "divergence": d})


def _cmd_bounds(args):
    lam, r, s, model, _, sol = _solved(args)
    report = verify_bounds(sol, model, r, s)
    out = _resolve(args, "out", default="bounds.json")
    return _finish(args, "bounds", out, {"lambda": lam, **report.to_dict()})


def _cmd_check_conditions(args):
    lam = _resolve(args, "lambda", float, required=True)
    theorem = _resolve(args, "theorem", required=True)
    _, r, s, _, profile = _load_instance(args, lam)
    if theorem == "value":
        mode = _resolve(args, "mode", default="one_sample")
        report = check_value_conditions(r, s, profile, mode)
    elif theorem == "plan":
        report = check_plan_conditions(r, s, profile)
    else:
        raise ConfigParse(f"unknown theorem {theorem!r} (expected value|plan)")
    out = _resolve(args, "out", default="conditions.json")
    return _finish(args, "check-conditions", out, report.to_dict())


def _cmd_variance(args):
    mode, delta, design = _design(args)
    lam, r, s, model, cfg, sol = _solved(args)
    payload = {
        "lambda": lam,
        "mode": mode,
        "delta": delta,
        "sigma2_value": value_variance(sol, r, s, design),
    }
    ops = build_operators(sol, r, s, model)
    payload["sigma_tilde2_cost"] = sinkhorn_cost_variance(ops, r, s, model, design)
    if model.is_symmetric:
        payload["sigma2_divergence"] = divergence_variance(r, s, model, lam, design, cfg=cfg)
    out = _resolve(args, "out", default="variance.json")
    return _finish(args, "variance", out, payload)


def _cmd_plan_cov(args):
    mode, delta, design = _design(args)
    lam, r, s, model, _, sol = _solved(args)
    fns = io.load_function_tables(
        _resolve(args, "functions", required=True), model.cost.shape
    )
    ops = build_operators(sol, r, s, model)
    cov = functional_covariance(ops, r, s, fns, design)
    out = _resolve(args, "out", default="plan_cov.json")
    payload = {
        "lambda": lam,
        "mode": mode,
        "delta": delta,
        "n_functions": len(fns),
        "covariance": cov,
        "contraction_norm": ops.contraction_norm,
    }
    return _finish(args, "plan-cov", out, payload)


def _cmd_derivative_check(args):
    seed = _resolve(args, "seed", int, default=0)
    ts = [float(t) for t in _resolve(args, "ts", default="1e-2,1e-3,1e-4").split(",")]
    lam, r, s, model, cfg, sol = _solved(args)
    ops = build_operators(sol, r, s, model)
    rng = np.random.default_rng(seed)

    def tangent(measure):
        h = rng.standard_normal(measure.space.size)
        h -= h.mean()
        # keep the perturbed measures inside the simplex for every step size
        scale = 0.5 * np.min(measure.weights) / max(ts) / max(1.0, np.max(np.abs(h)))
        return SignedVector(measure.space, h * scale, sums_to_zero=True)

    hX, hY = tangent(r), tangent(s)
    dpi = plan_derivative(ops, hX, hY)
    dval = value_derivative(sol, hX, hY)
    plan_errors, value_errors = [], []
    for t in ts:
        r_t = type(r)(r.space, r.weights + t * hX.entries, tail=r.tail)
        s_t = type(s)(s.space, s.weights + t * hY.entries, tail=s.tail)
        sol_t = solve(r_t, s_t, model, lam, cfg, warm_start=(sol.alpha, sol.beta))
        plan_errors.append(float(np.abs((sol_t.plan - sol.plan) / t - dpi).sum()))
        value_errors.append(abs((sol_t.value - sol.value) / t - dval))

    def slope(errors):
        lt = np.log(np.asarray(ts))
        le = np.log(np.maximum(np.asarray(errors), 1e-300))
        return float(np.polyfit(lt, le, 1)[0])

    payload = {
        "lambda": lam,
        "ts": ts,
        "plan_fd_errors": plan_errors,
        "value_fd_errors": value_errors,
        "plan_slope": slope(plan_errors),
        "value_slope": slope(value_errors),
        "contraction_norm": ops.contraction_norm,
    }
    out = _resolve(args, "out", default="derivative_check.json")
    return _finish(args, "derivative-check", out, payload, seed=seed)


def _cmd_bootstrap(args):
    seed = _resolve(args, "seed", int, default=0)
    n = _resolve(args, "n", int, required=True)
    B = _resolve(args, "B", int, default=1000)
    threads = _resolve(args, "threads", int, default=1)
    lam, r, s, model, _ = _load_instance(args)
    ss = np.random.SeedSequence(seed).spawn(2)
    sample = np.random.default_rng(ss[0]).choice(
        r.space.size, size=n, p=r.weights
    )
    start = time.perf_counter()
    fpath = _resolve(args, "functions", default=None)
    if fpath:
        f = io.load_function_tables(fpath, model.cost.shape)[0]
        draws = bootstrap_plan_functional(
            sample, s, model, lam, f, B, ss[1], r.space, threads, _solve_cfg(args)
        )
    else:
        draws = bootstrap_value(
            sample, s, model, lam, B, ss[1], r.space, threads, _solve_cfg(args)
        )
    runtime = time.perf_counter() - start
    out = Path(_resolve(args, "out", default="bootstrap.json"))
    draws_csv = out.with_suffix(".draws.csv")
    io.write_draws_csv(draws, draws_csv)
    payload = {
        "lambda": lam,
        "n": n,
        "B": B,
        "sample_mean": float(draws.mean()),
        "sample_var": float(draws.var(ddof=1)) if B > 1 else 0.0,
        "draws_csv": str(draws_csv),
    }
    return _finish(args, "bootstrap", out, payload, [draws_csv], seed=seed,
                   runtime=runtime)


def _cmd_mc_clt(args):
    cfg_raw = io.load_json(_resolve(args, "config", required=True))
    lam = float(cfg_raw.get("lambda", _resolve(args, "lambda", float, default=1.0)))
    _, r, s, model, profile = _load_instance(args, lam)
    f = np.asarray(cfg_raw["f"], dtype=float) if "f" in cfg_raw else None
    cfg = ExperimentConfig(
        statistic=cfg_raw.get("statistic", "ValueCLT"),
        n=int(cfg_raw.get("n", 1000)),
        m=int(cfg_raw["m"]) if "m" in cfg_raw else None,
        replications=int(cfg_raw.get("replications", 500)),
        lam=lam,
        seed=int(cfg_raw.get("seed", _resolve(args, "seed", int, default=0))),
        f=f,
        threads=_resolve(args, "threads", int, default=1),
    )
    conditions = check_value_conditions(r, s, profile, cfg.design)
    report = mc_clt_experiment(r, s, model, cfg, conditions)
    out = Path(_resolve(args, "out", default="mc_clt.json"))
    draws_csv = out.with_suffix(".draws.csv")
    qq_csv = out.with_suffix(".qq.csv")
    io.write_draws_csv(report.standardized_draws, draws_csv)
    io.write_qq_csv(report.standardized_draws, report.target_sigma2, qq_csv)
    payload = report.to_dict()
    runtime = payload.pop("runtime")
    payload["conditions"] = conditions.to_dict()
    return _finish(args, "mc-clt", out, payload, [draws_csv, qq_csv],
                   seed=cfg.seed, runtime=runtime)


def _cmd_vanishing_lambda(args):
    cfg_raw = io.load_json(_resolve(args, "config", required=True))
    _, r, s, model, _ = _load_instance(args, 1.0)
    seed = int(cfg_raw.get("seed", _resolve(args, "seed", int, default=0)))
    report = vanishing_lambda_experiment(
        r, s, model,
        sample_sizes=tuple(cfg_raw.get("sample_sizes", (500, 2000, 8000))),
        lambda_coef=float(cfg_raw.get("lambda_coef", 1.0)),
        lambda_exponent=float(cfg_raw.get("lambda_exponent", -0.6)),
        replications=int(cfg_raw.get("replications", 200)),
        seed=seed,
        threads=_resolve(args, "threads", int, default=1),
    )
    out = Path(_resolve(args, "out", default="vanishing_lambda.json"))
    draws_csv = out.with_suffix(".draws.csv")
    io.write_draws_csv(report.standardized_draws, draws_csv)
    payload = report.to_dict()
    runtime = payload.pop("runtime")
    return _finish(args, "vanishing-lambda", out, payload, [draws_csv],
                   seed=seed, runtime=runtime)


def _cmd_ot_exact(args):
    _, r, s, model, _ = _load_instance(args, 1.0)
    ot = exact_ot_small(r, s, model)
    lambdas = _resolve(args, "lambdas", default=None)
    payload = {
        "value": ot.value,
        "alpha0": ot.alpha0,
        "beta0": ot.beta0,
        "plan": _plan_triplets(ot.plan),
        "unique_potentials": ot.unique_potentials,
    }
    if lambdas:
        gaps = vanishing_reg_gap(r, s, model, [float(l) for l in lambdas.split(",")])
        payload["gap_report"] = gaps.to_dict()
    out = _resolve(args, "out", default="ot_exact.json")
    return _finish(args, "ot-exact", out, payload)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erot",
        description="Entropic optimal transport solver and inference toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, func, *, instance=True, flags=()):
        p = sub.add_parser(name)
        if instance:
            p.add_argument("--r")
            p.add_argument("--s")
            p.add_argument("--cost")
        p.add_argument("--out")
        p.add_argument("--threads", type=int)
        p.add_argument("--seed", type=int)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    solver_flags = [
        ("--lambda", {"dest": "lambda", "type": float}),
        ("--tol", {"type": float}),
        ("--max-iter", {"dest": "max_iter", "type": int}),
        ("--normalization", {}),
    ]
    mode_flags = [("--mode", {}), ("--delta", {"type": float})]

    add("solve", _cmd_solve, flags=solver_flags)
    add("divergence", _cmd_divergence, flags=solver_flags)
    add("bounds", _cmd_bounds, flags=solver_flags)
    add("check-conditions", _cmd_check_conditions,
        flags=solver_flags + [("--theorem", {})] + mode_flags)
    add("variance", _cmd_variance, flags=solver_flags + mode_flags)
    add("plan-cov", _cmd_plan_cov,
        flags=solver_flags + mode_flags + [("--functions", {})])
    add("derivative-check", _cmd_derivative_check,
        flags=solver_flags + [("--ts", {})])
    add("bootstrap", _cmd_bootstrap,
        flags=solver_flags + [("--n", {"type": int}), ("--B", {"dest": "B", "type": int}),
                              ("--functions", {})])
    add("mc-clt", _cmd_mc_clt, flags=solver_flags + [("--config", {})])
    add("vanishing-lambda", _cmd_vanishing_lambda, flags=[("--config", {})])
    add("ot-exact", _cmd_ot_exact, flags=[("--lambdas", {})])
    return parser


def _error_payload(exc: Exception) -> str:
    """One JSON line for stderr; NonConvergence adds its iteration count and
    final residual (null when unset or, for the residual, not finite)."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NonConvergence):
        it, res = exc.iterations, exc.residual
        payload["iterations"] = None if it is None else int(it)
        payload["residual"] = float(res) if res is not None and np.isfinite(res) else None
    return json.dumps(payload)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        print(_error_payload(ConfigParse("no subcommand given")), file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except NonConvergence as exc:
        print(_error_payload(exc), file=sys.stderr)
        return 3
    except (ErotError, ValueError) as exc:
        print(_error_payload(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
