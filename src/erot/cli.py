"""Command-line interface.

One executable with file-based I/O::

    erot solve --r r.json --s s.json --cost cost.json --lambda 1.0 --out sol.json

Each subcommand takes exactly the flags its handler reads (``COMMANDS``; types
and defaults in ``FLAGS``): ``--seed`` only derivative-check, bootstrap, mc-clt
and vanishing-lambda, ``--delta`` only variance and plan-cov.  A flag the
subcommand takes falls back to EROT_<FLAG> (``--max-iter`` to EROT_MAX_ITER;
the flag wins); variables for flags it does not take are ignored.

mc-clt and vanishing-lambda read an experiment file (--config): a JSON object
whose keys are those of ``MC_CLT_KEYS`` or ``VANISHING_LAMBDA_KEYS``.  A key
left out takes the library's default (``ExperimentConfig``,
``vanishing_lambda_experiment``), ``lambda`` and ``seed`` win over the flags,
and an unknown key exits 2, as it does in a measure or cost file (io.read_object).

Exit codes: 0 success, 2 validation/configuration error (an unknown flag, a
flag the subcommand does not take and a malformed value, in a flag or an
input file, included), 3 solver non-convergence; the last stderr line is
then a JSON object with "error", "message" and the exception's attributes
(``_error_payload``).  The manifest next to each output records the resolved
value of every flag the subcommand takes, a SHA-256 digest of every input file
read, the seed (``seed_used``: the subcommand takes ``--seed``), the artifacts
and, for bootstrap, mc-clt and vanishing-lambda, the runtime.

Start-up is kept small: importing this module loads no scipy module, and a
subcommand imports only the scipy modules its computation uses (scipy.linalg
for the derivative layer, scipy.special for the normal reference of the MC
experiments; the exact transport oracle is numpy only).  Exit is kept
small too: the process entry ``run`` freezes the heap once ``main`` returns,
so the interpreter's final garbage collections skip what the imports built.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import io
from .costs import check_plan_conditions, check_value_conditions, integer, number, numbers
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
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SolveConfig,
    exact_ot_small,
    sinkhorn_divergence,
    solve,
    vanishing_reg_gap,
    verify_bounds,
)

PLAN_FLOOR = 1e-16


def _number(cast, text: str):
    """Flag text read by cast (int or float), refusing the "5_0" digit groups it takes."""
    if "_" in text:
        raise ValueError(f"digit-group underscore in {text!r}")
    return cast(text)


# flag: (type, default).  --lambda is required except by mc-clt; --out
# defaults to the subcommand's own file name (COMMANDS).
FLAGS = {
    "r": (str, None),
    "s": (str, None),
    "cost": (str, None),
    "out": (str, None),
    "lambda": (partial(_number, float), 1.0),
    "tol": (partial(_number, float), DEFAULT_TOL),
    "max-iter": (partial(_number, int), DEFAULT_MAX_ITER),
    "mode": (str, ONE_SAMPLE_R),
    "delta": (partial(_number, float), None),
    "theorem": (str, None),
    "functions": (str, None),
    "ts": (str, "1e-2,1e-3,1e-4"),
    "seed": (partial(_number, int), 0),
    "n": (partial(_number, int), None),
    "B": (partial(_number, int), 1000),
    "config": (str, None),
    "lambdas": (str, None),
}
# flags naming a file the subcommand reads; the manifest digests each one given
INPUT_FLAGS = ("r", "s", "cost", "functions", "config")


def _attr(flag: str) -> str:
    """The attribute a flag resolves to: "-" as "_", and ``lam`` for --lambda."""
    return "lam" if flag == "lambda" else flag.replace("-", "_")


def _floats(text: str) -> list:
    """A comma-separated list flag such as --ts."""
    return [_number(float, v) for v in text.split(",")]


def _integers(value) -> tuple:
    """A JSON list of ints as a tuple, each entry read by costs.integer."""
    return tuple(map(integer, value))


# experiment-file key: cast; keys left out take the library's defaults
MC_CLT_KEYS = {"lambda": number, "seed": integer, "statistic": str, "n": integer, "m": integer,
               "replications": integer, "f": numbers}
VANISHING_LAMBDA_KEYS = {"seed": integer, "sample_sizes": _integers, "lambda_coef": number,
                         "lambda_exponent": number, "replications": integer}


def _load_instance(a, lam: float):
    """(r, s, model, profile) from --r, --s and --cost, the cost built at lam."""
    r, s = io.load_measure(a.r), io.load_measure(a.s)
    return r, s, *io.load_cost(a.cost, r.space, s.space, lam)


def _solve_cfg(a) -> SolveConfig:
    return SolveConfig(tol=a.tol, max_iter=a.max_iter)


def _solved(a):
    """The instance solved at --lambda: (r, s, model, cfg, sol)."""
    r, s, model, _ = _load_instance(a, a.lam)
    cfg = _solve_cfg(a)
    return r, s, model, cfg, solve(r, s, model, a.lam, cfg)


def _plan_triplets(plan: np.ndarray):
    xs, ys = np.nonzero(np.abs(plan) > PLAN_FLOOR)
    return [list(t) for t in zip(xs.tolist(), ys.tolist(), plan[xs, ys].tolist())]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the resolved flags and returns its payload
# and the paths of any artifacts it wrote besides the output


def _cmd_solve(a):
    r, s, model, _, sol = _solved(a)
    return {
        "lambda": a.lam,
        "value": sol.value,
        "sinkhorn_cost": sol.cost_part,
        "mutual_info": sol.mutual_info,
        "alpha": sol.alpha,
        "beta": sol.beta,
        "plan": _plan_triplets(sol.plan),
        "iterations": sol.iterations,
        "marginal_residual": sol.marginal_residual,
    }, ()


def _cmd_divergence(a):
    r, s, model, _ = _load_instance(a, a.lam)
    d = sinkhorn_divergence(r, s, model, a.lam, _solve_cfg(a))
    return {"lambda": a.lam, "divergence": d}, ()


def _cmd_bounds(a):
    r, s, model, _, sol = _solved(a)
    return {"lambda": a.lam, **verify_bounds(sol, model, r, s).to_dict()}, ()


def _cmd_check_conditions(a):
    r, s, _, profile = _load_instance(a, a.lam)
    if a.theorem == "value":
        report = check_value_conditions(r, s, profile, a.mode)
    elif a.theorem == "plan":
        if a.mode != ONE_SAMPLE_R:  # the theorem is stated for one sample from r
            raise ConfigParse(f"--theorem plan takes --mode {ONE_SAMPLE_R}, not {a.mode!r}")
        report = check_plan_conditions(r, s, profile)
    else:
        raise ConfigParse(f"unknown theorem {a.theorem!r} (expected value|plan)")
    return report.to_dict(), ()


def _cmd_variance(a):
    design = Design.of(a.mode, a.delta)
    r, s, model, cfg, sol = _solved(a)
    payload = {
        "lambda": a.lam,
        "mode": a.mode,
        "delta": a.delta,
        "sigma2_value": value_variance(sol, r, s, design),
    }
    # the cost's variance goes through the plan derivative, which needs bounded
    # X-variation; the value's needs only the potentials
    payload["sigma_tilde2_cost"] = None
    if model.bounded_x_variation:
        ops = build_operators(sol, r, s, model)
        payload["sigma_tilde2_cost"] = sinkhorn_cost_variance(ops, r, s, model, design)
    if model.is_symmetric:
        payload["sigma2_divergence"] = divergence_variance(r, s, model, a.lam, design, cfg=cfg)
    return payload, ()


def _cmd_plan_cov(a):
    design = Design.of(a.mode, a.delta)
    r, s, model, _, sol = _solved(a)
    fns = io.load_function_tables(a.functions, model.cost.shape)
    ops = build_operators(sol, r, s, model)
    cov = functional_covariance(ops, r, s, fns, design)
    return {
        "lambda": a.lam,
        "mode": a.mode,
        "delta": a.delta,
        "n_functions": len(fns),
        "covariance": cov,
        "contraction_norm": ops.contraction_norm,
        "schur_min_eig": ops.schur_min_eig,
    }, ()


def _cmd_derivative_check(a):
    ts = io.cast_value(_floats, a.ts, "--ts")
    # the slope is fitted through the steps, and each step moves along +h
    if not (len(set(ts)) >= 2 and all(0 < t < np.inf for t in ts)):
        raise ConfigParse(f"--ts needs two or more distinct, positive, finite steps; got {a.ts}")
    r, s, model, cfg, sol = _solved(a)
    ops = build_operators(sol, r, s, model)
    rng = np.random.default_rng(a.seed)

    def tangent(measure):
        h = rng.standard_normal(measure.space.size)
        h -= h.mean()
        # keep the perturbed measures inside the simplex for every step size
        scale = 0.5 * np.min(measure.weights) / max(ts) / max(1.0, np.max(np.abs(h)))
        return SignedVector(measure.space, h * scale)

    hX, hY = tangent(r), tangent(s)
    dpi = plan_derivative(ops, hX, hY)
    dval = value_derivative(sol, hX, hY)
    plan_errors, value_errors = [], []
    for t in ts:
        r_t = type(r)(r.space, r.weights + t * hX.entries, tail=r.tail)
        s_t = type(s)(s.space, s.weights + t * hY.entries, tail=s.tail)
        sol_t = solve(r_t, s_t, model, a.lam, cfg, warm_start=sol.alpha)
        plan_errors.append(float(np.abs((sol_t.plan - sol.plan) / t - dpi).sum()))
        value_errors.append(abs((sol_t.value - sol.value) / t - dval))

    def slope(errors):
        lt = np.log(np.asarray(ts))
        le = np.log(np.maximum(np.asarray(errors), 1e-300))
        return float(np.polyfit(lt, le, 1)[0])

    return {
        "lambda": a.lam,
        "ts": ts,
        "plan_fd_errors": plan_errors,
        "value_fd_errors": value_errors,
        "plan_slope": slope(plan_errors),
        "value_slope": slope(value_errors),
        "contraction_norm": ops.contraction_norm,
        "schur_min_eig": ops.schur_min_eig,
    }, ()


def _cmd_bootstrap(a):
    r, s, model, _ = _load_instance(a, a.lam)
    fns = io.load_function_tables(a.functions, model.cost.shape) if a.functions else ()
    if len(fns) > 1:
        raise ConfigParse(f"bootstrap takes one function table; {a.functions} holds {len(fns)}")
    ss = np.random.SeedSequence(a.seed).spawn(2)
    sample = np.random.default_rng(ss[0]).choice(
        r.space.size, size=a.n, p=r.weights
    )
    cfg = _solve_cfg(a)
    start = time.perf_counter()
    if fns:
        draws = bootstrap_plan_functional(sample, s, model, a.lam, fns[0], a.B, ss[1], cfg=cfg)
    else:
        draws = bootstrap_value(sample, s, model, a.lam, a.B, ss[1], cfg=cfg)
    runtime = time.perf_counter() - start
    draws_csv = Path(a.out).with_suffix(".draws.csv")
    io.write_draws_csv(draws, draws_csv)
    return {
        "lambda": a.lam,
        "n": a.n,
        "B": a.B,
        "sample_mean": float(draws.mean()),
        "sample_var": float(draws.var(ddof=1)) if a.B > 1 else 0.0,
        "draws_csv": str(draws_csv),
        "runtime": runtime,
    }, [draws_csv]


def _cmd_mc_clt(a):
    entries = io.read_object(io.load_json(a.config), MC_CLT_KEYS, a.config, "experiment file")
    # the manifest records the lambda and seed used
    a.lam = entries.pop("lambda", a.lam)
    a.seed = entries.pop("seed", a.seed)
    cfg = ExperimentConfig(**entries, lam=a.lam, seed=a.seed, solve_cfg=_solve_cfg(a))
    r, s, model, profile = _load_instance(a, a.lam)
    conditions = check_value_conditions(r, s, profile, cfg.design)
    report = mc_clt_experiment(r, s, model, cfg)
    draws_csv = Path(a.out).with_suffix(".draws.csv")
    qq_csv = Path(a.out).with_suffix(".qq.csv")
    io.write_draws_csv(report.standardized_draws, draws_csv)
    io.write_qq_csv(report.standardized_draws, report.target_sigma2, qq_csv)
    return {**report.to_dict(), "conditions": conditions.to_dict()}, [draws_csv, qq_csv]


def _cmd_vanishing_lambda(a):
    entries = io.read_object(io.load_json(a.config), VANISHING_LAMBDA_KEYS, a.config,
                             "experiment file")
    a.seed = entries.pop("seed", a.seed)
    r, s, model, _ = _load_instance(a, 1.0)
    report = vanishing_lambda_experiment(r, s, model, **entries, seed=a.seed)
    draws_csv = Path(a.out).with_suffix(".draws.csv")
    io.write_draws_csv(report.standardized_draws, draws_csv)
    return report.to_dict(), [draws_csv]


def _cmd_ot_exact(a):
    r, s, model, _ = _load_instance(a, 1.0)
    gaps = None
    if a.lambdas:
        gaps = vanishing_reg_gap(r, s, model, io.cast_value(_floats, a.lambdas, "--lambdas"))
    # the gap report carries the exact transport it was measured from
    ot = exact_ot_small(r, s, model) if gaps is None else gaps.ot
    payload = {
        "value": ot.value,
        "alpha0": ot.alpha0,
        "beta0": ot.beta0,
        "plan": _plan_triplets(ot.plan),
        "unique_potentials": ot.unique_potentials,
    }
    if gaps is not None:
        payload["gap_report"] = gaps.to_dict()
    return payload, ()


# ---------------------------------------------------------------------------
# subcommands, parser and writer

INSTANCE = ("r!", "s!", "cost!")
SOLVE_CFG = ("tol", "max-iter")
SOLVED = ("lambda!", *INSTANCE, *SOLVE_CFG)
DESIGN = ("mode", "delta")

# subcommand: (handler, default --out, the flags besides --out that it reads,
# in the order they are resolved); a flag marked "!" must be set, by the flag
# or its environment variable
COMMANDS = {
    "solve": (_cmd_solve, "solution.json", SOLVED),
    "divergence": (_cmd_divergence, "divergence.json", SOLVED),
    "bounds": (_cmd_bounds, "bounds.json", SOLVED),
    "check-conditions": (_cmd_check_conditions, "conditions.json",
                         ("lambda!", "theorem!", *INSTANCE, "mode")),
    "variance": (_cmd_variance, "variance.json", (*DESIGN, *SOLVED)),
    "plan-cov": (_cmd_plan_cov, "plan_cov.json", (*DESIGN, *SOLVED, "functions!")),
    "derivative-check": (_cmd_derivative_check, "derivative_check.json",
                         ("seed", "ts", *SOLVED)),
    "bootstrap": (_cmd_bootstrap, "bootstrap.json",
                  ("seed", "n!", "B", *SOLVED, "functions")),
    "mc-clt": (_cmd_mc_clt, "mc_clt.json",
               ("config!", "lambda", *INSTANCE, *SOLVE_CFG, "seed")),
    "vanishing-lambda": (_cmd_vanishing_lambda, "vanishing_lambda.json",
                         ("config!", *INSTANCE, "seed")),
    "ot-exact": (_cmd_ot_exact, "ot_exact.json", (*INSTANCE, "lambdas")),
}


def _flags(subcommand: str) -> list:
    """(flag, required) for every flag the subcommand takes, --out last."""
    return [(f.rstrip("!"), f.endswith("!")) for f in (*COMMANDS[subcommand][2], "out")]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigParse, reported as JSON; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigParse(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erot",
        description="Entropic optimal transport solver and inference toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag, _ in _flags(name):
            p.add_argument("--" + flag, dest=_attr(flag))
    return parser


def _settings(args) -> argparse.Namespace:
    """Every flag the subcommand takes, resolved once: the flag, else
    EROT_<FLAG>, else (unless marked required) the FLAGS default."""
    out = COMMANDS[args.subcommand][1]
    a = argparse.Namespace()
    for flag, required in _flags(args.subcommand):
        cast, default = FLAGS[flag]
        raw, source = getattr(args, _attr(flag)), "--" + flag
        if raw is None:
            source = "EROT_" + flag.replace("-", "_").upper()
            raw = os.environ.get(source)
        if raw is None:
            if required:
                raise ConfigParse(f"missing required option --{flag}")
            value = out if flag == "out" else default
        else:
            value = io.cast_value(cast, raw, source)
        setattr(a, _attr(flag), value)
    return a


def _write(subcommand: str, a, payload: dict, artifacts) -> None:
    """The output JSON and its manifest; a "runtime" entry of the payload
    goes to the manifest instead."""
    runtime = payload.pop("runtime", None)
    io.dump_json(payload, a.out)
    config = {flag: getattr(a, _attr(flag)) for flag, _ in _flags(subcommand)}
    io.write_manifest(
        Path(a.out).with_suffix(".manifest.json"),
        subcommand,
        config,
        [config[f] for f in INPUT_FLAGS if config.get(f)],
        [a.out, *artifacts],
        runtime=runtime,
    )


def _error_payload(exc: Exception) -> str:
    """One JSON line for stderr: the error, its message and every attribute of
    the exception, numpy scalars as Python numbers and non-finite ones as null."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for key, value in vars(exc).items():
        value = value.item() if isinstance(value, np.generic) else value
        payload[key] = None if isinstance(value, float) and not math.isfinite(value) else value
    return json.dumps(payload)


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            raise ConfigParse("no subcommand given")
        a = _settings(args)
        payload, artifacts = COMMANDS[args.subcommand][0](a)
        _write(args.subcommand, a, payload, artifacts)
        return 0
    except (ErotError, ValueError) as exc:
        print(_error_payload(exc), file=sys.stderr)
        return 3 if isinstance(exc, NonConvergence) else 2


def run() -> None:
    """The process entry of ``erot`` and ``python -m erot.cli``: main's exit
    code, after gc.freeze() has put the import heap out of reach of the
    interpreter's final collections.  main(argv) in process never freezes."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
