"""Bootstrap and Monte Carlo experiments for the EROT limit theorems.

A replication is one count draw, n r_hat ~ Multinomial(n, r) (for a bootstrap
resample n r* ~ Multinomial(n, r_hat)), and one warm-started solve.  Replications
run in order on generators spawned from one seed sequence, so every experiment
is bit-reproducible under a fixed seed.  The ``threads`` parameters affect
nothing; they remain for callers that pass them, and the CLI has no such flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel
from .errors import ConfigParse, EmptyInput, NonUniquePotentials
from .measures import ONE_SAMPLE_R, TWO_SAMPLE, Design, DiscreteMeasure, empirical_measure
from .sinkhorn import SolveConfig, exact_ot_small, sinkhorn_divergence, solve
from .sensitivity import (
    _variance_under,
    build_operators,
    divergence_variance,
    functional_covariance,
    sinkhorn_cost_variance,
    value_variance,
)

VALUE_CLT = "ValueCLT"
SINKHORN_COST_CLT = "SinkhornCostCLT"
DIVERGENCE_CLT = "DivergenceCLT"
PLAN_FUNCTIONAL_CLT = "PlanFunctionalCLT"
STATISTICS = (VALUE_CLT, SINKHORN_COST_CLT, DIVERGENCE_CLT, PLAN_FUNCTIONAL_CLT)


@dataclass(frozen=True)
class ExperimentConfig:
    statistic: str = VALUE_CLT
    n: int = 1000
    m: int | None = None  # second sample size; None = one-sample in r
    replications: int = 500
    lam: float = 1.0
    seed: int = 0
    f: np.ndarray | None = None  # test table for PlanFunctionalCLT
    threads: int = 1  # affects nothing: replications run in order on one thread
    solve_cfg: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ConfigParse(f"unknown statistic {self.statistic!r}")
        if self.replications < 1:
            raise ConfigParse("replications must be >= 1")
        if self.n < 2 or (self.m is not None and self.m < 2):
            raise ConfigParse("sample sizes must be >= 2")

    @property
    def design(self) -> Design:
        """One sample from r without m; two samples, weighted (delta, 1 - delta), with it."""
        if self.m is None:
            return Design.of(ONE_SAMPLE_R)
        return Design.of(TWO_SAMPLE, self.m / (self.n + self.m))

    @property
    def rate(self) -> float:
        if self.m is None:
            return float(np.sqrt(self.n))
        return float(np.sqrt(self.n * self.m / (self.n + self.m)))


@dataclass(frozen=True)
class MCReport:
    standardized_draws: np.ndarray
    target_sigma2: float
    ks_distance: float
    sample_mean: float
    sample_var: float
    runtime: float

    def to_dict(self) -> dict:
        return {
            "target_sigma2": self.target_sigma2,
            "ks_distance": self.ks_distance,
            "sample_mean": self.sample_mean,
            "sample_var": self.sample_var,
            "replications": int(self.standardized_draws.size),
            "runtime": self.runtime,
        }


def ks_statistic(draws: np.ndarray, reference) -> float:
    """Sup distance between the empirical CDF of `draws` and a reference,
    either a CDF callable or a second sample (two-sample statistic)."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise EmptyInput("no draws supplied")
    if callable(reference):
        x = np.sort(draws)
        F = np.asarray(reference(x), dtype=float)
        n = x.size
        return float(
            max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(0, n) / n))
        )
    from scipy import stats

    return float(stats.ks_2samp(draws, np.asarray(reference, dtype=float)).statistic)


def _normal_or_degenerate_cdf(sigma2: float):
    from scipy.special import ndtr

    if sigma2 > 1e-14:
        sd = float(np.sqrt(sigma2))
        return lambda x: ndtr(x / sd)
    return lambda x: (np.asarray(x) >= 0).astype(float)


def _run_replications(fn, replications: int, seed) -> np.ndarray:
    """fn(rng) on each replication's own generator, in replication order:
    shape (R,) for a scalar statistic, (R, k) for a k-vector."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.array([fn(np.random.default_rng(s)) for s in ss.spawn(replications)], dtype=float)


def _sample_from(measure: DiscreteMeasure, n: int, rng) -> DiscreteMeasure:
    return DiscreteMeasure(measure.space, rng.multinomial(n, measure.weights) / n)


# ---------------------------------------------------------------------------
# bootstrap


def bootstrap_value(sample, s: DiscreteMeasure, m: CostModel, lam: float,
                    B: int, seed, threads: int = 1,
                    cfg: SolveConfig = SolveConfig()) -> np.ndarray:
    """n-out-of-n bootstrap draws sqrt(n)(EROT(r*, s) - EROT(r_hat, s)) from a
    sample of atom indices of the X space; `threads` affects nothing."""
    return _bootstrap(sample, s, m, lam, B, seed, cfg, f=None)


def bootstrap_plan_functional(sample, s: DiscreteMeasure, m: CostModel, lam: float,
                              f: np.ndarray, B: int, seed, threads: int = 1,
                              cfg: SolveConfig = SolveConfig()) -> np.ndarray:
    """Bootstrap draws of sqrt(n)(<f, plan(r*, s)> - <f, plan(r_hat, s)>);
    `threads` affects nothing."""
    return _bootstrap(sample, s, m, lam, B, seed, cfg, f=np.asarray(f, float))


def _bootstrap(sample, s, m, lam, B, seed, cfg, f):
    if B < 1:
        raise ConfigParse("B must be >= 1")
    sample = np.asarray(sample, dtype=int)
    r_hat = empirical_measure(sample, m.space_X)
    base = solve(r_hat, s, m, lam, cfg)
    base_stat = base.value if f is None else float(np.sum(f * base.plan))
    n = sample.size
    warm = base.alpha

    def one(rng):
        sol = solve(_sample_from(r_hat, n, rng), s, m, lam, cfg, warm_start=warm)
        stat = sol.value if f is None else float(np.sum(f * sol.plan))
        return np.sqrt(n) * (stat - base_stat)

    return _run_replications(one, B, seed)


# ---------------------------------------------------------------------------
# Monte Carlo CLT experiments


def mc_clt_experiment(r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel,
                      cfg: ExperimentConfig) -> MCReport:
    """Simulate the standardized plug-in statistic and compare its law to the
    Gaussian limit with plug-in population variance."""
    start = time.perf_counter()
    lam, design, solve_cfg = cfg.lam, cfg.design, cfg.solve_cfg
    if cfg.statistic == PLAN_FUNCTIONAL_CLT and np.shape(cfg.f) != m.cost.shape:
        raise ConfigParse(f"PlanFunctionalCLT needs a test table f of shape {m.cost.shape}")

    # each statistic: its limit variance, population value and plug-in map
    if cfg.statistic == DIVERGENCE_CLT:
        target = divergence_variance(r, s, m, lam, design, cfg=solve_cfg)

        def stat_of(r_hat, s_hat):
            return sinkhorn_divergence(r_hat, s_hat, m, lam, solve_cfg)

        pop_stat = stat_of(r, s)
    else:
        # the other three read each plug-in solve, warm-started from the population's
        pop = solve(r, s, m, lam, solve_cfg)
        if cfg.statistic == VALUE_CLT:
            target = value_variance(pop, r, s, design)
            read = lambda sol: sol.value
        elif cfg.statistic == SINKHORN_COST_CLT:
            target = sinkhorn_cost_variance(build_operators(pop, r, s, m), r, s, m, design)
            read = lambda sol: sol.cost_part
        else:  # PLAN_FUNCTIONAL_CLT, the last one ExperimentConfig admits
            f = np.asarray(cfg.f, dtype=float)
            ops = build_operators(pop, r, s, m)
            target = float(functional_covariance(ops, r, s, [f], design)[0, 0])
            read = lambda sol: float(np.sum(f * sol.plan))
        pop_stat, warm = read(pop), pop.alpha

        def stat_of(r_hat, s_hat):
            return read(solve(r_hat, s_hat, m, lam, solve_cfg, warm_start=warm))

    def one(rng):
        r_hat = _sample_from(r, cfg.n, rng)
        s_hat = _sample_from(s, cfg.m, rng) if design.w_s else s
        return cfg.rate * (stat_of(r_hat, s_hat) - pop_stat)

    draws = _run_replications(one, cfg.replications, cfg.seed)
    ks = ks_statistic(draws, _normal_or_degenerate_cdf(target))
    return MCReport(
        standardized_draws=draws,
        target_sigma2=float(target),
        ks_distance=ks,
        sample_mean=float(draws.mean()),
        sample_var=float(draws.var(ddof=1)) if draws.size > 1 else 0.0,
        runtime=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# vanishing regularization


@dataclass(frozen=True)
class VanishingLambdaReport:
    sample_sizes: tuple
    lambdas: tuple
    variance_trace: tuple  # |mean Var_{r_hat}[alpha^{lam_n}] - Var_r[alpha0]| per n
    var_alpha0: float
    standardized_draws: np.ndarray  # sqrt(n)(EROT^{lam_n} - OT) draws at largest n
    ks_distance: float
    runtime: float

    def to_dict(self) -> dict:
        return {
            "sample_sizes": list(self.sample_sizes),
            "lambdas": list(self.lambdas),
            "variance_trace": list(self.variance_trace),
            "var_alpha0": self.var_alpha0,
            "ks_distance": self.ks_distance,
            "runtime": self.runtime,
        }


def vanishing_lambda_experiment(
    r: DiscreteMeasure, s: DiscreteMeasure, m: CostModel,
    sample_sizes=(500, 2000, 8000), lambda_coef: float = 1.0,
    lambda_exponent: float = -0.6, replications: int = 200, seed: int = 0,
    threads: int = 1,
) -> VanishingLambdaReport:
    """Consistency of the plug-in variance under a vanishing regularization
    schedule lam(n) = coef * n**exponent, on an instance whose unregularized
    potentials are unique.

    For each n the plug-in variance Var_{r_hat}[alpha^{lam_n}(r_hat, s)] is
    averaged over replications and compared to Var_r[alpha0] from the exact
    transport oracle; the standardized value statistic at the largest n is
    compared to N(0, Var_r[alpha0]).  Each replication warm-starts from the
    population solved at lam_n, itself warm-started from the exact
    potentials; every solve takes the default SolveConfig.  `threads`
    affects nothing.
    """
    if len(sample_sizes) == 0 or min(sample_sizes) < 2:
        raise ConfigParse("sample_sizes must be a non-empty list of sizes >= 2")
    if replications < 1:
        raise ConfigParse("replications must be >= 1")
    if not 0 < lambda_coef < np.inf:
        raise ConfigParse("lambda_coef must be positive and finite")
    if not np.isfinite(lambda_exponent):
        raise ConfigParse("lambda_exponent must be finite")
    lambdas = []
    for n in sample_sizes:
        try:
            lam = lambda_coef * n**lambda_exponent
        except OverflowError:
            lam = np.inf
        if not 0 < lam < np.inf:
            raise ConfigParse(f"the schedule lambda_coef * n**lambda_exponent must be "
                              f"positive and finite; it is {lam} at n = {n}")
        lambdas.append(lam)
    start = time.perf_counter()
    ot = exact_ot_small(r, s, m)
    if not ot.unique_potentials:
        raise NonUniquePotentials(
            "unregularized potentials are not unique on this instance"
        )
    var0 = _variance_under(r.weights, ot.alpha0)
    trace = []
    size_seeds = np.random.SeedSequence(seed).spawn(len(sample_sizes))
    for n, lam, size_seed in zip(sample_sizes, lambdas, size_seeds):
        pop = solve(r, s, m, lam, warm_start=ot.alpha0)

        def one(rng, n=n, lam=lam, warm=pop.alpha):
            """(plug-in variance Var_{r_hat}[alpha], standardized value draw)"""
            r_hat = _sample_from(r, n, rng)
            sol = solve(r_hat, s, m, lam, warm_start=warm)
            var_hat = _variance_under(r_hat.weights, sol.alpha)
            return var_hat, np.sqrt(n) * (sol.value - ot.value)

        var_hats, last_draws = _run_replications(one, replications, size_seed).T
        trace.append(abs(float(var_hats.mean()) - var0))

    ks = ks_statistic(last_draws, _normal_or_degenerate_cdf(var0))
    return VanishingLambdaReport(
        sample_sizes=tuple(sample_sizes),
        lambdas=tuple(lambdas),
        variance_trace=tuple(trace),
        var_alpha0=var0,
        standardized_draws=last_draws,
        ks_distance=ks,
        runtime=time.perf_counter() - start,
    )
