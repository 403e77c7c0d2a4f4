"""Peak memory of the table-wide checks and reductions at n = 1000.

Each function may allocate the tables it returns plus 2 MB, a few row blocks
of the cost layer's block size; one 1000 x 1000 table is 7.6 MB, so a single
whole-table temporary fails the bound."""

import gc
import tracemalloc

import numpy as np
import pytest

import erot
from erot import costs, sensitivity, sinkhorn

N = 1000
MB = 2**20
TABLE_MB = 8 * N * N / MB
SLACK_MB = 2.0


def _peak_over_held_mb(f):
    """(f(), the call's peak traced memory above what is still held when it
    returns, what is held: the returned tables), the last two in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        out = f()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, (peak - held) / MB, held / MB


@pytest.fixture(scope="module")
def inst():
    rng = np.random.default_rng(31)
    sp = erot.integer_grid(N)
    a = rng.uniform(0.0, 2.0, (N, N))
    table = 0.5 * (a + a.T)
    r = erot.validate_measure(rng.dirichlet(2.0 * np.ones(N)), sp)
    s = erot.validate_measure(rng.dirichlet(2.0 * np.ones(N)), sp)
    m, _ = erot.build_cost({"family": "bounded", "cost": table}, sp, sp, 1.0)
    return sp, table, r, s, m


SPECS = {
    "explicit": lambda table: {"family": "bounded", "cost": table},
    "bounded_p1": lambda table: {"family": "bounded", "p": 1},
    "metric_power_p2": lambda table: {"family": "metric_power", "p": 2, "anchor": 0.0},
    "separability": lambda table: {"family": "separability", "anchor": 0.0},
}


@pytest.mark.parametrize("name", SPECS)
def test_build_cost(inst, name):
    sp, table, *_ = inst
    spec = SPECS[name](table)
    (m, _), extra, held = _peak_over_held_mb(lambda: erot.build_cost(spec, sp, sp, 1.0))
    assert extra <= SLACK_MB
    # the table is the caller's or the one new table returned
    assert held <= (0.0 if m.cost is table else TABLE_MB) + 0.5


def test_is_symmetric(inst):
    *_, m = inst
    fresh = costs.CostModel(m.space_X, m.space_Y, m.cost, m.dom_primary, None)
    verdict, extra, _ = _peak_over_held_mb(lambda: fresh.is_symmetric)
    assert verdict and extra <= SLACK_MB


def test_mutual_information(inst):
    _, _, r, s, _ = inst
    pi = np.outer(r.weights, s.weights)
    mi, extra, _ = _peak_over_held_mb(lambda: sinkhorn.mutual_information(pi, r, s))
    assert abs(mi) < 1e-12 and extra <= SLACK_MB


def test_two_sample_divergence_variance(inst):
    # the plan of the solve in flight is the one table it may hold
    _, _, r, s, m = inst
    _, extra, _ = _peak_over_held_mb(
        lambda: sensitivity.divergence_variance(r, s, m, 1.0, sensitivity.TWO_SAMPLE, 0.5))
    assert extra <= TABLE_MB + SLACK_MB


def test_verify_bounds(inst):
    _, _, r, s, m = inst
    sol = sinkhorn.solve(r, s, m, 1.0)
    report, extra, _ = _peak_over_held_mb(lambda: sinkhorn.verify_bounds(sol, m, r, s))
    assert not report.vacuous and extra <= SLACK_MB
