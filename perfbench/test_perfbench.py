"""Tests for the benchmark's own logic: span arithmetic, the percentile rule,
when the timing loops stop, and failure accounting.  Run from the repository
root with

    python -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import erot  # noqa: E402
from erot import measures, sinkhorn  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, percentile_summary, self_times  # noqa: E402


def _span(i, name, start, end, parent=None, phase="pass"):
    sp = Span(i, name, start, parent, phase, None)
    sp.end = end
    return sp


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            _span(0, "resampling.mc_clt_experiment", 0.0, 10.0),
            _span(1, "sinkhorn.solve", 1.0, 4.0, parent=0),
            _span(2, "sinkhorn.solve", 3.0, 6.0, parent=0),  # overlaps span 1
            _span(3, "measures.empirical_measure", 2.0, 3.0, parent=1),
            _span(4, "costs.build_cost", 9.5, 12.0, parent=0),  # runs past its parent
        ]
        st = self_times(spans)
        assert st[0] == pytest.approx(10.0 - 5.0 - 0.5)  # children cover [1, 6] and [9.5, 10]
        assert st[1] == pytest.approx(2.0)
        assert st[2] == pytest.approx(3.0)
        assert st[3] == pytest.approx(1.0)
        assert st[4] == pytest.approx(2.5)

    def test_tracer_records_parents_through_wrapped_names(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def inner():
            return 1

        def outer():
            return wrapped_inner() + 1

        wrapped_inner = tracer.wrap(inner, "sinkhorn.solve_like")
        wrapped_outer = tracer.wrap(outer, "resampling.experiment_like")
        assert wrapped_outer() == 2
        outer_sp, inner_sp = tracer.spans
        assert inner_sp.parent == outer_sp.id
        assert (outer_sp.start, inner_sp.start, inner_sp.end, outer_sp.end) == (0, 1, 2, 3)
        assert self_times(tracer.spans) == {outer_sp.id: 2.0, inner_sp.id: 1.0}

    def test_paused_tracer_records_nothing(self):
        tracer = Tracer()
        tracer.paused = True
        assert tracer.wrap(lambda: 3, "x.y")() == 3
        assert tracer.spans == []

    def test_layer_metrics_count_setup_once_and_passes_per_pass(self):
        spans = [_span(0, "costs.build_cost", 0.0, 1.0, phase="setup")]
        t = 1.0
        for k in range(2):  # two identical passes
            spans.append(_span(1 + 2 * k, "sinkhorn.solve", t, t + 3.0))
            spans[-1].attrs.update(iterations=10, cells_per_iter=8, warm=True,
                                   nonconverged=False)
            spans.append(_span(2 + 2 * k, "measures.empirical_measure", t, t + 1.0,
                               parent=1 + 2 * k))
            t += 3.0
        m = layer_metrics(spans, n_passes=2, pass_wall_s=4.0)
        assert m["costs.build_cost.self_s"] == pytest.approx(1.0)
        assert m["sinkhorn.solve.calls"] == 1.0
        assert m["sinkhorn.solve.self_s"] == pytest.approx(2.0)
        assert m["sinkhorn.solve.iterations"] == 10.0
        assert m["sinkhorn.solve.cells"] == 80.0
        assert m["sinkhorn.solve.us_per_iter"] == pytest.approx(2.0 / 10 * 1e6)
        assert m["sinkhorn.solve.warm_share"] == 1.0
        assert m["sinkhorn.share"] == pytest.approx(0.5)
        assert m["measures.share"] == pytest.approx(0.25)
        assert m["bench.share"] == pytest.approx(0.25)

    def test_install_wraps_imported_names_and_restores(self):
        original = erot.resampling.solve
        tracer = Tracer()
        restore = tracer.install(erot)
        try:
            assert erot.resampling.solve is not original
            assert erot.sinkhorn.solve is not original
            sp = measures.integer_grid(3)
            r = measures.validate_measure([0.2, 0.3, 0.5], sp)
            m, _ = erot.costs.build_cost({"family": "bounded", "p": 1}, sp, sp, 1.0)
            erot.sensitivity.divergence_variance(r, r, m, 1.0)
        finally:
            restore()
        assert erot.resampling.solve is original and erot.sinkhorn.solve is original
        names = [sp.name for sp in tracer.spans]
        assert names.count("sinkhorn.solve") == 2  # called as erot.sensitivity.solve
        parent = {sp.id: sp for sp in tracer.spans}
        solve_parents = {parent[sp.parent].name for sp in tracer.spans
                         if sp.name == "sinkhorn.solve"}
        assert solve_parents == {"sensitivity.divergence_variance"}


class TestPercentileRule:
    def test_small_sample_reports_median_and_count_only(self):
        assert percentile_summary([3.0, 1.0, 2.0, 4.0]) == {"p50": 2.5, "n": 4}

    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        assert "p90" not in percentile_summary(range(99))
        s = percentile_summary(range(100))
        assert s["n"] == 100 and s["p50"] == 49.5 and s["p90"] == 89.0
        assert "p99" not in s
        assert "p99" in percentile_summary(range(1000))

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            percentile_summary([])

    def test_summary_uses_per_op_medians(self):
        ops = [workloads.Op("a", None, units=10), workloads.Op("b", None)]
        times = {"a": [1.0, 3.0, 2.0], "b": [0.5]}
        s = run.summarize(ops, times)
        assert s["wall_s"] == pytest.approx(2.5)
        assert s["op_p50_s"] == pytest.approx((0.2 + 0.5) / 2)
        assert s["ops_per_s"] == pytest.approx(11 / 2.5)
        assert s["per_op"]["a"] == {"p50": 2.0, "n": 3, "units": 10}


class TestMeasureLoop:
    def _fake(self, monkeypatch, durations):
        """A clock that advances only when an op runs, by that op's duration."""
        now = [0.0]
        monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])

        def execute(op):
            now[0] += durations[op.name]
            return workloads.Outcome("ok", durations[op.name], 1)
        return execute

    def test_runs_each_op_once_even_past_the_deadline(self, monkeypatch):
        ops = [workloads.Op("a", None), workloads.Op("b", None)]
        execute = self._fake(monkeypatch, {"a": 3.0, "b": 3.0})
        times = run.measure(ops, 1.0, run.Ledger(workloads.nonconvergence_checks), execute)
        assert times == {"a": [3.0], "b": [3.0]}

    def test_stops_before_an_op_that_would_end_past_the_deadline(self, monkeypatch):
        ops = [workloads.Op("a", None), workloads.Op("b", None)]
        execute = self._fake(monkeypatch, {"a": 1.0, "b": 4.0})
        times = run.measure(ops, 11.0, run.Ledger(workloads.nonconvergence_checks), execute)
        # a b a b = 10 s; a third `a` ends on the 11 s deadline, a third `b` after it
        assert times == {"a": [1.0, 1.0, 1.0], "b": [4.0, 4.0]}

    def test_traced_passes_stop_before_a_pass_past_the_deadline(self, monkeypatch):
        ops = [workloads.Op("a", None), workloads.Op("b", None)]
        execute = self._fake(monkeypatch, {"a": 1.0, "b": 2.0})
        ledger = run.Ledger(workloads.nonconvergence_checks)
        assert run.traced_passes(ops, 7.0, ledger, execute, Tracer()) == [3.0, 3.0]
        assert run.traced_passes(ops, 1.0, ledger, execute, Tracer()) == [3.0]


class TestFailureAccounting:
    @pytest.fixture
    def instance(self):
        sp = measures.integer_grid(50)
        r = measures.polynomial_measure(sp, 2.0)
        m, _ = erot.costs.build_cost({"family": "bounded", "p": 1}, sp, sp, 0.1)
        return r, m

    def test_forced_nonconvergence_is_recorded_not_fatal(self, instance):
        r, m = instance
        cfg = sinkhorn.SolveConfig(tol=1e-10, max_iter=3)
        op = workloads.Op("tiny_cap", lambda: sinkhorn.solve(r, r, m, 0.1, cfg),
                          lambda sol, first: workloads.solver_checks(sol, r, r), max_iter=3)
        ok = workloads.Op("ok", lambda: 1, lambda res, first: [("one", res == 1, "")])
        ledger = run.Ledger(workloads.nonconvergence_checks)
        for o in (op, ok):
            ledger.record(o, workloads.execute(o))
        assert ledger.attempted == 2
        assert ledger.failed == 0
        (nc,) = ledger.nonconverged
        assert nc["op"] == "tiny_cap" and nc["iterations"] == 3
        assert nc["residual"] > 0 and nc["seconds"] > 0
        assert ledger.failed_share == pytest.approx(0.5)

    def test_nonconvergence_without_a_cap_is_a_failure(self, instance):
        r, m = instance
        cfg = sinkhorn.SolveConfig(tol=1e-10, max_iter=3)
        op = workloads.Op("uncapped", lambda: sinkhorn.solve(r, r, m, 0.1, cfg))
        ledger = run.Ledger(workloads.nonconvergence_checks)
        ledger.record(op, workloads.execute(op))
        assert ledger.failed == 1 and not ledger.nonconverged
        assert ledger.failed_share == 1.0

    def test_failed_check_fails_the_op(self):
        op = workloads.Op("bad", lambda: 2, lambda res, first: [("is_one", res == 1, str(res))])
        ledger = run.Ledger(workloads.nonconvergence_checks)
        ledger.record(op, workloads.execute(op))
        assert ledger.failed == 1
        assert ledger.checks["is_one"] == [0, 1, "bad: 2", "bad: 2"]

    @pytest.mark.parametrize("in_process", [True, False])
    def test_cli_exit_2_on_malformed_input(self, tmp_path, in_process):
        ctx = workloads.Ctx(seed=3, workdir=tmp_path, src=ROOT / "src")
        state = workloads.setup_cli_roundtrip(ctx)
        (state["inputs"] / "r.json").write_text("{not json")
        ops = {o.name: o for o in workloads.ops_cli_roundtrip(state, in_process=in_process)}
        ledger = run.Ledger(workloads.nonconvergence_checks)
        out = workloads.execute(ops["divergence"])
        ledger.record(ops["divergence"], out)
        assert out.status == "failed" and out.error.startswith("CliFailed: exit 2")
        assert ledger.failed == 1 and ledger.failed_share == 1.0
