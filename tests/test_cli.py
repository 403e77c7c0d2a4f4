import ast
import dataclasses
import gc
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erot
import erot.cli
from erot.cli import MC_CLT_KEYS, VANISHING_LAMBDA_KEYS, _attr, main
from erot.resampling import ExperimentConfig, bootstrap_plan_functional, vanishing_lambda_experiment


@pytest.fixture
def instance(tmp_path):
    r = {"labels": ["a0", "a1", "a2"], "weights": [0.2, 0.3, 0.5],
         "coords": [0.0, 1.0, 2.0], "tail": {"kind": "finite"}}
    s = {"labels": ["a0", "a1", "a2"], "weights": [0.5, 0.25, 0.25],
         "coords": [0.0, 1.0, 2.0], "tail": {"kind": "finite"}}
    cost = {"family": "bounded", "p": 1}
    paths = {}
    for name, obj in (("r", r), ("s", s), ("cost", cost)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths, tmp_path


def _base(paths, *extra):
    return ["--r", paths["r"], "--s", paths["s"], "--cost", paths["cost"], *extra]


class TestSolve:
    def test_happy_path(self, instance):
        paths, tmp = instance
        out = tmp / "sol.json"
        code = main(["solve", *_base(paths, "--lambda", "1.0", "--out", str(out))])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["lambda"] == 1.0
        assert payload["value"] == pytest.approx(
            payload["sinkhorn_cost"] + payload["mutual_info"], abs=1e-9
        )
        assert len(payload["alpha"]) == 3
        manifest = json.loads((tmp / "sol.manifest.json").read_text())
        assert manifest["subcommand"] == "solve"
        assert len(manifest["input_digests"]) == 3
        assert str(out) in manifest["artifacts"]

    def test_missing_lambda_exit_2(self, instance, capsys):
        paths, tmp = instance
        code = main(["solve", *_base(paths, "--out", str(tmp / "x.json"))])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigParse"
        assert "--lambda" in err["message"]

    def test_env_var_fallback(self, instance, monkeypatch):
        paths, tmp = instance
        out = tmp / "env.json"
        monkeypatch.setenv("EROT_LAMBDA", "2.0")
        assert main(["solve", *_base(paths, "--out", str(out))]) == 0
        assert json.loads(out.read_text())["lambda"] == 2.0

    def test_flag_beats_env(self, instance, monkeypatch):
        paths, tmp = instance
        out = tmp / "flag.json"
        monkeypatch.setenv("EROT_LAMBDA", "2.0")
        main(["solve", *_base(paths, "--lambda", "0.5", "--out", str(out))])
        assert json.loads(out.read_text())["lambda"] == 0.5

    def test_nonconvergence_exit_3(self, instance, capsys):
        paths, tmp = instance
        code = main(["solve", *_base(
            paths, "--lambda", "0.05", "--tol", "1e-15",
            "--max-iter", "2", "--out", str(tmp / "n.json"))])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "NonConvergence"
        assert err["iterations"] == 2
        assert isinstance(err["residual"], float) and err["residual"] > 1e-15

    def test_nonconvergence_without_sweeps_has_null_residual(self, instance, capsys):
        paths, tmp = instance
        code = main(["solve", *_base(
            paths, "--lambda", "1", "--max-iter", "0", "--out", str(tmp / "n.json"))])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1],
                         parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert err["iterations"] == 0
        assert err["residual"] is None



@pytest.mark.parametrize("extra, message", [
    (["--lambda", "1", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["--lambda", "1", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["--lambda", "abc"], "bad value for --lambda: abc"),
    (["--lambda", "1", "--normalization", "balanced"],
     "unrecognized arguments: --normalization balanced"),
])
def test_usage_errors_are_config_parse(instance, capsys, extra, message):
    paths, tmp = instance
    code = main(["solve", *_base(paths, *extra, "--out", str(tmp / "u.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": message}


def test_manifest_records_resolved_config_and_inputs(instance, monkeypatch):
    paths, tmp = instance
    monkeypatch.setenv("EROT_LAMBDA", "2")
    monkeypatch.setenv("EROT_R", paths["r"])
    out = tmp / "m.json"
    assert main(["solve", "--s", paths["s"], "--cost", paths["cost"],
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp / "m.manifest.json").read_text())
    assert manifest["config"]["lambda"] == 2.0
    assert manifest["config"]["r"] == paths["r"]
    assert paths["r"] in manifest["input_digests"]
    assert manifest["seed"] is None and manifest["seed_used"] is False
    fns = tmp / "fns.json"
    fns.write_text(json.dumps([np.eye(3).tolist()]))
    out = tmp / "c.json"
    assert main(["plan-cov", "--s", paths["s"], "--cost", paths["cost"],
                 "--functions", str(fns), "--out", str(out)]) == 0
    digests = json.loads((tmp / "c.manifest.json").read_text())["input_digests"]
    assert set(digests) == {paths["r"], paths["s"], paths["cost"], str(fns)}

def test_no_subcommand_exit_2(capsys):
    assert main([]) == 2
    assert "ConfigParse" in capsys.readouterr().err


def test_divergence_and_bounds(instance):
    paths, tmp = instance
    out_d = tmp / "div.json"
    assert main(["divergence", *_base(paths, "--lambda", "1", "--out", str(out_d))]) == 0
    assert json.loads(out_d.read_text())["divergence"] > 0
    out_b = tmp / "bounds.json"
    assert main(["bounds", *_base(paths, "--lambda", "1", "--out", str(out_b))]) == 0
    assert json.loads(out_b.read_text())["max"] <= 1e-7


class TestCheckConditions:
    def test_value_pass(self, instance):
        paths, tmp = instance
        out = tmp / "cond.json"
        code = main(["check-conditions", *_base(
            paths, "--lambda", "1", "--theorem", "value", "--out", str(out))])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "Pass"

    def test_plan_fail_on_unbounded_family(self, tmp_path):
        n = 12
        r = {"labels": [f"a{i}" for i in range(n)],
             "weights": list(np.full(n, 1 / n) * 0 + np.array([2.0 ** -(i + 1) for i in range(n)]) / sum(2.0 ** -(i + 1) for i in range(n))),
             "coords": list(map(float, range(n))),
             "tail": {"kind": "geometric", "q": 0.5}}
        cost = {"family": "metric_power", "p": 2, "anchor": 0.0, "setting": "unbounded"}
        pr = tmp_path / "r.json"
        pc = tmp_path / "c.json"
        pr.write_text(json.dumps(r))
        pc.write_text(json.dumps(cost))
        out = tmp_path / "cond.json"
        code = main(["check-conditions", "--r", str(pr), "--s", str(pr),
                     "--cost", str(pc), "--lambda", "1", "--theorem", "plan",
                     "--out", str(out)])
        assert code == 0
        assert _strict_json(out.read_text())["verdict"] == "Fail"

    @pytest.mark.parametrize("theorem", ["value", "plan"])
    def test_infinite_cost_sums_diverge_and_write_null(self, tmp_path, theorem):
        # a forbidden cell makes C_X infinite at its row: on a finite support
        # that sum diverges, and its partial sum is written as null
        paths = _write_instance(tmp_path, _INF_R, _INF_R, _INF_COST)
        out = tmp_path / "cond.json"
        assert main(["check-conditions", *_base(
            paths, "--lambda", "1", "--theorem", theorem, "--out", str(out))]) == 0
        payload = _strict_json(out.read_text())
        assert payload["verdict"] == "Fail"
        sums = {c["description"]: c for c in payload["sums"]}
        assert sums["sum C_X sqrt(r)"]["partial_sum"] is None
        assert sums["sum C_X sqrt(r)"]["verdict"] == "diverges"
        if theorem == "plan":
            assert sums["sup |cX+ - cX-|"]["partial_sum"] is None
        finite = [c for c in payload["sums"] if c["partial_sum"] is not None]
        assert finite and all(c["verdict"] == "converges" for c in finite)

    def test_value_one_sample_s_lists_fixed_r_sums(self, tmp_path):
        n = 30
        w_r = np.arange(1, n + 1, dtype=float) ** -1.5
        w_s = 0.5 ** np.arange(n)
        paths = {}
        for name, w, tail in (("r", w_r, {"kind": "polynomial", "a": 1.5}),
                              ("s", w_s, {"kind": "geometric", "q": 0.5})):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps({"labels": list(range(n)), "weights": list(w / w.sum()),
                                     "tail": tail}))
            paths[name] = str(p)
        (tmp_path / "cost.json").write_text(json.dumps({"family": "bounded", "p": 1}))
        paths["cost"] = str(tmp_path / "cost.json")
        verdicts = {}
        for mode in ("one_sample_s", "one_sample_r"):
            out = tmp_path / f"{mode}.json"
            assert main(["check-conditions", *_base(
                paths, "--lambda", "1", "--theorem", "value", "--mode", mode,
                "--out", str(out))]) == 0
            payload = json.loads(out.read_text())
            verdicts[mode] = payload["verdict"]
            names = [c["description"] for c in payload["sums"]]
            if mode == "one_sample_s":
                assert names[:3] == ["sum Ct_X r", "sum C_X r", "sum et_X r"]
        assert verdicts == {"one_sample_s": "Pass", "one_sample_r": "Fail"}

    def test_unknown_theorem_exit_2(self, instance, capsys):
        paths, tmp = instance
        code = main(["check-conditions", *_base(
            paths, "--lambda", "1", "--theorem", "spectral",
            "--out", str(tmp / "x.json"))])
        assert code == 2
        assert "ConfigParse" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, extra", [
    ("variance", []),
    ("plan-cov", ["--functions", "fns.json"]),
    ("check-conditions", ["--theorem", "value"]),
])
def test_unknown_mode_is_config_parse(instance, capsys, monkeypatch, subcommand, extra):
    paths, tmp = instance
    (tmp / "fns.json").write_text(json.dumps([np.ones((3, 3)).tolist()]))
    monkeypatch.chdir(tmp)
    code = main([subcommand, *_base(paths, "--lambda", "1", "--mode", "bogus", *extra,
                                    "--out", str(tmp / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": "unknown sampling mode 'bogus'"}


@pytest.mark.parametrize("subcommand, extra, cost, message", [
    ("variance", ["--lambda", "1", "--mode", "one_sample"], None,
     "unknown sampling mode 'one_sample'"),
    ("check-conditions", ["--lambda", "1", "--theorem", "value", "--mode", "one_sample"], None,
     "unknown sampling mode 'one_sample'"),
    ("solve", ["--lambda", "1"], {"family": "norm_power", "p": 1, "anchor": 0.0},
     "unknown cost family 'norm_power'"),
    ("bootstrap", ["--lambda", "1", "--n", "50", "--threads", "2"], None,
     "unrecognized arguments: --threads 2"),
    ("mc-clt", ["--config", "mc.json", "--threads", "2"], None,
     "unrecognized arguments: --threads 2"),
    ("vanishing-lambda", ["--config", "vl.json", "--threads", "2"], None,
     "unrecognized arguments: --threads 2"),
    ("variance", ["--lambda", "1", "--delta", "0.3"], None,
     "delta is read only by mode 'two_sample', not by 'one_sample_r'"),
    ("plan-cov", ["--lambda", "1", "--functions", "fns.json", "--mode", "one_sample_s",
                  "--delta", "0.3"], None,
     "delta is read only by mode 'two_sample', not by 'one_sample_s'"),
], ids=["mode-one_sample", "conditions-one_sample", "norm_power", "bootstrap-threads",
        "mc-clt-threads", "vanishing-lambda-threads", "variance-delta", "plan-cov-delta"])
def test_retired_spellings_and_unread_values_exit_2(instance, capsys, monkeypatch, subcommand,
                                                    extra, cost, message):
    # one spelling per setting: the alias mode, the alias cost family and the
    # --threads flag are gone, and a delta that no design reads is refused
    paths, tmp = instance
    monkeypatch.chdir(tmp)
    (tmp / "fns.json").write_text(json.dumps([np.eye(3).tolist()]))
    (tmp / "mc.json").write_text(json.dumps({"n": 50, "replications": 2}))
    (tmp / "vl.json").write_text(json.dumps({"sample_sizes": [50], "replications": 2}))
    if cost is not None:
        (tmp / "cost.json").write_text(json.dumps(cost))
    code = main([subcommand, *_base(paths, *extra, "--out", str(tmp / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    error = "InvalidFamilyParams" if cost is not None else "ConfigParse"
    assert err == {"error": error, "message": message}
    assert not (tmp / "x.json").exists()


def test_variance_and_plan_cov(instance):
    paths, tmp = instance
    out_v = tmp / "var.json"
    assert main(["variance", *_base(paths, "--lambda", "1", "--out", str(out_v))]) == 0
    payload = json.loads(out_v.read_text())
    assert payload["sigma2_value"] > 0
    assert payload["sigma_tilde2_cost"] > 0
    assert payload["sigma2_divergence"] > 0
    fns = tmp / "fns.json"
    fns.write_text(json.dumps([np.eye(3).tolist()]))
    out_c = tmp / "cov.json"
    assert main(["plan-cov", *_base(
        paths, "--lambda", "1", "--functions", str(fns), "--out", str(out_c))]) == 0
    cov = json.loads(out_c.read_text())
    assert cov["n_functions"] == 1
    assert 0 < cov["contraction_norm"] < 1


def test_derivative_check_slopes(instance):
    paths, tmp = instance
    out = tmp / "deriv.json"
    code = main(["derivative-check", *_base(
        paths, "--lambda", "1", "--seed", "0", "--out", str(out))])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["plan_slope"] >= 0.9
    assert payload["value_slope"] >= 0.9


def test_schur_min_eig_reported(instance):
    paths, tmp = instance
    fns = tmp / "fns.json"
    fns.write_text(json.dumps([np.eye(3).tolist()]))
    for sub, extra in (("plan-cov", ["--functions", str(fns)]), ("derivative-check", [])):
        out = tmp / f"{sub}.json"
        assert main([sub, *_base(paths, "--lambda", "1", *extra, "--out", str(out))]) == 0
        assert 0 < json.loads(out.read_text())["schur_min_eig"] <= 1


class TestStochasticCommands:
    def test_bootstrap_deterministic(self, instance):
        paths, tmp = instance
        csvs = []
        for name in ("b1.json", "b2.json"):
            out = tmp / name
            code = main(["bootstrap", *_base(
                paths, "--lambda", "1", "--n", "100", "--B", "20",
                "--seed", "11", "--out", str(out))])
            assert code == 0
            csvs.append(out.with_suffix(".draws.csv").read_bytes())
        assert csvs[0] == csvs[1]
        manifest = json.loads((tmp / "b1.manifest.json").read_text())
        assert manifest["seed_used"] is True
        assert manifest["seed"] == 11

    def test_mc_clt_from_config(self, instance):
        paths, tmp = instance
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(
            {"statistic": "ValueCLT", "n": 200, "replications": 8, "seed": 3}
        ))
        out = tmp / "mc.json"
        code = main(["mc-clt", *_base(
            paths, "--lambda", "1", "--config", str(cfg), "--out", str(out))])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["replications"] == 8
        assert "runtime" not in payload  # timing lives in the manifest only
        manifest = json.loads((tmp / "mc.manifest.json").read_text())
        assert manifest["runtime"] > 0

    def test_mc_clt_writes_a_failed_condition_verdict(self, tmp_path):
        # a polynomial(2) tail fails the sampled side's sum C_X sqrt(r): the
        # run goes ahead, and the verdict is in the payload
        sp = erot.integer_grid(20)
        r, s = erot.polynomial_measure(sp, 2.0), erot.geometric_measure(sp, 0.5)
        files = [{"labels": list(range(20)), "weights": r.weights.tolist(),
                  "tail": {"kind": "polynomial", "a": 2}},
                 {"labels": list(range(20)), "weights": s.weights.tolist(),
                  "tail": {"kind": "geometric", "q": 0.5}}]
        paths = _write_instance(tmp_path, *files, {"family": "bounded", "p": 1})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "replications": 2, "seed": 0}))
        out = tmp_path / "mc.json"
        assert main(["mc-clt", *_base(paths, "--config", str(cfg), "--out", str(out))]) == 0
        conditions = json.loads(out.read_text())["conditions"]
        assert conditions["verdict"] == "Fail"
        first = conditions["sums"][0]
        assert (first["description"], first["verdict"]) == ("sum C_X sqrt(r)", "diverges")

    def test_mc_clt_honours_max_iter(self, instance, capsys):
        paths, tmp = instance
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"n": 200, "replications": 2, "seed": 3}))
        code = main(["mc-clt", *_base(paths, "--config", str(cfg), "--max-iter", "0",
                                      "--out", str(tmp / "mc.json"))])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "NonConvergence"
        assert err["iterations"] == 0

    def test_vanishing_lambda_manifest_seed_from_flag(self, instance):
        paths, tmp = instance
        cfg = tmp / "vl.json"
        cfg.write_text(json.dumps({"sample_sizes": [50, 100], "replications": 2}))
        out = tmp / "vl_out.json"
        code = main(["vanishing-lambda", *_base(
            paths, "--config", str(cfg), "--seed", "5", "--out", str(out))])
        assert code == 0
        manifest = json.loads((tmp / "vl_out.manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_ot_exact_with_gap(self, instance):
        paths, tmp = instance
        out = tmp / "ot.json"
        code = main(["ot-exact", *_base(paths, "--lambdas", "1,0.1", "--out", str(out))])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["gap_report"]["chain_holds"] is True
        assert isinstance(payload["unique_potentials"], bool)


def _write_instance(tmp_path, r, s, cost):
    """Write the three instance files; their paths, as _base takes them."""
    paths = {}
    for name, obj in (("r", r), ("s", s), ("cost", cost)):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    return paths


_NAN_R = {"labels": ["a0", "a1", "a2"], "weights": [math.nan, 0.5, 0.5],
          "coords": [0.0, 1.0, 2.0]}
_OK_S = {"labels": ["a0", "a1", "a2"], "weights": [0.5, 0.25, 0.25],
         "coords": [0.0, 1.0, 2.0]}


@pytest.mark.parametrize("r, cost, error, message", [
    (_NAN_R, {"family": "bounded", "p": 1}, "MassMismatch", "atom 'a0' has weight nan"),
    (_OK_S, {"family": "bounded", "cost": [[0, 1, 2], [1, 0, math.nan], [2, 1, 0]]},
     "InvalidFamilyParams", "finite cost entries"),
    (_OK_S, {"family": "custom", "cost": [[0, 1, 2], [1, 0, math.nan], [2, 1, 0]]},
     "InvalidFamilyParams", "NaN entries"),
    (_OK_S, {"family": "custom", "cost": [[0, 1, 2], [1, 0, -math.inf], [2, 1, 0]]},
     "InvalidFamilyParams", "-inf entries"),
], ids=["nan_weight", "bounded_nan_cost", "custom_nan_cost", "custom_neg_inf_cost"])
def test_non_finite_input_exit_2(tmp_path, capsys, r, cost, error, message):
    paths = _write_instance(tmp_path, r, _OK_S, cost)
    code = main(["solve", *_base(paths, "--lambda", "1", "--out", str(tmp_path / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error and message in err["message"]
    assert not (tmp_path / "x.json").exists()


_INF_COST = {"family": "custom", "cost": [[0, 1, 2], [1, 0, math.inf], [2, 1, 0]]}
_INF_R = {"labels": ["a0", "a1", "a2"], "weights": [0.2, 0.3, 0.5]}


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in the output")
    return json.loads(text, parse_constant=refuse)


def test_solve_with_a_forbidden_cell_writes_finite_numbers(tmp_path):
    paths = _write_instance(tmp_path, _INF_R, _INF_R, _INF_COST)
    out = tmp_path / "sol.json"
    assert main(["solve", *_base(paths, "--lambda", "1", "--out", str(out))]) == 0
    payload = _strict_json(out.read_text())
    assert payload["sinkhorn_cost"] == pytest.approx(0.30338149922992225, rel=1e-12)
    assert payload["mutual_info"] == pytest.approx(0.4437128745338304, rel=1e-12)


def test_variance_with_a_forbidden_cell_writes_null_cost_variance(tmp_path):
    # unbounded X-variation rules out the plan derivative, not the value's variance
    paths = _write_instance(tmp_path, _INF_R, _INF_R, _INF_COST)
    out = tmp_path / "var.json"
    assert main(["variance", *_base(paths, "--lambda", "1", "--out", str(out))]) == 0
    payload = _strict_json(out.read_text())
    assert payload["sigma_tilde2_cost"] is None
    r = erot.validate_measure(_INF_R["weights"], erot.IndexedSpace(tuple(_INF_R["labels"])))
    m, _ = erot.build_cost(_INF_COST, r.space, r.space, 1.0)
    expected = erot.value_variance(erot.solve(r, r, m, 1.0), r, r)
    assert payload["sigma2_value"] == pytest.approx(expected, rel=1e-12)


def test_ot_exact_with_a_forbidden_cell_exit_2(tmp_path, capsys):
    paths = _write_instance(tmp_path, _INF_R, _INF_R, _INF_COST)
    code = main(["ot-exact", *_base(paths, "--out", str(tmp_path / "ot.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidFamilyParams" and "finite costs" in err["message"]
    assert not (tmp_path / "ot.json").exists()


_CUT_OFF_ROW = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [math.inf] * 4]


@pytest.mark.parametrize("cost, weights, message, other", [
    (_CUT_OFF_ROW, [0.4, 0.3, 0.3, 0.0], "atom 3 has cost +inf wherever s has mass", "s"),
    (_CUT_OFF_ROW, [0.4, 0.3, 0.2, 0.1], "atom 3 has cost +inf wherever s has mass", "s"),
    (np.transpose(_CUT_OFF_ROW).tolist(), [0.4, 0.3, 0.2, 0.1],
     "atom 3 has cost +inf wherever r has mass", "r"),
], ids=["row-without-mass", "row-with-mass", "column-with-mass"])
def test_solve_refuses_an_atom_cut_off_by_infinite_costs(tmp_path, capsys, cost, weights,
                                                          message, other):
    # the potential of such an atom is +inf: it used to spread NaN through the
    # gauge shift, or to keep the iteration from converging
    measure = {"labels": [0, 1, 2, 3], "weights": weights}
    paths = _write_instance(tmp_path, measure, measure, {"family": "custom", "cost": cost})
    out = tmp_path / "sol.json"
    code = main(["solve", *_base(paths, "--lambda", "1", "--max-iter", "50",
                                 "--out", str(out))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "InvalidFamilyParams", "message": message, "atom": 3, "other": other}
    assert not out.exists()


@pytest.mark.parametrize("name, text", [
    ("f.json", "3"),
    ("f.json", json.dumps({"functions": [np.eye(3).tolist()]})),
    ("f.json", json.dumps([[[1, 0, 0], [0, "x", 0], [0, 0, 1]]])),
    ("f.json", "[[[1, 0, 0], [0, null, 0], [0, 0, 1]]]"),
    ("f.json", json.dumps([np.eye(2).tolist()])),
    ("f.csv", "1,0,0\n0,x,0\n0,0,1\n"),
    ("missing.csv", None),
], ids=["json-number", "json-object", "json-non-number", "json-null", "json-wrong-shape",
        "csv-non-number", "csv-missing"])
def test_malformed_function_file_is_config_parse_naming_it(instance, capsys, name, text):
    paths, tmp = instance
    fns = tmp / name
    if text is not None:
        fns.write_text(text)
    code = main(["plan-cov", *_base(paths, "--lambda", "1", "--functions", str(fns),
                                    "--out", str(tmp / "c.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigParse" and str(fns) in err["message"]


def test_ot_exact_keeps_every_atom_of_a_long_tail(tmp_path):
    # geometric(0.7) against polynomial(3) on 200 atoms: weights down to 4e-32
    sp = erot.integer_grid(200)
    r, s = erot.geometric_measure(sp, 0.7), erot.polynomial_measure(sp, 3.0)
    files = [{"labels": list(sp.labels), "weights": w.weights.tolist(),
              "coords": list(range(200))} for w in (r, s)]
    paths = _write_instance(tmp_path, *files, {"family": "bounded", "p": 1})
    out = tmp_path / "ot.json"
    assert main(["ot-exact", *_base(paths, "--out", str(out))]) == 0
    payload = json.loads(out.read_text())
    w1 = float(np.abs(np.cumsum(r.weights) - np.cumsum(s.weights))[:-1].sum())
    assert payload["value"] == pytest.approx(w1, rel=1e-12)


def test_ot_exact_pivot_cap_exit_3(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(7)
    files = [{"labels": list(range(5)), "weights": rng.dirichlet(np.ones(5)).tolist()}
             for _ in range(2)]
    cost = {"family": "bounded", "cost": rng.uniform(0, 1, (5, 5)).tolist()}
    paths = _write_instance(tmp_path, *files, cost)
    monkeypatch.setattr(erot.sinkhorn, "EXACT_MAX_PIVOTS", 1)
    code = main(["ot-exact", *_base(paths, "--out", str(tmp_path / "ot.json"))])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert list(err) == ["error", "message", "iterations", "residual"]
    assert err["error"] == "NonConvergence"
    assert err["iterations"] == 1 and err["residual"] < 0


def test_ot_exact_marginal_mismatch_writes_its_fields(tmp_path, capsys, monkeypatch):
    # every attribute of the exception reaches the exit-2 line, numpy
    # scalars as Python numbers
    rng = np.random.default_rng(7)
    files = [{"labels": list(range(5)), "weights": rng.dirichlet(np.ones(5)).tolist()}
             for _ in range(2)]
    cost = {"family": "bounded", "cost": rng.uniform(0, 1, (5, 5)).tolist()}
    paths = _write_instance(tmp_path, *files, cost)
    solver = erot.sinkhorn._network_simplex

    def lose_last_row(a, b, c):
        plan, alpha, beta, value = solver(a, b, c)
        plan[-1] = 0.0
        return plan, alpha, beta, value

    monkeypatch.setattr(erot.sinkhorn, "_network_simplex", lose_last_row)
    code = main(["ot-exact", *_base(paths, "--out", str(tmp_path / "ot.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert list(err) == ["error", "message", "relative_error", "atom", "weight"]
    assert err["error"] == "MarginalMismatch"
    assert err["relative_error"] == pytest.approx(1.0)
    assert err["atom"] == 4 and err["weight"] == files[0]["weights"][4]


def _child_env():
    # a child turns every warning into an error: a -W module field cannot name
    # the erot modules of a `python -m erot.cli` child, so the rule covers all
    src = str(Path(erot.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "PYTHONWARNINGS": "error"}


def _run_process(argv):
    """`python -m erot.cli argv` in a child process."""
    return subprocess.run([sys.executable, "-m", "erot.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)


class TestProcessEntry:
    def test_success_matches_in_process_run(self, instance):
        paths, tmp = instance
        out = tmp / "sol.json"
        argv = ["solve", *_base(paths, "--lambda", "1", "--out", str(out))]
        assert _run_process(argv).returncode == 0
        written = [p.read_bytes() for p in (out, tmp / "sol.manifest.json")]
        assert main(argv) == 0
        assert [p.read_bytes() for p in (out, tmp / "sol.manifest.json")] == written

    def test_config_parse_exit_2(self, instance):
        paths, tmp = instance
        proc = _run_process(["solve", *_base(paths, "--lambda", "abc",
                                             "--out", str(tmp / "x.json"))])
        assert proc.returncode == 2
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err == {"error": "ConfigParse", "message": "bad value for --lambda: abc"}

    def test_capped_nonconvergence_exit_3(self, instance):
        paths, tmp = instance
        proc = _run_process(["solve", *_base(paths, "--lambda", "0.05", "--tol", "1e-15",
                                             "--max-iter", "2", "--out", str(tmp / "n.json"))])
        assert proc.returncode == 3
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["error"] == "NonConvergence" and err["iterations"] == 2

    def test_in_process_main_never_freezes(self, instance):
        paths, tmp = instance
        before = gc.get_freeze_count()
        assert main(["solve", *_base(paths, "--lambda", "1", "--out", str(tmp / "s.json"))]) == 0
        assert main(["solve", *_base(paths, "--out", str(tmp / "s.json"))]) == 2
        assert gc.get_freeze_count() == before

    def test_console_script_runs_the_main_block_entry(self):
        # pyproject's `erot` script and `python -m erot.cli` share one entry
        tomllib = pytest.importorskip("tomllib")
        root = Path(erot.__file__).resolve().parents[2]
        with (root / "pyproject.toml").open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["erot"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        tree = ast.parse(Path(erot.cli.__file__).read_text())
        block = [node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert len(block) == 1
        (stmt,) = block[0].body
        assert inspect.isfunction(entry)
        assert getattr(erot.cli, stmt.value.func.id) is entry


def test_import_leaves_stats_and_optimize_unloaded():
    # process start-up: scipy.stats and scipy.optimize are imported inside
    # the functions that use them, not when the CLI module loads
    code = ("import sys, erot.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize', 'concurrent.futures') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("subcommand, extra, config, message", [
    ("derivative-check", ["--lambda", "1", "--ts", "1e-2,x"], None,
     "bad value for --ts: 1e-2,x"),
    ("ot-exact", ["--lambdas", "1,x"], None, "bad value for --lambdas: 1,x"),
    ("mc-clt", [], {"n": "abc", "replications": 2}, "bad value for 'n' in {config}: abc"),
    ("vanishing-lambda", [], [50, 100], "experiment file {config} must hold a JSON object"),
    ("vanishing-lambda", [], {"sample_sizes": 100},
     "bad value for 'sample_sizes' in {config}: 100"),
    ("vanishing-lambda", [], {"sample_sizes": ["a"]},
     "bad value for 'sample_sizes' in {config}: ['a']"),
    ("vanishing-lambda", [], {"sample_sizes": [1.5]},
     "bad value for 'sample_sizes' in {config}: [1.5]"),
    ("vanishing-lambda", [], {"sample_sizes": [0]},
     "sample_sizes must be a non-empty list of sizes >= 2"),
    ("vanishing-lambda", [], {"sample_sizes": []},
     "sample_sizes must be a non-empty list of sizes >= 2"),
    ("vanishing-lambda", [], {"replications": 0}, "replications must be >= 1"),
    ("mc-clt", [], {"statistic": "ValueCLTT"}, "unknown statistic 'ValueCLTT'"),
    ("vanishing-lambda", [], {"sample_sizes": [50, 100], "lambda_coef": 0},
     "lambda_coef must be positive and finite"),
    ("vanishing-lambda", [], {"sample_sizes": [50, 100], "lambda_coef": -1},
     "lambda_coef must be positive and finite"),
    ("vanishing-lambda", [], {"lambda_exponent": float("inf")}, "lambda_exponent must be finite"),
    ("vanishing-lambda", [], {"sample_sizes": [100, 400], "replications": 2,
                              "lambda_exponent": 200},
     "the schedule lambda_coef * n**lambda_exponent must be positive and finite; "
     "it is inf at n = 100"),
    ("mc-clt", [], {"statistic": "PlanFunctionalCLT", "f": [[1, 2], [3]]},
     "bad value for 'f' in {config}: [[1, 2], [3]]"),
    ("mc-clt", [], {"statistic": "PlanFunctionalCLT", "f": [[1, 0], [0, 1]]},
     "PlanFunctionalCLT needs a test table f of shape (3, 3)"),
    ("mc-clt", [], {"statistic": "PlanFunctionalCLT"},
     "PlanFunctionalCLT needs a test table f of shape (3, 3)"),
    ("mc-clt", [], {"statistic": "ValueCLT", "n": 100, "replications": 5,
                    "f": [[1.0, 2.0], [3.0, 4.0]]},
     "a test table f is read only by PlanFunctionalCLT, not by ValueCLT"),
    ("mc-clt", [], {"n": float("inf")}, "bad value for 'n' in {config}: inf"),
    ("mc-clt", [], {"statistic": "ValueCLT", "n": 300, "replication": 2000},
     "unknown keys ['replication'] in experiment file {config}; "
     "it takes lambda, seed, statistic, n, m, replications, f"),
    ("vanishing-lambda", [], {"sizes": [50, 100], "lambda": 1},
     "unknown keys ['sizes', 'lambda'] in experiment file {config}; "
     "it takes seed, sample_sizes, lambda_coef, lambda_exponent, replications"),
], ids=["ts", "lambdas", "config-n", "config-list", "sizes-scalar", "sizes-string",
        "sizes-float", "sizes-zero", "sizes-empty", "replications-zero", "statistic",
        "coef-zero", "coef-negative", "exponent-inf", "schedule-overflow", "f-ragged",
        "f-shape", "f-missing", "f-unread", "n-infinite", "mc-clt-unknown-key", "vanishing-lambda-unknown-keys"])
def test_malformed_list_and_config_values_are_config_parse(
        instance, capsys, subcommand, extra, config, message):
    paths, tmp = instance
    cfg = tmp / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
        extra = [*extra, "--config", str(cfg)]
    code = main([subcommand, *_base(paths, *extra, "--out", str(tmp / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": message.format(config=cfg)}


def test_experiment_keys_reach_library_parameters():
    # every key of an experiment file is a parameter of the code it configures
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {_attr(key) for key in MC_CLT_KEYS} <= fields
    params = inspect.signature(vanishing_lambda_experiment).parameters
    assert set(VANISHING_LAMBDA_KEYS) <= set(params)


def test_bootstrap_functions_draws_match_library(instance, capsys):
    paths, tmp = instance
    f = np.arange(9.0).reshape(3, 3)
    fns = tmp / "fns.json"
    fns.write_text(json.dumps([f.tolist()]))
    out = tmp / "bf.json"
    assert main(["bootstrap", *_base(paths, "--lambda", "1", "--n", "80", "--B", "5",
                                     "--seed", "7", "--functions", str(fns),
                                     "--out", str(out))]) == 0
    r, s = erot.io.load_measure(paths["r"]), erot.io.load_measure(paths["s"])
    model, _ = erot.io.load_cost(paths["cost"], r.space, s.space, 1.0)
    ss = np.random.SeedSequence(7).spawn(2)
    sample = np.random.default_rng(ss[0]).choice(3, size=80, p=r.weights)
    want = tmp / "want.csv"
    erot.io.write_draws_csv(
        bootstrap_plan_functional(sample, s, model, 1.0, f, 5, ss[1]), want)
    assert out.with_suffix(".draws.csv").read_bytes() == want.read_bytes()

    fns.write_text(json.dumps([f.tolist(), np.eye(3).tolist()]))
    assert main(["bootstrap", *_base(paths, "--lambda", "1", "--n", "80", "--functions",
                                     str(fns), "--out", str(out))]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse",
                   "message": f"bootstrap takes one function table; {fns} holds 2"}


@pytest.mark.parametrize("tail, message", [
    ("geometric", "'tail' in measure file {path} must hold a JSON object"),
    ({"q": 0.5}, "'tail' in measure file {path} needs 'kind'"),
    ({"kind": "geometric"}, "measure file {path}: geometric tail needs 'q' in (0, 1), not None"),
    ({"kind": "subweibull", "gamma": 1.0},
     "measure file {path}: subweibull tail needs 'theta' in (0, inf), not None"),
    ({"kind": "polynomial", "a": "heavy"},
     "measure file {path}: polynomial tail needs 'a' in (1, inf), not 'heavy'"),
    ({"kind": "geometric", "q": None},
     "measure file {path}: geometric tail needs 'q' in (0, 1), not None"),
    ({"kind": ["geometric"]}, "measure file {path}: unknown tail family ['geometric']"),
    ({"kind": "geometric", "q": 0},
     "measure file {path}: geometric tail needs 'q' in (0, 1), not 0"),
    ({"kind": "geometric", "q": 1.5},
     "measure file {path}: geometric tail needs 'q' in (0, 1), not 1.5"),
    ({"kind": "polynomial", "a": 0.5},
     "measure file {path}: polynomial tail needs 'a' in (1, inf), not 0.5"),
    ({"kind": "polynomial", "a": math.inf},
     "measure file {path}: polynomial tail needs 'a' in (1, inf), not inf"),
    ({"kind": "subweibull", "gamma": -1, "theta": 1},
     "measure file {path}: subweibull tail needs 'gamma' in (0, inf), not -1"),
    ({"kind": "geometric", "q": 0.5, "a": 3}, "measure file {path}: geometric tail takes no 'a'"),
    ({"kind": "finite", "q": 0.5}, "measure file {path}: finite tail takes no 'q'"),
    ({"kind": "geometric", "q": 0.5, "ratio": 0.5},
     "unknown keys ['ratio'] in 'tail' in measure file {path}; "
     "it takes kind, q, a, gamma, theta"),
    ({"kind": "subweibull", "gamma": True, "theta": 1},
     "measure file {path}: subweibull tail needs 'gamma' in (0, inf), not True"),
], ids=["string", "missing-kind", "missing-q", "missing-theta", "non-numeric-a", "null-q", "list-kind",
        "q-zero", "q-above-one", "a-below-one", "a-infinite", "gamma-negative",
        "a-on-geometric", "q-on-finite", "unknown-key", "boolean-gamma"])
def test_malformed_tail_is_config_parse(instance, capsys, tail, message):
    paths, tmp = instance
    bad = tmp / "r_tail.json"
    bad.write_text(json.dumps({"labels": ["a0", "a1", "a2"], "weights": [0.2, 0.3, 0.5],
                               "coords": [0.0, 1.0, 2.0], "tail": tail}))
    code = main(["solve", *_base({**paths, "r": str(bad)}, "--lambda", "1",
                                 "--out", str(tmp / "t.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": message.format(path=bad)}


# an 8-atom instance on [0, 0.7]: the plan theorem's conditions fail with a
# polynomial(1.5) tail and the unbounded metric-power cost, and pass once the
# misspelled "tial" and "settings" leave a finite tail and the semi_bounded default
_COORDS_8 = [i / 10 for i in range(8)]
_WEIGHTS_8 = (np.arange(1, 9.0) ** -1.5 / (np.arange(1, 9.0) ** -1.5).sum()).tolist()
_TABLE_3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
_DOM_3 = {"cX_minus": [0] * 3, "cX_plus": [1] * 3, "cY_minus": [0] * 3, "cY_plus": [1] * 3}


@pytest.mark.parametrize("cost, tail_key, key", [
    ({"family": "custom"}, "tail", "'cost'"),
    ({"family": "custom", "cost": _TABLE_3, "dom": [[0] * 3] * 4}, "tail", "'dom'"),
    ({"family": "custom", "cost": _TABLE_3,
      "dom": {k: v for k, v in _DOM_3.items() if k != "cX_plus"}}, "tail", "'dom'"),
    ({"family": "metric_power", "p": "2", "anchor": 0.0}, "tail", "'p'"),
    ({"family": "metric_power", "p": True, "anchor": 0.0}, "tail", "'p'"),
    ({"family": "separability", "anchor": 0.0, "kappa_max": "1"}, "tail", "'kappa_max'"),
    ({"family": "metric_power", "p": 2, "anchor": 0.0, "settings": "unbounded"}, "tail",
     "'settings'"),
    ({"family": "bounded", "p": 1, "norm_odr": 1}, "tail", "'norm_odr'"),
    ({"family": "bounded", "kind": "discrete", "p": 1}, "tail", "'kind'"),
    ({"family": "bounded", "p": 1}, "tial", "'tial'"),
    ({"family": "metric_power", "p": 2, "anchor": 0.0, "settings": "unbounded"}, "tial",
     "'tial'"),
], ids=["custom-without-cost", "dom-list", "dom-without-cX_plus", "p-string", "p-boolean",
        "kappa_max-string", "settings", "norm_odr", "kind-discrete", "tial", "settings-and-tial"])
def test_malformed_cost_and_measure_keys_exit_2(tmp_path, capsys, cost, tail_key, key):
    # a misspelled or mistyped key exits 2 naming its file, where it used to
    # exit 1 or be ignored; the settings + tial pair used to write "Pass"
    r = {"labels": list(range(8)), "weights": _WEIGHTS_8, "coords": _COORDS_8,
         tail_key: {"kind": "polynomial", "a": 1.5}}
    if cost["family"] == "custom":
        r = {"labels": ["a0", "a1", "a2"], "weights": [0.2, 0.3, 0.5]}
    paths = _write_instance(tmp_path, r, r, cost)
    bad = paths["r"] if tail_key == "tial" else paths["cost"]
    code = main(["check-conditions", *_base(paths, "--lambda", "1", "--theorem", "plan",
                                            "--out", str(tmp_path / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigParse"
    assert bad in err["message"] and key in err["message"], err["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["variance", "--mode", "two_sample"], "two-sample mode needs delta in (0, 1)"),
    (["bootstrap", "--n", "50", "--B", "0"], "B must be >= 1"),
    # a tol or cap that no solve can honour
    *[(["solve", *flags], f"a solve needs a positive, finite tol and max_iter >= 0; got {got}")
      for flags, got in ((["--tol", "-1"], "tol -1.0, max_iter 100000"),
                         (["--tol", "nan"], "tol nan, max_iter 100000"),
                         (["--tol", "inf"], "tol inf, max_iter 100000"),
                         (["--max-iter", "-3"], "tol 1e-10, max_iter -3"))],
    # steps the slope fit cannot use: a zero step divides by zero, a negative
    # one leaves the simplex, and one distinct step fits a line through a point
    *[(["derivative-check", f"--ts={ts}"],
       f"--ts needs two or more distinct, positive, finite steps; got {ts}")
      for ts in ("0,1e-3", "-1e-2,1e-3", "1e-2", "1e-3,1e-3")],
    # the plan theorem is stated for one sample from r, and reads no other mode
    *[(["check-conditions", "--theorem", "plan", "--mode", mode],
       f"--theorem plan takes --mode one_sample_r, not {mode!r}")
      for mode in ("bogus", "two_sample")],
], ids=["two_sample-without-delta", "bootstrap-B-zero", "tol-negative", "tol-nan", "tol-inf",
        "max-iter-negative", "ts-zero", "ts-negative", "ts-one-step", "ts-repeated-step",
        "plan-mode-bogus", "plan-mode-two_sample"])
def test_refused_design_and_replications_are_config_parse(instance, capsys, argv, message):
    paths, tmp = instance
    code = main([*argv, *_base(paths, "--lambda", "1", "--out", str(tmp / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": message}


_COST_5 = [[0, 5, 5], [5, 0, 5], [5, 5, 0]]
_WIDE = {"labels": list(range(513)), "weights": [1 / 513] * 513}
_DISCRETE = {"family": "bounded", "kind": "discrete_metric"}


@pytest.mark.parametrize("subcommand, files, code, error, message", [
    # a family key that the chosen setting does not read
    ("solve", {"cost": {"family": "bounded", "cost": _COST_5, "norm_ord": 3}}, 2,
     "InvalidFamilyParams", "bounded family reads 'norm_ord' only with 'p'"),
    ("solve", {"cost": {"family": "metric_power", "p": 2, "anchor": 0.0, "epsilon": -5,
                        "gamma": -1}}, 2,
     "InvalidFamilyParams", "metric power reads 'epsilon' and 'gamma' only when unbounded"),
    # family parameters out of range or missing
    ("solve", {"cost": {"family": "metric_power", "p": 0.5, "anchor": 0.0}}, 2,
     "InvalidFamilyParams", "metric power needs p >= 1"),
    ("solve", {"cost": {"family": "metric_power", "p": 2}}, 2,
     "InvalidFamilyParams", "metric power needs an anchor point"),
    ("solve", {"cost": {"family": "metric_power", "p": 2, "anchor": 0.0,
                        "setting": "semibounded"}}, 2,
     "InvalidFamilyParams", "unknown metric power setting 'semibounded'"),
    ("solve", {"cost": {"family": "metric_power", "p": 2, "anchor": 0.0,
                        "setting": "unbounded", "epsilon": -1}}, 2,
     "InvalidFamilyParams", "epsilon and gamma must be positive"),
    ("solve", {"cost": {"family": "separability"}}, 2,
     "InvalidFamilyParams", "separability family needs an anchor point"),
    ("solve", {"cost": {"family": "metric_power", "p": 2, "anchor": [0.0, 0.0]}}, 2,
     "InvalidFamilyParams", "anchor dimension does not match coordinates"),
    ("solve", {"cost": {"family": "custom", "cost": _COST_5,
                        "dom": {**_DOM_3, "cX_minus": [1.0] * 3, "cX_plus": [0.0] * 3}}}, 2,
     "InvalidFamilyParams", "dominating functions violate c- <= c+"),
    ("solve", {"cost": {"p": 1}}, 2,
     "ConfigParse", "cost file {cost} must hold a family spec with 'family'"),
    ("ot-exact", {"r": _WIDE, "s": _WIDE, "cost": _DISCRETE}, 2,
     "TooLarge", "exact oracle limited to 512 atoms per side"),
    # the settings read what they take
    ("solve", {"cost": _DISCRETE}, 0, None, None),
    ("solve", {"cost": {"family": "metric_power", "p": 2, "anchor": 0.0,
                        "setting": "unbounded", "epsilon": 1.0, "gamma": 2.0}}, 0, None, None),
], ids=["bounded-norm_ord-without-p", "metric_power-epsilon-gamma-semi_bounded",
        "metric_power-p-below-1", "metric_power-no-anchor", "metric_power-unknown-setting",
        "metric_power-unbounded-negative-epsilon", "separability-no-anchor",
        "anchor-dimension", "custom-dom-crossed", "no-family", "ot-exact-513-atoms",
        "bounded-discrete_metric", "metric_power-unbounded-epsilon-gamma"])
def test_cost_and_size_refusals(instance, capsys, subcommand, files, code, error, message):
    paths, tmp = instance
    for name, obj in files.items():
        paths = {**paths, name: str(tmp / f"{name}_case.json")}
        Path(paths[name]).write_text(json.dumps(obj))
    out = tmp / "x.json"
    lam = ["--lambda", "1"] if subcommand == "solve" else []
    assert main([subcommand, *_base(paths, *lam, "--out", str(out))]) == code
    if code == 0:
        assert out.exists()
        return
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": error, "message": message.format(**paths)}
    assert not out.exists()


@pytest.mark.parametrize("argv, env, source, text", [
    (["bootstrap", "--n", "5_0", "--B", "10"], {}, "--n", "5_0"),
    (["bootstrap", "--n", "50", "--B", "1_0"], {}, "--B", "1_0"),
    (["bootstrap", "--B", "10"], {"EROT_N": "5_0"}, "EROT_N", "5_0"),
    (["solve", "--lambda", "1_0"], {}, "--lambda", "1_0"),
    (["solve", "--tol", "1e-1_0"], {}, "--tol", "1e-1_0"),
    (["solve", "--max-iter", "1_000"], {}, "--max-iter", "1_000"),
    (["variance", "--mode", "two_sample", "--delta", "0.2_5"], {}, "--delta", "0.2_5"),
    (["derivative-check", "--seed", "1_0"], {}, "--seed", "1_0"),
    (["derivative-check", "--ts", "1e-2,1_0e-3"], {}, "--ts", "1e-2,1_0e-3"),
    (["ot-exact", "--lambdas", "1,0_1"], {}, "--lambdas", "1,0_1"),
], ids=["n", "B", "EROT_N", "lambda", "tol", "max-iter", "delta", "seed", "ts", "lambdas"])
def test_numeric_flags_refuse_digit_group_underscores(instance, capsys, monkeypatch, argv, env,
                                                      source, text):
    # Python's int and float take "5_0" as 50; no input file does
    paths, tmp = instance
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    lam = [] if argv[0] == "ot-exact" or "--lambda" in argv else ["--lambda", "1"]
    code = main([*argv, *_base(paths, *lam, "--out", str(tmp / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": f"bad value for {source}: {text}"}
    assert not (tmp / "x.json").exists()


def test_numeric_flags_read_every_other_spelling_as_before(instance, capsys):
    paths, tmp = instance
    written = []
    for lam in ("1", "1.0", "1e0", "+1", " 1 "):
        out = tmp / "x.json"
        assert main(["solve", *_base(paths, "--lambda", lam, "--out", str(out))]) == 0, lam
        written.append(json.loads(out.read_text()))
    assert written == [written[0]] * 5
    # a NaN lambda parses, and the cost builder refuses it
    assert main(["solve", *_base(paths, "--lambda", "nan", "--out", str(tmp / "n.json"))]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidFamilyParams"


@pytest.mark.parametrize("measure, message", [
    ({"labels": ["a", "a", "b"], "weights": [0.2, 0.3, 0.5]},
     "measure file {path}: atom labels must be unique"),
    ({"labels": ["a0", "a1", "a2"], "weights": [0.2, 0.3, 0.5], "coords": [0.0, 1.0]},
     "measure file {path}: one coordinate row per atom required"),
    ({"labels": ["a0", "a1", "a2"], "weights": [0.2, 0.3, 0.5], "coords": 1.0},
     "measure file {path}: one coordinate row per atom required"),
    ({"labels": ["a0", "a1", "a2"]}, "measure file {path} needs 'weights'"),
    ({"weights": [0.2, 0.3, 0.5]}, "measure file {path} needs 'labels'"),
    # a string used to be read as one atom per character
    ({"labels": "abc", "weights": [0.2, 0.3, 0.5]}, "bad value for 'labels' in {path}: abc"),
], ids=["duplicate-labels", "coords-rows", "coords-scalar", "no-weights", "no-labels",
        "labels-string"])
def test_malformed_measure_space_is_config_parse_naming_the_file(instance, capsys, measure,
                                                                  message):
    paths, tmp = instance
    bad = tmp / "r_bad.json"
    bad.write_text(json.dumps(measure))
    code = main(["solve", *_base({**paths, "r": str(bad)}, "--lambda", "1",
                                 "--out", str(tmp / "x.json"))])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ConfigParse", "message": message.format(path=bad)}


def test_cost_and_tail_keys_reach_library_parameters():
    # each family's keys are its builder's keyword parameters, "!" marking
    # exactly those without a default; the tail keys are TailFamily's fields
    for family, (builder, keys) in erot.costs.COST_FAMILIES.items():
        params = {name: p for name, p in inspect.signature(builder).parameters.items()
                  if p.kind is p.KEYWORD_ONLY}
        assert [key.rstrip("!") for key in keys] == list(params), family
        required = [name for name, p in params.items() if p.default is p.empty]
        assert [key[:-1] for key in keys if key.endswith("!")] == required, family
    fields = [f.name for f in dataclasses.fields(erot.TailFamily)]
    assert [key.rstrip("!") for key in erot.io.TAIL_KEYS] == fields


_EYE_3 = np.eye(3).tolist()
_TABLE_3F = [[float(c) for c in row] for row in _TABLE_3]

# every numeric key of every input file kind: (the flag naming the file, its
# valid content, the path to an entry that holds an integral number in it,
# whether the key holds integers); the first item of the path is the key,
# or the table's index in a function file, which messages name by the file
_NUMERIC_KEYS = {
    "measure-weights": ("r", {"labels": ["a0", "a1", "a2"], "weights": [0.5, 0.5, 0.0],
                              "coords": [0.0, 1.0, 2.0]}, ("weights", 2), False),
    "measure-coords": ("r", {"labels": ["a0", "a1", "a2"], "weights": [0.5, 0.5, 0.0],
                             "coords": [0.0, 1.0, 2.0]}, ("coords", 1), False),
    "bounded-cost": ("cost", {"family": "bounded", "cost": _TABLE_3F}, ("cost", 1, 2), False),
    **{f"bounded-{key}": ("cost", {"family": "bounded", "p": 1.0, "norm_ord": 2.0}, (key,),
                          False) for key in ("p", "norm_ord")},
    **{f"metric_power-{key}": ("cost", {"family": "metric_power", "p": 2.0, "anchor": 0.0,
                                        "norm_ord": 2.0, "setting": "unbounded",
                                        "epsilon": 1.0, "gamma": 1.0}, (key,), False)
       for key in ("p", "anchor", "norm_ord", "epsilon", "gamma")},
    **{f"separability-{key}": ("cost", {"family": "separability", "anchor": [0.0],
                                        "norm_ord": 1.0, "kappa_max": 10.0}, path, False)
       for key, path in (("anchor", ("anchor", 0)), ("norm_ord", ("norm_ord",)),
                         ("kappa_max", ("kappa_max",)))},
    "custom-cost": ("cost", {"family": "custom", "cost": _TABLE_3F}, ("cost", 2, 0), False),
    "custom-dom": ("cost", {"family": "custom", "cost": _TABLE_3F,
                            "dom": {**_DOM_3, "cX_plus": [2.0] * 3}}, ("dom", "cX_plus", 1),
                   False),
    "functions": ("functions", [_EYE_3], (0, 1, 1), False),
    **{f"mc-clt-{key}": ("config", {"lambda": 1.0, "seed": 1, "statistic": "PlanFunctionalCLT",
                                    "n": 50, "m": 60, "replications": 2, "f": _EYE_3},
                         (key, 0, 0) if key == "f" else (key,), key not in ("lambda", "f"))
       for key in MC_CLT_KEYS if key != "statistic"},
    **{f"vanishing-lambda-{key}": ("config", {"seed": 1, "sample_sizes": [50, 100],
                                              "lambda_coef": 1.0, "lambda_exponent": -1.0,
                                              "replications": 2},
                                   (key, 1) if key == "sample_sizes" else (key,),
                                   not key.startswith("lambda"))
       for key in VANISHING_LAMBDA_KEYS},
}


def _with(obj, path, value):
    """A deep copy of obj with the entry at path set to value."""
    obj = json.loads(json.dumps(obj))
    *outer, last = path
    inner = obj
    for step in outer:
        inner = inner[step]
    inner[last] = value
    return obj


@pytest.mark.parametrize("case", list(_NUMERIC_KEYS))
def test_every_numeric_key_reads_numbers_only(instance, capsys, case):
    # one rule for every number in a file: a numeric string, a boolean, a null
    # and, where an integer belongs, a non-integral number exit 2 naming the
    # file and the key, while an integer where a float belongs reads to the
    # same bits as the float
    paths, tmp = instance
    flag, content, path, integral = _NUMERIC_KEYS[case]
    value = content
    for step in path:
        value = value[step]
    argv = {"r": ["solve", "--lambda", "1"], "cost": ["solve", "--lambda", "1"],
            "functions": ["plan-cov", "--lambda", "1", "--functions", str(tmp / "fns.json")],
            "config": ["mc-clt" if case.startswith("mc-clt") else "vanishing-lambda",
                       "--config", str(tmp / "cfg.json")]}[flag]
    bad = tmp / {"r": "r_case.json", "cost": "cost_case.json", "functions": "fns.json",
                 "config": "cfg.json"}[flag]
    files = {**paths, flag: str(bad)}

    def run(entry):
        bad.write_text(json.dumps(_with(content, path, entry)))
        return main([argv[0], *_base(files, *argv[1:], "--out", str(tmp / "out.json"))])

    spellings = [value] if integral else [float(value), int(value)]
    written = []
    for entry in spellings:
        assert run(entry) == 0, entry
        written.append((tmp / "out.json").read_bytes())
    assert written == [written[0]] * len(spellings)
    capsys.readouterr()
    named = "function file" if flag == "functions" else f"{path[0]!r} in"
    for entry in [str(value), True, None] + ([value + 0.5] if integral else []):
        assert run(entry) == 2, entry
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigParse", (entry, err)
        assert f"{named} {bad}" in err["message"], (entry, err)


def test_a_refused_table_is_echoed_short(tmp_path, capsys):
    # one string entry in a 200-atom table used to echo the whole table
    table = np.ones((200, 200)).tolist()
    table[7][9] = "1"
    r = {"labels": list(range(200)), "weights": [1 / 200] * 200}
    paths = _write_instance(tmp_path, r, r, {"family": "bounded", "cost": table})
    assert main(["solve", *_base(paths, "--lambda", "1", "--out", str(tmp_path / "x.json"))]) == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    err = json.loads(line)
    assert err["error"] == "ConfigParse" and len(line) < 400
    shown = str(table)
    assert err["message"] == (f"bad value for 'cost' in {paths['cost']}: {shown[:200]}... "
                              f"({len(shown)} characters)")


def _all_subcommands(paths, tmp):
    """(subcommand, argv) running each of the eleven subcommands once."""
    fns = tmp / "fns.json"
    fns.write_text(json.dumps([np.eye(3).tolist()]))
    mc = tmp / "mc_cfg.json"
    mc.write_text(json.dumps({"statistic": "ValueCLT", "n": 100, "replications": 4, "seed": 1}))
    vl = tmp / "vl_cfg.json"
    vl.write_text(json.dumps({"sample_sizes": [50, 100], "replications": 2}))
    extra = {
        "solve": ["--lambda", "1"],
        "divergence": ["--lambda", "1"],
        "bounds": ["--lambda", "1"],
        "check-conditions": ["--lambda", "1", "--theorem", "value"],
        "variance": ["--lambda", "1"],
        "plan-cov": ["--lambda", "1", "--functions", str(fns)],
        "derivative-check": ["--lambda", "1", "--seed", "0"],
        "bootstrap": ["--lambda", "1", "--n", "50", "--B", "4", "--seed", "2"],
        "mc-clt": ["--config", str(mc)],
        "vanishing-lambda": ["--config", str(vl)],
        "ot-exact": ["--lambdas", "1,0.1"],
    }
    return [(sub, [sub, *_base(paths, *args, "--out", str(tmp / f"{sub}.json"))])
            for sub, args in extra.items()]


def test_every_output_is_canonical_indented_json(instance):
    # the writer's format on real payloads, checked against json itself
    paths, tmp = instance
    calls = _all_subcommands(paths, tmp)
    assert len(calls) == 11
    for sub, argv in calls:
        assert main(argv) == 0, sub
        for path in (tmp / f"{sub}.json", tmp / f"{sub}.manifest.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name


_SUM_KEYS = ["description", "partial_sum", "verdict", "detail"]
_CONDITION_KEYS = ["verdict", "theorem", "sums"]


def test_report_payloads_keep_their_key_order(instance):
    # each report's layout, key by key: the CLI writes a record's fields in
    # the order the record declares them
    paths, tmp = instance
    calls = dict(_all_subcommands(paths, tmp))
    expected = {
        "bounds": ["lambda", "alpha_lower", "alpha_upper", "beta_lower", "beta_upper",
                   "plan_lower", "plan_upper", "max", "vacuous"],
        "check-conditions": _CONDITION_KEYS,
        "mc-clt": ["target_sigma2", "ks_distance", "sample_mean", "sample_var", "replications",
                   "conditions"],
        "vanishing-lambda": ["sample_sizes", "lambdas", "variance_trace", "var_alpha0",
                             "ks_distance"],
        "ot-exact": ["value", "alpha0", "beta0", "plan", "unique_potentials", "gap_report"],
    }
    payloads = {}
    for sub, keys in expected.items():
        assert main(calls[sub]) == 0, sub
        payloads[sub] = json.loads((tmp / f"{sub}.json").read_text())
        assert list(payloads[sub]) == keys, sub
    for conditions in (payloads["check-conditions"], payloads["mc-clt"]["conditions"]):
        assert list(conditions) == _CONDITION_KEYS
        assert conditions["sums"] and all(list(c) == _SUM_KEYS for c in conditions["sums"])
    assert list(payloads["ot-exact"]["gap_report"]) == [
        "ot_value", "entropy_bound", "lambdas", "erot_values", "sinkhorn_costs", "chain_holds"]


def test_start_up_loads_only_the_scipy_modules_a_subcommand_uses(instance):
    # scipy.linalg serves only the derivative layer and scipy.stats only the
    # two-sample KS reference; neither loads with the package or the CLI
    paths, tmp = instance
    argvs = {sub: argv for sub, argv in _all_subcommands(paths, tmp)}
    code = """
import json, sys
MODULES = ("scipy.linalg", "scipy.special", "scipy.sparse", "scipy.stats", "scipy.optimize")
loaded = lambda: [m for m in MODULES if m in sys.modules]
argvs = json.loads(sys.argv[1])
import erot
seen = {"erot": loaded()}
import erot.cli
seen["erot.cli"] = loaded()
for sub in ("solve", "divergence", "bounds", "check-conditions", "bootstrap"):
    assert erot.cli.main(argvs[sub]) == 0, sub
seen["five"] = "scipy.linalg" in sys.modules
assert erot.cli.main(argvs["mc-clt"]) == 0
seen["mc-clt"] = "scipy.stats" in sys.modules
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"erot": [], "erot.cli": [], "five": False, "mc-clt": False}


def test_exact_transport_loads_neither_optimize_nor_sparse(instance):
    # the exact oracle is numpy only
    paths, tmp = instance
    argvs = {sub: argv for sub, argv in _all_subcommands(paths, tmp)}
    code = """
import json, sys
import erot.cli
argvs = json.loads(sys.argv[1])
for sub in ("ot-exact", "vanishing-lambda"):
    assert erot.cli.main(argvs[sub]) == 0, sub
print(json.dumps([m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_readme_usage_lists_exactly_each_subcommands_flags():
    # the README's usage block, "..." and [SOLVER] expanded and --out added,
    # names exactly the flags each subcommand takes
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text[text.index("```\nerot solve") + 4:]
    block = block[:block.index("```")]
    solver = re.search(r"^SOLVER = (.*)$", block, re.M).group(1)
    usage = {}
    for line in block.splitlines():
        if line.startswith("erot "):
            sub, rest = line.split(None, 2)[1:]
            rest = rest.replace("...", "--r --s --cost").replace("[SOLVER]", solver)
            usage[sub] = set(re.findall(r"--([a-zA-Z][\w-]*)", rest)) | {"out"}
    assert set(usage) == set(erot.cli.COMMANDS)
    for sub, flags in usage.items():
        assert flags == {flag for flag, _ in erot.cli._flags(sub)}, sub


def test_readme_names_exactly_the_tail_kinds_and_modes():
    # the measure-file tail schema and the --mode list in the README name
    # exactly the kinds, parameters and ranges of TAIL_PARAMS and the modes
    # Design.of accepts
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tails = {}
    for item in re.findall(r'^- `(\{"kind".*?)(?=^- |^$)', text, re.M | re.S):
        kind = re.match(r'\{"kind": "(\w+)"', item).group(1)
        tails[kind] = (re.findall(r'"(\w+)": \.\.\.', item), " ".join(item.split()))
    assert set(tails) == set(erot.measures.TAIL_PARAMS)
    for kind, ranges in erot.measures.TAIL_PARAMS.items():
        keys, line = tails[kind]
        assert keys == list(ranges), kind
        for key, (lo, hi) in ranges.items():
            clause = f"{lo:g} < {key} < {hi:g}" if hi < math.inf else f"finite {key} > {lo:g}"
            assert clause in line, (kind, key)
    section = text[text.index("`--mode` names the sampling design"):]
    modes = re.findall(r"^- `(\w+)`", section[:section.index("\n\n", section.index("- `"))], re.M)
    assert modes == [erot.ONE_SAMPLE_R, erot.ONE_SAMPLE_S, erot.TWO_SAMPLE]
    for mode in modes:
        erot.Design.of(mode, 0.5 if mode == erot.TWO_SAMPLE else None)
    assert erot.cli.FLAGS["mode"][1] == modes[0]



def test_readme_names_exactly_each_cost_familys_keys():
    # the cost-file schema lists each family of COST_FAMILIES with its keys in
    # table order, and says "required" exactly where a key has no default
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("Each family takes `family` and its own keys"):]
    section = section[:section.index("\n\n", section.index("\n- `"))]
    items = re.findall(r"^- `(\w+)` takes (.*?): (.*?)(?=^- |\Z)", section, re.M | re.S)
    assert [family for family, _, _ in items] == list(erot.costs.COST_FAMILIES)
    for family, keys, body in items:
        table = erot.costs.COST_FAMILIES[family][1]
        assert re.findall(r"`(\w+)`", keys) == [key.rstrip("!") for key in table], family
        required = [key[:-1] for key in table if key.endswith("!")]
        assert re.findall(r"required \w+ `(\w+)`", body) == required, family
