import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erot
from erot.cli import main


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
        assert json.loads(out.read_text())["verdict"] == "Fail"

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

    def test_bootstrap_thread_independent(self, instance):
        paths, tmp = instance
        csvs = []
        for threads in ("1", "3"):
            out = tmp / f"t{threads}.json"
            main(["bootstrap", *_base(
                paths, "--lambda", "1", "--n", "100", "--B", "16",
                "--seed", "5", "--threads", threads, "--out", str(out))])
            csvs.append(out.with_suffix(".draws.csv").read_bytes())
        assert csvs[0] == csvs[1]

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


def test_import_leaves_stats_and_optimize_unloaded():
    # process start-up: scipy.stats and scipy.optimize are imported inside
    # the functions that use them, not when the CLI module loads
    src = str(Path(erot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, erot.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
