import json

import numpy as np
import pytest

import erot
from erot import io
from erot.errors import ConfigParse


def _ref(obj):
    """Reference converter for the writer: arrays to lists, numpy scalars to
    Python scalars, tuples to lists; json.dumps(indent=2) does the rest."""
    if isinstance(obj, np.ndarray):
        return _ref(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref(v) for v in obj]
    return obj


WRITER_CASES = {
    "arrays": {"vector": np.linspace(-1.0, 1.0, 7) / 3,
               "matrix": np.random.default_rng(0).standard_normal((3, 4)),
               "ints": np.arange(4)},
    "triplets": {"plan": [[0, 1, 0.25], [2, 0, 1e-300], [1, 1, 0.5]]},
    "empty": {"list": [], "dict": {}, "rows": [[], [1.0]], "table": np.zeros((2, 0)),
              "no_rows": np.zeros((0, 3))},
    "non_finite": [float("nan"), float("inf"), -float("inf"), -0.0,
                   [np.nan, -0.0], np.array([[np.inf, -0.0]])],
    "numpy_scalars": {"f32": np.float32(0.1), "i64": np.int64(-7), "b": np.bool_(True),
                      "in_list": [np.float32(1.5), np.int64(3), np.bool_(False), 2.0],
                      "in_rows": [[np.float32(0.1), 1], [np.int64(2), 3.0]]},
    "tuples_none": {"t": (1, 2.5, None), "pairs": ((1, 2), (3, 4)), "none": None,
                    "bools": [True, False, 1, 0.5]},
    "strings": ["a, b", "x], [y", "h\u00e9llo \u2713 \u221e", {"k, ]": "], ["}, [["], [", 1]]],
    "keys": {1: "one", 2.5: [1, 2], False: None, None: {}, "s": 0},
    "nesting": [1, [2, 3], [[4.0]], {"x": [True, 1]}, [[[1.0, 2.0]], [[3.0]]]],
    "scalar": 0.1,
}


class TestJSON:
    def test_round_trip_types(self, tmp_path):
        payload = {
            "flag": True,
            "count": np.int64(7),
            "x": np.float64(0.1),
            "arr": np.array([1.5, 2.5]),
            "nested": {"ok": False},
        }
        p = tmp_path / "x.json"
        io.dump_json(payload, p)
        back = json.loads(p.read_text())
        assert back["flag"] is True  # bools stay bools, not 0/1
        assert back["nested"]["ok"] is False
        assert back["count"] == 7
        assert back["x"] == 0.1
        assert back["arr"] == [1.5, 2.5]

    def test_float_precision_survives(self, tmp_path):
        x = 1 / 3
        p = tmp_path / "f.json"
        io.dump_json({"x": x}, p)
        assert json.loads(p.read_text())["x"] == x

    @pytest.mark.parametrize("name", sorted(WRITER_CASES))
    def test_dump_json_matches_json_indent(self, tmp_path, name):
        payload = WRITER_CASES[name]
        p = tmp_path / "w.json"
        io.dump_json(payload, p)
        assert p.read_text() == json.dumps(_ref(payload), indent=2) + "\n"

    def test_load_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigParse):
            io.load_json(p)


class TestMeasureFiles:
    def test_load_with_coords_and_tail(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "labels": ["a", "b"], "weights": [0.4, 0.6],
            "coords": [0.0, 2.0], "tail": {"kind": "geometric", "q": 0.5},
        }))
        m = io.load_measure(p)
        assert m.weights.tolist() == [0.4, 0.6]
        assert m.space.coords.ravel().tolist() == [0.0, 2.0]
        assert m.tail.kind == "geometric" and m.tail.q == 0.5

    def test_numeric_labels_derive_coords(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"labels": [0, 3], "weights": [0.5, 0.5]}))
        m = io.load_measure(p)
        assert m.space.coords.ravel().tolist() == [0.0, 3.0]
        assert m.tail.kind == "finite"

    def test_boolean_labels_derive_no_coords(self, tmp_path):
        # only labels that are all numbers double as coordinates
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"labels": [True, False], "weights": [0.5, 0.5]}))
        assert io.load_measure(p).space.coords is None

    def test_missing_weights_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"labels": ["a"]}))
        with pytest.raises(ConfigParse):
            io.load_measure(p)

    def test_unknown_tail_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "labels": ["a"], "weights": [1.0], "tail": {"kind": "cauchy"},
        }))
        with pytest.raises(ConfigParse):
            io.load_measure(p)


class TestFunctionTables:
    def test_json_list(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps([[[1, 2], [3, 4]], [[0, 0], [0, 1]]]))
        fns = io.load_function_tables(p, (2, 2))
        assert len(fns) == 2
        assert np.array_equal(fns[0], [[1, 2], [3, 4]])

    def test_shape_mismatch_rejected(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps([[[1, 2, 3]]]))
        with pytest.raises(ConfigParse):
            io.load_function_tables(p, (2, 2))


class TestArtifacts:
    def test_draws_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        io.write_draws_csv(np.array([1.5, -2.0]), p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "replication,draw"
        assert lines[1].startswith("0,") and lines[2].startswith("1,")

    @pytest.mark.parametrize("n, sigma2", [(1, 1.0), (7, 0.37 ** 2), (500, 2.5e-7 ** 2),
                                           (1001, 13.0 ** 2)])
    def test_qq_csv_bitwise_against_scipy_stats(self, tmp_path, n, sigma2):
        from scipy import stats

        draws = np.random.default_rng(n).normal(0.0, 1.0, n)
        p = tmp_path / "qq.csv"
        io.write_qq_csv(draws, sigma2, p)
        probs = (np.arange(1, n + 1) - 0.5) / n
        theo = stats.norm.ppf(probs, scale=np.sqrt(sigma2))
        want = ["theoretical,empirical"] + [
            f"{t:.17g},{e:.17g}" for t, e in zip(theo, np.sort(draws))]
        assert p.read_text() == "\n".join(want) + "\n"

    def test_qq_csv_quantiles(self, tmp_path):
        rng = np.random.default_rng(0)
        draws = rng.normal(0, 2.0, 5000)
        p = tmp_path / "qq.csv"
        io.write_qq_csv(draws, 4.0, p)
        data = np.loadtxt(p, delimiter=",", skiprows=1)
        # theoretical and empirical quantiles track each other
        assert np.corrcoef(data[:, 0], data[:, 1])[0, 1] > 0.99

    def test_manifest_contents(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text("{}")
        man = tmp_path / "run.manifest.json"
        io.write_manifest(man, "solve", {"lambda": 1.0, "seed": 5}, [inp],
                          ["out.json"], runtime=0.25)
        got = json.loads(man.read_text())
        assert got["subcommand"] == "solve"
        assert got["seed"] == 5 and got["seed_used"] is True
        assert got["runtime"] == 0.25
        assert got["input_digests"][str(inp)] == io.sha256_digest(inp)
        assert got["tool_version"] == erot.__version__
