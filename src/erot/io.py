"""File schemas and serialization helpers for the command-line interface.

Every JSON input object (measure, tail, cost and experiment file) is read by
read_object against a declared key set (MEASURE_KEYS, TAIL_KEYS, a family's
keys in costs.COST_FAMILIES, the CLI's experiment keys), and every number in
an input file by costs.number, integer or numbers.  Output JSON is indented
by two spaces; floats are written as Python's shortest round-trip repr.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .costs import build_cost, cost_family, numbers
from .errors import ConfigParse
from .measures import (
    FINITE_TAIL,
    DiscreteMeasure,
    IndexedSpace,
    TailFamily,
    validate_measure,
)


# element types json's C encoder writes without quotes or brackets
_NUMBERS = frozenset((int, float, bool))
SHOWN_CHARS = 200  # cast_value echoes a refused value cut to this many characters


def _is_numbers(items) -> bool:
    return set(map(type, items)) <= _NUMBERS


def _encode(obj, pad: str) -> str:
    """obj as json.dumps(indent=2) writes it, the first line unindented and
    the rest indented by `pad`; numpy arrays and scalars are written as the
    Python values they hold."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        # json.dumps({k: 0}) applies json's rules for non-str keys
        items = [json.dumps({k: 0})[1:-4] + ": " + _encode(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if _is_numbers(obj):
            # compact numbers hold no ", ", so it only separates them
            body = json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
            return "[\n" + inner + body + "\n" + pad + "]"
        if set(map(type, obj)) == {list} and all(obj) and _is_numbers(chain.from_iterable(obj)):
            deeper = inner + "  "
            body = (json.dumps(obj)[2:-2]
                    .replace("], [", "\n" + inner + "],\n" + inner + "[\n" + deeper)
                    .replace(", ", ",\n" + deeper))
            return "[\n" + inner + "[\n" + deeper + body + "\n" + inner + "]\n" + pad + "]"
        items = [_encode(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def dump_json(obj, path) -> None:
    """Write obj as indented JSON; numbers and lists of them go through
    json's C encoder in one pass."""
    Path(path).write_text(_encode(obj, "") + "\n")


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read JSON file {path}: {exc}") from exc


def sha256_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cast_value(cast, raw, source: str):
    """cast(raw), or raw itself if cast is None; a value the cast rejects is a
    ConfigParse naming its source and echoing the value, cut to SHOWN_CHARS."""
    try:
        return raw if cast is None else cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        shown = str(raw)
        cut = f"... ({len(shown)} characters)" if len(shown) > SHOWN_CHARS else ""
        raise ConfigParse(f"bad value for {source}: {shown[:SHOWN_CHARS]}{cut}") from exc


def read_object(raw, keys: dict, path, what: str) -> dict:
    """The entries of a JSON object read from `path` (`what` names it in
    messages), each cast by its key in `keys`; a key marked "!" must be
    present.  A non-object, an unknown key, a missing key and a value its
    cast rejects are each a ConfigParse naming the file and the key."""
    where = f"{what} {path}"
    if not isinstance(raw, dict):
        raise ConfigParse(f"{where} must hold a JSON object")
    casts = {key.rstrip("!"): cast for key, cast in keys.items()}
    unknown = [key for key in raw if key not in casts]
    if unknown:
        raise ConfigParse(f"unknown keys {unknown} in {where}; it takes {', '.join(casts)}")
    missing = [key[:-1] for key in keys if key.endswith("!") and key[:-1] not in raw]
    if missing:
        raise ConfigParse(f"{where} needs {' and '.join(map(repr, missing))}")
    return {key: cast_value(casts[key], value, f"{key!r} in {path}") for key, value in raw.items()}


def _labels(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError("labels must be a JSON list")
    return tuple(value)


# measure-file key: cast ("!" marks a required key, None a value taken as given);
# load_measure names the file in the refusals of IndexedSpace and TailFamily
MEASURE_KEYS = {"labels!": _labels, "weights!": numbers, "coords": numbers, "tail": None}
# the tail object's keys are TailFamily's fields
TAIL_KEYS = {"kind!": None, "q": None, "a": None, "gamma": None, "theta": None}


def load_measure(path) -> DiscreteMeasure:
    entries = read_object(load_json(path), MEASURE_KEYS, path, "measure file")
    labels = entries["labels"]
    coords = entries.get("coords")
    tail = entries.get("tail")
    if tail is not None:
        tail = read_object(tail, TAIL_KEYS, path, "'tail' in measure file")
    # labels that are all numbers (costs.number's rule) double as coordinates
    if coords is None and {int, float}.issuperset(map(type, labels)):
        coords = labels
    try:
        space = IndexedSpace(labels=labels, coords=coords)
        tail = FINITE_TAIL if tail is None else TailFamily(**tail)
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"measure file {path}: {exc}") from exc
    return validate_measure(entries["weights"], space, tail=tail)


def load_cost(path, space_X: IndexedSpace, space_Y: IndexedSpace, lam: float):
    """A cost file's family spec, its keys those of COST_FAMILIES, built at lam."""
    raw = load_json(path)
    if not isinstance(raw, dict) or "family" not in raw:
        raise ConfigParse(f"cost file {path} must hold a family spec with 'family'")
    keys = {"family": None, **cost_family(raw["family"])[1]}
    return build_cost(read_object(raw, keys, path, "cost file"), space_X, space_Y, lam)


def load_function_tables(path, shape) -> list:
    """Test tables for plan functionals: a JSON list of finite tables of the
    plan's shape, read by costs.numbers; anything else is a ConfigParse naming the file."""
    tables = cast_value(numbers, load_json(path), f"function file {path}")
    if not (tables.ndim == 3 and tables.shape[1:] == tuple(shape) and np.isfinite(tables).all()):
        raise ConfigParse(f"function file {path} must hold a non-empty JSON list of finite "
                          f"{tuple(shape)} tables, not an array of shape {tables.shape}")
    return list(tables)


def write_draws_csv(draws: np.ndarray, path) -> None:
    lines = ["replication,draw"]
    lines += [f"{i},{d:.17g}" for i, d in enumerate(np.asarray(draws, dtype=float))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_qq_csv(draws: np.ndarray, sigma2: float, path) -> None:
    """Quantile pairs of the draws against N(0, sigma2)."""
    from scipy.special import ndtri

    draws = np.sort(np.asarray(draws, dtype=float))
    n = draws.size
    probs = (np.arange(1, n + 1) - 0.5) / n
    theo = ndtri(probs) * np.sqrt(sigma2) if sigma2 > 0 else np.zeros(n)
    lines = ["theoretical,empirical"]
    lines += [f"{t:.17g},{e:.17g}" for t, e in zip(theo, draws)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, subcommand: str, config: dict, inputs: list,
                   artifacts: list, runtime: float | None = None) -> None:
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "config": config,
        "input_digests": {str(p): sha256_digest(p) for p in inputs},
        "seed": config.get("seed"),
        "seed_used": "seed" in config,
        "artifacts": [str(a) for a in artifacts],
    }
    if runtime is not None:
        manifest["runtime"] = runtime
    dump_json(manifest, path)
