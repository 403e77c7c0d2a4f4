"""File schemas and serialization helpers for the command-line interface.

Measures are JSON objects {"labels": [...], "weights": [...]} with optional
"coords" (per-atom coordinate or coordinate list) and "tail" ({"kind":
"geometric", "q": 0.7} etc.).  Cost files hold a family spec as consumed by
costs.build_cost.  Output JSON is indented by two spaces; floats are written
as Python's shortest round-trip repr, so every value round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .costs import build_cost
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


# the parameters of each tail family, as keys of the measure file's "tail"
_TAIL_PARAMS = {"geometric": ("q",), "polynomial": ("a",),
                "subweibull": ("gamma", "theta"), "finite": ()}


def _parse_tail(spec, path) -> TailFamily:
    if spec is None:
        return FINITE_TAIL
    if not isinstance(spec, dict):
        raise ConfigParse(f"'tail' in measure file {path} must be an object with 'kind'")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _TAIL_PARAMS:
        raise ConfigParse(f"unknown tail family {kind!r} in measure file {path}")
    params = {}
    for key in _TAIL_PARAMS[kind]:
        if key not in spec:
            raise ConfigParse(f"{kind} tail in measure file {path} needs '{key}'")
        try:
            params[key] = float(spec[key])
        except (TypeError, ValueError) as exc:
            raise ConfigParse(
                f"bad value for tail '{key}' in measure file {path}: {spec[key]}") from exc
    return TailFamily(kind=kind, **params) if params else FINITE_TAIL


def load_measure(path) -> DiscreteMeasure:
    raw = load_json(path)
    try:
        labels = tuple(raw["labels"])
        weights = np.asarray(raw["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"measure file {path} needs 'labels' and 'weights'") from exc
    coords = raw.get("coords")
    # numeric labels double as coordinates; IndexedSpace shapes them (n, 1)
    if coords is None and all(isinstance(l, (int, float)) for l in labels):
        coords = labels
    space = IndexedSpace(labels=labels, coords=coords)
    return validate_measure(weights, space, tail=_parse_tail(raw.get("tail"), path))


def load_cost(path, space_X: IndexedSpace, space_Y: IndexedSpace, lam: float):
    spec = load_json(path)
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigParse(f"cost file {path} must hold a family spec with 'family'")
    return build_cost(spec, space_X, space_Y, lam)


def load_function_tables(path, shape) -> list:
    """Test tables for plan functionals: a JSON list of 2-D arrays, or a CSV
    of dense tables separated by blank lines; anything else is a ConfigParse."""
    p = Path(path)
    try:
        if p.suffix == ".json":
            raw = load_json(p)
            if not isinstance(raw, list):
                raise ConfigParse(f"function file {path} must hold a JSON list of tables")
        else:
            raw, block = [], []
            for line in p.read_text().splitlines() + [""]:
                line = line.strip()
                if line:
                    block.append([float(v) for v in line.replace(",", " ").split()])
                elif block:
                    raw.append(block)
                    block = []
        tables = [np.asarray(t, dtype=float) for t in raw]
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigParse(f"cannot read function tables from {path}: {exc}") from exc
    for t in tables:
        if t.shape != tuple(shape) or not np.isfinite(t).all():
            raise ConfigParse(
                f"function table {t.shape} in {path} is not a finite {tuple(shape)} table"
            )
    if not tables:
        raise ConfigParse(f"no function tables found in {path}")
    return tables


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
