"""Checkpoint serialization: everything needed to reproduce predictions.

A checkpoint is one JSON file holding the model config, the window length T
the weights were trained for, every weight array, the metric graph (binary
adjacency plus build threshold; the normalized operator is recomputed on
load), the normalization statistics, the training dataset's metric names,
and provenance (training seed, config digest). It holds no class names: the
heads score the fixed classes `data.CLASS_NAMES` in order.

Floats are stored as decimal strings with 17 significant digits, which
round-trips IEEE doubles exactly: loading and saving again produces a
byte-identical file, and reloaded parameters yield bitwise-equal logits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from contention.config import _strict_kwargs
from contention.data import NormStats, json_int
from contention.errors import ConfigError, ContentionError, DataError, SchemaError, ShapeError
from contention.graph import MetricGraph
from contention.model import ModelConfig, ModelParams

CHECKPOINT_FORMAT_VERSION = 4


def _encode_floats(arr: np.ndarray):
    if arr.ndim == 1:
        return [f"{float(x):.17g}" for x in arr]
    return [_encode_floats(row) for row in arr]


def _decode_floats(payload, shape: tuple[int, ...], what: str) -> np.ndarray:
    try:
        arr = np.array(payload, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} is not a numeric array: {exc}") from exc
    if arr.shape != shape:
        raise ShapeError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite values")
    return arr


def _names(value, dim: int) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise SchemaError(f"checkpoint metric names must be a list of strings, got {value!r}")
    if len(value) not in (0, dim):
        raise SchemaError(f"checkpoint holds {len(value)} metric names for {dim} metrics")
    return tuple(value)


@dataclass
class Checkpoint:
    params: ModelParams  # params.cfg is the model config, params.window_len T
    graph: MetricGraph
    norm: NormStats
    metric_names: tuple[str, ...] = ()  # from the training dataset, for mismatch warnings
    train_seed: int = 0
    config_digest: str = ""


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": asdict(ckpt.params.cfg),
        "window_len": ckpt.params.window_len,
        "params": {
            name: _encode_floats(getattr(ckpt.params, name))
            for name in ModelParams._ORDER
        },
        "graph": {
            "dim": ckpt.graph.dim,
            "threshold": f"{float(ckpt.graph.threshold):.17g}",
            "adjacency": [[int(v) for v in row] for row in ckpt.graph.adjacency],
        },
        "normalization": {
            "mean": _encode_floats(ckpt.norm.mean),
            "std": _encode_floats(ckpt.norm.std),
        },
        "metric_names": list(ckpt.metric_names),
        "train_seed": int(ckpt.train_seed),
        "config_digest": ckpt.config_digest,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, no read permission
        raise DataError(f"checkpoint {path} cannot be read: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long
        raise SchemaError(f"checkpoint {path} is not valid UTF-8 JSON: {exc}") from exc
    try:
        return _from_payload(payload, path)
    except ContentionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(
            f"checkpoint {path} has a missing or malformed field "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _from_payload(payload: dict, path: Path) -> Checkpoint:
    for key in ("format_version", "model", "window_len", "params", "graph", "normalization",
                "metric_names", "train_seed", "config_digest"):
        if key not in payload:
            raise SchemaError(f"checkpoint {path} is missing key '{key}'")
        if key == "format_version" and (type(payload[key]) is not int  # 4.0 is refused
                                        or payload[key] != CHECKPOINT_FORMAT_VERSION):
            raise SchemaError(  # checked first: an older checkpoint lacks newer keys
                f"checkpoint format version {payload[key]} unsupported "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )
    malformed = f"checkpoint {path} has a missing or malformed field:"
    t = json_int(payload["window_len"], f"{malformed} 'window_len'")
    try:
        cfg = ModelConfig(**_strict_kwargs("model", payload["model"], ModelConfig))
        shapes = ModelParams.shapes(cfg, t)  # the parameter bound, before any block is read
    except ConfigError as exc:
        raise SchemaError(f"bad model config in checkpoint: {exc}") from exc
    blocks = []
    for name in ModelParams._ORDER:
        if name not in payload["params"]:
            raise SchemaError(f"checkpoint is missing parameter block '{name}'")
        blocks.append(_decode_floats(payload["params"][name], shapes[name], f"parameter {name}"))
    params = ModelParams(cfg, t, np.concatenate([b.ravel() for b in blocks]))

    g = payload["graph"]
    dim = json_int(g["dim"], f"{malformed} 'graph.dim'")
    adjacency = np.array(g["adjacency"], dtype=np.float64)
    if adjacency.shape != (dim, dim):
        raise ShapeError(f"adjacency has shape {adjacency.shape}, expected {(dim, dim)}")
    if not np.array_equal(adjacency, adjacency.T) or np.any(np.diag(adjacency) != 0):
        raise DataError("checkpoint adjacency must be symmetric with a zero diagonal")
    if not np.all((adjacency == 0) | (adjacency == 1)):
        raise DataError("checkpoint adjacency entries must be 0 or 1")
    threshold = float(g["threshold"])
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"checkpoint graph threshold must lie in [0, 1], got {threshold}")
    graph = MetricGraph(adjacency=adjacency, threshold=threshold)

    norm = NormStats(
        mean=_decode_floats(payload["normalization"]["mean"], (dim,), "normalization mean"),
        std=_decode_floats(payload["normalization"]["std"], (dim,), "normalization std"),
    )
    if np.any(norm.std < NormStats.STD_FLOOR):  # fit_norm never writes one below the floor
        low = float(norm.std.min())
        raise DataError(f"checkpoint normalization std {low!r} is below {NormStats.STD_FLOOR}")
    if type(digest := payload["config_digest"]) is not str:
        raise SchemaError(f"{malformed} 'config_digest' must be a string, got {digest!r}")
    return Checkpoint(
        params=params,
        graph=graph,
        norm=norm,
        metric_names=_names(payload["metric_names"], dim),
        train_seed=json_int(payload["train_seed"], f"{malformed} 'train_seed'", least=0),
        config_digest=digest,
    )
