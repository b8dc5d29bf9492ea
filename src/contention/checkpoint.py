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
The loader takes each cell only as the JSON type save_checkpoint writes: a
string for a weight, normalization statistic or the graph threshold, the
integer 0 or 1 for an adjacency entry. Through `data.read_json_object`, every
fault, a missing or mistyped field too, is one SchemaError naming the file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from contention.config import strict_kwargs
from contention.data import NormStats, json_int, json_names, read_json_object
from contention.errors import DataError, SchemaError, ShapeError
from contention.graph import MetricGraph
from contention.model import ModelConfig, ModelParams

CHECKPOINT_FORMAT_VERSION = 4


def _encode_floats(arr: np.ndarray):
    if arr.ndim == 1:
        return [f"{float(x):.17g}" for x in arr]
    return [_encode_floats(row) for row in arr]


def _decode(payload, shape: tuple[int, ...], what: str, cell: type = str,
            kind: str = "decimal strings") -> np.ndarray:
    """payload, nested JSON lists of `shape` whose every cell is a `cell`, as finite float64."""
    cells = np.array(payload, dtype=object)
    if cells.shape != shape:
        raise ShapeError(f"{what} has shape {cells.shape}, expected {shape}")
    if bad := [c for c in cells.flat if type(c) is not cell]:
        raise SchemaError(f"{what} must hold {kind}, got {bad[0]!r}")
    arr = cells.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite values")
    return arr


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
            for name, _, _ in ModelParams.layout(ckpt.params.cfg, ckpt.params.window_len)
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
    return read_json_object(Path(path), "checkpoint", SchemaError, _from_payload,
                            CHECKPOINT_FORMAT_VERSION,
                            ("model", "window_len", "params", "graph", "normalization",
                             "metric_names", "train_seed", "config_digest"))


def _from_payload(payload: dict) -> Checkpoint:
    t = json_int(payload["window_len"], "'window_len'")
    cfg = ModelConfig(**strict_kwargs("model", payload["model"], ModelConfig))
    layout = ModelParams.layout(cfg, t)  # the parameter bound, before any block is read
    blocks = [_decode(payload["params"][name], shape, f"parameter {name}")
              for name, shape, _ in layout]  # a missing block is a KeyError
    params = ModelParams(cfg, t, np.concatenate([b.ravel() for b in blocks]))

    g = payload["graph"]
    dim = json_int(g["dim"], "'graph.dim'")
    adjacency = _decode(g["adjacency"], (dim, dim), "adjacency", int, "JSON integers")
    if not np.array_equal(adjacency, adjacency.T) or np.any(np.diag(adjacency) != 0):
        raise DataError("adjacency must be symmetric with a zero diagonal")
    if not np.all((adjacency == 0) | (adjacency == 1)):
        raise DataError("adjacency entries must be 0 or 1")
    if type(threshold := g["threshold"]) is not str:
        raise SchemaError(f"'graph.threshold' must be a decimal string, got {threshold!r}")
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"graph threshold must lie in [0, 1], got {threshold}")
    graph = MetricGraph(adjacency=adjacency, threshold=threshold)

    norm = NormStats(**{key: _decode(payload["normalization"][key], (dim,), f"normalization {key}")
                        for key in ("mean", "std")})
    if np.any(norm.std < NormStats.STD_FLOOR):  # fit_norm never writes one below the floor
        low = float(norm.std.min())
        raise DataError(f"normalization std {low!r} is below {NormStats.STD_FLOOR}")
    if type(digest := payload["config_digest"]) is not str:
        raise SchemaError(f"'config_digest' must be a string, got {digest!r}")
    return Checkpoint(
        params=params,
        graph=graph,
        norm=norm,
        metric_names=json_names(payload["metric_names"], dim, "'metric_names'", empty_ok=True),
        train_seed=json_int(payload["train_seed"], "'train_seed'", least=0),
        config_digest=digest,
    )
