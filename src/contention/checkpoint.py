"""Checkpoint serialization: everything needed to reproduce predictions.

A checkpoint is one JSON file holding the model config, the window length T
the weights were trained for, every weight array, the metric graph (its
binary adjacency; the normalized operator is recomputed on load), the
normalization statistics, the training dataset's metric names, and
provenance (training seed, config digest). It holds no class names: the
heads score the fixed classes `data.CLASS_NAMES` in order.

The weights (`ModelParams.flat`, in `ModelParams.layout` order) and the
normalization mean and std are each one string: the base64 (RFC 4648) of
their little-endian float64 bytes, which round-trip IEEE doubles exactly;
the graph stays readable, its adjacency entries the JSON integers 0 and 1.
Loading and saving again produces a byte-identical file, and reloaded
parameters yield bitwise-equal logits. The loader takes each field only as
the JSON type save_checkpoint writes, refuses a key it does not write,
checks a base64 field's length before it decodes it, and through
`data.read_json_object` turns every fault, a missing, unknown or mistyped
field too, into one SchemaError naming the file.
"""

from __future__ import annotations

import base64
import json
import reprlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from contention.config import strict_kwargs
from contention.data import NormStats, json_int, json_names, read_json_object
from contention.errors import DataError, SchemaError, ShapeError
from contention.graph import MetricGraph
from contention.model import ModelConfig, ModelParams

CHECKPOINT_FORMAT_VERSION = 6
# The keys save_checkpoint writes, at the top level beside format_version and in
# the two sections it writes as objects; `model` is checked against ModelConfig.
TOP_KEYS = ("model", "window_len", "params", "graph", "normalization", "metric_names",
            "train_seed", "config_digest")
SECTION_KEYS = {"graph": ("dim", "adjacency"), "normalization": ("mean", "std")}


def _encode_floats(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode_floats(text, n: int, what: str) -> np.ndarray:
    """text, the base64 of n little-endian float64 values, as a new writable finite array."""
    if type(text) is not str:
        raise SchemaError(f"{what} must be a base64 string, got {reprlib.repr(text)}")
    if len(text) != (chars := 4 * -(-8 * n // 3)):  # checked before anything is decoded
        raise SchemaError(f"{what} has {len(text)} characters, not the {chars} "
                          f"that encode {n} float64 values")
    try:  # binascii.Error, or a str that is not ASCII, is a ValueError
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise SchemaError(f"{what} is not base64: {exc}") from exc
    if len(raw) != 8 * n:  # the right length with the wrong padding
        raise SchemaError(f"{what} is not base64 of {n} float64 values: bad padding")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)  # frombuffer is read-only
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite values")
    return arr


@dataclass
class Checkpoint:
    """A trained model as eval and predict load it: weights, graph and normalization,
    with the training set's metric names, the seed and the config digest."""

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
        "params": _encode_floats(ckpt.params.flat),
        "graph": {
            "dim": ckpt.graph.dim,
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
                            CHECKPOINT_FORMAT_VERSION, TOP_KEYS)


def _refuse_unknown_keys(payload: dict) -> None:
    """A SchemaError naming the first key of a section that save_checkpoint does not write."""
    for name, keys in SECTION_KEYS.items():
        if isinstance(section := payload[name], dict):  # another type fails where it is read
            if unknown := [key for key in section if key not in keys]:
                raise SchemaError(f"unknown key '{name}.{unknown[0]}'")


def _from_payload(payload: dict) -> Checkpoint:
    _refuse_unknown_keys(payload)
    t = json_int(payload["window_len"], "'window_len'")
    cfg = ModelConfig(**strict_kwargs("model", payload["model"], ModelConfig))
    n = ModelParams.layout(cfg, t)[-1][2].stop  # the parameter bound, before anything is read
    params = ModelParams(cfg, t, _decode_floats(payload["params"], n, "'params'"))

    g = payload["graph"]
    dim = json_int(g["dim"], "'graph.dim'")
    cells = np.array(g["adjacency"], dtype=object)
    if cells.shape != (dim, dim):
        raise ShapeError(f"adjacency has shape {cells.shape}, expected {(dim, dim)}")
    if bad := [c for c in cells.flat if type(c) is not int]:
        raise SchemaError(f"adjacency must hold JSON integers, got {bad[0]!r}")
    adjacency = cells.astype(np.float64)  # an int past float64's range is an OverflowError
    if not np.array_equal(adjacency, adjacency.T) or np.any(np.diag(adjacency) != 0):
        raise DataError("adjacency must be symmetric with a zero diagonal")
    if not np.all((adjacency == 0) | (adjacency == 1)):
        raise DataError("adjacency entries must be 0 or 1")
    graph = MetricGraph(adjacency)

    norm = NormStats(**{key: _decode_floats(payload["normalization"][key], dim,
                                            f"'normalization.{key}'")
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
