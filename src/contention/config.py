"""Run configuration: one JSON file describing an entire experiment.

The file is read by `data.read_json_object`, as dataset manifests and
checkpoints are: every fault of the file or its content is one ConfigError
naming the file. Parsing is strict: any key the schema does not know is
rejected with its full dotted path, so a typo like "learning_rte" fails
loudly before any work starts instead of silently training with defaults.
A scalar field must hold a JSON value of its annotated type ("64" is not an
int, true is not an int, 1 is a float), and a float field a finite one (not
NaN, Infinity or an integer beyond the double range).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from contention.data import ScenarioConfig, read_json_object
from contention.errors import ConfigError
from contention.ingest import IngestConfig, TraceSchema
from contention.model import ModelConfig
from contention.train import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """The settings of a run config file: the scenario, model, training, trace schema
    and ingest sections, and the window count `gen` makes."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    schema: TraceSchema | None = None  # required only by ingestion commands
    ingest: IngestConfig = field(default_factory=IngestConfig)
    n_windows: int = 3000

    def __post_init__(self):
        if self.n_windows < 1:
            raise ConfigError(f"n_windows must be >= 1, got {self.n_windows}")


def _admits(hint, value) -> bool:
    """Whether a JSON value fits a field's annotation; only scalar annotations are checked.

    A value given to a float field must also be finite as a float: JSON
    parsing admits NaN, Infinity and integers too large for a double.
    """
    if hint not in (int, float, bool, str):
        return True
    if hint is float and type(value) in (int, float):
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return type(value) is hint


def strict_kwargs(section: str, data: dict, cls) -> dict:
    """data, checked to name only fields of cls and to give scalars their annotated type:
    a section of the run config, or the checkpoint's `model` section."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{section}' must be an object")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        where = f"{section}.{key}" if section else key
        if key not in hints:
            raise ConfigError(f"unknown config key '{where}'")
        if not _admits(hints[key], value):
            kind = getattr(hints[key], "__name__", hints[key])
            raise ConfigError(f"config key '{where}' must be {kind}, got {value!r}")
    return data


def _build_schema(data: dict) -> TraceSchema:
    strict_kwargs("schema", data, TraceSchema)
    for key in ("machine_column", "timestamp_column", "metric_columns"):
        if key not in data:
            raise ConfigError(f"config section 'schema' is missing '{key}'")
    columns = data["metric_columns"]
    if not isinstance(columns, dict):
        raise ConfigError("schema.metric_columns must map column name to resource group")
    return TraceSchema(
        machine_column=data["machine_column"],
        timestamp_column=data["timestamp_column"],
        metric_columns=tuple((col, group) for col, group in columns.items()),
    )


def run_config_from_dict(data: dict) -> RunConfig:
    strict_kwargs("", data, RunConfig)
    sections = (("scenario", ScenarioConfig), ("model", ModelConfig), ("train", TrainConfig),
                ("ingest", IngestConfig))  # each built as one dataclass
    kwargs = {key: cls(**strict_kwargs(key, data[key], cls))
              for key, cls in sections if key in data}
    if "n_windows" in data:
        kwargs["n_windows"] = data["n_windows"]
    if "schema" in data and data["schema"] is not None:
        kwargs["schema"] = _build_schema(data["schema"])
    return RunConfig(**kwargs)


def load_run_config(path: str | Path | None) -> RunConfig:
    """Parse a config file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
    return read_json_object(Path(path), "config", ConfigError, run_config_from_dict)


def config_digest(cfg: RunConfig) -> str:
    """sha256 over the canonical JSON form of the config."""
    payload = dataclasses.asdict(cfg)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolve_out_dir(cli_value: str | None, names: tuple[str, ...]) -> Path | None:
    """The directory --out names; None, which writes no file, when eval or predict
    has no --out. An empty value, an existing path that is not a directory, and a
    directory in the place of a file `names` lists are refused before any work starts."""
    if cli_value is None:
        return None
    if not cli_value:
        raise ConfigError("--out must name a directory, not an empty string")
    path = Path(cli_value)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} exists and is not a directory")
    if blocked := [path / name for name in names if (path / name).is_dir()]:
        raise ConfigError(f"output cannot be written: {blocked[0]} is a directory")
    return path
