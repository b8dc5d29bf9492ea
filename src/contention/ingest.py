"""Real-trace ingestion: raw machine samples to MetricWindows.

Input is a headered UTF-8 CSV with one sample per row: a machine id column,
an integer-seconds timestamp column, and one column per monitored metric.
Per machine the samples are bucket-mean resampled onto a fixed step and the
series is split at every gap longer than forward fill may bridge; shorter
gaps are forward-filled, and sliding windows are cut from each segment.

Real traces carry no contention labels, so weak labeling assigns classes by
per-group utilization thresholds. Windows where no group runs hot stay
unlabeled and are excluded from supervised use.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from contention.data import GROUP_NAMES, ContentionClass, MetricWindow
from contention.errors import ConfigError, DataError, SchemaError

GROUP_CLASS = {
    "cpu": ContentionClass.CPU,
    "disk": ContentionClass.IO,
    "mem": ContentionClass.MEM,
    "net": ContentionClass.NET,
}


@dataclass(frozen=True)
class TraceSchema:
    """Column layout of a trace CSV.

    metric_columns pairs each metric column name with the resource group it
    belongs to; column order here fixes metric order in the windows.
    """

    machine_column: str
    timestamp_column: str
    metric_columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.metric_columns:
            raise ConfigError("schema must map at least one metric column")
        seen = set()
        for column, group in self.metric_columns:
            if group not in GROUP_NAMES:
                raise ConfigError(
                    f"column '{column}' maps to unknown group '{group}'; "
                    f"expected one of {sorted(GROUP_NAMES)}"
                )
            if column in seen or column in (self.machine_column, self.timestamp_column):
                raise ConfigError(f"column '{column}' appears more than once in the schema")
            seen.add(column)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(column for column, _ in self.metric_columns)

    def group_map(self) -> dict[str, tuple[int, ...]]:
        """Metric indices per resource group; groups absent from the schema are empty."""
        out: dict[str, list[int]] = {name: [] for name in GROUP_NAMES}
        for i, (_, group) in enumerate(self.metric_columns):
            out[group].append(i)
        return {name: tuple(cols) for name, cols in out.items()}


@dataclass(frozen=True)
class IngestConfig:
    window_len: int = 32
    stride: int | None = None  # defaults to window_len: non-overlapping windows
    resample_step: int = 60  # seconds per bucket
    max_fill: int = 3  # longest run of missing buckets forward fill may bridge

    def __post_init__(self):
        if self.window_len < 1:
            raise ConfigError(f"window_len must be >= 1, got {self.window_len}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.resample_step < 1:
            raise ConfigError(f"resample_step must be >= 1, got {self.resample_step}")
        if self.max_fill < 0:
            raise ConfigError(f"max_fill must be >= 0, got {self.max_fill}")

    @property
    def effective_stride(self) -> int:
        return self.window_len if self.stride is None else self.stride


@dataclass(frozen=True)
class IngestResult:
    windows: list[MetricWindow]
    skipped_rows: int
    machines: int


def _segments(samples: list[tuple[int, np.ndarray]], step: int, max_fill: int):
    """Bucket-mean resample one machine's time-sorted samples, split at long gaps.

    Buckets count steps from the machine's first timestamp. A run of more than
    max_fill empty buckets ends a segment and is never allocated: forward fill
    may not bridge it, so no window may touch it. Yields each segment's first
    bucket and its series, shorter runs filled with the last observed value.
    """
    t0 = samples[0][0]
    buckets = [(ts - t0) // step for ts, _ in samples]
    cuts = [i for i in range(1, len(buckets)) if buckets[i] - buckets[i - 1] > max_fill + 1]
    for lo, hi in zip([0, *cuts], [*cuts, len(samples)]):
        first = buckets[lo]
        sums = np.zeros((buckets[hi - 1] - first + 1, samples[lo][1].shape[0]))
        counts = np.zeros(len(sums), dtype=np.int64)
        for b, (_, row) in zip(buckets[lo:hi], samples[lo:hi]):
            sums[b - first] += row
            counts[b - first] += 1
        observed = counts > 0
        sums[observed] /= counts[observed, None]
        last = np.maximum.accumulate(np.where(observed, np.arange(len(sums)), 0))
        yield first, sums[last]


def ingest_csv(
    path: str | Path, schema: TraceSchema, cfg: IngestConfig
) -> IngestResult:
    """Cut fixed-length windows from a raw trace CSV, one machine at a time.

    Rows that fail to parse (bad timestamp, non-numeric or non-finite metric)
    are skipped and counted rather than aborting the run; a trace with zero
    complete windows is an error, since silence there would be misleading.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"trace file not found: {path}")
    names = schema.metric_names
    required = [schema.machine_column, schema.timestamp_column, *names]
    per_machine: dict[str, list[tuple[int, np.ndarray]]] = {}
    skipped = 0
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for column in required:
                if column not in header:
                    raise SchemaError(f"trace {path} is missing required column '{column}'")
            for row in reader:
                try:
                    ts = int(row[schema.timestamp_column])
                    vals = np.array([float(row[c]) for c in names])
                except (TypeError, ValueError):
                    skipped += 1
                    continue
                if not np.all(np.isfinite(vals)):
                    skipped += 1
                    continue
                machine = row[schema.machine_column]
                if machine is None or machine == "":
                    skipped += 1
                    continue
                per_machine.setdefault(machine, []).append((ts, vals))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"trace {path}: unreadable CSV: {exc}") from exc

    t, stride, step = cfg.window_len, cfg.effective_stride, cfg.resample_step
    windows: list[MetricWindow] = []
    for machine in sorted(per_machine):
        samples = sorted(per_machine[machine], key=lambda pair: pair[0])
        for first, filled in _segments(samples, step, cfg.max_fill):
            # windows start on the machine's grid, every stride buckets from its first
            for start in range(-first % stride, len(filled) - t + 1, stride):
                windows.append(
                    MetricWindow(
                        values=filled[start : start + t].copy(),
                        label=None,
                        source=f"{machine}@{samples[0][0] + (first + start) * step}",
                        metric_names=names,
                    )
                )
    if not windows:
        raise DataError(
            f"trace {path} produced no complete windows "
            f"(T={t}, step={cfg.resample_step}s, {skipped} rows skipped)"
        )
    return IngestResult(windows=windows, skipped_rows=skipped, machines=len(per_machine))


def default_weak_thresholds(
    windows: list[MetricWindow], groups: dict[str, tuple[int, ...]]
) -> dict[str, float]:
    """Hot thresholds per group: fixed for cpu/mem, dataset-relative for disk/net.

    CPU and memory utilizations have natural saturation scales, so fixed
    cutoffs apply; disk and net rates do not, so those cutoffs sit at the
    95th percentile of the dataset's own window-level group means.
    """
    if not windows:
        raise DataError("cannot derive thresholds from an empty dataset")
    out = {"cpu": 0.85, "mem": 0.90}
    for name in ("disk", "net"):
        cols = groups.get(name, ())
        if not cols:
            out[name] = np.inf
            continue
        means = [float(w.values[:, list(cols)].mean()) for w in windows]
        out[name] = float(np.percentile(means, 95))
    return out


def weak_label(
    window: MetricWindow,
    thresholds: dict[str, float],
    groups: dict[str, tuple[int, ...]],
) -> int | None:
    """Threshold heuristic: one hot group names the class, several mean HYBRID.

    A group is hot when the window mean of its metrics exceeds its threshold.
    No hot group yields no label; callers drop such windows from supervised
    splits rather than inventing a sixth class.
    """
    hot = []
    for name in GROUP_NAMES:
        cols = groups.get(name, ())
        if not cols:
            continue
        if float(window.values[:, list(cols)].mean()) > thresholds[name]:
            hot.append(name)
    if not hot:
        return None
    if len(hot) >= 2:
        return int(ContentionClass.HYBRID)
    return int(GROUP_CLASS[hot[0]])


def apply_weak_labels(
    windows: list[MetricWindow],
    groups: dict[str, tuple[int, ...]],
    thresholds: dict[str, float] | None = None,
) -> tuple[list[MetricWindow], int]:
    """Label every window it can; returns (labeled windows, dropped count)."""
    if thresholds is None:
        thresholds = default_weak_thresholds(windows, groups)
    labeled = []
    dropped = 0
    for w in windows:
        label = weak_label(w, thresholds, groups)
        if label is None:
            dropped += 1
        else:
            labeled.append(replace(w, label=label))
    return labeled, dropped
