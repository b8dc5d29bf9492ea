"""Windowed metric datasets: synthetic contention scenarios and plumbing.

The synthetic simulator is the ground-truth data source. Each window is an
AR(1) noise floor per metric with one contention class's signature pattern
injected into that class's resource group, plus a lagged leak of every
contended group's pattern into one fixed downstream group. The leak chain
(cpu -> disk -> net, mem -> cpu, net -> mem) is what gives the correlation
graph real class-relevant structure to discover.

Each window draws its label and its noise from its own RNG substream, so a
dataset does not depend on the order in which windows are made. The
generator nonetheless builds all windows at once in one (N, T, D) buffer:
the AR(1) recursion runs over the whole stack one time step at a time, and
each class's signals are computed once and added to that class's windows.
Both orders of work give the same bits as building one window at a time.
MAX_METRIC_COUNT and MAX_GENERATED_VALUES bound what a scenario may ask for.

Every producer and consumer works on a Dataset: the values of N windows as
one (N, T, D) array with one label per window (-1 when unlabeled). The
generator returns its buffer as one, and so does the trace loader. Iterating
a Dataset yields one MetricWindow view per window, for code that reads
single windows.

Also here: a hand-written threshold baseline used to certify that generated
scenarios are learnable at all, z-score normalization fitted on the training
split, stratified splitting into index arrays, and the dataset files: one
(N, T, D) float64 .npy array of window values beside a JSON manifest that
holds the sizes, metric names and one label per window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Iterator

import numpy as np

from contention.errors import ConfigError, DataError, SchemaError, ShapeError
from contention.rng import RngStream


class ContentionClass(IntEnum):
    CPU = 0
    IO = 1
    MEM = 2
    NET = 3
    HYBRID = 4


CLASS_NAMES = ("CPU", "IO", "MEM", "NET", "HYBRID")
NUM_CLASSES = len(CLASS_NAMES)
GROUP_NAMES = ("cpu", "mem", "disk", "net")
# Fixed directed leak map: a contended group bleeds a delayed copy of its
# pattern into exactly one downstream group.
DOWNSTREAM = {"cpu": "disk", "disk": "net", "mem": "cpu", "net": "mem"}

DATASET_FORMAT_VERSION = 3
VALUES_DTYPE = np.dtype("<f8")
# Bounds on what one synthetic scenario may ask for, checked before anything
# is allocated: the metrics of one window, and the values of one generated
# dataset (8 bytes each).
MAX_METRIC_COUNT = 1024
MAX_GENERATED_VALUES = 10**8


@dataclass(frozen=True)
class MetricWindow:
    """One T x D slice of aligned metric series, optionally labeled."""

    values: np.ndarray  # (T, D), rows are timesteps
    label: int | None
    source: str
    metric_names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeError(f"window values must be (T, D), got shape {v.shape}")
        if len(self.metric_names) != v.shape[1]:
            raise ShapeError(
                f"{len(self.metric_names)} metric names for {v.shape[1]} columns"
            )
        if not np.all(np.isfinite(v)):
            raise DataError(f"window '{self.source}' contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def window_len(self) -> int:
        return self.values.shape[0]

    @property
    def metric_count(self) -> int:
        return self.values.shape[1]


UNLABELED = -1


@dataclass(frozen=True)
class Dataset:
    """N windows of T x D aligned metric series as one array, with their labels."""

    values: np.ndarray  # (N, T, D) float64, rows of each window are timesteps
    labels: np.ndarray  # (N,) int64, UNLABELED for a window without a class
    metric_names: tuple[str, ...]
    source: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if v.ndim != 3:
            raise ShapeError(f"dataset values must be (N, T, D), got shape {v.shape}")
        if labels.shape != v.shape[:1]:
            raise ShapeError(f"{labels.shape} labels for {v.shape[0]} windows")
        if len(self.metric_names) != v.shape[2]:
            raise ShapeError(f"{len(self.metric_names)} metric names for {v.shape[2]} columns")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "metric_names", tuple(self.metric_names))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def window_len(self) -> int:
        return self.values.shape[1]

    @property
    def metric_count(self) -> int:
        return self.values.shape[2]

    def subset(self, index: np.ndarray) -> "Dataset":
        """The windows at `index`, in its order, gathered into a new array."""
        return replace(self, values=self.values[index], labels=self.labels[index])

    def __iter__(self) -> Iterator[MetricWindow]:
        """Window i as a view of its values, with source "{source}:{i}"."""
        for i, (values, label) in enumerate(zip(self.values, self.labels.tolist())):
            yield MetricWindow(values, None if label < 0 else label, f"{self.source}:{i}",
                               self.metric_names)


def first_nonfinite(values: np.ndarray) -> int:
    """Index of the first window of an (N, T, D) stack holding a non-finite value, or -1."""
    finite = np.isfinite(values).all(axis=(1, 2))
    return -1 if finite.all() else int(np.argmin(finite))


def default_groups(metric_count: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Equal quarters of [0, D) in canonical group order."""
    if metric_count % 4 != 0 or metric_count < 4:
        raise ConfigError(
            f"metric count {metric_count} does not divide into 4 equal resource groups; "
            "pass an explicit group map"
        )
    per = metric_count // 4
    return tuple(
        (name, tuple(range(i * per, (i + 1) * per)))
        for i, name in enumerate(GROUP_NAMES)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic contention simulator."""

    metric_count: int = 12  # D
    window_len: int = 32  # T
    separation: float = 1.0  # s, injected signal amplitude
    leakage: float = 0.3  # cross-group coupling strength
    leak_lag: int = 4  # steps of delay on leaked signal
    ar_coeff: float = 0.8
    noise_std: float = 0.2
    groups: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    def __post_init__(self):
        if not 4 <= self.metric_count <= MAX_METRIC_COUNT:
            raise ConfigError(
                f"metric_count must lie in [4, {MAX_METRIC_COUNT}], got {self.metric_count}"
            )
        if self.window_len < 8:
            raise ConfigError(f"window_len must be >= 8, got {self.window_len}")
        if self.separation < 0:
            raise ConfigError(f"separation must be >= 0, got {self.separation}")
        if not 0.0 <= self.leakage <= 1.0:
            raise ConfigError(f"leakage must lie in [0, 1], got {self.leakage}")
        if not 0 <= self.leak_lag < self.window_len:
            raise ConfigError(
                f"leak_lag must lie in [0, window_len), got {self.leak_lag}"
            )
        if not abs(self.ar_coeff) < 1.0:
            raise ConfigError(f"ar_coeff must lie in (-1, 1), got {self.ar_coeff}")
        if self.noise_std <= 0:
            raise ConfigError(f"noise_std must be positive, got {self.noise_std}")
        groups = self.groups
        if groups is None:
            groups = default_groups(self.metric_count)
        else:
            groups = _canonical_groups(groups, self.metric_count)
        object.__setattr__(self, "groups", groups)

    @property
    def group_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.groups)

    def metric_names(self) -> tuple[str, ...]:
        names = [""] * self.metric_count
        for group, cols in self.groups:
            for j, col in enumerate(cols):
                names[col] = f"{group}{j}"
        return tuple(names)


def _canonical_groups(groups, metric_count: int):
    mapping = dict(groups)
    if set(mapping) != set(GROUP_NAMES):
        raise ConfigError(
            f"group map must name exactly {sorted(GROUP_NAMES)}, got {sorted(mapping)}"
        )
    seen: set[int] = set()
    for name in GROUP_NAMES:
        cols = tuple(int(c) for c in mapping[name])
        if not cols:
            raise ConfigError(f"group '{name}' is empty")
        if seen & set(cols):
            raise ConfigError(f"group '{name}' overlaps another group")
        seen |= set(cols)
        mapping[name] = cols
    if seen != set(range(metric_count)):
        raise ConfigError(
            f"groups must cover metrics 0..{metric_count - 1} exactly; covered {sorted(seen)}"
        )
    return tuple((name, mapping[name]) for name in GROUP_NAMES)


def _delay(pattern: np.ndarray, lag: int) -> np.ndarray:
    """Shift a pattern right by `lag` steps, zero-padding the head."""
    if lag == 0:
        return pattern.copy()
    out = np.zeros_like(pattern)
    out[lag:] = pattern[:-lag]
    return out


def _base_patterns(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """The four class signature series at amplitude s over T steps."""
    t = np.arange(cfg.window_len, dtype=np.float64)
    s = cfg.separation
    quarter = cfg.window_len // 4
    u = np.minimum(t / quarter, 1.0)
    plateau = s * (3.0 * u * u - 2.0 * u ** 3)  # smooth step up, then held
    ramp = s * t / (cfg.window_len - 1)
    spikes = np.where(t.astype(np.int64) % 5 == 0, 2.0 * s, 0.0)
    burst = np.zeros(cfg.window_len)
    mid = slice(quarter, 3 * quarter)
    burst[mid] = s * np.sin(2.0 * np.pi * t[mid] / 8.0)
    return {"plateau": plateau, "ramp": ramp, "spikes": spikes, "burst": burst}


def class_signals(cfg: ScenarioConfig, label: int) -> dict[str, np.ndarray]:
    """Injected signal per resource group for one class, leaks included.

    Primary signatures: CPU -> plateau on the cpu group, MEM -> ramp on mem,
    IO -> spike train on disk, NET -> sinusoid burst on net, HYBRID -> the
    CPU plateau plus the IO spike train at 0.7 amplitude delayed by the leak
    lag. Every contended group then leaks leakage * its own (already scaled
    and delayed) pattern, delayed by another lag, into its downstream group.
    """
    base = _base_patterns(cfg)
    if label == ContentionClass.CPU:
        primary = {"cpu": base["plateau"]}
    elif label == ContentionClass.IO:
        primary = {"disk": base["spikes"]}
    elif label == ContentionClass.MEM:
        primary = {"mem": base["ramp"]}
    elif label == ContentionClass.NET:
        primary = {"net": base["burst"]}
    elif label == ContentionClass.HYBRID:
        primary = {
            "cpu": base["plateau"],
            "disk": 0.7 * _delay(base["spikes"], cfg.leak_lag),
        }
    else:
        raise DataError(f"label {label} is outside [0, {NUM_CLASSES - 1}]")
    signals = {name: sig.copy() for name, sig in primary.items()}
    for name, sig in primary.items():
        down = DOWNSTREAM[name]
        leaked = cfg.leakage * _delay(sig, cfg.leak_lag)
        signals[down] = signals.get(down, np.zeros(cfg.window_len)) + leaked
    return signals


def generate(cfg: ScenarioConfig, n: int, rng: RngStream) -> Dataset:
    """n labeled synthetic windows, class drawn uniformly per window.

    Window i draws its label and then its (T, D) noise from its own RNG
    substream `rng.substream(i)`, so the dataset is identical no matter what
    order (or concurrency) produced it. The windows are built together in one
    (N, T, D) buffer: the noise is written straight into it, the AR(1)
    recursion runs in place over the whole stack one step at a time, and each
    class's signals are built once and added to that class's rows. That
    buffer is returned as a Dataset with source "synthetic:{rng.seed}".
    """
    if n < 1:
        raise ConfigError(f"window count must be >= 1, got {n}")
    t_len, d = cfg.window_len, cfg.metric_count
    if n * t_len * d > MAX_GENERATED_VALUES:
        raise ConfigError(
            f"{n} windows of {t_len} x {d} values exceed the limit of "
            f"{MAX_GENERATED_VALUES} generated values"
        )
    x = np.empty((n, t_len, d))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        gen = rng.substream(i).generator()
        labels[i] = gen.integers(NUM_CLASSES)
        x[i] = gen.normal(0.0, cfg.noise_std, size=(t_len, d))
    for t in range(1, t_len):
        # eps[t] + a * x[t-1] is bitwise a * x[t-1] + eps[t]: IEEE addition commutes
        x[:, t] += cfg.ar_coeff * x[:, t - 1]
    group_map = cfg.group_map
    for label in range(NUM_CLASSES):
        rows = np.flatnonzero(labels == label)
        block = x[rows]
        # the groups are disjoint, so each cell gets at most one add
        for name, sig in class_signals(cfg, label).items():
            block[:, :, list(group_map[name])] += sig[:, None]
        x[rows] = block
    bad = first_nonfinite(x)
    if bad >= 0:
        raise DataError(f"window 'synthetic:{rng.seed}:{bad}' contains non-finite values")
    return Dataset(x, labels, cfg.metric_names(), f"synthetic:{rng.seed}")


def _group_series(window: MetricWindow, cols: tuple[int, ...]) -> np.ndarray:
    return window.values[:, list(cols)].mean(axis=1)


def baseline_predict(window: MetricWindow, cfg: ScenarioConfig) -> int:
    """Hand-written threshold classifier over group statistics.

    Exists to certify scenario learnability independently of the trained
    model. Uses the group-mean level for the plateau and ramp signatures, a
    spike count above the disk group's median for the spike train, and the
    mid-window variance of the net group mean for the zero-mean sinusoid
    (its time average vanishes, so a plain level test cannot see it).
    """
    scale = max(cfg.separation, 1e-12)
    group_map = cfg.group_map
    series = {name: _group_series(window, group_map[name]) for name in GROUP_NAMES}
    cpu_level = float(series["cpu"].mean())
    mem_level = float(series["mem"].mean())
    disk = series["disk"]
    disk_excess = disk - float(np.median(disk))
    spike_count = int((disk_excess > 0.9 * scale).sum())
    quarter = window.window_len // 4
    mid = series["net"][quarter : 3 * quarter]
    net_power = float(((mid - mid.mean()) ** 2).mean())

    hot_cpu = cpu_level > 0.43 * scale
    hot_mem = mem_level > 0.25 * scale
    hot_disk = spike_count >= 2
    hot_net = net_power > scale * scale / 6.0
    if hot_cpu and hot_disk:
        return int(ContentionClass.HYBRID)
    if hot_cpu:
        return int(ContentionClass.CPU)
    if hot_disk:
        return int(ContentionClass.IO)
    if hot_mem:
        return int(ContentionClass.MEM)
    if hot_net:
        return int(ContentionClass.NET)
    ratios = {
        ContentionClass.CPU: cpu_level / (0.43 * scale),
        ContentionClass.IO: float(disk_excess.max()) / (0.9 * scale),
        ContentionClass.MEM: mem_level / (0.25 * scale),
        ContentionClass.NET: net_power / (scale * scale / 6.0),
    }
    return int(max(ratios, key=lambda c: ratios[c]))


def baseline_accuracy(data: Dataset, cfg: ScenarioConfig) -> float:
    if not len(data):
        raise DataError("cannot score an empty dataset")
    hits = sum(1 for w in data if w.label is not None and baseline_predict(w, cfg) == w.label)
    return hits / len(data)


@dataclass(frozen=True)
class NormStats:
    """Per-metric z-score statistics fitted on the training split only."""

    mean: np.ndarray  # (D,)
    std: np.ndarray  # (D,), floored at 1e-8

    STD_FLOOR = 1e-8

    @property
    def metric_count(self) -> int:
        return self.mean.shape[0]


def fit_norm(data: Dataset) -> NormStats:
    """Population mean/std per metric over all rows of all windows."""
    if not len(data):
        raise DataError("cannot fit normalization on an empty split")
    rows = data.values.reshape(-1, data.metric_count)
    mean = rows.mean(axis=0)
    std = np.maximum(rows.std(axis=0), NormStats.STD_FLOOR)
    return NormStats(mean=mean, std=std)


def apply_norm(data: Dataset | MetricWindow, stats: NormStats) -> Dataset | MetricWindow:
    """A Dataset or a MetricWindow z-scored with `stats`, in one broadcast."""
    if data.metric_count != stats.metric_count:
        raise ShapeError(
            f"data has {data.metric_count} metrics, stats cover {stats.metric_count}"
        )
    values = data.values - stats.mean
    values /= stats.std  # in place: one new array, not two
    return replace(data, values=values)


def stratified_shuffle(labels: np.ndarray, rng: RngStream) -> list[np.ndarray]:
    """Window indices per label, smallest label first, each shuffled.

    One generator from `rng` shuffles the strata in turn, each from its
    indices in ascending order; unlabeled windows form their own stratum.
    """
    gen = rng.generator()
    strata = []
    for key in np.unique(labels):
        idx = np.flatnonzero(labels == key)
        gen.shuffle(idx)
        strata.append(idx)
    return strata


def split(
    labels: np.ndarray,
    fractions: tuple[float, float, float],
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded stratified train/val/test split of windows by their labels.

    Returns each part's window indices. Within each class the windows are
    shuffled and apportioned by largest remainder, so every split's
    per-class count is within one window of the exact proportional share.
    Each part lists its strata in label order.
    """
    if len(fractions) != 3:
        raise ConfigError(f"need 3 split fractions, got {len(fractions)}")
    if not all(f > 0 for f in fractions):  # also rejects nan
        raise ConfigError(f"split fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got sum {sum(fractions)}")
    if not len(labels):
        raise DataError("cannot split an empty dataset")
    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    for idx in stratified_shuffle(labels, rng):
        bounds = np.cumsum([0] + _apportion(idx.size, fractions))
        for part, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            part.append(idx[lo:hi])
    out = tuple(np.concatenate(part) for part in parts)
    for name, part in zip(("train", "val", "test"), out):
        if not part.size:
            raise ConfigError(f"split fractions {fractions} leave the {name} split empty")
    return out


def _apportion(n: int, fractions: tuple[float, float, float]) -> list[int]:
    """Largest-remainder rounding of n into len(fractions) integer parts."""
    exact = [f * n for f in fractions]
    counts = [int(np.floor(e)) for e in exact]
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in range(n - sum(counts)):
        counts[remainders[i]] += 1
    return counts


# ---------------------------------------------------------------------------
# Dataset files: one (N, T, D) float64 .npy plus a JSON manifest sidecar.


def manifest_path(dataset_path: str | Path) -> Path:
    p = Path(dataset_path)
    return p.with_name(p.stem + ".manifest.json")


def write_dataset(path: str | Path, data: Dataset) -> None:
    """The values as one C-order (N, T, D) float64 .npy, plus the manifest.

    The manifest holds the sizes, metric names, source and one label per
    window (null when unlabeled). The same dataset always produces
    byte-identical files.
    """
    if not len(data):
        raise DataError("refusing to write an empty dataset")
    path = Path(path)
    # through a handle: np.save given a path appends ".npy" to a name that lacks it
    with path.open("wb") as fh:
        np.save(fh, data.values.astype(VALUES_DTYPE, copy=False), allow_pickle=False)
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "n_windows": len(data),
        "window_len": data.window_len,
        "metric_count": data.metric_count,
        "num_classes": NUM_CLASSES,
        "metric_names": list(data.metric_names),
        "class_names": list(CLASS_NAMES),
        "source": data.source,
        "labels": [None if label < 0 else label for label in data.labels.tolist()],
    }
    manifest_path(path).write_text(json.dumps(manifest, indent=2) + "\n")


def _positive_int(manifest: dict, key: str, mpath: Path) -> int:
    value = manifest[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f"manifest {mpath}: '{key}' must be a positive integer, got {value!r}")
    return value


def read_dataset(path: str | Path) -> Dataset:
    """The dataset written by write_dataset, checked against its manifest.

    Every malformed file ends in a DataError naming the file. The array is
    memory-mapped and its dtype and shape checked against the manifest before
    anything is copied, so a header or manifest claiming more than the file
    holds allocates nothing. Unlabeled windows get the label UNLABELED.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    mpath = manifest_path(path)
    if not mpath.exists():
        raise DataError(f"dataset manifest not found: {mpath}")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except (ValueError, OSError, RecursionError) as exc:
        raise SchemaError(f"manifest {mpath} is not valid JSON: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != DATASET_FORMAT_VERSION:
        raise SchemaError(
            f"manifest {mpath} has format_version {version!r}, not {DATASET_FORMAT_VERSION}; "
            "regenerate the dataset with `contention gen` or `contention ingest`"
        )
    for key in ("n_windows", "window_len", "metric_count", "metric_names", "source", "labels"):
        if key not in manifest:
            raise SchemaError(f"manifest {mpath} is missing key '{key}'")
    n_windows, t_len, d = (
        _positive_int(manifest, key, mpath) for key in ("n_windows", "window_len", "metric_count")
    )
    names, source, labels = manifest["metric_names"], manifest["source"], manifest["labels"]
    if not isinstance(names, list) or len(names) != d or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"manifest {mpath}: 'metric_names' must be metric_count {d} strings")
    if not isinstance(source, str):
        raise SchemaError(f"manifest {mpath}: 'source' must be a string, got {source!r}")
    if not isinstance(labels, list) or len(labels) != n_windows:
        raise SchemaError(f"manifest {mpath}: 'labels' must be a list of {n_windows} entries")
    for i, label in enumerate(labels):
        if label is not None and (type(label) is not int or not 0 <= label < NUM_CLASSES):
            raise SchemaError(
                f"manifest {mpath}: label {label!r} of window {i} is neither null "
                f"nor an integer in [0, {NUM_CLASSES})"
            )
    # numpy's header parser answers hostile bytes with ValueError, OSError,
    # SyntaxError, IndexError, OverflowError or tokenize.TokenError, and warns
    # before it rejects a shape whose size overflows
    try:
        with np.errstate(over="ignore"):
            mapped = np.lib.format.open_memmap(path, mode="r")
    except Exception as exc:
        raise DataError(f"{path} is not a readable .npy array: {exc}") from exc
    if mapped.dtype != VALUES_DTYPE or mapped.shape != (n_windows, t_len, d):
        raise SchemaError(
            f"{path} holds a {mapped.dtype.str} array of shape {mapped.shape}; "
            f"the manifest needs {VALUES_DTYPE.str} of shape {(n_windows, t_len, d)}"
        )
    values = np.array(mapped)
    bad = first_nonfinite(values)
    if bad >= 0:
        raise DataError(f"{path}: window {bad} has a non-finite value")
    labels = np.array([UNLABELED if label is None else label for label in labels], dtype=np.int64)
    return Dataset(values, labels, tuple(names), source)
