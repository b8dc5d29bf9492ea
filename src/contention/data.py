"""Windowed metric datasets: synthetic contention scenarios and plumbing.

The synthetic simulator is the ground-truth data source. Each window is an
AR(1) noise floor per metric with one contention class's signature pattern
injected into that class's resource group, plus a lagged leak of every
contended group's pattern into one fixed downstream group. The leak chain
(cpu -> disk -> net, mem -> cpu, net -> mem) is what gives the correlation
graph real class-relevant structure to discover.

Each window draws its label and its noise from its own Philox counter block
under the dataset's one key, so a dataset does not depend on the order in
which windows are made. The generator builds all windows at once in one
(N, T, D) buffer: the AR(1) recursion runs over the whole stack one time
step at a time, and each class's signals are computed once and added in
place to that class's windows, one metric column at a time. Both orders of
work give the same bits as building one window at a time.
MAX_METRIC_COUNT, MAX_GENERATED_VALUES and MAX_SCENARIO_SCALE bound what a
scenario may ask for.

Every producer and consumer works on a Dataset: the values of N windows as
one (N, T, D) array with one label per window (-1 when unlabeled). The
generator returns its buffer as one, and so does the trace loader. Iterating
a Dataset yields one MetricWindow view per window, for code that reads
single windows.

Also here: z-score normalization fitted on the training split, stratified
splitting into index arrays, and the dataset files: one (N, T, D) float64
.npy array of window values beside a JSON manifest that holds the sizes,
metric names and one label per window. `read_json_object` reads it, as it
reads every JSON file of the program; `open_input` opens every input file.

One reader, `read_blocks`, reads a dataset file, and the first fault it meets
ends the read. It reads a block of windows at a time into one buffer: a
multiple of SCORE_CHUNK windows no larger than BLOCK_BYTES, or SCORE_CHUNK
windows where those are larger, so `eval` and `predict` score each block as
it comes with the bits of the whole set. `read_parts` copies the blocks into the
parts of a split (`gather`); `read_dataset` is its one part of every window.
Work that would make a temporary the size of its input goes a block at a
time: the centered rows of `centered_sums`, the one pass behind `fit_norm` and
graph.py's Pearson matrix, the `isfinite` bools of `first_nonfinite` and the
reads of `read_blocks`. A plain column sum makes none, so the means are
numpy's own, and the blockwise sums repeat numpy's additions bit for bit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from contention.errors import ConfigError, ContentionError, DataError, SchemaError, ShapeError
from contention.rng import RngStream

Built = TypeVar("Built")  # what read_json_object's `build` makes of a file's object


class ContentionClass(IntEnum):
    CPU = 0
    IO = 1
    MEM = 2
    NET = 3
    HYBRID = 4


CLASS_NAMES = tuple(ContentionClass.__members__)
NUM_CLASSES = len(CLASS_NAMES)
GROUP_NAMES = ("cpu", "mem", "disk", "net")
# Fixed directed leak map: a contended group bleeds a delayed copy of its
# pattern into exactly one downstream group.
DOWNSTREAM = {"cpu": "disk", "disk": "net", "mem": "cpu", "net": "mem"}

DATASET_FORMAT_VERSION = 3
VALUES_DTYPE = np.dtype("<f8")
# Bounds on what one synthetic scenario may ask for, checked before anything
# is allocated: the metrics of one window, the values of one generated
# dataset (8 bytes each), and the signal amplitude and noise scale.
MAX_METRIC_COUNT = 1024
MAX_GENERATED_VALUES = 10**8
MAX_SCENARIO_SCALE = 1e6
# The AR(1) coefficient of the noise floor. Below 1 in magnitude the
# recursion is stationary: a value's noise part has a standard deviation of
# at most noise_std / sqrt(1 - 0.8**2) = noise_std / 0.6, so with the bounded
# scales every generated value stays far inside the double range.
AR_COEFF = 0.8


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        index = np.asarray(index)  # an index array always gathers; a slice would give a view
        return replace(self, values=self.values[index], labels=self.labels[index])

    def __iter__(self) -> Iterator[MetricWindow]:
        """Window i as a view of its values, with source "{source}:{i}"."""
        for i, (values, label) in enumerate(zip(self.values, self.labels.tolist())):
            yield MetricWindow(values, None if label < 0 else label, f"{self.source}:{i}",
                               self.metric_names)


# The most bytes of values that a blockwise pass reads or reduces at once.
BLOCK_BYTES = 1 << 20
# Windows per forward pass when scoring: one pass over a whole dataset would keep
# every window's intermediates alive, about 25 kB each, and stacks of 64 score as
# fast per window as larger ones. read_blocks' blocks are multiples of it.
SCORE_CHUNK = 64


def _block_spans(n: int, item_bytes: int, multiple: int = 1) -> Iterator[slice]:
    """Consecutive slices that cover range(n) in order, each of the most items of
    item_bytes that BLOCK_BYTES holds in a multiple of `multiple`, and at least `multiple`."""
    step = max(1, BLOCK_BYTES // max(1, item_bytes) // multiple) * multiple
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _row_blocks(rows: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of a C-order (M, D) array in order, as views of a block of them at a time.

    numpy reduces axis 0 of a C-order array with D > 1 one row after another,
    so _add_rows over these blocks repeats the additions of `rows.sum(axis=0)`.
    A single column it sums pairwise, an order no blockwise sum repeats: for
    D = 1 the one block is the whole array.
    """
    if rows.shape[1] == 1:
        return iter((rows,))
    return (rows[s] for s in _block_spans(len(rows), rows.shape[1] * rows.itemsize))


def _add_rows(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """total (None before the first block) plus the column sums of rows, with
    total as the first row of the reduction, so that the sums over _row_blocks
    equal the whole array's bit for bit."""
    return np.add.reduce(rows if total is None else np.concatenate([total[None], rows]), axis=0)


def centered_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, squares, gram) of an (M, D) array: the column means, the column sums of
    the squared deviations from them, and the (D, D) sum of the deviations' products.

    The deviations are made a block of rows at a time, so no (M, D) temporary exists;
    the means (`rows.mean(axis=0)`) and the squares have the bits of the whole array's
    sums. The Gram matrix, summed a block at a time, can differ in its last bits from
    the one-product `centered.T @ centered` (Higham 2002); within one block it cannot.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)  # C order: _row_blocks' sums are exact
    mean = rows.mean(axis=0)
    squares = gram = None
    for block in _row_blocks(rows):
        centered = block - mean
        product = centered.T @ centered
        gram = product if gram is None else gram + product
        centered *= centered
        squares = _add_rows(squares, centered)
    return mean, squares, gram


def first_nonfinite(values: np.ndarray) -> int:
    """Index of the first window of an (N, T, D) stack holding a non-finite value,
    or -1; checked a block of windows at a time."""
    for s in _block_spans(len(values), values.nbytes // max(1, len(values))):
        finite = np.isfinite(values[s]).all(axis=(1, 2))
        if not finite.all():
            return s.start + int(np.argmin(finite))
    return -1


def default_groups(metric_count: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Equal quarters of [0, D) in canonical group order."""
    if metric_count % 4 != 0 or metric_count < 4:
        raise ConfigError(
            f"metric count {metric_count} does not divide into 4 equal resource groups"
        )
    per = metric_count // 4
    return tuple(
        (name, tuple(range(i * per, (i + 1) * per)))
        for i, name in enumerate(GROUP_NAMES)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic contention simulator.

    The resource groups are fixed: equal quarters of the metrics in
    GROUP_NAMES order (`default_groups`), so metric_count is a multiple of 4.
    """

    metric_count: int = 12  # D
    window_len: int = 32  # T
    separation: float = 1.0  # s, injected signal amplitude
    leakage: float = 0.3  # cross-group coupling strength
    leak_lag: int = 4  # steps of delay on leaked signal
    noise_std: float = 0.2

    def __post_init__(self):
        if not 4 <= self.metric_count <= MAX_METRIC_COUNT:
            raise ConfigError(
                f"metric_count must lie in [4, {MAX_METRIC_COUNT}], got {self.metric_count}"
            )
        if self.window_len < 8:
            raise ConfigError(f"window_len must be >= 8, got {self.window_len}")
        if not 0 <= self.separation <= MAX_SCENARIO_SCALE:
            raise ConfigError(
                f"separation must lie in [0, {MAX_SCENARIO_SCALE:g}], got {self.separation}"
            )
        if not 0.0 <= self.leakage <= 1.0:
            raise ConfigError(f"leakage must lie in [0, 1], got {self.leakage}")
        if not 0 <= self.leak_lag < self.window_len:
            raise ConfigError(
                f"leak_lag must lie in [0, window_len), got {self.leak_lag}"
            )
        if not 0 < self.noise_std <= MAX_SCENARIO_SCALE:
            raise ConfigError(
                f"noise_std must lie in (0, {MAX_SCENARIO_SCALE:g}], got {self.noise_std}"
            )
        default_groups(self.metric_count)

    @property
    def group_map(self) -> dict[str, tuple[int, ...]]:
        return dict(default_groups(self.metric_count))

    def metric_names(self) -> tuple[str, ...]:
        return tuple(f"{group}{j}" for group in GROUP_NAMES for j in range(self.metric_count // 4))


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

    Window i draws its label and then its (T, D) noise from counter block i
    of `rng`, which `rng.block_generators(n)` yields: the generator of
    `rng.generator().bit_generator.jumped(i)`. Window i thus depends only on
    (seed, path, i), so the dataset is identical no matter what order (or
    concurrency) produced it. The windows are built together in one
    (N, T, D) buffer: the noise is written straight into it, the AR(1)
    recursion runs in place over the whole stack one step at a time, and
    each class's signals are built once and added in place to that class's
    windows, one group column at a time, so no copy of them is made.
    That buffer is returned as a Dataset with source "synthetic:{rng.seed}".
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
    for i, gen in enumerate(rng.block_generators(n)):
        labels[i] = gen.integers(NUM_CLASSES)
        x[i] = gen.normal(0.0, cfg.noise_std, size=(t_len, d))
    for t in range(1, t_len):
        # eps[t] + a * x[t-1] is bitwise a * x[t-1] + eps[t]: IEEE addition commutes
        x[:, t] += AR_COEFF * x[:, t - 1]
    group_map = cfg.group_map
    for label in range(NUM_CLASSES):
        rows = np.flatnonzero(labels == label)
        # the groups are disjoint, so each cell gets at most one add
        for name, sig in class_signals(cfg, label).items():
            for column in group_map[name]:
                x[rows, :, column] += sig
    bad = first_nonfinite(x)
    if bad >= 0:
        raise DataError(f"window 'synthetic:{rng.seed}:{bad}' contains non-finite values")
    return Dataset(x, labels, cfg.metric_names(), f"synthetic:{rng.seed}")


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-metric z-score statistics fitted on the training split only."""

    mean: np.ndarray  # (D,)
    std: np.ndarray  # (D,), floored at 1e-8

    STD_FLOOR = 1e-8

    @property
    def metric_count(self) -> int:
        return self.mean.shape[0]


def fit_norm(data: Dataset) -> NormStats:
    """Population mean/std per metric over all rows of all windows: rows.mean(axis=0) and
    rows.std(axis=0) bit for bit, from `centered_sums`, without std's (M, D) temporary."""
    if not len(data):
        raise DataError("cannot fit normalization on an empty split")
    rows = data.values.reshape(-1, data.metric_count)
    mean, squares, _ = centered_sums(rows)
    std = np.maximum(np.sqrt(squares / len(rows)), NormStats.STD_FLOOR)
    return NormStats(mean=mean, std=std)


def apply_norm(data: Dataset | MetricWindow, stats: NormStats) -> Dataset | MetricWindow:
    """A Dataset or a MetricWindow z-scored with `stats` in a new array; `data` is not written."""
    return norm_in_place(replace(data, values=data.values.copy()), stats)


def norm_in_place(data: Dataset | MetricWindow, stats: NormStats) -> Dataset | MetricWindow:
    """`data` z-scored with `stats` by writing its values, which the caller
    must have allocated itself: a view, such as a basic slice, would write its parent."""
    if data.metric_count != stats.metric_count:
        raise ShapeError(
            f"data has {data.metric_count} metrics, stats cover {stats.metric_count}"
        )
    values = data.values
    values -= stats.mean
    values /= stats.std
    return data


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


# Each class's windows go to train, val and test in these shares.
SPLIT_FRACTIONS = (0.7, 0.15, 0.15)


def split(labels: np.ndarray, rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded stratified train/val/test split of windows by their labels.

    Returns each part's window indices. Within each class the windows are
    shuffled and apportioned by largest remainder, so every split's
    per-class count is within one window of its SPLIT_FRACTIONS share.
    Each part lists its strata in label order.
    """
    if not len(labels):
        raise DataError("cannot split an empty dataset")
    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    for idx in stratified_shuffle(labels, rng):
        bounds = np.cumsum([0] + _apportion(idx.size))
        for part, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            part.append(idx[lo:hi])
    out = tuple(np.concatenate(part) for part in parts)
    for name, part in zip(("train", "val", "test"), out):
        if not part.size:
            raise DataError(f"{len(labels)} windows leave the {name} part of the "
                            "per-class 70/15/15 split empty")
    return out


def _apportion(n: int) -> list[int]:
    """Largest-remainder rounding of n into the three SPLIT_FRACTIONS parts."""
    exact = [f * n for f in SPLIT_FRACTIONS]
    counts = [int(np.floor(e)) for e in exact]
    remainders = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
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
        np.save(fh, np.ascontiguousarray(data.values, dtype=VALUES_DTYPE), allow_pickle=False)
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


def json_int(value, what: str, least: int = 1) -> int:
    """value if it is a JSON integer, not a bool, >= least (0 or 1); else a SchemaError."""
    if type(value) is not int or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise SchemaError(f"{what} must be a {kind} integer, got {value!r}")
    return value


def json_names(value, count: int, what: str, empty_ok: bool = False) -> tuple[str, ...]:
    """value as a tuple if a JSON list of `count` strings, or [] if empty_ok; else a SchemaError."""
    if empty_ok and value == []:
        return ()
    if not isinstance(value, list) or len(value) != count or set(map(type, value)) - {str}:
        either = "an empty list or " if empty_ok else ""
        raise SchemaError(f"{what} must be {either}a list of {count} strings, got {value!r}")
    return tuple(value)


@contextmanager
def open_input(path: Path, what: str, error: type[ContentionError], **kwargs) -> Iterator[IO]:
    """The input file at path, open with open()'s `kwargs` for the block. A missing file is an
    `error` naming it, and so is every OSError raised while it is open, by open() (a directory)
    or by a read (an I/O error); so the block writes no output, whose faults it would misname."""
    if not path.exists():
        raise error(f"{what} {path} is not found")
    try:
        with path.open(**kwargs) as fh:
            yield fh
    except OSError as exc:
        raise error(f"{what} {path} cannot be read: {exc}") from exc


def read_json_object(path: Path, what: str, error: type[ContentionError],
                     build: Callable[[dict], Built], version: int | None = None,
                     keys: tuple[str, ...] = ()) -> Built:
    """`build` of the top-level object of the JSON file at path, opened by open_input, which
    is first checked to be UTF-8 JSON, an object, of format_version `version` if one is given,
    and then (an older format lacks newer keys) to hold `keys`, and when `version` is given no
    other key. Every fault, a ContentionError or KeyError, TypeError, ValueError or
    OverflowError of `build` too, is an `error` naming `what` and path."""
    with open_input(path, what, error, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long
            raise error(f"{what} {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must hold a JSON object, got a {type(data).__name__}")
    found = data.get("format_version")
    if version is not None and (type(found) is not int or found != version):  # 4.0, true refused
        raise error(f"{what} {path} has format_version {found!r}, not {version}; "
                    "regenerate it with this version's `contention gen`, `ingest` or `train`")
    if missing := [key for key in keys if key not in data]:
        raise error(f"{what} {path} is missing key '{missing[0]}'")
    if version is not None and (unknown := [k for k in data if k not in ("format_version", *keys)]):
        raise error(f"{what} {path}: unknown key '{unknown[0]}'")
    try:
        return build(data)
    except ContentionError as exc:  # first: every ContentionError but NumericError is a ValueError
        raise error(f"{what} {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} {path} has a missing or malformed field "
                    f"({type(exc).__name__}: {exc})") from exc


def _manifest_fields(manifest: dict) -> tuple[tuple[int, ...], tuple[str, ...], str, np.ndarray]:
    """The (N, T, D) shape, metric names, source and labels of a dataset manifest."""
    shape = tuple(json_int(manifest[key], f"'{key}'")
                  for key in ("n_windows", "window_len", "metric_count"))
    names = json_names(manifest["metric_names"], shape[2], "'metric_names'")
    for key, fixed in (("num_classes", NUM_CLASSES), ("class_names", list(CLASS_NAMES))):
        if type(manifest[key]) is not type(fixed) or manifest[key] != fixed:  # 5.0 refused
            raise SchemaError(f"'{key}' must be {fixed!r}, got {manifest[key]!r}")
    source, labels = manifest["source"], manifest["labels"]
    if not isinstance(source, str):
        raise SchemaError(f"'source' must be a string, got {source!r}")
    if not isinstance(labels, list) or len(labels) != shape[0]:
        raise SchemaError(f"'labels' must be a list of {shape[0]} entries")
    for i, label in enumerate(labels):
        if label is not None and (type(label) is not int or not 0 <= label < NUM_CLASSES):
            raise SchemaError(f"label {label!r} of window {i} is neither null "
                              f"nor an integer in [0, {NUM_CLASSES})")
    labels = np.array([UNLABELED if label is None else label for label in labels], dtype=np.int64)
    return shape, names, source, labels


@contextmanager
def read_blocks(path: str | Path) -> Iterator[tuple[Iterator[Dataset], tuple[int, ...],
                                                    tuple[str, ...], str, np.ndarray]]:
    """An iterator of the Dataset blocks of the file write_dataset wrote at path,
    and the (T, D) window shape, metric names, source and labels (UNLABELED for
    null) of its manifest. Every malformed file ends in a DataError naming it.

    On entry the manifest, then the array's header, dtype and shape are
    checked, through a memory map whose pages are never read, so a header or
    manifest claiming more than the file holds allocates nothing. Each block
    drawn is read, in file order, into one buffer that its holder may write
    until the next is drawn: a multiple of SCORE_CHUNK windows. The array must
    be in C order, as write_dataset writes it; Fortran order is a SchemaError,
    like a wrong dtype or shape. The first fault ends the read: a block holding
    a non-finite value is a DataError naming its first such window, raised
    before the block is passed on and before the next is read.
    """
    path = Path(path)
    with open_input(path, "dataset", DataError, mode="rb") as fh:
        shape, names, source, labels = read_json_object(
            manifest_path(path), "manifest", SchemaError, _manifest_fields, DATASET_FORMAT_VERSION,
            ("n_windows", "window_len", "metric_count", "num_classes", "metric_names",
             "class_names", "source", "labels"))
        # numpy's header parser answers hostile bytes with ValueError, OSError,
        # SyntaxError, IndexError, OverflowError or tokenize.TokenError, and warns
        # before it rejects a shape whose size overflows
        try:
            with np.errstate(over="ignore"):
                mapped = np.lib.format.open_memmap(path, mode="r")
        except Exception as exc:
            raise DataError(f"dataset {path} is not a readable .npy array: {exc}") from exc
        if mapped.dtype != VALUES_DTYPE or mapped.shape != shape:
            raise SchemaError(
                f"dataset {path} holds a {mapped.dtype.str} array of shape {mapped.shape}; "
                f"the manifest needs {VALUES_DTYPE.str} of shape {shape}"
            )
        if not mapped.flags.c_contiguous:
            raise SchemaError(f"dataset {path} holds a Fortran-order array, not a C-order one")
        fh.seek(mapped.offset)
        spans = list(_block_spans(shape[0], mapped.nbytes // shape[0], SCORE_CHUNK))
        buffer = np.empty((spans[0].stop, *shape[1:]))  # every block is read into it
        values = (_read_into(fh, buffer[: s.stop - s.start], path) for s in spans)

        def blocks() -> Iterator[Dataset]:
            for v, s in zip(values, spans):
                if (bad := first_nonfinite(v)) >= 0:
                    raise DataError(f"dataset {path}: window {s.start + bad} "
                                    "has a non-finite value")
                yield Dataset(v, labels[s], names, source)

        yield blocks(), shape[1:], names, source, labels


def _read_into(fh: BinaryIO, values: np.ndarray, path: Path) -> np.ndarray:
    """values, a C-order array, filled with the file's next values.nbytes bytes."""
    if fh.readinto(values) != values.nbytes:
        raise DataError(f"dataset {path} holds fewer values than its header declares")
    return values


def read_dataset(path: str | Path) -> Dataset:
    """The dataset file at path as one Dataset: read_parts' one part of every
    window in order, with every check of read_blocks."""
    (data,) = read_parts(path, lambda labels: [np.arange(len(labels))])
    return data


def gather(blocks: Iterable[np.ndarray], parts: Sequence[np.ndarray],
           window_shape: tuple[int, ...]) -> list[np.ndarray]:
    """One new (len(part), T, D) array per index array in parts, whose row p is window part[p].

    `blocks` yields the windows in order, a block of them at a time, and each
    block's windows are copied to the rows that name them as it comes, so
    only one block need exist at a time. Every block is consumed.
    """
    out = [np.empty((len(part), *window_shape)) for part in parts]
    order = [np.argsort(part, kind="stable") for part in parts]
    wanted = [part[o] for part, o in zip(parts, order)]  # each part's windows, ascending
    lo = 0
    for block in blocks:
        hi = lo + len(block)
        for values, o, w in zip(out, order, wanted):
            a, b = np.searchsorted(w, (lo, hi))
            values[o[a:b]] = block[w[a:b] - lo]
        lo = hi
    return out


def read_parts(path: str | Path,
               part_index: Callable[[np.ndarray], Sequence[np.ndarray]]) -> list[Dataset]:
    """The parts of the dataset file at path whose windows the index arrays of
    `part_index(labels)` name, each gathered into a new C-order array from the
    blocks of read_blocks, so the whole set never exists in memory. The labels
    come from the manifest, so part_index's faults (a set too small to split)
    end the read after those of the manifest and header, before any value.
    """
    with read_blocks(path) as (blocks, window_shape, names, source, labels):
        parts = part_index(labels)
        values = gather((block.values for block in blocks), parts, window_shape)
    return [Dataset(v, labels[part], names, source) for v, part in zip(values, parts)]
