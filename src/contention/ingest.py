"""Real-trace ingestion: raw machine samples to one Dataset of windows.

Input is a headered UTF-8 CSV with one sample per row: a machine id column,
an integer-seconds timestamp column, and one column per monitored metric.
Columns are found by header name; when a name repeats, its last column is
read; a leading byte-order mark is dropped. The file is parsed in one pass
into flat buffers: timestamps as Python ints (of any size), metric values as
float64 and machine ids as small integer codes. The data lines are taken in
blocks of BLOCK_LINES. numpy's C text reader parses a block when it is plain:
printable ASCII, no quote, no carriage return other than in CRLF, and no
longer than csv's field size limit. A csv loop, which parses each cell with
int() or float(), reads every block that is not plain or that numpy refuses
(one bad row is enough), and from the first quote or lone CR on it reads the
rest of the file. On plain text numpy accepts only cells that int() and
float() accept, with the same values, so both readers give the same rows,
counts and errors in file order. Blank lines are ignored. A row is skipped
and counted under the first of these reasons that applies:

1. unparseable: it is too short to hold the timestamp or a metric cell, the
   timestamp is not an integer, or a metric cell is not a number;
2. non-finite: a metric value is nan or infinite;
3. no machine id: its machine cell is empty or missing.

The kept rows are grouped by machine and stable-sorted by timestamp. Each
machine's samples are bucket-mean resampled onto a fixed step counted from
its first timestamp, and the series is split at every run of empty buckets
longer than forward fill may bridge; shorter runs are filled with the last
observed value. Windows are cut from each segment, starting every stride
buckets from the machine's first bucket, and stacked once into an unlabeled
Dataset; a parallel tuple names each window's machine and start time.

Real traces carry no contention labels, so weak labeling assigns classes by
per-group utilization thresholds, computed over the dataset's windows.
Windows where no group runs hot stay unlabeled and are dropped from the
labeled subset it returns.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from contention.data import GROUP_NAMES, UNLABELED, ContentionClass, Dataset, first_nonfinite
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


# Upper bound on max_fill. A segment holds at most max_fill + 1 buckets per
# kept row, so this bounds what resampling allocates per row of the trace.
MAX_FILL_LIMIT = 64

# Data lines per np.loadtxt call. One row numpy refuses sends its whole block
# to the csv loop, so larger blocks pay less call overhead on clean traces and
# lose more on dirty ones. ingest_csv time against the csv loop alone, on the
# benchmark's ingest trace (0.5% malformed rows) and on one with 5%: 8 lines
# -19% and -5%, 16 lines -26% and -11%, 32 lines -27% and -6% (medians of 12
# in-process runs, 2-core VM, Python 3.11, numpy 2.4).
BLOCK_LINES = 16
# Characters of a block numpy may parse: printable ASCII and the line feed.
PLAIN = bytes(range(ord(" "), ord("~") + 1)) + b"\n"


@dataclass(frozen=True)
class IngestConfig:
    window_len: int = 32
    stride: int | None = None  # defaults to window_len: non-overlapping windows
    resample_step: int = 60  # seconds per bucket
    max_fill: int = 3  # longest run of missing buckets forward fill may bridge, <= MAX_FILL_LIMIT

    def __post_init__(self):
        if self.window_len < 1:
            raise ConfigError(f"window_len must be >= 1, got {self.window_len}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.resample_step < 1:
            raise ConfigError(f"resample_step must be >= 1, got {self.resample_step}")
        if not 0 <= self.max_fill <= MAX_FILL_LIMIT:
            raise ConfigError(
                f"max_fill must lie in [0, {MAX_FILL_LIMIT}], got {self.max_fill}"
            )

    @property
    def effective_stride(self) -> int:
        return self.window_len if self.stride is None else self.stride


@dataclass(frozen=True)
class IngestResult:
    windows: Dataset  # unlabeled, source "trace:{file name}"
    sources: tuple[str, ...]  # "{machine}@{start timestamp}" per window
    machines: int  # machines with at least one kept row
    rows_read: int  # data rows, blank lines not counted
    rows_unparseable: int
    rows_nonfinite: int
    rows_no_machine: int

    @property
    def skipped_rows(self) -> int:
        return self.rows_unparseable + self.rows_nonfinite + self.rows_no_machine


def _segments(stamps: np.ndarray, values: np.ndarray, step: int, max_fill: int):
    """Bucket-mean resample one machine's time-sorted samples, split at long gaps.

    stamps is an object array of the samples' timestamps (Python ints, so a
    stamp beyond int64 stays exact) and values their (n, D) rows. Buckets
    count steps from the machine's first timestamp. A run of more than
    max_fill empty buckets ends a segment and is never allocated: forward
    fill may not bridge it, so no window may touch it. Yields each segment's
    first bucket and its series, shorter runs filled with the last observed
    value.
    """
    buckets = (stamps - stamps[0]) // step
    cuts = (np.flatnonzero(np.diff(buckets) > max_fill + 1) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(buckets)]):
        first = buckets[lo]
        offsets = (buckets[lo:hi] - first).astype(np.int64)
        n = int(offsets[-1]) + 1
        sums = np.zeros((n, values.shape[1]))
        # a bucket that sums past the double range turns inf or nan here, and
        # the window check downstream reports it as a data error
        with np.errstate(over="ignore", invalid="ignore"):
            # adds in row order, so each bucket sums exactly as a sequential +=
            np.add.at(sums, offsets, values[lo:hi])
            counts = np.bincount(offsets, minlength=n)
            observed = counts > 0
            sums[observed] /= counts[observed, None]
        last = np.maximum.accumulate(np.where(observed, np.arange(n), 0))
        yield first, sums[last]


def ingest_csv(
    path: str | Path, schema: TraceSchema, cfg: IngestConfig
) -> IngestResult:
    """Cut fixed-length windows from a raw trace CSV, one machine at a time.

    Rows that fail a check (see the module docstring) are skipped and
    counted by reason rather than aborting the run; a trace with zero
    complete windows is an error, since silence there would be misleading.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"trace file not found: {path}")
    names = schema.metric_names
    stamps: list[int] = []
    values = array("d")
    machine_of = array("q")
    code: dict[str, int] = {}
    rows_read = unparseable = 0
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:  # a directory, no read permission
        raise DataError(f"trace {path} cannot be read: {exc}") from exc
    with fh, warnings.catch_warnings():
        # older numpy reads an integer cell such as "1.5" via float, warning only
        warnings.simplefilter("error", DeprecationWarning)
        reader = csv.reader(fh)
        try:
            index = {name: i for i, name in enumerate(next(reader, []))}
            for column in (schema.machine_column, schema.timestamp_column, *names):
                if column not in index:
                    raise SchemaError(f"trace {path} is missing required column '{column}'")
            mi, ti = index[schema.machine_column], index[schema.timestamp_column]
            cols = [index[name] for name in names]

            def read_rows(lines):
                """The csv loop: csv splits the cells, int() and float() parse them."""
                nonlocal rows_read, unparseable
                for row in csv.reader(lines):
                    if not row:
                        continue
                    rows_read += 1
                    try:
                        ts = int(row[ti])
                        cells = [float(row[c]) for c in cols]
                    except (IndexError, ValueError):
                        unparseable += 1
                        continue
                    stamps.append(ts)
                    values.fromlist(cells)
                    machine = row[mi] if mi < len(row) else ""
                    machine_of.append(code.setdefault(machine, len(code)))

            usecols, dtype = (ti, *cols), [("ts", "<i8"), ("v", "<f8", (len(cols),))]
            limit = csv.field_size_limit()
            while True:
                block = []
                try:
                    block += islice(fh, BLOCK_LINES)
                except UnicodeDecodeError:
                    read_rows(block)  # a csv error in the lines before it comes first
                    raise
                if not block:
                    break
                text = "".join(block)
                if "\r" in text:
                    text = text.replace("\r\n", "\n")
                if '"' in text or "\r" in text:
                    # a quoted field may span lines, and csv ends a record at a lone CR
                    read_rows(chain(block, fh))
                    break
                lines = [line for line in text.split("\n") if line]  # csv skips blank lines
                parsed = None
                # numpy reads some non-printable cells that float() refuses, such as "\x1c5"
                if lines and len(text) <= limit and not text.encode().translate(None, PLAIN):
                    try:
                        parsed = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                                            usecols=usecols, dtype=dtype, ndmin=1)
                    except (ValueError, DeprecationWarning):
                        pass
                if parsed is None:
                    read_rows(block)
                    continue
                rows_read += len(lines)
                stamps.extend(parsed["ts"].tolist())
                values.frombytes(parsed["v"].tobytes())
                for line in lines:
                    parts = line.split(",", mi + 1)
                    machine = parts[mi] if mi < len(parts) else ""
                    machine_of.append(code.setdefault(machine, len(code)))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"trace {path}: unreadable CSV: {exc}") from exc

    values = np.frombuffer(values, dtype=np.float64).reshape(-1, len(names))
    machine_of = np.frombuffer(machine_of, dtype=np.int64)
    finite = np.isfinite(values).all(axis=1)
    named = machine_of != code.get("", -1)
    keep = finite & named
    rows_per_code = np.bincount(machine_of[keep], minlength=len(code))
    machines = sorted(m for m, c in code.items() if rows_per_code[c])
    rank = np.zeros(len(code), dtype=np.int64)
    rank[[code[m] for m in machines]] = np.arange(len(machines))
    # rows grouped by machine in name order, each machine's stable-sorted by time
    stamps = np.array(stamps, dtype=object)
    rows = np.flatnonzero(keep)
    rows = rows[np.argsort(stamps[rows], kind="stable")]
    rows = rows[np.argsort(rank[machine_of[rows]], kind="stable")]
    bounds = np.cumsum([0, *rows_per_code[[code[m] for m in machines]]]).tolist()

    t, stride, step = cfg.window_len, cfg.effective_stride, cfg.resample_step
    slices: list[np.ndarray] = []
    sources: list[str] = []
    for machine, lo, hi in zip(machines, bounds, bounds[1:]):
        mine = rows[lo:hi]
        t0 = stamps[mine[0]]
        for first, filled in _segments(stamps[mine], values[mine], step, cfg.max_fill):
            # windows start on the machine's grid, every stride buckets from its first
            for start in range(-first % stride, len(filled) - t + 1, stride):
                slices.append(filled[start : start + t])
                sources.append(f"{machine}@{t0 + (first + start) * step}")
    nonfinite = int(np.count_nonzero(~finite))
    no_machine = int(np.count_nonzero(finite & ~named))
    if not slices:
        raise DataError(
            f"trace {path} produced no complete windows (T={t}, step={cfg.resample_step}s, "
            f"{unparseable + nonfinite + no_machine} rows skipped)"
        )
    # the window slices are views of the resampled segments: drop the parsed rows
    # first, so the stack never sits beside both
    del values, stamps
    stacked = np.stack(slices)
    bad = first_nonfinite(stacked)  # a bucket's sum can overflow
    if bad >= 0:
        raise DataError(f"window '{sources[bad]}' contains non-finite values")
    return IngestResult(
        windows=Dataset(stacked, np.full(len(slices), UNLABELED), names, f"trace:{path.name}"),
        sources=tuple(sources),
        machines=len(machines),
        rows_read=rows_read,
        rows_unparseable=unparseable,
        rows_nonfinite=nonfinite,
        rows_no_machine=no_machine,
    )


def _group_means(values: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    """(N,) mean of each window's cells in columns cols, over an (N, T, D) stack.

    Each window's cells are summed as one contiguous row taken column by
    column. That is the order in which numpy sums a single window's
    `window[:, cols].mean()` (the fancy-indexed slice is laid out column by
    column), so each mean equals the single window's, bit for bit.
    """
    cells = np.ascontiguousarray(values.transpose(0, 2, 1)[:, list(cols)])
    return cells.reshape(len(values), -1).mean(axis=1)


def default_weak_thresholds(
    values: np.ndarray, groups: dict[str, tuple[int, ...]]
) -> dict[str, float]:
    """Hot thresholds per group: fixed for cpu/mem, relative to the (N, T, D) stack for disk/net.

    CPU and memory utilizations have natural saturation scales, so fixed
    cutoffs apply; disk and net rates do not, so those cutoffs sit at the
    95th percentile of the dataset's own window-level group means.
    """
    if len(values) == 0:
        raise DataError("cannot derive thresholds from an empty dataset")
    out = {"cpu": 0.85, "mem": 0.90}
    for name in ("disk", "net"):
        cols = groups.get(name, ())
        out[name] = float(np.percentile(_group_means(values, cols), 95)) if cols else np.inf
    return out


def weak_labels(
    values: np.ndarray,
    thresholds: dict[str, float],
    groups: dict[str, tuple[int, ...]],
) -> np.ndarray:
    """Label each window of an (N, T, D) stack: one hot group names the class, several mean HYBRID.

    A group is hot in a window when the window mean of its metrics exceeds
    its threshold. A window with no hot group gets -1 (no label); callers
    drop such windows from supervised splits rather than inventing a sixth
    class.
    """
    labels = np.full(len(values), -1)
    hot = np.zeros(len(values), dtype=np.int64)
    for name in GROUP_NAMES:
        cols = groups.get(name, ())
        if cols:
            mask = _group_means(values, cols) > thresholds[name]
            labels[mask] = GROUP_CLASS[name]
            hot += mask
    labels[hot >= 2] = ContentionClass.HYBRID
    return labels


def apply_weak_labels(
    data: Dataset,
    groups: dict[str, tuple[int, ...]],
    thresholds: dict[str, float] | None = None,
) -> tuple[Dataset, int]:
    """Label every window it can; returns (the labeled windows in order, dropped count)."""
    if not len(data):
        raise DataError("cannot weak-label an empty dataset")
    if thresholds is None:
        thresholds = default_weak_thresholds(data.values, groups)
    labels = weak_labels(data.values, thresholds, groups)
    keep = np.flatnonzero(labels >= 0)
    return replace(data, values=data.values[keep], labels=labels[keep]), len(data) - len(keep)
