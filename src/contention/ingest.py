"""Real-trace ingestion: raw machine samples to one Dataset of windows.

Input is a headered UTF-8 CSV with one sample per row: a machine id column,
an integer-seconds timestamp column, and one column per monitored metric.
Columns are found by header name; when a name repeats, its last column is
read; a leading byte-order mark is dropped. The file is parsed in one pass
into flat buffers: timestamps as int64, metric values as float64 and machine
ids as small integer codes. The data lines are taken in blocks of
BLOCK_LINES. numpy's C text reader parses the lines up to the first that is
not plain, one of printable ASCII but the quote, ended by LF or CRLF and no
longer than csv's field size limit, and returns the machine id cell as text
beside the numbers. A csv loop, which parses each cell with int() or
float(), reads each line numpy refuses, alone, and the rest of the file from
the first line that is not plain. On plain text numpy accepts only cells
that int() and float() accept, with the same values, so both readers give
the same rows, counts and errors in file order. Blank lines are ignored. A
row is skipped and counted under the first of these reasons that applies:

1. unparseable: it is too short to hold the timestamp or a metric cell, the
   timestamp is not an integer in the signed 64-bit range, or a metric cell
   is not a number;
2. non-finite: a metric value is nan or infinite;
3. no machine id: its machine cell is empty or missing.

The kept rows are grouped by machine and stable-sorted by timestamp. Each
machine's samples are bucket-mean resampled onto a fixed step counted from
its first timestamp, and the series is split at every run of empty buckets
longer than forward fill may bridge; shorter runs are filled with the last
observed value. Windows are cut back to back from each segment, on the
machine's grid of window_len buckets from its first bucket, and stacked once
into an unlabeled Dataset; a parallel tuple names each window's machine and
start time. The windows lost to gaps are counted: per machine, the windows
its span from first to last bucket holds on its grid, less those it kept.

Real traces carry no contention labels. Weak labeling gathers each group's
window means once (`group_means`); a group is hot above its cutoff, 0.85 for
cpu, 0.90 for mem and the 95th percentile of its own means for disk and net.
One hot group names the class, two or more mean HYBRID, and windows where
none is hot are dropped.
"""

from __future__ import annotations

import csv
import operator
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from contention.data import (GROUP_NAMES, UNLABELED, ContentionClass, Dataset, first_nonfinite,
                             open_input)
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
        if self.machine_column == self.timestamp_column:
            raise ConfigError(
                f"column '{self.machine_column}' appears more than once in the schema")
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

# Data lines per block. Each line numpy refuses costs a failed np.loadtxt call
# and a second reading of the lines before it, so larger blocks pay less call
# overhead and more re-reading. ingest_csv time over its time at 128 lines, on
# a clean trace, the benchmark's ingest trace (0.5% malformed rows) and one
# with 5%: 32 lines 1.16, 1.05, 0.99; 64 lines 1.06, 1.00, 0.97; 256 lines
# 0.97, 1.04, 1.02; 512 lines 0.95, 1.11, 1.04 (paired medians of 21
# in-process rounds, 2-core VM, Python 3.11, numpy 2.4).
BLOCK_LINES = 128
# Characters of a block numpy may parse: printable ASCII but the quote, and the line feed.
PLAIN = bytes(range(ord(" "), ord("~") + 1)).replace(b'"', b"") + b"\n"


@dataclass(frozen=True)
class IngestConfig:
    """How a trace is resampled and cut into windows."""

    window_len: int = 32
    resample_step: int = 60  # seconds per bucket, < 2**63 so buckets stay 64-bit
    max_fill: int = 3  # longest run of missing buckets forward fill may bridge, <= MAX_FILL_LIMIT

    def __post_init__(self):
        if self.window_len < 1:
            raise ConfigError(f"window_len must be >= 1, got {self.window_len}")
        if not 1 <= self.resample_step < 2**63:
            raise ConfigError(
                f"resample_step must lie in [1, 2**63), got {self.resample_step}")
        if not 0 <= self.max_fill <= MAX_FILL_LIMIT:
            raise ConfigError(
                f"max_fill must lie in [0, {MAX_FILL_LIMIT}], got {self.max_fill}"
            )


@dataclass(frozen=True)
class IngestResult:
    """The windows cut from a trace, with the counts of the rows and windows left out."""

    windows: Dataset  # unlabeled, source "trace:{file name}"
    sources: tuple[str, ...]  # "{machine}@{start timestamp}" per window
    machines: int  # machines with at least one kept row
    rows_read: int  # data rows, blank lines not counted
    rows_unparseable: int
    rows_nonfinite: int
    rows_no_machine: int
    windows_lost: int  # windows the machines' spans hold on their grids, less those kept

    @property
    def skipped_rows(self) -> int:
        return self.rows_unparseable + self.rows_nonfinite + self.rows_no_machine


def _segments(stamps: np.ndarray, values: np.ndarray, step: int, max_fill: int):
    """Bucket-mean resample one machine's time-sorted samples, split at long gaps.

    stamps holds the samples' int64 timestamps and values their (n, D) rows.
    Buckets count steps from the machine's first timestamp; sorted stamps lie
    less than 2**64 past it, so their offsets from it are exact as uint64. A
    run of more than max_fill empty buckets ends a segment and is never
    allocated: forward fill may not bridge it, so no window may touch it.
    Yields each segment's first bucket and its series, shorter runs filled
    with the last observed value.
    """
    buckets = (stamps - stamps[0]).view(np.uint64) // step
    cuts = (np.flatnonzero(np.diff(buckets) > max_fill + 1) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(buckets)]):
        first = int(buckets[lo])
        offsets = (buckets[lo:hi] - buckets[lo]).view(np.int64)
        n = int(offsets[-1]) + 1
        # adds each bucket's rows in row order from 0.0, as a sequential += would; a
        # sum past the double range turns inf here, silently, and the window check
        # downstream reports it as a data error
        sums = np.stack([np.bincount(offsets, weights=col, minlength=n)
                         for col in values[lo:hi].T], axis=1)
        counts = np.bincount(offsets, minlength=n)
        observed = counts > 0
        sums[observed] /= counts[observed, None]
        last = np.maximum.accumulate(np.where(observed, np.arange(n), 0))
        yield first, sums[last]


def _plain(text: str) -> bool:
    """Whether text is PLAIN once CRLF is LF, each line within csv's field size limit."""
    text = text.replace("\r\n", "\n") if "\r" in text else text  # cheaper than a vain replace
    return not text.encode().translate(None, PLAIN) and (
        len(text) <= (limit := csv.field_size_limit()) or max(map(len, text.split("\n"))) <= limit)


def ingest_csv(
    path: str | Path, schema: TraceSchema, cfg: IngestConfig
) -> IngestResult:
    """Cut fixed-length windows from a raw trace CSV, one machine at a time.

    Rows that fail a check (see the module docstring) are skipped and
    counted by reason rather than aborting the run; a trace with zero
    complete windows is an error, since silence there would be misleading.
    """
    path = Path(path)
    names = schema.metric_names
    stamps, values, machine_of = array("q"), array("d"), array("q")
    code: dict[str, int] = {}
    rows_read = unparseable = 0
    with (open_input(path, "trace", DataError, newline="", encoding="utf-8-sig") as fh,
          warnings.catch_warnings()):
        # older numpy reads an integer cell such as "1.5" via float, warning only
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # blank lines
        try:
            index = {name: i for i, name in enumerate(next(csv.reader(fh), []))}
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
                        stamps.append(ts)  # OverflowError: a stamp past int64
                    except (IndexError, ValueError, OverflowError):
                        unparseable += 1
                        continue
                    values.fromlist(cells)
                    machine = row[mi] if mi < len(row) else ""
                    machine_of.append(code.setdefault(machine, len(code)))

            def read_numpy(lines):
                """numpy's C reader: True when it read every line, False when it read none."""
                nonlocal rows_read
                try:
                    parsed = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                                        usecols=usecols, dtype=dtype, ndmin=1)
                except (ValueError, DeprecationWarning):
                    return False
                rows_read += len(parsed)
                stamps.frombytes(parsed["ts"].tobytes())
                values.frombytes(parsed["v"].tobytes())
                ids = parsed["m"].tolist()
                for machine in dict.fromkeys(ids):
                    code.setdefault(machine, len(code))
                machine_of.extend(map(code.__getitem__, ids))
                return True

            def read_plain(lines):
                """numpy reads the lines up to each one it refuses, the csv loop that one."""
                while lines:
                    it = iter(lines)
                    if read_numpy(it):
                        return
                    # numpy pulls one line at a time, so it stopped just after the refused
                    # one; a numpy that reads ahead only costs a failed call on the prefix
                    k = max(len(lines) - operator.length_hint(it), 1)
                    if k > 1 and not read_numpy(lines[: k - 1]):
                        read_rows(lines[: k - 1])
                    read_rows([lines[k - 1]])
                    lines = lines[k:]

            usecols = (mi, ti, *cols)
            dtype = [("m", object), ("ts", "<i8"), ("v", "<f8", (len(cols),))]
            while True:
                block = []
                try:
                    block += islice(fh, BLOCK_LINES)
                except UnicodeDecodeError:
                    read_rows(block)  # a csv error in the lines before it comes first
                    raise
                if not block:
                    break
                if _plain("".join(block)):
                    read_plain(block)  # both readers skip blank lines and take LF or CRLF
                    continue
                # numpy reads the plain lines before the first other one; the csv loop
                # reads the rest of the file, as a quoted field may span lines
                k = next(i for i, line in enumerate(block) if not _plain(line))
                read_plain(block[:k])
                read_rows(chain(block[k:], fh))
                break
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
    stamps = np.frombuffer(stamps, dtype=np.int64)
    rows = np.flatnonzero(keep)
    rows = rows[np.lexsort((stamps[rows], rank[machine_of[rows]]))]
    bounds = np.cumsum([0, *rows_per_code[[code[m] for m in machines]]]).tolist()

    t, step = cfg.window_len, cfg.resample_step
    blocks: list[np.ndarray] = []
    sources: list[str] = []
    lost = 0
    for machine, lo, hi in zip(machines, bounds, bounds[1:]):
        mine = rows[lo:hi]
        t0 = int(stamps[mine[0]])
        kept = len(sources)
        for first, filled in _segments(stamps[mine], values[mine], step, cfg.max_fill):
            # k windows back to back, on the machine's grid of t buckets from its first
            start = -first % t
            k = max(len(filled) - start, 0) // t
            if k:  # no empty block: its (0, t, D) shape may overflow for a huge t
                blocks.append(filled[start : start + k * t].reshape(k, t, len(names)))
            sources += (f"{machine}@{t0 + (first + start + i * t) * step}" for i in range(k))
        span = (int(stamps[mine[-1]]) - t0) // step + 1  # buckets, first to last
        lost += span // t - (len(sources) - kept)
    nonfinite = int(np.count_nonzero(~finite))
    no_machine = int(np.count_nonzero(finite & ~named))
    if not sources:
        raise DataError(
            f"trace {path} produced no complete windows (T={t}, step={cfg.resample_step}s, "
            f"{unparseable + nonfinite + no_machine} rows skipped)"
        )
    # the window blocks are views of the resampled segments: drop the parsed rows
    # first, so the stack never sits beside both
    del values, stamps
    stacked = np.concatenate(blocks)
    bad = first_nonfinite(stacked)  # a bucket's sum can overflow
    if bad >= 0:
        raise DataError(f"window '{sources[bad]}' contains non-finite values")
    return IngestResult(
        windows=Dataset(stacked, np.full(len(sources), UNLABELED), names, f"trace:{path.name}"),
        sources=tuple(sources),
        machines=len(machines),
        rows_read=rows_read,
        rows_unparseable=unparseable,
        rows_nonfinite=nonfinite,
        rows_no_machine=no_machine,
        windows_lost=lost,
    )


def group_means(values: np.ndarray, groups: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """The (N,) window means of each group that has metrics, over an (N, T, D) stack.

    Each group's cells are gathered once, each window's as one contiguous row
    taken column by column. That is the order in which numpy sums a single
    window's `window[:, cols].mean()` (the fancy-indexed slice is laid out
    column by column), so each mean equals the single window's, bit for bit.
    """
    if not len(values):
        raise DataError("cannot weak-label an empty dataset")
    # one group's cells at a time, freed before the next group's are gathered
    return {name: np.ascontiguousarray(values.transpose(0, 2, 1)[:, list(cols)])
            .reshape(len(values), -1).mean(axis=1) for name, cols in groups.items() if cols}


def default_weak_thresholds(means: dict[str, np.ndarray]) -> dict[str, float]:
    """The hot cutoff of each group in group_means' table.

    CPU and memory utilizations have natural saturation scales, so fixed
    cutoffs apply (0.85 and 0.90); disk and net rates do not, so each other
    group's cutoff sits at the 95th percentile of its own window means.
    """
    fixed = {"cpu": 0.85, "mem": 0.90}
    return {name: fixed[name] if name in fixed else float(np.percentile(m, 95))
            for name, m in means.items()}


def weak_labels(means: dict[str, np.ndarray], thresholds: dict[str, float]) -> np.ndarray:
    """Label each window of group_means' table: one hot group names the class, several mean HYBRID.

    A group is hot in a window when the window mean of its metrics exceeds
    its threshold. A window with no hot group gets UNLABELED; callers
    drop such windows from supervised splits rather than inventing a sixth
    class.
    """
    hot = np.array([m > thresholds[name] for name, m in means.items()])  # (groups, N)
    labels = np.full(hot.shape[1], UNLABELED)
    for name, mask in zip(means, hot):
        labels[mask] = GROUP_CLASS[name]
    labels[hot.sum(axis=0) >= 2] = ContentionClass.HYBRID
    return labels


def apply_weak_labels(data: Dataset, groups: dict[str, tuple[int, ...]]) -> tuple[Dataset, int]:
    """Label every window it can at the default cutoffs; returns (the labeled windows
    in order, dropped count)."""
    means = group_means(data.values, groups)
    labels = weak_labels(means, default_weak_thresholds(means))
    keep = np.flatnonzero(labels >= 0)
    return replace(data, values=data.values[keep], labels=labels[keep]), len(data) - len(keep)
