"""Trace ingestion tests on small hand-built CSVs, plus an equivalence property.

Every expected window value in the hand-built tests was computed by hand
from the bucket means, so a change to the resampling or fill rules breaks
these on purpose. The property test and the cell table compare the columnar
ingest, whichever of its two readers parses a row, with a row-by-row
reference implementation kept in this file.
"""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention.data import GROUP_NAMES, UNLABELED, ContentionClass, Dataset, MetricWindow
from contention.errors import ConfigError, DataError, SchemaError
from contention.ingest import (
    GROUP_CLASS,
    IngestConfig,
    TraceSchema,
    apply_weak_labels,
    default_weak_thresholds,
    ingest_csv,
    weak_labels,
)

SCHEMA = TraceSchema(
    machine_column="machine",
    timestamp_column="ts",
    metric_columns=(("cpu_util", "cpu"), ("mem_util", "mem")),
)


def _write_trace(tmp_path, rows, name="trace.csv"):
    path = tmp_path / name
    lines = ["machine,ts,cpu_util,mem_util"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTraceSchema:
    def test_accessors(self):
        assert SCHEMA.metric_names == ("cpu_util", "mem_util")
        gmap = SCHEMA.group_map()
        assert gmap["cpu"] == (0,)
        assert gmap["mem"] == (1,)
        assert gmap["disk"] == ()
        assert gmap["net"] == ()

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            TraceSchema(machine_column="m", timestamp_column="t", metric_columns=())

    def test_rejects_unknown_group(self):
        with pytest.raises(ConfigError, match="gpu"):
            TraceSchema(
                machine_column="m",
                timestamp_column="t",
                metric_columns=(("x", "gpu"),),
            )

    def test_rejects_duplicate_column(self):
        with pytest.raises(ConfigError, match="more than once"):
            TraceSchema(
                machine_column="m",
                timestamp_column="t",
                metric_columns=(("x", "cpu"), ("x", "mem")),
            )

    def test_rejects_collision_with_key_columns(self):
        with pytest.raises(ConfigError):
            TraceSchema(
                machine_column="m",
                timestamp_column="t",
                metric_columns=(("t", "cpu"),),
            )


class TestIngestConfig:
    def test_defaults(self):
        cfg = IngestConfig()
        assert cfg.window_len == 32
        assert cfg.resample_step == 60
        assert cfg.max_fill == 3
        assert cfg.effective_stride == 32

    def test_stride_override(self):
        assert IngestConfig(window_len=8, stride=2).effective_stride == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_len": 0},
            {"stride": 0},
            {"resample_step": 0},
            {"max_fill": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            IngestConfig(**kwargs)


class TestIngestCsv:
    def test_bucket_means_exact(self, tmp_path):
        # bucket 0 holds two samples (mean), buckets 1-3 one sample each
        rows = [
            ("m1", 0, 0.2, 0.4),
            ("m1", 30, 0.4, 0.6),
            ("m1", 60, 0.5, 0.1),
            ("m1", 120, 0.7, 0.2),
            ("m1", 180, 0.9, 0.3),
        ]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.machines == 1
        assert result.skipped_rows == 0
        assert len(result.windows) == 1
        values = result.windows.values[0]
        want = np.array(
            [
                [0.3, 0.5],  # mean of the two bucket-0 samples
                [0.5, 0.1],
                [0.7, 0.2],
                [0.9, 0.3],
            ]
        )
        assert np.max(np.abs(values - want)) <= 1e-15
        assert result.windows.labels.tolist() == [UNLABELED]
        assert result.windows.metric_names == ("cpu_util", "mem_util")
        assert result.windows.source == "trace:trace.csv"
        assert result.sources == ("m1@0",)

    def test_short_gap_forward_filled(self, tmp_path):
        rows = [
            ("m1", 0, 1.0, 2.0),
            ("m1", 60, 3.0, 4.0),
            # bucket 2 missing: one-step interior gap
            ("m1", 180, 5.0, 6.0),
        ]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4, max_fill=1))
        assert len(result.windows) == 1
        values = result.windows.values[0]
        assert np.array_equal(values[2], np.array([3.0, 4.0]))  # carried forward

    def test_long_gap_drops_window(self, tmp_path):
        rows = [
            ("m1", 0, 1.0, 2.0),
            # buckets 1-3 missing: run of 3 > max_fill=2
            ("m1", 240, 5.0, 6.0),
        ]
        path = _write_trace(tmp_path, rows)
        with pytest.raises(DataError, match="no complete windows"):
            ingest_csv(path, SCHEMA, IngestConfig(window_len=5, max_fill=2))

    def test_gap_at_max_fill_is_bridged(self, tmp_path):
        rows = [
            ("m1", 0, 1.0, 2.0),
            ("m1", 240, 5.0, 6.0),
        ]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=5, max_fill=3))
        values = result.windows.values[0]
        for b in (1, 2, 3):
            assert np.array_equal(values[b], np.array([1.0, 2.0]))

    def test_long_gap_split_on_machine_grid_without_allocating_it(self, tmp_path):
        # 10**8 s is 1666666 buckets of 60 s plus 40 s: a dense series over the
        # gap would need ~100 MB; the segments after the split need a few kB
        rows = [("m1", 60 * k, float(k), 0.0) for k in range(4)]
        rows += [("m1", 10**8 + 60 * k, float(k), 1.0) for k in range(8)]
        path = _write_trace(tmp_path, rows)
        tracemalloc.start()
        try:
            result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the second segment starts at bucket 1666666; windows start every 4
        # buckets from bucket 0, so its only full window starts at 1666668
        assert list(result.sources) == ["m1@0", f"m1@{1666668 * 60}"]
        assert np.array_equal(result.windows.values[0][:, 0], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(result.windows.values[1][:, 0], [2.0, 3.0, 4.0, 5.0])

    def test_default_stride_non_overlapping(self, tmp_path):
        rows = [("m1", 60 * t, float(t), 0.0) for t in range(8)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert len(result.windows) == 2
        assert result.sources[0] == "m1@0"
        assert result.sources[1] == "m1@240"

    def test_stride_one_overlapping(self, tmp_path):
        rows = [("m1", 60 * t, float(t), 0.0) for t in range(6)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4, stride=1))
        assert len(result.windows) == 3
        starts = result.windows.values[:, 0, 0].tolist()
        assert starts == [0.0, 1.0, 2.0]

    def test_machines_split_and_sorted(self, tmp_path):
        rows = [("zeta", 60 * t, 1.0, 1.0) for t in range(4)]
        rows += [("alpha", 60 * t, 2.0, 2.0) for t in range(4)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.machines == 2
        assert list(result.sources) == ["alpha@0", "zeta@0"]

    def test_bad_rows_skipped_and_counted(self, tmp_path):
        rows = [
            ("m1", 0, 1.0, 1.0),
            ("m1", "sixty", 1.0, 1.0),  # bad timestamp
            ("m1", 60, "high", 1.0),  # non-numeric metric
            ("m1", 120, "inf", 1.0),  # non-finite metric
            ("", 180, 1.0, 1.0),  # missing machine id
            ("m1", 60, 2.0, 2.0),
            ("m1", 120, 3.0, 3.0),
            ("m1", 180, 4.0, 4.0),
        ]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.skipped_rows == 4
        assert (result.rows_read, result.rows_unparseable) == (8, 2)
        assert (result.rows_nonfinite, result.rows_no_machine) == (1, 1)
        assert len(result.windows) == 1

    def test_row_counted_under_first_failed_check(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "machine,ts,cpu_util,mem_util\n"
            + "".join(f"m1,{60 * k},1.0,1.0\n" for k in range(4))
            + ",x,nan,1.0\n"  # unparseable, non-finite and no machine: unparseable
            + ",240,nan,1.0\n"  # non-finite and no machine: non-finite
            + ",240,1.0,1.0\n"  # no machine
            + "m1,240\n"  # short: unparseable
        )
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.rows_read == 8
        counts = (result.rows_unparseable, result.rows_nonfinite, result.rows_no_machine)
        assert counts == (2, 1, 1)
        assert result.skipped_rows == 4

    def test_short_row_without_machine_cell_counts_as_no_machine(self, tmp_path):
        # the machine column is last, so a row one cell short parses but has no id
        path = tmp_path / "trace.csv"
        path.write_text(
            "ts,cpu_util,mem_util,machine\n"
            + "".join(f"{60 * k},1.0,1.0,m1\n" for k in range(4))
            + "240,1.0,1.0\n"
        )
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert (result.rows_read, result.rows_no_machine, result.skipped_rows) == (5, 1, 1)

    def test_blank_lines_are_not_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        body = "".join(f"m1,{60 * k},1.0,1.0\n\n\r\n" for k in range(4))
        path.write_text("machine,ts,cpu_util,mem_util\n" + body, newline="")
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert (result.rows_read, result.skipped_rows, len(result.windows)) == (4, 0, 1)

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "cpu_util,machine,ts,cpu_util,mem_util\n"
            + "".join(f"junk,m1,{60 * k},{k}.5,1.0\n" for k in range(4))
        )
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.skipped_rows == 0
        assert np.array_equal(result.windows.values[0][:, 0], [0.5, 1.5, 2.5, 3.5])

    def test_timestamps_beyond_int64_stay_exact(self, tmp_path):
        base = 10**20 + 7
        rows = [("m1", base + 60 * k, float(k), 0.0) for k in range(4)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert list(result.sources) == [f"m1@{base}"]
        assert np.array_equal(result.windows.values[0][:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_oversized_field_is_reported_before_a_later_undecodable_line(self, tmp_path):
        """Both fall in one block of lines; the csv loop meets the field first."""
        path = tmp_path / "trace.csv"
        # 15 kB of padding: the file object decodes the bad byte only after csv read the field
        pad = b"m1,60,0.5,0.5," + b"0" * 5000
        path.write_bytes(b"\n".join([b"machine,ts,cpu_util,mem_util", b"m1,0,0.5,0.5",
                                      b"m1,0,0.5," + b"9" * 200_000, pad, pad, pad,
                                      b"m1,120,0.5,\xff"]) + b"\n")
        with pytest.raises(DataError) as got:
            ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        limit = csv.field_size_limit()
        assert str(got.value) == (
            f"trace {path}: unreadable CSV: field larger than field limit ({limit})")

    def test_machine_with_only_skipped_rows_is_not_counted(self, tmp_path):
        rows = [("m1", 60 * k, 1.0, 1.0) for k in range(4)] + [("m2", 0, "nan", 1.0)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert (result.machines, result.rows_nonfinite) == (1, 1)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("machine,ts,cpu_util\nm1,0,0.5\n")
        with pytest.raises(SchemaError, match="mem_util"):
            ingest_csv(path, SCHEMA, IngestConfig(window_len=4))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_csv(tmp_path / "nope.csv", SCHEMA, IngestConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow
    def test_overflowing_bucket_sum_names_the_window(self, tmp_path):
        rows = [("m1", 60 * k, 1.0, 1.0) for k in range(4)]
        rows += [("m2", 0, 1e308, 1.0), ("m2", 30, 1e308, 1.0)]
        rows += [("m2", 60 * k, 1.0, 1.0) for k in range(1, 4)]
        path = _write_trace(tmp_path, rows)
        with pytest.raises(DataError, match=r"window 'm2@0' contains non-finite values"):
            ingest_csv(path, SCHEMA, IngestConfig(window_len=4))

    def test_unsorted_timestamps_handled(self, tmp_path):
        rows = [
            ("m1", 180, 4.0, 0.0),
            ("m1", 0, 1.0, 0.0),
            ("m1", 120, 3.0, 0.0),
            ("m1", 60, 2.0, 0.0),
        ]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert np.array_equal(result.windows.values[0][:, 0], [1.0, 2.0, 3.0, 4.0])


def _flat_window(cpu, mem, disk, net):
    vals = np.tile(np.array([cpu, mem, disk, net]), (8, 1))
    return MetricWindow(
        values=vals,
        label=None,
        source="w",
        metric_names=("c0", "m0", "d0", "n0"),
    )


def _stack(*windows):
    return np.stack([w.values for w in windows])


def _dataset(*windows):
    """The windows as one unlabeled Dataset."""
    return Dataset(_stack(*windows), np.full(len(windows), UNLABELED), windows[0].metric_names)


def _label(window, th):
    return int(weak_labels(_stack(window), th, FOUR_GROUPS)[0])


FOUR_GROUPS = {"cpu": (0,), "mem": (1,), "disk": (2,), "net": (3,)}
TH = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}


class TestWeakLabels:
    def test_default_thresholds(self):
        values = _stack(
            *(_flat_window(0.1, 0.1, d, n) for d, n in ((1.0, 10.0), (2.0, 20.0), (3.0, 30.0)))
        )
        th = default_weak_thresholds(values, FOUR_GROUPS)
        assert th["cpu"] == 0.85
        assert th["mem"] == 0.90
        # 95th percentile of [1, 2, 3] under linear interpolation
        assert th["disk"] == pytest.approx(2.9)
        assert th["net"] == pytest.approx(29.0)

    def test_empty_group_gets_infinite_threshold(self):
        groups = dict(FOUR_GROUPS, disk=())
        th = default_weak_thresholds(_stack(_flat_window(0.1, 0.1, 0.0, 0.0)), groups)
        assert th["disk"] == np.inf

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            default_weak_thresholds(np.zeros((0, 8, 4)), FOUR_GROUPS)
        with pytest.raises(DataError):
            apply_weak_labels(Dataset(np.zeros((0, 8, 4)), np.zeros(0), "cmdn"), FOUR_GROUPS, TH)

    def test_single_hot_group_names_class(self):
        assert _label(_flat_window(0.9, 0.1, 0, 0), TH) == ContentionClass.CPU
        assert _label(_flat_window(0.1, 0.95, 0, 0), TH) == ContentionClass.MEM
        assert _label(_flat_window(0.1, 0.1, 6, 0), TH) == ContentionClass.IO
        assert _label(_flat_window(0.1, 0.1, 0, 6), TH) == ContentionClass.NET

    def test_two_hot_groups_mean_hybrid(self):
        assert _label(_flat_window(0.9, 0.1, 6.0, 0.0), TH) == ContentionClass.HYBRID

    def test_nothing_hot_is_unlabeled(self):
        assert _label(_flat_window(0.2, 0.2, 1.0, 1.0), TH) == -1

    def test_threshold_is_strict(self):
        assert _label(_flat_window(0.85, 0.1, 0, 0), TH) == -1

    def test_stack_labels_each_window(self):
        values = _stack(
            _flat_window(0.9, 0.1, 0, 0),
            _flat_window(0.2, 0.2, 1.0, 1.0),
            _flat_window(0.9, 0.95, 6.0, 6.0),
            _flat_window(0.1, 0.1, 0, 6),
        )
        labels = weak_labels(values, TH, FOUR_GROUPS)
        assert labels.tolist() == [
            ContentionClass.CPU,
            -1,
            ContentionClass.HYBRID,
            ContentionClass.NET,
        ]

    def test_apply_weak_labels(self):
        data = _dataset(
            _flat_window(0.9, 0.1, 0.0, 0.0),
            _flat_window(0.1, 0.1, 0.0, 0.0),
            _flat_window(0.9, 0.95, 0.0, 0.0),
        )
        labeled, dropped = apply_weak_labels(data, FOUR_GROUPS, TH)
        assert dropped == 1
        assert [w.label for w in labeled] == [
            int(ContentionClass.CPU),
            int(ContentionClass.HYBRID),
        ]
        assert all(type(w.label) is int for w in labeled)
        assert np.array_equal(labeled.values, data.values[[0, 2]])
        # the input stays unlabeled; labeling returns a new dataset
        assert data.labels.tolist() == [UNLABELED] * 3

    def test_apply_derives_thresholds_when_missing(self):
        data = _dataset(*(_flat_window(0.9, 0.1, 1.0, 1.0) for _ in range(3)))
        labeled, dropped = apply_weak_labels(data, FOUR_GROUPS)
        # disk/net thresholds sit at the 95th percentile of identical means,
        # so neither group is strictly above them; only cpu runs hot
        assert dropped == 0
        assert all(w.label == int(ContentionClass.CPU) for w in labeled)


# ---------------------------------------------------------------------------
# Row-by-row reference: the ingest and weak labeling that the columnar path
# replaced, kept verbatim apart from counting skipped rows by reason.


def _reference_ingest(path, schema, cfg):
    """(windows, machines, counts) of a DictReader pass with one array per row."""
    names = schema.metric_names
    per_machine = {}
    counts = {"read": 0, "unparseable": 0, "nonfinite": 0, "no_machine": 0}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            counts["read"] += 1
            try:
                ts = int(row[schema.timestamp_column])
                vals = np.array([float(row[c]) for c in names])
            except (TypeError, ValueError):
                counts["unparseable"] += 1
                continue
            if not np.all(np.isfinite(vals)):
                counts["nonfinite"] += 1
                continue
            machine = row[schema.machine_column]
            if machine is None or machine == "":
                counts["no_machine"] += 1
                continue
            per_machine.setdefault(machine, []).append((ts, vals))

    def segments(samples, step, max_fill):
        t0 = samples[0][0]
        buckets = [(ts - t0) // step for ts, _ in samples]
        cuts = [i for i in range(1, len(buckets)) if buckets[i] - buckets[i - 1] > max_fill + 1]
        for lo, hi in zip([0, *cuts], [*cuts, len(samples)]):
            first = buckets[lo]
            sums = np.zeros((buckets[hi - 1] - first + 1, samples[lo][1].shape[0]))
            n = np.zeros(len(sums), dtype=np.int64)
            for b, (_, row) in zip(buckets[lo:hi], samples[lo:hi]):
                sums[b - first] += row
                n[b - first] += 1
            observed = n > 0
            sums[observed] /= n[observed, None]
            last = np.maximum.accumulate(np.where(observed, np.arange(len(sums)), 0))
            yield first, sums[last]

    t, stride, step = cfg.window_len, cfg.effective_stride, cfg.resample_step
    windows = []
    for machine in sorted(per_machine):
        samples = sorted(per_machine[machine], key=lambda pair: pair[0])
        for first, filled in segments(samples, step, cfg.max_fill):
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
        skipped = counts["unparseable"] + counts["nonfinite"] + counts["no_machine"]
        raise DataError(
            f"trace {path} produced no complete windows "
            f"(T={t}, step={cfg.resample_step}s, {skipped} rows skipped)"
        )
    return windows, len(per_machine), counts


def _reference_weak_labels(windows, groups):
    """Row-by-row weak labels of windows under the dataset's own thresholds; None: no label."""
    thresholds = {"cpu": 0.85, "mem": 0.90}
    for name in ("disk", "net"):
        cols = groups.get(name, ())
        if not cols:
            thresholds[name] = np.inf
            continue
        means = [float(w.values[:, list(cols)].mean()) for w in windows]
        thresholds[name] = float(np.percentile(means, 95))

    def weak_label(window):
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

    return [weak_label(w) for w in windows]


_BASES = (0, 1_700_000_000, 10**20, -(10**20))
_MACHINES = ("a", "b", "c,d", 'q"x', "l\nf", "")  # a quoted "l\nf" spans two lines
_PLAIN_MACHINES = ("a", "b", "c d", "")  # csv.writer quotes none of them
_BAD_CELLS = ("", "x", "nan", "-inf", "inf", "1e999", "1.5", " 7")


@st.composite
def _traces(draw):
    """A shuffled, gappy trace: (header, rows with [] for a blank line, schema, config,
    line terminator).

    Most traces hold no quote, so numpy may read their blocks; in the others
    csv.writer quotes the extra cell, and the csv loop reads every row.
    """
    plain = draw(st.sampled_from([True, True, False]))
    # in some traces spoilt rows are rare, so that blocks without one are common
    rare = draw(st.booleans())
    d = draw(st.integers(1, 4))
    groups = draw(st.lists(st.sampled_from(GROUP_NAMES), min_size=d, max_size=d))
    metrics = [f"v{j}" for j in range(d)]
    schema = TraceSchema("machine", "ts", tuple(zip(metrics, groups)))
    header = ["machine", "ts", *metrics, "extra"]
    header = draw(st.permutations(header))
    # a repeated name: the earlier column is junk, the last one is read
    if draw(st.booleans()):
        header = [draw(st.sampled_from(header)), *header]
    step = draw(st.integers(1, 100))
    cfg = IngestConfig(
        window_len=draw(st.integers(1, 6)),
        stride=draw(st.none() | st.integers(1, 6)),
        resample_step=step,
        max_fill=draw(st.integers(0, 4)),
    )
    base = draw(st.sampled_from(_BASES))
    # 0.1, 0.2 and 0.3 sum to different doubles in different orders
    values = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 0.9, 7.25]) | st.floats(-1e6, 1e6)
    lines = []
    machines = st.sampled_from(_PLAIN_MACHINES if plain else _MACHINES)
    for machine in draw(st.lists(machines, min_size=1, max_size=3, unique=True)):
        ts = base + draw(st.integers(-50, 50))
        # equal stamps, steps inside a bucket, short and long gaps
        steps = st.sampled_from([0, 0, 1, step // 2, step, step, 2 * step, 6 * step, 10**6])
        for _ in range(draw(st.integers(1, 40))):
            ts += draw(steps)
            cells = {"machine": machine, "ts": str(ts), "extra": "e1" if plain else "e,1"}
            cells.update({m: repr(draw(values)) for m in metrics})
            if draw(st.sampled_from([False] * (99 if rare else 9) + [True])):
                cells[draw(st.sampled_from(["ts", *metrics]))] = draw(st.sampled_from(_BAD_CELLS))
            row = [cells.get(name, "junk") for name in header]
            cut = draw(st.sampled_from([None] * (120 if rare else 8)
                                       + [0, 1, 2, len(row) - 1, len(row) + 2]))
            if cut is not None:
                row = row[:cut] if cut <= len(row) else row + ["more"] * (cut - len(row))
            lines.append(row)
    lines = draw(st.permutations(lines))
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, [])
    # "\r" alone ends a record for csv, so the csv loop reads from the first one on
    newline = draw(st.sampled_from(["\r\n", "\n", "\r\n", "\n", "\r"]))
    return header, lines, schema, cfg, newline


def _write_rows(path, header, lines, newline):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(header)
        for row in lines:
            if row:
                writer.writerow(row)
            else:
                fh.write(newline)


def _ingest_both(path, schema, cfg):
    """(ingest_csv's result, the reference's windows) after checking that the two
    agree bit for bit, counts included; None when both raised the same DataError."""
    try:
        want, machines, counts = _reference_ingest(path, schema, cfg)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            ingest_csv(path, schema, cfg)
        assert str(got.value) == str(exc)
        return None
    result = ingest_csv(path, schema, cfg)
    assert result.machines == machines
    assert result.rows_read == counts["read"]
    assert result.rows_unparseable == counts["unparseable"]
    assert result.rows_nonfinite == counts["nonfinite"]
    assert result.rows_no_machine == counts["no_machine"]
    assert result.skipped_rows == sum(counts.values()) - counts["read"]
    assert list(result.sources) == [w.source for w in want]
    for got, ref in zip(result.windows.values, want, strict=True):
        assert got.tobytes() == ref.values.tobytes()
        assert result.windows.metric_names == ref.metric_names
    assert np.all(result.windows.labels == UNLABELED)
    return result, want


# Cells that int() or float() may read differently from numpy's parsers.
_TIMESTAMP_CELLS = ("1_0", "\uff15", "007", "+5", " 5 ", "1.0", "1e3", "9223372036854775808")
_METRIC_CELLS = ("1_0.5", "\uff15", "\x1c5", "\t5", "-0", "nan", "-inf", "1e999", "4.9e-324",
                 "0x1p3", "")
# the cells numpy reads; any other sends its block of lines to the csv loop
_NUMPY_CELLS = {"007", "+5", " 5 ", "-0", "nan", "-inf", "1e999", "4.9e-324"}


class TestColumnarMatchesReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace=_traces())
    def test_windows_counts_and_labels_equal(self, tmp_path, trace):
        header, lines, schema, cfg, newline = trace
        path = tmp_path / "trace.csv"
        _write_rows(path, header, lines, newline)
        both = _ingest_both(path, schema, cfg)
        if both is None:
            return
        result, want = both
        groups = schema.group_map()
        labels = _reference_weak_labels(want, groups)
        if all(label is None for label in labels):
            return
        labeled, dropped = apply_weak_labels(result.windows, groups)
        assert labeled.labels.tolist() == [label for label in labels if label is not None]
        kept = [w.values for w, label in zip(want, labels) if label is not None]
        assert labeled.values.tobytes() == np.stack(kept).tobytes()
        assert dropped == labels.count(None)

    @pytest.mark.parametrize("column, cell", [("ts", cell) for cell in _TIMESTAMP_CELLS]
                             + [("cpu_util", cell) for cell in _METRIC_CELLS])
    def test_cell_reads_as_in_the_reference(self, tmp_path, monkeypatch, column, cell):
        """One cell in row 20 of a plain 40-row trace; numpy gets the lines in blocks of 16."""
        rows = [{"machine": f"m{i % 2}", "ts": str(60 * i), "cpu_util": repr(i / 7),
                 "mem_util": "0.5"} for i in range(40)]
        rows[20][column] = cell
        path = tmp_path / "trace.csv"
        path.write_text("machine,ts,cpu_util,mem_util\n"
                        + "".join(",".join(row.values()) + "\n" for row in rows), encoding="utf-8")
        numpy_rows = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            out = loadtxt(*args, **kwargs)
            numpy_rows.append(len(out))
            return out

        monkeypatch.setattr(np, "loadtxt", counting)
        assert _ingest_both(path, SCHEMA, IngestConfig(window_len=4)) is not None
        # the csv loop reads the block of lines 17-32 when numpy refuses the cell
        assert sum(numpy_rows) == (40 if cell in _NUMPY_CELLS else 24)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        t=st.integers(1, 40),
        d=st.integers(1, 12),
        data=st.data(),
    )
    def test_group_means_equal_per_window_means(self, n, t, d, data):
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = gen.normal(size=(n, t, d)) * 10.0 ** gen.uniform(-6, 6, size=(n, t, d))
        cols = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
        # a threshold at one window's own mean: strict > must agree bit for bit
        th = {name: float(values[0][:, cols].mean()) for name in GROUP_NAMES}
        groups = {"cpu": tuple(cols)}
        windows = [MetricWindow(v, None, "w", tuple(f"m{j}" for j in range(d))) for v in values]
        want = [
            int(ContentionClass.CPU) if float(w.values[:, cols].mean()) > th["cpu"] else -1
            for w in windows
        ]
        assert weak_labels(values, th, groups).tolist() == want
        groups = {"disk": tuple(cols)}
        got = default_weak_thresholds(values, groups)["disk"]
        ref = float(np.percentile([float(w.values[:, cols].mean()) for w in windows], 95))
        assert got == ref


def test_ingest_memory_is_bounded_by_flat_buffers(tmp_path):
    """Peak traced memory over the parsed values' bytes, on 20k rows of 12 metrics.

    Measured on this trace: 4.6 for the flat buffers, 5.6 for one numpy
    array per parsed row, 9.6 for parsed rows kept as lists of floats.
    """
    rows, d = 20_000, 12
    names = [f"m{j}" for j in range(d)]
    schema = TraceSchema(
        "machine", "ts", tuple((name, GROUP_NAMES[j % 4]) for j, name in enumerate(names))
    )
    gen = np.random.default_rng(0)
    path = tmp_path / "trace.csv"
    with path.open("w") as fh:
        fh.write("machine,ts," + ",".join(names) + "\n")
        for i, row in enumerate(gen.random((rows, d)).tolist()):
            fh.write(f"node{i % 2},{60 * (i // 2)}," + ",".join(map(repr, row)) + "\n")
    tracemalloc.start()
    try:
        result = ingest_csv(path, schema, IngestConfig(window_len=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.windows) == 2 * (rows // 2 // 32)
    assert peak < 6 * rows * d * 8
