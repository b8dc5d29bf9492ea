"""Trace ingestion tests on small hand-built CSVs, plus an equivalence property.

Every expected window value in the hand-built tests was computed by hand
from the bucket means, so a change to the resampling or fill rules breaks
these on purpose. The property test and the cell table compare the columnar
ingest, whichever of its two readers parses a row, with a row-by-row
reference implementation kept in this file.
"""

import csv
import operator
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention import ingest
from contention.data import GROUP_NAMES, UNLABELED, ContentionClass, Dataset, MetricWindow
from contention.errors import ConfigError, DataError, SchemaError
from contention.ingest import (
    GROUP_CLASS,
    IngestConfig,
    TraceSchema,
    apply_weak_labels,
    default_weak_thresholds,
    group_means,
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

    def test_rejects_one_column_as_machine_and_timestamp(self):
        with pytest.raises(ConfigError, match="^column 'ts' appears more than once in the schema$"):
            TraceSchema(
                machine_column="ts",
                timestamp_column="ts",
                metric_columns=(("x", "cpu"),),
            )


class TestIngestConfig:
    def test_defaults(self):
        cfg = IngestConfig()
        assert cfg.window_len == 32
        assert cfg.resample_step == 60
        assert cfg.max_fill == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_len": 0},
            {"resample_step": 0},
            {"resample_step": 2**63},
            {"max_fill": -1},
            {"max_fill": ingest.MAX_FILL_LIMIT + 1},
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

    def test_windows_lost_to_a_gap_longer_than_max_fill(self, tmp_path):
        # m1 covers buckets 0-5 and 10-17, a gap of 4 > max_fill 2: its span of 18
        # buckets holds grid windows at 0, 4, 8 and 12, of which 4 and 8 touch the gap;
        # m2's 7 buckets hold one grid window, kept, and a remainder that is no window
        rows = [("m1", 60 * b, 0.5, 0.5) for b in (*range(6), *range(10, 18))]
        rows += [("m2", 60 * b, 0.5, 0.5) for b in range(7)]
        result = ingest_csv(_write_trace(tmp_path, rows), SCHEMA,
                            IngestConfig(window_len=4, max_fill=2))
        assert list(result.sources) == ["m1@0", "m1@720", "m2@0"]
        assert result.windows_lost == 2
        bridged = ingest_csv(_write_trace(tmp_path, rows), SCHEMA,
                             IngestConfig(window_len=4, max_fill=4))
        assert len(bridged.sources) == 5 and bridged.windows_lost == 0

    def test_segment_too_short_for_a_window_on_the_grid_adds_none(self, tmp_path):
        rows = [("m0", 60 * k, 9.0, 9.0) for k in range(3)]  # 3 buckets for windows of 4
        rows += [("m1", 60 * k, float(k), 0.0) for k in range(4)]
        # buckets 1666666-1666668: the grid's next window would start at 1666668
        rows += [("m1", 10**8 + 60 * k, 9.0, 9.0) for k in range(3)]
        rows += [("m1", 3 * 10**8 + 60 * k, float(k), 1.0) for k in range(5)]  # from 5000000
        result = ingest_csv(_write_trace(tmp_path, rows), SCHEMA, IngestConfig(window_len=4))
        assert list(result.sources) == ["m1@0", f"m1@{3 * 10**8}"]
        assert result.windows.values.shape == (2, 4, 2)
        assert result.windows.values[:, :, 0].tolist() == [[0.0, 1.0, 2.0, 3.0]] * 2
        assert result.windows.values[:, :, 1].tolist() == [[0.0] * 4, [1.0] * 4]

    def test_default_stride_non_overlapping(self, tmp_path):
        rows = [("m1", 60 * t, float(t), 0.0) for t in range(8)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert len(result.windows) == 2
        assert result.sources[0] == "m1@0"
        assert result.sources[1] == "m1@240"

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

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_blocks_of_blank_lines_read_silently(self, tmp_path, eol):
        """numpy warns on lines that hold no data; whole blocks of blank lines, before
        and after a refused line, read as nothing and warn of nothing."""
        blank = eol * (2 * ingest.BLOCK_LINES)
        rows = "".join(f"m1,{60 * k},1.0,1.0{eol}" for k in range(4))
        path = tmp_path / "trace.csv"
        path.write_text(f"machine,ts,cpu_util,mem_util{eol}{blank}{rows}{blank}m1,x,1,1{eol}"
                        f"{blank}", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert (result.rows_read, result.rows_unparseable, len(result.windows)) == (5, 1, 1)

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "cpu_util,machine,ts,cpu_util,mem_util\n"
            + "".join(f"junk,m1,{60 * k},{k}.5,1.0\n" for k in range(4))
        )
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.skipped_rows == 0
        assert np.array_equal(result.windows.values[0][:, 0], [0.5, 1.5, 2.5, 3.5])

    @pytest.mark.parametrize("machine", ["m1", '"m1"'], ids=["plain", "quoted"])
    def test_timestamps_beyond_int64_are_unparseable(self, tmp_path, machine):
        """In a plain block numpy refuses such a stamp and the csv loop reads its line; a
        quoted block goes to the csv loop whole. Either way the row is unparseable."""
        rows = [(machine, 60 * k, float(k), 0.0) for k in range(4)]
        rows[1:1] = [(machine, 2**63, 9.0, 9.0), (machine, -(2**63) - 1, 9.0, 9.0)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert (result.rows_read, result.rows_unparseable, result.skipped_rows) == (6, 2, 2)
        assert list(result.sources) == ["m1@0"]
        assert np.array_equal(result.windows.values[0][:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_one_machine_spans_the_int64_range_exactly(self, tmp_path):
        """At step 1 its last stamp lies 2**64 - 1 buckets past its first."""
        stamps = [-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1]
        path = _write_trace(tmp_path, [("m1", ts, float(k), 0.0) for k, ts in enumerate(stamps)])
        result = _ingest_both(path, SCHEMA, IngestConfig(window_len=2, resample_step=1,
                                                          max_fill=0))[0]
        assert list(result.sources) == ["m1@-9223372036854775808", "m1@9223372036854775806"]
        assert result.windows.values[:, :, 0].tolist() == [[0.0, 1.0], [2.0, 3.0]]

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

    def test_overflowing_bucket_sum_names_the_window(self, tmp_path):
        rows = [("m1", 60 * k, 1.0, 1.0) for k in range(4)]
        rows += [("m2", 0, 1e308, 1.0), ("m2", 30, 1e308, 1.0)]
        rows += [("m2", 60 * k, 1.0, 1.0) for k in range(1, 4)]
        path = _write_trace(tmp_path, rows)
        with pytest.raises(DataError, match=r"window 'm2@0' contains non-finite values"):
            ingest_csv(path, SCHEMA, IngestConfig(window_len=4))

    @pytest.mark.parametrize("samples, want", [
        ([-0.0, -0.0], 0.0),
        ([1.0, -1.0, 3.765029776713339e-121], 3.765029776713339e-121 / 3),
        ([-1e308, -1e308], None),
    ], ids=["negative-zeros", "cancelling-in-row-order", "sum-past-double-range"])
    def test_bucket_sums_its_samples_from_zero_in_row_order(self, tmp_path, samples, want):
        """A bucket's mean is its samples added one by one in row order to +0.0, then
        divided by their count: -0.0 samples give +0.0, and 1.0 and -1.0 cancel before
        the tiny third sample is added. A sum past the double range makes the window
        non-finite, a data error that names it."""
        rows = [("m1", 10 * i, v, 1.0) for i, v in enumerate(samples)]
        rows += [("m1", 60 * k, 1.0, 1.0) for k in range(1, 4)]
        path = _write_trace(tmp_path, rows)
        if want is None:
            with pytest.raises(DataError, match=r"window 'm1@0' contains non-finite values"):
                ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
            return
        got = ingest_csv(path, SCHEMA, IngestConfig(window_len=4)).windows.values[0, 0, 0]
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

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
    return int(weak_labels(group_means(_stack(window), FOUR_GROUPS), th)[0])


FOUR_GROUPS = {"cpu": (0,), "mem": (1,), "disk": (2,), "net": (3,)}
TH = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}


class TestWeakLabels:
    def test_default_thresholds(self):
        values = _stack(
            *(_flat_window(0.1, 0.1, d, n) for d, n in ((1.0, 10.0), (2.0, 20.0), (3.0, 30.0)))
        )
        means = group_means(values, FOUR_GROUPS)
        assert list(means) == list(FOUR_GROUPS)
        assert means["disk"].tolist() == [1.0, 2.0, 3.0]
        th = default_weak_thresholds(means)
        assert th["cpu"] == 0.85
        assert th["mem"] == 0.90
        # 95th percentile of [1, 2, 3] under linear interpolation
        assert th["disk"] == pytest.approx(2.9)
        assert th["net"] == pytest.approx(29.0)

    def test_group_without_metrics_gets_no_cutoff_and_no_label(self):
        groups = dict(FOUR_GROUPS, disk=(), cpu=())
        values = _stack(_flat_window(0.9, 0.1, 9.0, 0.0), _flat_window(0.9, 0.1, 0.0, 0.0))
        means = group_means(values, groups)
        assert list(means) == ["mem", "net"]
        assert list(default_weak_thresholds(means)) == ["mem", "net"]
        # cpu and disk run hot in window 0, but neither has a metric to say so
        assert weak_labels(means, TH).tolist() == [-1, -1]

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="cannot weak-label an empty dataset"):
            group_means(np.zeros((0, 8, 4)), FOUR_GROUPS)
        with pytest.raises(DataError, match="cannot weak-label an empty dataset"):
            apply_weak_labels(Dataset(np.zeros((0, 8, 4)), np.zeros(0), "cmdn"), FOUR_GROUPS)

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
        labels = weak_labels(group_means(values, FOUR_GROUPS), TH)
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
        # at the custom cutoffs TH
        labels = weak_labels(group_means(data.values, FOUR_GROUPS), TH)
        assert labels.tolist() == [ContentionClass.CPU, -1, ContentionClass.HYBRID]
        # at the default ones: disk and net are nowhere above their own 95th percentile
        labeled, dropped = apply_weak_labels(data, FOUR_GROUPS)
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

    def test_apply_gathers_each_group_once(self, monkeypatch):
        gathered = []
        gather = np.ascontiguousarray

        def counted(cells, *args, **kwargs):
            gathered.append(cells.shape)
            return gather(cells, *args, **kwargs)

        monkeypatch.setattr(ingest.np, "ascontiguousarray", counted)
        values = np.random.default_rng(0).uniform(size=(50, 8, 6))
        groups = {"cpu": (0, 3), "mem": (1,), "disk": (2, 4, 5), "net": ()}
        apply_weak_labels(Dataset(values, np.full(50, UNLABELED), tuple("abcdef")), groups)
        # one (N, cols, T) gather per group that has metrics: cpu, mem, disk
        assert gathered == [(50, 2, 8), (50, 1, 8), (50, 3, 8)]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_labels_follow_the_windows_when_they_are_permuted(self, n, seed, data):
        """The cutoffs read the set of window means, not their order."""
        gen = np.random.default_rng(seed)
        values = gen.uniform(0.0, 1.2, size=(n, 5, 4)) * gen.choice([1.0, 50.0], size=(n, 1, 4))
        perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)

        def labels(stack):
            means = group_means(stack, FOUR_GROUPS)
            return weak_labels(means, default_weak_thresholds(means))

        assert labels(values[perm]).tolist() == labels(values)[perm].tolist()


# ---------------------------------------------------------------------------
# Row-by-row reference: the ingest and weak labeling that the columnar path
# replaced, kept verbatim apart from counting skipped rows by reason,
# counting a timestamp outside int64 as unparseable and cutting windows back
# to back.


def _reference_ingest(path, schema, cfg):
    """(windows, machines, row counts, windows lost to gaps) of a DictReader pass
    with one array per row.

    A grid window is lost when it holds a bucket of a gap forward fill may not
    bridge: each gap's windows are counted, once each, up to the last grid
    window that ends inside the machine's span."""
    names = schema.metric_names
    per_machine = {}
    counts = {"read": 0, "unparseable": 0, "nonfinite": 0, "no_machine": 0}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            counts["read"] += 1
            try:
                ts = int(row[schema.timestamp_column])
                vals = np.array([float(row[c]) for c in names])
                if not -(2**63) <= ts < 2**63:
                    raise ValueError(f"timestamp {ts} lies outside int64")
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

    t, step = cfg.window_len, cfg.resample_step
    windows = []
    lost = 0
    for machine in sorted(per_machine):
        samples = sorted(per_machine[machine], key=lambda pair: pair[0])
        buckets = [(ts - samples[0][0]) // step for ts, _ in samples]
        last_window, counted = (buckets[-1] + 1) // t - 1, -1
        for b0, b1 in zip(buckets, buckets[1:]):
            if b1 - b0 > cfg.max_fill + 1:  # buckets b0 + 1 to b1 - 1 are a gap
                lo, hi = max((b0 + 1) // t, counted + 1), min((b1 - 1) // t, last_window)
                lost += max(hi - lo + 1, 0)
                counted = max(counted, hi)
        for first, filled in segments(samples, step, cfg.max_fill):
            for start in range(-first % t, len(filled) - t + 1, t):
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
    return windows, len(per_machine), counts, lost


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


# stamps start near both ends of int64, so that rows of one machine cross the edge
_BASES = (0, 1_700_000_000, 2**63 - 4 * 10**6, -(2**63))
# moves a stamp drawn from the -(2**63) base to just below 2**63
_LEAP = 2**64 - 10**8
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
        resample_step=step,
        max_fill=draw(st.integers(0, 4)),
    )
    base = draw(st.sampled_from(_BASES))
    # from the lowest base some rows leap to the top of int64, so that one machine's
    # stamps span more than 2**63 and only an unsigned offset from its first stays exact
    leap = _LEAP if base == -(2**63) else 0
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
            stamp = ts + leap if leap and draw(st.booleans()) else ts
            cells = {"machine": machine, "ts": str(stamp), "extra": "e1" if plain else "e,1"}
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
        want, machines, counts, lost = _reference_ingest(path, schema, cfg)
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
    assert result.windows_lost == lost
    assert list(result.sources) == [w.source for w in want]
    for got, ref in zip(result.windows.values, want, strict=True):
        assert got.tobytes() == ref.values.tobytes()
        assert result.windows.metric_names == ref.metric_names
    assert np.all(result.windows.labels == UNLABELED)
    return result, want


# Cells that int() or float() may read differently from numpy's parsers.
_TIMESTAMP_CELLS = ("1_0", "\uff15", "007", "+5", " 5 ", "1.0", "1e3", "9223372036854775808",
                    "-9223372036854775809")
_METRIC_CELLS = ("1_0.5", "\uff15", "\x1c5", "\t5", "-0", "nan", "-inf", "1e999", "4.9e-324",
                 "0x1p3", "")
# the cells numpy reads; the csv loop reads the line of any other cell, and only that line
_NUMPY_CELLS = {"007", "+5", " 5 ", "-0", "nan", "-inf", "1e999", "4.9e-324"}
# the cells that make a line not plain: the csv loop reads the rest of the file from it
_NON_PLAIN_CELLS = {"\uff15", "\x1c5", "\t5"}

# Lines numpy refuses: a bad int, a bad float, a short row and an int64 overflow.
_REFUSED_LINES = {"bad int": "m0,x,0.5,0.5", "bad float": "m1,60,0.5,1e", "short row": "m0,60",
                  "int64 overflow": "m1,9223372036854775808,0.5,0.5"}
_NON_PLAIN_LINE = "m0,60,\uff15,0.5"


def _plain_lines(n=40):
    """n rows of two machines, a minute apart, that numpy reads."""
    return [f"m{i % 2},{60 * i},{i / 7!r},0.5" for i in range(n)]


def _write_lines(path, lines, header="machine,ts,cpu_util,mem_util"):
    path.write_text("".join(line + "\n" for line in [header, *lines]), encoding="utf-8")
    return path


def _count_numpy_rows(monkeypatch):
    """A list that gets the row count of each np.loadtxt call that returns."""
    numpy_rows = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        out = loadtxt(*args, **kwargs)
        numpy_rows.append(len(out))
        return out

    monkeypatch.setattr(np, "loadtxt", counting)
    return numpy_rows


class TestColumnarMatchesReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace=_traces(), block=st.sampled_from([1, 2, 3, 7, 128]))
    def test_windows_counts_and_labels_equal(self, tmp_path, monkeypatch, trace, block):
        """Blocks of 1 to 7 lines put block boundaries inside a trace of up to 120 lines."""
        monkeypatch.setattr(ingest, "BLOCK_LINES", block)
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
        """One cell in row 20 of a plain 40-row trace, which numpy gets as one block."""
        rows = [{"machine": f"m{i % 2}", "ts": str(60 * i), "cpu_util": repr(i / 7),
                 "mem_util": "0.5"} for i in range(40)]
        rows[20][column] = cell
        path = _write_lines(tmp_path / "trace.csv", [",".join(row.values()) for row in rows])
        numpy_rows = _count_numpy_rows(monkeypatch)
        assert _ingest_both(path, SCHEMA, IngestConfig(window_len=4)) is not None
        # numpy reads the 20 rows before a cell it refuses and the 19 after it, and only
        # the 20 before a cell that is not plain
        want = 40 if cell in _NUMPY_CELLS else 20 if cell in _NON_PLAIN_CELLS else 39
        assert sum(numpy_rows) == want

    @pytest.mark.parametrize("spoilt", [
        {16: _REFUSED_LINES["bad int"]},
        {23: _REFUSED_LINES["short row"]},
        {16: _REFUSED_LINES["bad float"], 23: _REFUSED_LINES["int64 overflow"]},
        {18: _REFUSED_LINES["bad int"], 19: _REFUSED_LINES["short row"],
         20: _REFUSED_LINES["bad float"]},
        {18: _REFUSED_LINES["int64 overflow"], 19: _NON_PLAIN_LINE, 20: _REFUSED_LINES["bad int"]},
    ], ids=["first-of-block", "last-of-block", "first-and-last", "run-of-three",
            "non-plain-between-refused"])
    def test_csv_loop_reads_only_the_refused_lines(self, tmp_path, monkeypatch, spoilt):
        """Blocks of 8 lines: lines 16 and 23 are the first and last of the third block.
        A line that is not plain is no refused line: the csv loop reads the rest of the
        file from it, so numpy reads the lines before it that it does not refuse."""
        monkeypatch.setattr(ingest, "BLOCK_LINES", 8)
        lines = _plain_lines()
        for i, line in spoilt.items():
            lines[i] = line
        path = _write_lines(tmp_path / "trace.csv", lines)
        numpy_rows = _count_numpy_rows(monkeypatch)
        assert _ingest_both(path, SCHEMA, IngestConfig(window_len=4)) is not None
        end = min((i for i, line in spoilt.items() if line == _NON_PLAIN_LINE), default=40)
        assert sum(numpy_rows) == end - sum(i < end for i in spoilt)

    def test_csv_loop_reads_the_rest_of_the_file_from_the_first_non_plain_line(
            self, tmp_path, monkeypatch):
        """Blocks of 8 lines, a refused line at 5 and lines that are not plain at 27 and
        33: numpy reads the plain blocks around line 5 and the 3 lines of the fourth block
        before line 27, the csv loop line 5 and every line from 27 on, the plain blocks
        after it included."""
        monkeypatch.setattr(ingest, "BLOCK_LINES", 8)
        lines = _plain_lines(60)
        lines[5] = _REFUSED_LINES["bad int"]
        lines[27] = lines[33] = _NON_PLAIN_LINE
        path = _write_lines(tmp_path / "trace.csv", lines)
        numpy_rows = _count_numpy_rows(monkeypatch)
        result, _ = _ingest_both(path, SCHEMA, IngestConfig(window_len=4))
        assert numpy_rows == [5, 2, 8, 8, 3]
        assert result.rows_read == 60 and result.rows_unparseable == 1

    def test_a_numpy_that_reads_ahead_costs_calls_not_results(self, tmp_path, monkeypatch):
        """The refused line is found from how far numpy pulled the lines; wrong, it only costs.

        This numpy pulls every line of a block before it parses any, so each refusal
        points at the block's last line: numpy then fails once more on the lines before
        it and the csv loop reads them. That is at most two calls per block, with no
        search for the refused line.
        """
        lines = _plain_lines(1000)
        kinds = list(_REFUSED_LINES.values())
        for i in range(3, 1000, 37):
            lines[i] = kinds[i % len(kinds)]
        path = _write_lines(tmp_path / "trace.csv", lines)
        calls = []
        loadtxt = np.loadtxt

        def draining(lines, *args, **kwargs):
            lines = list(lines)
            calls.append(len(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", draining)
        assert _ingest_both(path, SCHEMA, IngestConfig(window_len=4)) is not None
        assert len(calls) <= 2 * -(-1000 // ingest.BLOCK_LINES)

    def test_wide_lines_are_read_by_numpy(self, tmp_path, monkeypatch):
        """About 9 kB per line, 1000 unread columns: a block of them passes csv's field
        size limit, but each line, and so each of its fields, keeps within it."""
        pad = ",".join(["0.123456"] * 1000)
        header = "machine,ts,cpu_util,mem_util," + ",".join(f"x{j}" for j in range(1000))
        path = _write_lines(tmp_path / "trace.csv",
                            [f"{line},{pad}" for line in _plain_lines()], header)
        assert len(path.read_text()) > csv.field_size_limit()  # one block, over the limit
        numpy_rows = _count_numpy_rows(monkeypatch)
        assert _ingest_both(path, SCHEMA, IngestConfig(window_len=4)) is not None
        assert sum(numpy_rows) == 40

    def test_over_limit_field_among_wide_lines_is_reported_first(self, tmp_path):
        """The csv loop reads the over-limit line after numpy read the wide lines before
        it; an undecodable line in a later block comes after it in the file."""
        pad = ",".join(["0.123456"] * 1000)
        lines = [f"{line},{pad}" for line in _plain_lines(300)]
        lines[20] = "m0,1200,0.5," + "9" * (csv.field_size_limit() + 1)
        header = "machine,ts,cpu_util,mem_util," + ",".join(f"x{j}" for j in range(1000))
        path = _write_lines(tmp_path / "trace.csv", lines, header)
        path.write_bytes(path.read_bytes() + b"m1,99999,0.5,\xff\n")
        with pytest.raises(DataError) as got:
            ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert str(got.value) == (f"trace {path}: unreadable CSV: field larger than field limit "
                                  f"({csv.field_size_limit()})")

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
        windows = [MetricWindow(v, None, "w", tuple(f"m{j}" for j in range(d))) for v in values]
        want = [
            int(ContentionClass.CPU) if float(w.values[:, cols].mean()) > th["cpu"] else -1
            for w in windows
        ]
        means = group_means(values, {"cpu": tuple(cols)})
        assert means["cpu"].tolist() == [float(w.values[:, cols].mean()) for w in windows]
        assert weak_labels(means, th).tolist() == want
        got = default_weak_thresholds(group_means(values, {"disk": tuple(cols)}))["disk"]
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


@pytest.mark.parametrize("kind", sorted(_REFUSED_LINES))
@pytest.mark.parametrize("j", [0, 1, 63, 127])
def test_numpy_pulls_no_line_past_the_one_it_refuses(kind, j):
    """ingest_csv takes the refused line's position from the iterator numpy read.

    A numpy that reads ahead of the line it parses fails this; ingest then stays
    correct but its csv loop reads whole blocks.
    """
    lines = _plain_lines(128)
    lines[j] = _REFUSED_LINES[kind]
    it = iter(lines)
    with pytest.raises(ValueError):
        np.loadtxt(it, delimiter=",", comments=None, quotechar=None, usecols=(0, 1, 2, 3),
                   dtype=[("m", object), ("ts", "<i8"), ("v", "<f8", (2,))], ndmin=1)
    assert operator.length_hint(it) == len(lines) - j - 1
