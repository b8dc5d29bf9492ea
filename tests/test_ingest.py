"""Trace ingestion tests on small hand-built CSVs.

Every expected window value in here was computed by hand from the bucket
means, so a change to the resampling or fill rules breaks these on purpose.
"""

import tracemalloc

import numpy as np
import pytest

from contention.data import ContentionClass, MetricWindow
from contention.errors import ConfigError, DataError, SchemaError
from contention.ingest import (
    IngestConfig,
    TraceSchema,
    apply_weak_labels,
    default_weak_thresholds,
    ingest_csv,
    weak_label,
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
        w = result.windows[0]
        want = np.array(
            [
                [0.3, 0.5],  # mean of the two bucket-0 samples
                [0.5, 0.1],
                [0.7, 0.2],
                [0.9, 0.3],
            ]
        )
        assert np.max(np.abs(w.values - want)) <= 1e-15
        assert w.label is None
        assert w.metric_names == ("cpu_util", "mem_util")
        assert w.source == "m1@0"

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
        w = result.windows[0]
        assert np.array_equal(w.values[2], np.array([3.0, 4.0]))  # carried forward

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
        w = result.windows[0]
        for b in (1, 2, 3):
            assert np.array_equal(w.values[b], np.array([1.0, 2.0]))

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
        assert [w.source for w in result.windows] == ["m1@0", f"m1@{1666668 * 60}"]
        assert np.array_equal(result.windows[0].values[:, 0], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(result.windows[1].values[:, 0], [2.0, 3.0, 4.0, 5.0])

    def test_default_stride_non_overlapping(self, tmp_path):
        rows = [("m1", 60 * t, float(t), 0.0) for t in range(8)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert len(result.windows) == 2
        assert result.windows[0].source == "m1@0"
        assert result.windows[1].source == "m1@240"

    def test_stride_one_overlapping(self, tmp_path):
        rows = [("m1", 60 * t, float(t), 0.0) for t in range(6)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4, stride=1))
        assert len(result.windows) == 3
        starts = [w.values[0, 0] for w in result.windows]
        assert starts == [0.0, 1.0, 2.0]

    def test_machines_split_and_sorted(self, tmp_path):
        rows = [("zeta", 60 * t, 1.0, 1.0) for t in range(4)]
        rows += [("alpha", 60 * t, 2.0, 2.0) for t in range(4)]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert result.machines == 2
        assert [w.source for w in result.windows] == ["alpha@0", "zeta@0"]

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
        assert len(result.windows) == 1

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("machine,ts,cpu_util\nm1,0,0.5\n")
        with pytest.raises(SchemaError, match="mem_util"):
            ingest_csv(path, SCHEMA, IngestConfig(window_len=4))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_csv(tmp_path / "nope.csv", SCHEMA, IngestConfig())

    def test_unsorted_timestamps_handled(self, tmp_path):
        rows = [
            ("m1", 180, 4.0, 0.0),
            ("m1", 0, 1.0, 0.0),
            ("m1", 120, 3.0, 0.0),
            ("m1", 60, 2.0, 0.0),
        ]
        path = _write_trace(tmp_path, rows)
        result = ingest_csv(path, SCHEMA, IngestConfig(window_len=4))
        assert np.array_equal(result.windows[0].values[:, 0], [1.0, 2.0, 3.0, 4.0])


def _flat_window(cpu, mem, disk, net):
    vals = np.tile(np.array([cpu, mem, disk, net]), (8, 1))
    return MetricWindow(
        values=vals,
        label=None,
        source="w",
        metric_names=("c0", "m0", "d0", "n0"),
    )


FOUR_GROUPS = {"cpu": (0,), "mem": (1,), "disk": (2,), "net": (3,)}


class TestWeakLabels:
    def test_default_thresholds(self):
        windows = [
            _flat_window(0.1, 0.1, d, n)
            for d, n in ((1.0, 10.0), (2.0, 20.0), (3.0, 30.0))
        ]
        th = default_weak_thresholds(windows, FOUR_GROUPS)
        assert th["cpu"] == 0.85
        assert th["mem"] == 0.90
        # 95th percentile of [1, 2, 3] under linear interpolation
        assert th["disk"] == pytest.approx(2.9)
        assert th["net"] == pytest.approx(29.0)

    def test_empty_group_gets_infinite_threshold(self):
        windows = [_flat_window(0.1, 0.1, 0.0, 0.0)]
        groups = dict(FOUR_GROUPS, disk=())
        th = default_weak_thresholds(windows, groups)
        assert th["disk"] == np.inf

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            default_weak_thresholds([], FOUR_GROUPS)

    def test_single_hot_group_names_class(self):
        th = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}
        assert weak_label(_flat_window(0.9, 0.1, 0, 0), th, FOUR_GROUPS) == int(
            ContentionClass.CPU
        )
        assert weak_label(_flat_window(0.1, 0.95, 0, 0), th, FOUR_GROUPS) == int(
            ContentionClass.MEM
        )
        assert weak_label(_flat_window(0.1, 0.1, 6, 0), th, FOUR_GROUPS) == int(
            ContentionClass.IO
        )
        assert weak_label(_flat_window(0.1, 0.1, 0, 6), th, FOUR_GROUPS) == int(
            ContentionClass.NET
        )

    def test_two_hot_groups_mean_hybrid(self):
        th = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}
        w = _flat_window(0.9, 0.1, 6.0, 0.0)
        assert weak_label(w, th, FOUR_GROUPS) == int(ContentionClass.HYBRID)

    def test_nothing_hot_is_unlabeled(self):
        th = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}
        assert weak_label(_flat_window(0.2, 0.2, 1.0, 1.0), th, FOUR_GROUPS) is None

    def test_threshold_is_strict(self):
        th = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}
        assert weak_label(_flat_window(0.85, 0.1, 0, 0), th, FOUR_GROUPS) is None

    def test_apply_weak_labels(self):
        th = {"cpu": 0.85, "mem": 0.90, "disk": 5.0, "net": 5.0}
        windows = [
            _flat_window(0.9, 0.1, 0.0, 0.0),
            _flat_window(0.1, 0.1, 0.0, 0.0),
            _flat_window(0.9, 0.95, 0.0, 0.0),
        ]
        labeled, dropped = apply_weak_labels(windows, FOUR_GROUPS, th)
        assert dropped == 1
        assert [w.label for w in labeled] == [
            int(ContentionClass.CPU),
            int(ContentionClass.HYBRID),
        ]
        # originals stay unlabeled; labeling returns replacements
        assert all(w.label is None for w in windows)

    def test_apply_derives_thresholds_when_missing(self):
        windows = [_flat_window(0.9, 0.1, 1.0, 1.0) for _ in range(3)]
        labeled, dropped = apply_weak_labels(windows, FOUR_GROUPS)
        # disk/net thresholds sit at the 95th percentile of identical means,
        # so neither group is strictly above them; only cpu runs hot
        assert dropped == 0
        assert all(w.label == int(ContentionClass.CPU) for w in labeled)
