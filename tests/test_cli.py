"""End-to-end tests for the command-line surface.

Every test drives ``main(argv)`` in-process, which is exactly what the
installed console script calls, so exit codes, printed tables, and file
outputs are all exercised without spawning subprocesses (except one smoke
test for the module entry point).
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contention import cli
from contention.checkpoint import load_checkpoint
from contention.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    git_blob_sha1,
    main,
)
from contention.config import OUT_DIR_ENV, config_digest, load_run_config
from contention.data import (
    CLASS_NAMES,
    UNLABELED,
    apply_norm,
    read_dataset,
    split,
    write_dataset,
)
from contention.errors import ConfigError, DataError, NumericError, ShapeError
from contention.linalg import softmax
from contention.pipeline import prepare, prepare_synthetic, run_prepared, split_parts
from contention.rng import RngStream
from contention.train import METRIC_FIELDS, evaluate, score

# sha1("blob 6\0hello\n"), the id git itself assigns to that blob
GIT_HELLO_SHA = "ce013625030ba8dba906f756967f9e9ca394464a"
# sha1("blob 0\0"), the empty blob
GIT_EMPTY_SHA = "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"


def write_config(path: Path, **overrides) -> Path:
    """Small, fast run config shared by the CLI tests."""
    data = {
        "scenario": {
            "metric_count": 4,
            "window_len": 8,
            "separation": 3.0,
            "noise_std": 0.1,
            "leak_lag": 2,
        },
        "model": {
            "window_len": 8,
            "encoder_hidden": 8,
            "embed_width": 6,
            "propagation_width": 6,
            "head_hidden": 4,
        },
        "train": {
            "batch_size": 16,
            "max_epochs": 3,
            "learning_rate": 0.01,
            "seed": 0,
        },
        "n_windows": 48,
    }
    data.update(overrides)
    path.write_text(json.dumps(data, indent=2))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One gen + train pass shared by the eval/predict/manifest tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "config.json")
    data_dir = root / "data"
    run_dir = root / "run"
    rc = main(["gen", "--config", str(cfg), "--out", str(data_dir),
               "--n", "80", "--seed", "1"])
    assert rc == EXIT_OK
    data = data_dir / "dataset.npy"
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--out", str(run_dir), "--seed", "0"])
    assert rc == EXIT_OK
    return {
        "root": root,
        "cfg": cfg,
        "data": data,
        "run": run_dir,
        "ckpt": run_dir / "checkpoint.json",
    }


def test_git_blob_sha1_matches_git_semantics(tmp_path):
    path = tmp_path / "hello.txt"
    path.write_bytes(b"hello\n")
    assert git_blob_sha1(path) == GIT_HELLO_SHA
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    assert git_blob_sha1(empty) == GIT_EMPTY_SHA
    # larger than one read block, with the block boundary inside the data
    data = bytes(range(256)) * (cli.HASH_BLOCK // 256 * 2 + 3)
    big = tmp_path / "big"
    big.write_bytes(data)
    assert git_blob_sha1(big) == hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


# ---------------------------------------------------------------- gen


def test_gen_writes_dataset_and_histogram(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    rc = main(["gen", "--config", str(cfg), "--out", str(out),
               "--n", "12", "--seed", "3"])
    assert rc == EXIT_OK
    data = read_dataset(out / "dataset.npy")
    assert len(data) == 12
    assert data.window_len == 8
    assert data.metric_count == 4
    assert np.all(data.labels >= 0)
    assert data.source == "synthetic:3"
    captured = capsys.readouterr().out
    assert f"wrote 12 windows to {out / 'dataset.npy'}" in captured
    counts = np.bincount(data.labels, minlength=len(CLASS_NAMES))
    for name, count in zip(CLASS_NAMES, counts):
        assert f"  {name:<10} {count}\n" in captured
    assert "unlabeled" not in captured


def test_gen_defaults_come_from_the_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert len(read_dataset(out / "dataset.npy")) == 48  # config n_windows
    # seed fell back to train.seed == 0
    explicit = tmp_path / "explicit"
    main(["gen", "--config", str(cfg), "--out", str(explicit),
          "--seed", "0"])
    assert (out / "dataset.npy").read_bytes() == (explicit / "dataset.npy").read_bytes()


def test_gen_is_deterministic_and_seed_sensitive(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    outs = [tmp_path / f"o{i}" for i in range(3)]
    for out, seed in zip(outs, ("5", "5", "6")):
        assert main(["gen", "--config", str(cfg), "--out", str(out),
                     "--n", "10", "--seed", seed]) == EXIT_OK
    a, b, c = (out.joinpath("dataset.npy").read_bytes() for out in outs)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "config, n, message",
    [({"scenario": {"metric_count": 10**12}}, "12", "metric_count must lie in [4, 1024]"),
     ({}, str(10**12), "limit of 100000000 generated values"),
     ({"scenario": {"noise_std": 1e308}}, "12", "noise_std must lie in (0, 1e+06], got 1e+308"),
     ({"scenario": {"separation": 1e308}}, "12", "separation must lie in [0, 1e+06], got 1e+308")],
    ids=["metric_count", "window_count", "noise_std", "separation"],
)
def test_gen_beyond_its_bounds_exits_before_allocating(tmp_path, capsys, config, n, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        rc = main(["gen", "--config", str(cfg), "--out", str(out), "--n", n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_CONFIG
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["gen", "--seed", "-1"], ["sweep", "--kind", "batch",
                                                              "--seeds", "0,-1"]])
def test_negative_seed_is_a_config_error(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_repeated_sweep_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["sweep", "--kind", "batch", "--seeds", "0,3,0", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: --seeds names seed 0 more than once\n"
    assert not (tmp_path / "o").exists()


def test_gen_rejects_nonpositive_count(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--n", "0"])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------ out dir resolution


def test_out_dir_env_var_is_used_when_flag_absent(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    assert main(["gen", "--config", str(cfg), "--n", "4", "--seed", "0"]) == EXIT_OK
    assert (env_dir / "dataset.npy").exists()


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    env_dir = tmp_path / "from_env"
    explicit = tmp_path / "explicit"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    assert main(["gen", "--config", str(cfg), "--out", str(explicit),
                 "--n", "4", "--seed", "0"]) == EXIT_OK
    assert (explicit / "dataset.npy").exists()
    assert not env_dir.exists()


def test_config_out_dir_is_the_last_resort(tmp_path, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    target = tmp_path / "from_cfg"
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(target))
    assert main(["gen", "--config", str(cfg), "--n", "4", "--seed", "0"]) == EXIT_OK
    assert (target / "dataset.npy").exists()


# ---------------------------------------------------------------- ingest


def _write_trace(path: Path, cpu: float) -> Path:
    """One machine, eight 60s buckets, two metric columns."""
    lines = ["machine,ts,cpu_util,mem_util"]
    for i in range(8):
        lines.append(f"m1,{i * 60},{cpu},0.2")
    path.write_text("\n".join(lines) + "\n")
    return path


def ingest_config(path: Path, **extra) -> Path:
    overrides = {
        "schema": {
            "machine_column": "machine",
            "timestamp_column": "ts",
            "metric_columns": {"cpu_util": "cpu", "mem_util": "mem"},
        },
        "ingest": {"window_len": 4, "resample_step": 60, "max_fill": 3},
    }
    overrides.update(extra)
    return write_config(path, **overrides)


def test_ingest_weak_labels_hot_cpu(tmp_path, capsys):
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.95)
    out = tmp_path / "out"
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(out)])
    assert rc == EXIT_OK
    data = read_dataset(out / "dataset.npy")
    assert data.labels.tolist() == [0, 0]  # CPU class
    captured = capsys.readouterr().out
    assert "ingested 1 machines -> 2 windows" in captured
    assert "0 rows skipped" in captured


def test_ingest_without_weak_labels_keeps_unlabeled_windows(tmp_path):
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.5)
    out = tmp_path / "out"
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(out), "--no-weak-label"])
    assert rc == EXIT_OK
    assert read_dataset(out / "dataset.npy").labels.tolist() == [UNLABELED] * 2


def test_ingest_with_nothing_hot_fails_loudly(tmp_path, capsys):
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.5)
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert "zero labeled windows" in capsys.readouterr().err


def test_ingest_requires_a_schema_section(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")  # no schema
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.95)
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "schema" in capsys.readouterr().err


def test_ingest_missing_trace_is_a_data_error(tmp_path, capsys):
    cfg = ingest_config(tmp_path / "cfg.json")
    rc = main(["ingest", "--config", str(cfg),
               "--trace", str(tmp_path / "nope.npy"),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert "not found" in capsys.readouterr().err


def test_ingest_non_utf8_trace_is_a_data_error(tmp_path, capsys):
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.95)
    trace.write_bytes(trace.read_bytes().replace(b"m1,60,", b"m1,60,\xff\xfe"))
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert f"trace {trace}: unreadable CSV" in capsys.readouterr().err


def test_ingest_reads_a_trace_with_a_byte_order_mark(tmp_path, capsys):
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.95)
    trace.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    assert "ingested 1 machines -> 2 windows" in capsys.readouterr().out


def test_ingest_max_fill_beyond_its_bound_is_a_config_error(tmp_path, capsys):
    """Without the bound, these two rows 10**11 buckets apart would be one segment."""
    cfg = ingest_config(
        tmp_path / "cfg.json",
        ingest={"window_len": 4, "resample_step": 1, "max_fill": 10**12},
    )
    trace = tmp_path / "trace.csv"
    trace.write_text(f"machine,ts,cpu_util,mem_util\nm1,0,0.9,0.2\nm1,{10**11},0.9,0.2\n")
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "max_fill must lie in [0, 64]" in capsys.readouterr().err


def test_model_over_the_parameter_bound_exits_before_allocating(workspace, tmp_path, capsys):
    """7.28 TiB of weights: the config path exits 2, the checkpoint path 3."""
    huge = {"encoder_hidden": 1_000_000, "embed_width": 1_000_000}
    cfg = write_config(tmp_path / "cfg.json", model={"window_len": 8, **huge})
    ckpt = tmp_path / "checkpoint.json"
    payload = json.loads(workspace["ckpt"].read_text())
    payload["model"].update(huge)
    ckpt.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        rc_train = main(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                         "--out", str(tmp_path / "run")])
        rc_eval = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc_train, rc_eval) == (EXIT_CONFIG, EXIT_DATA)
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.count("more than the limit of 1000000") == 2


def test_ingest_overflowing_bucket_is_one_error_line(tmp_path, capsys):
    """Two samples of 1e308 in one bucket sum past the double range."""
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.95)
    trace.write_text(trace.read_text().replace("m1,0,0.95,0.2", "m1,0,1e308,0.2\nm1,0,1e308,0.2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
                   "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == "error: window 'm1@0' contains non-finite values\n"
    assert [str(w.message) for w in caught] == []


def test_ingest_oversized_field_is_a_data_error(tmp_path, capsys):
    cfg = ingest_config(tmp_path / "cfg.json")
    trace = _write_trace(tmp_path / "trace.csv", cpu=0.95)
    trace.write_text(trace.read_text().replace("m1,60,", "m1,60," + "9" * 200_000))
    rc = main(["ingest", "--config", str(cfg), "--trace", str(trace),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert f"trace {trace}: unreadable CSV" in capsys.readouterr().err


# ---------------------------------------------------------------- graph


def test_graph_prints_structure_summary(workspace, capsys):
    rc = main(["graph", "--data", str(workspace["data"])])
    assert rc == EXIT_OK
    captured = capsys.readouterr().out
    assert "metric graph over 4 metrics" in captured
    assert "edges" in captured
    assert "density" in captured
    assert "isolated" in captured
    assert "degree histogram" in captured


def test_graph_has_no_out_option(workspace, tmp_path):
    """graph only prints, so --out is a usage error rather than a path it ignores."""
    with pytest.raises(SystemExit) as excinfo:
        main(["graph", "--data", str(workspace["data"]), "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "out").exists()


def test_graph_missing_dataset_is_a_data_error(tmp_path, capsys):
    rc = main(["graph", "--data", str(tmp_path / "nope.npy")])
    assert rc == EXIT_DATA
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_history_and_manifest(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.json").exists()
    assert (run / "history.csv").exists()
    assert (run / "run_manifest.json").exists()


def test_train_manifest_records_inputs_and_digest(workspace):
    manifest = json.loads((workspace["run"] / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    cfg = load_run_config(workspace["cfg"])
    assert manifest["config_digest"] == config_digest(cfg)
    assert manifest["outputs"] == ["checkpoint.json", "history.csv"]
    by_path = {entry["path"]: entry["git_sha1"] for entry in manifest["inputs"]}
    data = str(workspace["data"])
    assert data in by_path
    assert by_path[data] == git_blob_sha1(workspace["data"])
    sidecar = str(workspace["data"].with_name("dataset.manifest.json"))
    assert sidecar in by_path


def test_train_manifest_records_the_numeric_environment(workspace, tmp_path, monkeypatch):
    """The manifest records the settings of its own run; checkpoint.json holds none of them."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    rerun = tmp_path / "rerun"
    assert main(["train", "--config", str(workspace["cfg"]), "--data", str(workspace["data"]),
                 "--out", str(rerun), "--seed", "0"]) == EXIT_OK
    env = json.loads((rerun / "run_manifest.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert isinstance(env["blas"]["name"], str) and isinstance(env["blas"]["version"], str)
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert env["thread_env"]["MKL_NUM_THREADS"] is None
    assert set(env["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS"}
    assert env["cpu_count"] == os.cpu_count()
    first = json.loads((workspace["run"] / "run_manifest.json").read_text())
    assert first["environment"]["numpy"] == np.__version__
    assert (rerun / "checkpoint.json").read_bytes() == (
        workspace["run"] / "checkpoint.json").read_bytes()


def test_train_manifests_record_each_blas_thread_count(workspace, tmp_path):
    """Two child processes train at 1 and 2 BLAS threads; each manifest records its own."""
    cfg = load_run_config(workspace["cfg"])
    train_idx, _, _ = split(read_dataset(workspace["data"]).labels, cfg.split_fractions,
                            RngStream(0).substream(1))
    assert len(train_idx) % cfg.train.batch_size, "the last batch must be a partial one"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    recorded = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "contention.cli", "train", "--config", str(workspace["cfg"]),
             "--data", str(workspace["data"]), "--out", str(out), "--seed", "0"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        manifest = json.loads((out / "run_manifest.json").read_text())
        recorded.append(manifest["environment"]["thread_env"]["OPENBLAS_NUM_THREADS"])
    assert recorded == ["1", "2"]


def test_train_checkpoint_stores_dataset_metric_names(workspace):
    ckpt = load_checkpoint(workspace["ckpt"])
    assert ckpt.metric_names == read_dataset(workspace["data"]).metric_names
    assert ckpt.train_seed == 0


def test_train_reruns_byte_identically(workspace, tmp_path):
    rerun = tmp_path / "rerun"
    rc = main(["train", "--config", str(workspace["cfg"]),
               "--data", str(workspace["data"]),
               "--out", str(rerun), "--seed", "0"])
    assert rc == EXIT_OK
    for name in ("checkpoint.json", "history.csv", "run_manifest.json"):
        assert (rerun / name).read_bytes() == (workspace["run"] / name).read_bytes()


def test_train_prints_progress_and_metrics(workspace, tmp_path, capsys):
    rc = main(["train", "--config", str(workspace["cfg"]),
               "--data", str(workspace["data"]),
               "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == EXIT_OK
    captured = capsys.readouterr().out
    assert "best epoch" in captured
    assert "validation metrics (best epoch)" in captured
    for name in METRIC_FIELDS:
        assert name in captured


def test_train_prints_the_held_out_test_metrics(workspace, tmp_path, capsys):
    rc = main(["train", "--config", str(workspace["cfg"]),
               "--data", str(workspace["data"]),
               "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    val_at = lines.index("validation metrics (best epoch)")
    test_at = lines.index("test metrics (held-out split)")
    assert test_at == val_at + 1 + len(METRIC_FIELDS)
    # the test split of seed 0, scored by the checkpoint train wrote
    cfg = load_run_config(workspace["cfg"])
    prepared = prepare(*split_parts(read_dataset(workspace["data"]), cfg.split_fractions,
                                    RngStream(0).substream(1)), cfg.corr_threshold)
    ckpt = load_checkpoint(tmp_path / "o" / "checkpoint.json")
    metrics = evaluate(ckpt.params, ckpt.graph, prepared.test)
    width = max(len(m) for m in METRIC_FIELDS)
    assert lines[test_at + 1 : test_at + 1 + len(METRIC_FIELDS)] == [
        f"  {m:<{width}}  {getattr(metrics, m):.4f}" for m in METRIC_FIELDS
    ]


@pytest.mark.parametrize("seed", [0, 3])
def test_train_prepares_and_trains_as_a_sweep_cell(tmp_path, seed):
    """`gen --seed s` then `train --seed s` give, bit for bit, the norm, graph
    and parameters of run_prepared on prepare_synthetic at seed s, the path
    every sweep cell takes."""
    # the largest train-split |corr| reads 0.198 at seed 0 and 0.268 at seed 3
    cfg_path = write_config(tmp_path / "config.json", corr_threshold=0.15)
    cfg = load_run_config(cfg_path)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data),
                 "--seed", str(seed)]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path), "--data", str(data / "dataset.npy"),
                 "--out", str(tmp_path / "run"), "--seed", str(seed)]) == EXIT_OK
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.json")
    want = run_prepared(
        prepare_synthetic(cfg.scenario, cfg.n_windows, seed, cfg.split_fractions,
                          cfg.corr_threshold),
        cfg.model, replace(cfg.train, seed=seed))
    assert want.prepared.graph.adjacency.any()  # so the graph pins something
    for got, expected in [
        (ckpt.norm.mean, want.prepared.norm.mean),
        (ckpt.norm.std, want.prepared.norm.std),
        (ckpt.graph.adjacency, want.prepared.graph.adjacency),
        (ckpt.graph.normalized, want.prepared.graph.normalized),
        (ckpt.params.flat, want.params.flat),
    ]:
        assert got.tobytes() == expected.tobytes()
    assert ckpt.graph.threshold == want.prepared.graph.threshold


def _traced_peak(argv: list[str]) -> int:
    """Traced peak bytes of one command, run after an untraced run of it has
    done its imports and filled its caches."""
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_eval_and_predict_memory_is_bounded_by_dataset_copies(tmp_path):
    """Peak traced memory over the dataset's N*T*D*8 bytes, on 600 windows of 32 x 16.

    Measured: train 3.14, eval and predict 2.06 with the whole set, its raw
    parts, their normalized copies and two Pearson temporaries alive at once;
    train 2.03, eval and predict 1.29 with parts and read arrays normalized in
    place and the whole set freed after the split. Scoring's 64-window stacks
    make most of what eval holds beyond the one copy.
    """
    n, t, d = 600, 32, 16
    cfg = write_config(
        tmp_path / "config.json",
        scenario={"metric_count": d, "window_len": t, "separation": 3.0, "noise_std": 0.1},
        model={"window_len": t, "encoder_hidden": 8, "embed_width": 6,
               "propagation_width": 6, "head_hidden": 4},
        train={"batch_size": 16, "max_epochs": 1, "learning_rate": 0.01, "seed": 0},
    )
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "data"),
               "--n", str(n), "--seed", "1"])
    assert rc == EXIT_OK
    data, ckpt = tmp_path / "data" / "dataset.npy", tmp_path / "run" / "checkpoint.json"
    nbytes = n * t * d * 8
    train_peak = _traced_peak(["train", "--config", str(cfg), "--data", str(data),
                               "--out", str(tmp_path / "run")])
    eval_peak = _traced_peak(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    predict_peak = _traced_peak(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                                 "--out", str(tmp_path / "pred")])
    assert train_peak < 2.5 * nbytes
    assert eval_peak < 1.6 * nbytes
    assert predict_peak < 1.6 * nbytes


# ---------------------------------------------------------------- eval


def test_eval_prints_metrics_and_confusion(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"])])
    assert rc == EXIT_OK
    captured = capsys.readouterr().out
    assert "evaluation over 80 windows" in captured
    assert "confusion matrix (rows = true, cols = predicted)" in captured
    for name in CLASS_NAMES:
        assert name in captured


def test_eval_writes_metric_and_confusion_csv(workspace, tmp_path):
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"]), "--out", str(out)])
    assert rc == EXIT_OK
    metric_lines = (out / "metrics.csv").read_text().splitlines()
    assert metric_lines[0] == ",".join(METRIC_FIELDS)
    values = [float(v) for v in metric_lines[1].split(",")]
    assert len(values) == len(METRIC_FIELDS)
    assert all(0.0 <= v <= 1.0 for v in values)
    confusion_lines = (out / "confusion.csv").read_text().splitlines()
    assert confusion_lines[0] == "true_class," + ",".join(CLASS_NAMES)
    assert len(confusion_lines) == 1 + len(CLASS_NAMES)
    total = sum(
        int(cell) for line in confusion_lines[1:] for cell in line.split(",")[1:]
    )
    assert total == 80


def test_eval_writes_and_prints_per_class_scores(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"]), "--out", str(out)])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "per-class scores" in printed
    lines = (out / "per_class.csv").read_text().splitlines()
    assert lines[0] == "class,precision,recall,f1,support"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == list(CLASS_NAMES)
    confusion = [line.split(",")[1:] for line in
                 (out / "confusion.csv").read_text().splitlines()[1:]]
    assert [int(r[4]) for r in rows] == [sum(int(v) for v in row) for row in confusion]
    metrics = dict(zip(*(line.split(",") for line in
                         (out / "metrics.csv").read_text().splitlines())))
    for column, macro in ((1, "macro_precision"), (2, "macro_recall"), (3, "macro_f1")):
        scores = np.array([float(r[column]) for r in rows])
        assert float(scores.mean()) == float(metrics[macro])
    for name, r in zip(CLASS_NAMES, rows):
        assert name in printed and f"{float(r[3]):.4f}" in printed


def test_eval_rejects_wrong_window_length(workspace, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        scenario={"metric_count": 4, "window_len": 12, "separation": 3.0,
                  "noise_std": 0.1, "leak_lag": 2},
        model={"window_len": 12, "encoder_hidden": 8,
               "embed_width": 6, "propagation_width": 6, "head_hidden": 4},
    )
    out = tmp_path / "long"
    assert main(["gen", "--config", str(cfg), "--out", str(out),
                 "--n", "6", "--seed", "0"]) == EXIT_OK
    rc = main(["eval", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(out / "dataset.npy")])
    assert rc == EXIT_DATA
    assert "timesteps" in capsys.readouterr().err


def test_eval_and_predict_reject_different_metric_count(workspace, tmp_path, capsys):
    """Normalization and graph are never refitted on the scored data."""
    cfg = write_config(
        tmp_path / "cfg.json",
        scenario={"metric_count": 8, "window_len": 8, "separation": 3.0,
                  "noise_std": 0.1, "leak_lag": 2},
    )
    out = tmp_path / "wide"
    assert main(["gen", "--config", str(cfg), "--out", str(out),
                 "--n", "20", "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    for command in ("eval", "predict"):
        rc = main([command, "--checkpoint", str(workspace["ckpt"]),
                   "--data", str(out / "dataset.npy")])
        assert rc == EXIT_DATA
        captured = capsys.readouterr()
        assert "dataset windows have 8 metrics, checkpoint graph covers 4" in captured.err
        assert captured.out == ""


def test_eval_warns_when_metric_names_differ(workspace, tmp_path, capsys):
    data = read_dataset(workspace["data"]).subset(np.arange(10))
    renamed = replace(data, metric_names=tuple(f"x{i}" for i in range(data.metric_count)))
    path = tmp_path / "renamed.npy"
    write_dataset(path, renamed)
    rc = main(["eval", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(path)])
    assert rc == EXIT_OK
    assert "metric names differ" in capsys.readouterr().err


# ---------------------------------------------------------------- predict


def test_predict_streams_csv_to_stdout(workspace, capsys):
    rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"])])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    header = (
        ["window_id"]
        + [f"logit_{c}" for c in CLASS_NAMES]
        + [f"p_{c}" for c in CLASS_NAMES]
        + ["predicted_class"]
    )
    assert lines[0] == ",".join(header)
    assert len(lines) == 1 + 80
    k = len(CLASS_NAMES)
    for row_id, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row_id
        logits = np.array([float(v) for v in cells[1:1 + k]])
        probs = np.array([float(v) for v in cells[1 + k:1 + 2 * k]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert cells[-1] == CLASS_NAMES[int(np.argmax(logits))]


def test_predict_csv_is_pinned_to_score_byte_for_byte(workspace, tmp_path, capsys):
    ckpt = load_checkpoint(workspace["ckpt"])
    pred = score(ckpt.params, ckpt.graph,
                 apply_norm(read_dataset(workspace["data"]), ckpt.norm))
    probs = softmax(pred.logits)
    header = (
        ["window_id"]
        + [f"logit_{c}" for c in CLASS_NAMES]
        + [f"p_{c}" for c in CLASS_NAMES]
        + ["predicted_class"]
    )
    expected = ",".join(header) + "\n" + "".join(
        ",".join([str(i)]
                 + [repr(float(v)) for v in pred.logits[i]]
                 + [repr(float(v)) for v in probs[i]]
                 + [CLASS_NAMES[int(pred.label[i])]]) + "\n"
        for i in range(len(pred.label))
    )
    rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"])])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"]), "--out", str(out)])
    assert rc == EXIT_OK
    written = (out / "predictions.csv").read_text()
    assert stdout == expected
    assert written == expected
    k = len(CLASS_NAMES)
    rows = [line.split(",") for line in written.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(80))
    # every cell parses back to the exact float score and softmax produced
    assert np.array_equal(np.array([[float(v) for v in r[1:1 + k]] for r in rows]),
                          pred.logits)
    assert np.array_equal(np.array([[float(v) for v in r[1 + k:1 + 2 * k]] for r in rows]),
                          probs)
    assert [r[-1] for r in rows] == [CLASS_NAMES[i] for i in pred.label]


def test_predict_writes_file_with_out_flag(workspace, tmp_path, capsys):
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(workspace["ckpt"]),
               "--data", str(workspace["data"]), "--out", str(out)])
    assert rc == EXIT_OK
    path = out / "predictions.csv"
    assert path.exists()
    assert f"wrote 80 predictions to {path}" in capsys.readouterr().out
    assert len(path.read_text().splitlines()) == 81


# ---------------------------------------------------------------- sweep


def test_sweep_batch_writes_table_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", n_windows=48)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg), "--kind", "batch",
               "--seeds", "0", "--out", str(out)])
    assert rc == EXIT_OK
    table_path = out / "sweep_batch.csv"
    assert table_path.exists()
    lines = table_path.read_text().splitlines()
    assert lines[0].endswith(
        "n_seeds,mean_accuracy,std_accuracy,mean_macro_precision,"
        "std_macro_precision,mean_macro_recall,std_macro_recall,"
        "mean_macro_f1,std_macro_f1"
    )
    assert len(lines) == 1 + 4  # one row per batch size in the default grid
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "sweep:batch"
    assert manifest["seed"] == [0]
    assert manifest["outputs"] == ["sweep_batch.csv"]
    captured = capsys.readouterr().out
    assert "sweep over seeds [0]" in captured
    assert f"wrote {table_path}" in captured


def test_sweep_ablation_writes_one_row_per_arm(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", n_windows=48)
    out = tmp_path / "ablation"
    rc = main(["sweep", "--config", str(cfg), "--kind", "ablation",
               "--seeds", "0,1", "--out", str(out)])
    assert rc == EXIT_OK
    table_path = out / "sweep_ablation.csv"
    lines = table_path.read_text().splitlines()
    assert lines[0] == "arm,n_seeds," + ",".join(
        f"{stat}_{m}" for m in METRIC_FIELDS for stat in ("mean", "std")
    )
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["full", "2"], ["no-propagation", "2"], ["static-weights", "2"]
    ]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "sweep:ablation"
    assert manifest["seed"] == [0, 1]
    assert manifest["outputs"] == ["sweep_ablation.csv"]
    captured = capsys.readouterr().out
    assert "arm sweep over seeds [0, 1]" in captured
    assert "  arm=no-propagation: accuracy=" in captured


def test_sweep_rejects_malformed_seed_list(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["sweep", "--config", str(cfg), "--kind", "batch",
               "--seeds", "a,b", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "comma-separated integers" in capsys.readouterr().err


def test_sweep_rejects_empty_seed_list(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["sweep", "--config", str(cfg), "--kind", "batch",
               "--seeds", ",", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "at least one seed" in capsys.readouterr().err


def test_sweep_unknown_kind_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--config", str(cfg), "--kind", "bogus"])
    assert excinfo.value.code == 2


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize(
    "exc, code",
    [
        (ConfigError("boom"), EXIT_CONFIG),
        (DataError("boom"), EXIT_DATA),
        (ShapeError("boom"), EXIT_DATA),
        (NumericError("boom"), EXIT_NUMERIC),
    ],
)
def test_error_classes_map_to_documented_exit_codes(monkeypatch, capsys, exc, code):
    def explode(path):
        raise exc

    monkeypatch.setattr(cli, "load_run_config", explode)
    assert main(["gen", "--n", "1"]) == code
    assert "error: boom" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = main(["gen", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o"), "--n", "1"])
    assert rc == EXIT_CONFIG
    assert "config file not found" in capsys.readouterr().err


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"learning_rte": 0.1}}))
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "o"),
               "--n", "1"])
    assert rc == EXIT_CONFIG
    assert "learning_rte" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"train": {"batch_size": "64"}}, "train.batch_size"),
        ({"train": {"max_epochs": True}}, "train.max_epochs"),
        ({"model": {"window_len": 32.0}}, "model.window_len"),
        ({"scenario": {"noise_std": "0.2"}}, "scenario.noise_std"),
        ({"ingest": {"stride": "8"}}, "ingest.stride"),
        ({"n_windows": [10]}, "n_windows"),
        ({"schema": {"machine_column": 5, "timestamp_column": "ts",
                     "metric_columns": {"cpu_util": "cpu"}}}, "schema.machine_column"),
        ({"split_fractions": 5}, "split_fractions"),
        ({"split_fractions": ["a", "b", "c"]}, "split_fractions"),
        ({"split_fractions": [0.5, True, 0.5]}, "split_fractions"),
    ],
)
def test_config_value_of_wrong_type_is_a_config_error(tmp_path, capsys, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "o"), "--n", "1"])
    assert rc == EXIT_CONFIG
    assert f"config key '{key}' must be" in capsys.readouterr().err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"out_dir": "\xff\xfe"}')
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "o"), "--n", "1"])
    assert rc == EXIT_CONFIG
    assert "not valid UTF-8 JSON" in capsys.readouterr().err


def test_non_utf8_checkpoint_is_a_data_error(workspace, tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    path.write_bytes(workspace["ckpt"].read_bytes().replace(b'"config_digest"', b'"\xff\xfe"'))
    rc = main(["eval", "--checkpoint", str(path), "--data", str(workspace["data"])])
    assert rc == EXIT_DATA
    assert "not valid UTF-8 JSON" in capsys.readouterr().err


def _valid_flags(command: str, workspace, tmp_path: Path) -> dict[str, str]:
    """Flags under which `command` would run and write to tmp_path / "out"."""
    cfg, data, out = str(workspace["cfg"]), str(workspace["data"]), str(tmp_path / "out")
    return {
        "gen": {"--config": cfg, "--n": "8", "--out": out},
        "ingest": {"--config": str(ingest_config(tmp_path / "ingest.json")),
                   "--trace": str(_write_trace(tmp_path / "trace.csv", cpu=0.95)), "--out": out},
        "graph": {"--config": cfg, "--data": data},
        "train": {"--config": cfg, "--data": data, "--out": out},
        "eval": {"--checkpoint": str(workspace["ckpt"]), "--data": data, "--out": out},
        "predict": {"--checkpoint": str(workspace["ckpt"]), "--data": data, "--out": out},
        "sweep": {"--config": cfg, "--kind": "batch", "--seeds": "0", "--out": out},
    }[command]


@pytest.mark.parametrize("command, flag, code, what", [
    ("gen", "--config", EXIT_CONFIG, "config"),
    ("ingest", "--config", EXIT_CONFIG, "config"),
    ("graph", "--config", EXIT_CONFIG, "config"),
    ("train", "--config", EXIT_CONFIG, "config"),
    ("sweep", "--config", EXIT_CONFIG, "config"),
    ("eval", "--checkpoint", EXIT_DATA, "checkpoint"),
    ("predict", "--checkpoint", EXIT_DATA, "checkpoint"),
    ("ingest", "--trace", EXIT_DATA, "trace"),
])
def test_input_path_that_is_a_directory_is_a_documented_error(workspace, tmp_path, capsys,
                                                               command, flag, code, what):
    flags = _valid_flags(command, workspace, tmp_path)
    flags[flag] = str(tmp_path)
    rc = main([command] + [arg for pair in flags.items() for arg in pair])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} {tmp_path} cannot be read: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "ingest", "train", "eval", "predict", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
def test_out_path_that_is_a_file_exits_before_any_work(workspace, tmp_path, capsys,
                                                       monkeypatch, command, below):
    flags = _valid_flags(command, workspace, tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    flags["--out"] = str(taken / "sub" if below else taken)
    for stage in ("generate", "ingest_csv", "read_dataset", "load_checkpoint"):
        monkeypatch.setattr(cli, stage, lambda *a: pytest.fail("work started"))
    monkeypatch.setitem(cli.SWEEPS, "batch", lambda *a, **k: pytest.fail("work started"))
    rc = main([command] + [arg for pair in flags.items() for arg in pair])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: output directory {flags['--out']}: {taken} exists and is not a directory\n")
    assert taken.read_text() == "kept\n"


def test_out_dir_from_the_environment_that_is_a_file_is_a_config_error(tmp_path, capsys,
                                                                       monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setenv(OUT_DIR_ENV, str(taken))
    rc = main(["gen", "--config", str(write_config(tmp_path / "cfg.json")), "--n", "4"])
    assert rc == EXIT_CONFIG
    assert "is not a directory" in capsys.readouterr().err


def test_config_int_is_accepted_where_a_float_is_expected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"learning_rate": 1}, "corr_threshold": 0}))
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "o"), "--n", "1"])
    assert rc == EXIT_OK


def test_learning_rate_above_one_exits_before_writing(workspace, tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", train={"learning_rate": 1e300})
    out = tmp_path / "run"
    rc = main(["train", "--config", str(path), "--data", str(workspace["data"]),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "learning_rate must lie in (0, 1.0], got 1e+300" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fractions, message", [
    ([0.5, 0.5, 0.5], "split_fractions must sum to 1, got sum 1.5"),
    ([1.0, 0.0, 0.0], "split_fractions must be positive, got (1.0, 0.0, 0.0)"),
])
@pytest.mark.parametrize("command", ["gen", "graph"])
def test_bad_split_fractions_exit_before_writing(workspace, tmp_path, capsys, command,
                                                 fractions, message):
    """gen and graph never split, yet they validate the whole config as train does."""
    path = write_config(tmp_path / "cfg.json", split_fractions=fractions)
    out = tmp_path / "data"
    inputs = (["--n", "8", "--out", str(out)] if command == "gen"
              else ["--data", str(workspace["data"])])
    rc = main([command, "--config", str(path)] + inputs)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("num_classes", [3, 6])
def test_num_classes_other_than_five_exits_before_writing(workspace, tmp_path, capsys,
                                                          num_classes):
    """The class count is fixed, so the model section has no num_classes key."""
    path = write_config(tmp_path / "cfg.json", model={"window_len": 8, "num_classes": num_classes})
    out = tmp_path / "run"
    rc = main(["train", "--config", str(path), "--data", str(workspace["data"]),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "error: unknown config key 'model.num_classes'\n"
    assert not out.exists()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_module_entry_point_prints_usage():
    # the child imports the package from where this test did, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "contention.cli", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "usage: contention" in proc.stdout
    for name in ("gen", "ingest", "graph", "train", "eval", "predict", "sweep"):
        assert name in proc.stdout
