"""Hostile checkpoints, run configs and traces: the loaders and the CLI on broken input.

Every input here is random bytes, random JSON, or a valid file with one part
broken: bytes overwritten, one field deleted, or one field (or one element
of an array) replaced by random JSON. load_checkpoint may only raise a
DataError or ShapeError, which the CLI turns into exit code 3, and
load_run_config only a ConfigError, exit code 2; `contention eval` and
`contention train` on these files exit 0, 2 or 3, never with a traceback.
`contention ingest` gets the same treatment for its trace and for the
`schema` and `ingest` sections of its config, and no such run may allocate
more than INGEST_PEAK_BYTES, whatever sizes the trace or config claim.
"""

import json
import shutil
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention.checkpoint import load_checkpoint
from contention.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from contention.config import load_run_config
from contention.data import ScenarioConfig, generate, write_dataset
from contention.errors import ConfigError, DataError, ShapeError
from contention.rng import RngStream

N, T, D = 30, 8, 4

CONFIG = {
    "scenario": {"metric_count": D, "window_len": T, "separation": 3.0, "noise_std": 0.1,
                 "leak_lag": 2},
    "model": {"window_len": T, "num_classes": 5, "encoder_hidden": 4, "embed_width": 3,
              "propagation_width": 3, "head_hidden": 3},
    "train": {"batch_size": 16, "max_epochs": 1, "learning_rate": 0.01, "seed": 0},
    "corr_threshold": 0.3,
    "split_fractions": [0.7, 0.15, 0.15],
    "n_windows": N,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """A valid dataset, a run config that trains on it in one epoch, and its checkpoint."""
    root = tmp_path_factory.mktemp("loader-fuzz")
    data = root / "dataset.npy"
    windows = generate(ScenarioConfig(**CONFIG["scenario"]), N, RngStream(3, (0,)))
    write_dataset(data, replace(windows, source="fuzz"))
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(root / "run")]) == EXIT_OK
    return data, config, root / "run" / "checkpoint.json"


def _paths(node, prefix=()):
    """Every key path into a JSON document, arrays included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(document, data):
    """A copy of document with one drawn path deleted or replaced by random JSON."""
    document = json.loads(json.dumps(document))
    path = data.draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    return document


def _overwritten(content: bytes, data) -> bytes:
    content = bytearray(content)
    for _ in range(data.draw(st.integers(1, 4))):
        content[data.draw(st.integers(0, len(content) - 1))] = data.draw(st.integers(0, 255))
    return bytes(content)


# ------------------------------------------------------------------ checkpoint


def _load_checkpoint_fails(path) -> bool:
    """True when load_checkpoint raises an error that exits 3; anything else propagates."""
    try:
        load_checkpoint(path)
    except (DataError, ShapeError):
        return True
    return False


def _eval_exit(ckpt, original, capsys) -> int:
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(original[0])])
    if rc != EXIT_OK:
        assert "error:" in capsys.readouterr().err
    return rc


def _checkpoint_case(tmp_path_factory, content: bytes):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    path.write_bytes(content)
    return path


@FUZZ
@given(content=st.binary(max_size=512) | json_values.map(lambda v: json.dumps(v).encode()))
def test_random_bytes_or_json_as_checkpoint(original, tmp_path_factory, capsys, content):
    path = _checkpoint_case(tmp_path_factory, content)
    assert _load_checkpoint_fails(path)
    assert _eval_exit(path, original, capsys) == EXIT_DATA


@FUZZ
@given(data=st.data())
def test_checkpoint_field_replaced_or_deleted(original, tmp_path_factory, capsys, data):
    payload = _mutated(json.loads(original[2].read_text()), data)
    path = _checkpoint_case(tmp_path_factory, json.dumps(payload).encode())
    failed = _load_checkpoint_fails(path)
    rc = _eval_exit(path, original, capsys)
    assert rc == EXIT_DATA if failed else rc in (EXIT_OK, EXIT_DATA)


@FUZZ
@given(data=st.data())
def test_overwritten_checkpoint_bytes(original, tmp_path_factory, capsys, data):
    path = _checkpoint_case(tmp_path_factory,
                            _overwritten(original[2].read_bytes(), data))
    failed = _load_checkpoint_fails(path)
    rc = _eval_exit(path, original, capsys)
    assert rc == EXIT_DATA if failed else rc in (EXIT_OK, EXIT_DATA)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("class_names",), [1, 2, 3, 4, 5], "class names must be a list of strings"),
        (("class_names", 2), None, "class names must be a list of strings"),
        (("metric_names",), [1, 2, 3, 4], "metric names must be a list of strings"),
        (("graph", "threshold"), 10**400, "OverflowError"),
        (("graph", "dim"), float("inf"), "OverflowError"),
        (("train_seed",), float("inf"), "OverflowError"),
        (("normalization", "mean", 0), 10**400, "OverflowError"),
        (("params", "enc_w1", 0, 0), 10**400, "OverflowError"),
    ],
    ids=["int-class-names", "null-class-name", "int-metric-names", "huge-threshold", "infinite-dim",
         "infinite-seed", "huge-mean", "huge-weight"],
)
def test_checkpoint_values_the_loader_rejects(original, tmp_path_factory, capsys, path, value,
                                              message):
    payload = json.loads(original[2].read_text())
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    ckpt = _checkpoint_case(tmp_path_factory, json.dumps(payload).encode())
    with pytest.raises(DataError, match=message):
        load_checkpoint(ckpt)
    assert _eval_exit(ckpt, original, capsys) == EXIT_DATA


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"graph": ' * 50_000, '{"train_seed": ' + "9" * 5000 + "}"],
    ids=["nested-arrays", "nested-objects", "5000-digit-integer"],
)
def test_json_the_parser_refuses_is_rejected(original, tmp_path_factory, capsys, text):
    path = _checkpoint_case(tmp_path_factory, text.encode())
    with pytest.raises(DataError, match="not valid UTF-8 JSON"):
        load_checkpoint(path)
    assert _eval_exit(path, original, capsys) == EXIT_DATA
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(text)
    with pytest.raises(ConfigError, match="not valid UTF-8 JSON"):
        load_run_config(config)


# ---------------------------------------------------------------------- config


def _load_config_fails(path) -> bool:
    """True when load_run_config raises a ConfigError; anything else propagates."""
    try:
        load_run_config(path)
    except ConfigError:
        return True
    return False


def _train_exit(config, original, tmp_path_factory, capsys) -> int:
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--config", str(config), "--data", str(original[0]), "--out", str(out)])
    err = capsys.readouterr().err
    if rc != EXIT_OK:
        assert "error:" in err
    shutil.rmtree(out)
    return rc


def _train_outcome_ok(rc, load_failed) -> bool:
    return rc == EXIT_CONFIG if load_failed else rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("train", "seed", -1, "seed must be a non-negative integer, got -1"),
        ("train", "learning_rate", 10**400, "'train.learning_rate' must be float"),
        ("train", "learning_rate", float("inf"), "'train.learning_rate' must be float"),
        ("train", "dwa_temperature", float("nan"), "'train.dwa_temperature' must be float"),
        (None, "split_fractions", [10**400, 0.5, 0.5], "must be a list of numbers"),
    ],
    ids=["negative-seed", "huge-rate", "infinite-rate", "nan-temperature", "huge-fraction"],
)
def test_config_values_that_raised_tracebacks_or_diverged(original, tmp_path, capsys, section,
                                                          key, value, message):
    data = json.loads(json.dumps(CONFIG))
    (data[section] if section else data)[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    rc = main(["train", "--config", str(config), "--data", str(original[0]),
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err


@FUZZ
@given(content=st.binary(max_size=512) | json_values.map(lambda v: json.dumps(v).encode()))
def test_random_bytes_or_json_as_config(original, tmp_path_factory, capsys, content):
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_bytes(content)
    failed = _load_config_fails(config)
    rc = _train_exit(config, original, tmp_path_factory, capsys)
    assert _train_outcome_ok(rc, failed)


@FUZZ
@given(data=st.data())
def test_config_field_replaced_or_deleted(original, tmp_path_factory, capsys, data):
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(json.dumps(_mutated(CONFIG, data)))
    failed = _load_config_fails(config)
    rc = _train_exit(config, original, tmp_path_factory, capsys)
    assert _train_outcome_ok(rc, failed)


@FUZZ
@given(data=st.data())
def test_overwritten_config_bytes(original, tmp_path_factory, capsys, data):
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_bytes(_overwritten(original[1].read_bytes(), data))
    failed = _load_config_fails(config)
    rc = _train_exit(config, original, tmp_path_factory, capsys)
    assert _train_outcome_ok(rc, failed)


# ---------------------------------------------------------------------- ingest

INGEST_PEAK_BYTES = 4 << 20
INGEST_CONFIG = {
    "schema": {"machine_column": "machine", "timestamp_column": "ts",
               "metric_columns": {"cpu": "cpu", "mem": "mem", "disk": "disk", "net": "net"}},
    "ingest": {"window_len": 4, "resample_step": 60, "max_fill": 2},
}


def _valid_trace() -> str:
    """Two machines, 24 samples each a minute apart, one hot on cpu, with a short gap."""
    gen = RngStream(5, (0,)).generator()
    lines = ["machine,ts,cpu,mem,disk,net"]
    for machine, cpu in (("a", 0.95), ("b", 0.2)):
        for i in range(24):
            if machine == "b" and i in (9, 10):
                continue
            cells = [cpu, 0.3, *gen.uniform(0.0, 1.0, 2)]
            lines.append(f"{machine},{i * 60}," + ",".join(f"{c:.3f}" for c in cells))
    return "\n".join(lines) + "\n"


def _ingest_exit(trace: bytes, config: bytes, tmp_path_factory, capsys) -> int:
    """Exit code of `contention ingest`, whose tracemalloc peak must stay bounded."""
    folder = tmp_path_factory.mktemp("ingest")
    (folder / "trace.csv").write_bytes(trace)
    (folder / "config.json").write_bytes(config)
    tracemalloc.start()
    try:
        rc = main(["ingest", "--config", str(folder / "config.json"),
                   "--trace", str(folder / "trace.csv"), "--out", str(folder / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    if rc != EXIT_OK:
        assert "error:" in err
    assert peak < INGEST_PEAK_BYTES
    shutil.rmtree(folder)
    return rc


def test_valid_trace_ingests(tmp_path_factory, capsys):
    config = json.dumps(INGEST_CONFIG).encode()
    assert _ingest_exit(_valid_trace().encode(), config, tmp_path_factory, capsys) == EXIT_OK


@FUZZ
@given(content=st.binary(max_size=512) | st.text(alphabet=",\n\r\"0123456789.-eE abcnmt",
                                                 max_size=512).map(str.encode))
def test_random_bytes_as_trace(tmp_path_factory, capsys, content):
    config = json.dumps(INGEST_CONFIG).encode()
    assert _ingest_exit(content, config, tmp_path_factory, capsys) in (EXIT_OK, EXIT_DATA)


cells = (st.integers() | st.floats() | st.text(max_size=6)
         | st.sampled_from(["nan", "inf", "-inf", "1e308", "1e309", "9" * 5000, ""])).map(str)


@FUZZ
@given(data=st.data())
def test_mutated_trace(tmp_path_factory, capsys, data):
    """A valid trace with lines dropped, duplicated or swapped, cells replaced, or bytes hit."""
    lines = _valid_trace().splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "cell", "cells"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            row = lines[i].split(",")
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(cells)
            if kind == "cells":  # a row of another width
                row += data.draw(st.lists(cells, max_size=3)) if data.draw(st.booleans()) else []
                row = row[: data.draw(st.integers(0, len(row)))]
            lines[i] = ",".join(row)
        if not lines:
            break
    trace = ("\n".join(lines) + "\n").encode()
    if data.draw(st.booleans()):
        trace = _overwritten(trace, data)
    config = json.dumps(INGEST_CONFIG).encode()
    assert _ingest_exit(trace, config, tmp_path_factory, capsys) in (EXIT_OK, EXIT_DATA)


@FUZZ
@given(data=st.data())
def test_schema_or_ingest_field_replaced_or_deleted(tmp_path_factory, capsys, data):
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(json.dumps(_mutated(INGEST_CONFIG, data)))
    failed = _load_config_fails(config)
    rc = _ingest_exit(_valid_trace().encode(), config.read_bytes(), tmp_path_factory, capsys)
    assert rc == EXIT_CONFIG if failed else rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)


@FUZZ
@given(data=st.data())
def test_overwritten_ingest_config_bytes(tmp_path_factory, capsys, data):
    config = _overwritten(json.dumps(INGEST_CONFIG).encode(), data)
    rc = _ingest_exit(_valid_trace().encode(), config, tmp_path_factory, capsys)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)


@pytest.mark.parametrize(
    "ingest, stamps",
    [
        ({"window_len": 10**12}, None),
        ({"window_len": 2, "stride": 10**12}, None),
        ({"resample_step": 1, "max_fill": 64}, [0, 10**11, 2 * 10**11]),
        ({"resample_step": 10**30}, None),
        ({}, [0, 60, 10**30, 10**30 + 60, -(10**40)]),
        ({"window_len": 2, "resample_step": 1}, [0, 1, 2**63, 2**63 + 1]),
    ],
    ids=["huge-window", "huge-stride", "fill-to-the-bound", "huge-step", "stamps-past-int64",
         "stamps-across-int64"],
)
def test_sizes_a_config_or_trace_claims_allocate_nothing(tmp_path_factory, capsys, ingest,
                                                          stamps):
    lines = _valid_trace().splitlines()
    if stamps is not None:
        lines = lines[:1] + [f"a,{t},0.95,0.3,0.1,0.1" for t in stamps]
    config = json.loads(json.dumps(INGEST_CONFIG))
    config["ingest"].update(ingest)
    rc = _ingest_exit(("\n".join(lines) + "\n").encode(), json.dumps(config).encode(),
                      tmp_path_factory, capsys)
    assert rc in (EXIT_OK, EXIT_DATA)
