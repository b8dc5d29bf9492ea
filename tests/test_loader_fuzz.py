"""Hostile checkpoints, run configs and traces: the loaders and the CLI on broken input.

Every input here is random bytes, random JSON, or a valid file with one part
broken: bytes overwritten, one field deleted, or one field (or one element
of an array) replaced by random JSON. load_checkpoint may only raise a
SchemaError, which the CLI turns into exit code 3, and load_run_config only
a ConfigError, exit code 2; `contention eval` and
`contention train` on these files exit 0, 2 or 3, never with a traceback.
`contention ingest` gets the same treatment for its trace and for the
`schema` and `ingest` sections of its config, and no such run may allocate
more than INGEST_PEAK_BYTES, whatever sizes the trace or config claim.
One table breaks each of the three JSON files the program reads (the
config, a dataset manifest, a checkpoint) in each of the same ways, and a
second breaks each file's content; every error line names the file.
"""

import base64
import json
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention.checkpoint import load_checkpoint
from contention.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from contention.config import load_run_config
from contention.data import ScenarioConfig, generate, manifest_path, write_dataset
from contention.errors import ConfigError, SchemaError
from contention.rng import RngStream

N, T, D = 30, 8, 4

CONFIG = {
    "scenario": {"metric_count": D, "window_len": T, "separation": 3.0, "noise_std": 0.1,
                 "leak_lag": 2},
    "model": {"encoder_hidden": 4, "embed_width": 3, "propagation_width": 3, "head_hidden": 3},
    "train": {"batch_size": 16, "max_epochs": 1, "learning_rate": 0.01, "seed": 0},
    "n_windows": N,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)

MISSING = object()  # a case value that deletes its key instead

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


def _set(*path_and_value):
    """A change to a JSON document that sets the value at the path, deletes it (MISSING),
    or replaces it by a callable value of the value there."""
    *path, value = path_and_value

    def change(document):
        for key in path[:-1]:
            document = document[key]
        if value is MISSING:
            del document[path[-1]]
        else:
            document[path[-1]] = value(document[path[-1]]) if callable(value) else value
    return change


def _floats(edit):
    """For _set: a base64 float64 field of a checkpoint with its floats edited by `edit`."""
    def change(text):
        floats = edit(np.frombuffer(base64.b64decode(text), dtype="<f8"))
        return base64.b64encode(np.asarray(floats, dtype="<f8").tobytes()).decode()
    return change


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
    except SchemaError:
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


NAMES = f"'metric_names' must be an empty list or a list of {D} strings, "


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("metric_names",), [1, 2, 3, 4], NAMES + "got \\[1,"),
        (("graph", "dim"), float("inf"), "'graph.dim' must be a positive integer, got inf"),
        (("train_seed",), float("inf"), "'train_seed' must be a non-negative integer, got inf"),
        (("train_seed",), MISSING, "missing key 'train_seed'"),
        (("normalization", "mean"), 10**400, "'normalization.mean' must be a base64 string, "
                                               "got 1000"),
        (("params",), _floats(lambda f: np.r_[np.inf, f[1:]]),
         "'params' contains non-finite values"),
        # integers and names are read as JSON gives them, never coerced
        (("graph", "dim"), str(D), "'graph.dim' must be a positive integer, got '4'"),
        (("graph", "dim"), D + 0.7, "'graph.dim' must be a positive integer, got 4.7"),
        (("train_seed",), True, "'train_seed' must be a non-negative integer, got True"),
        (("train_seed",), -1, "'train_seed' must be a non-negative integer, got -1"),
        (("config_digest",), 5, "'config_digest' must be a string, got 5"),
        (("metric_names",), ["m0"], NAMES + r"got \['m0'\]"),
        (("window_len",), str(T), "'window_len' must be a positive integer, got '8'"),
        (("window_len",), True, "'window_len' must be a positive integer, got True"),
        (("window_len",), 0, "'window_len' must be a positive integer, got 0"),
        (("window_len",), MISSING, "missing key 'window_len'"),
        # each field holds the JSON type save_checkpoint writes, and no other
        (("params",), True, "'params' must be a base64 string, got True"),
        (("params",), 0.5, "'params' must be a base64 string, got 0.5"),
        (("normalization", "std"), 1, "'normalization.std' must be a base64 string, got 1"),
        (("graph", "adjacency", 0, 1), True, "adjacency must hold JSON integers, got True"),
        (("graph", "adjacency", 0, 1), 1.0, "adjacency must hold JSON integers, got 1.0"),
        (("graph", "adjacency", 0, 1), "1", "adjacency must hold JSON integers, got '1'"),
        # a checkpoint trained without names holds an empty list, never null
        (("metric_names",), None, NAMES + "got None"),
    ],
    ids=["int-metric-names", "infinite-dim",
         "infinite-seed", "missing-seed", "huge-mean", "huge-weight",
         "string-dim", "fractional-dim", "bool-seed", "negative-seed", "int-digest",
         "one-metric-name", "string-window-len", "bool-window-len", "zero-window-len",
         "missing-window-len", "bool-weight", "number-weight", "number-std", "bool-adjacency",
         "float-adjacency", "string-adjacency", "null-metric-names"],
)
def test_checkpoint_values_the_loader_rejects(original, tmp_path_factory, capsys, path, value,
                                              message):
    payload = json.loads(original[2].read_text())
    _set(*path, value)(payload)
    ckpt = _checkpoint_case(tmp_path_factory, json.dumps(payload).encode())
    with pytest.raises(SchemaError, match=message):
        load_checkpoint(ckpt)
    assert _eval_exit(ckpt, original, capsys) == EXIT_DATA


# ------------------------------------------------- malformed files, one table

# every JSON file the program reads, with the exit code its errors map to
READERS = {"config": EXIT_CONFIG, "manifest": EXIT_DATA, "checkpoint": EXIT_DATA}
# case: (what is written, or a change to the valid file; what the error line says)
MALFORMED = {
    "missing": (None, "is not found"),
    "directory": ("directory", "cannot be read"),
    "bad-utf8": (b"\xff\xfe{}", "is not valid UTF-8 JSON"),
    "bad-json": (b"{nope", "is not valid UTF-8 JSON"),
    "unclosed-arrays": (b"[" * 100_000, "is not valid UTF-8 JSON"),
    "nested-arrays": (b"[" * 100_000 + b"]" * 100_000, "is not valid UTF-8 JSON"),
    "nested-objects": (b'{"graph": ' * 50_000, "is not valid UTF-8 JSON"),
    "5000-digit-integer": (b'{"train_seed": ' + b"9" * 5000 + b"}", "is not valid UTF-8 JSON"),
    "top-level-array": (b"[]", "must hold a JSON object, got a list"),
    "float-version": (lambda doc: doc.update(format_version=float(doc["format_version"])),
                      "has format_version"),
    "bool-version": (lambda doc: doc.update(format_version=True), "has format_version True"),
    "missing-key": (lambda doc: doc.pop("window_len"), "is missing key 'window_len'"),
}
# the config has no format_version and no required key
NOT_FOR_CONFIG = ("float-version", "bool-version", "missing-key")
# reader: {case: (a change to the valid file, what the error line says)}, faults in the
# content, which each reader reports after the same "<reader> <path>" as the ones above
CONTENT = {
    "config": {
        "unknown-key": (_set("format_version", 3.0), "unknown config key 'format_version'"),
        "schema-without-machine-column": (
            _set("schema", {"timestamp_column": "ts", "metric_columns": {"cpu": "cpu"}}),
            "config section 'schema' is missing 'machine_column'"),
        "zero-batch-size": (_set("train", "batch_size", 0), "batch_size must be >= 1, got 0"),
    },
    "manifest": {
        "string-n-windows": (_set("n_windows", str(N)),
                             f"'n_windows' must be a positive integer, got '{N}'"),
        "label-7": (_set("labels", 0, 7), "label 7 of window 0 is neither null nor an integer"),
        # the manifest holds the nine keys write_dataset writes and no other, the classes fixed
        "unknown-key": (_set("classes", 7), ": unknown key 'classes'"),
        "missing-class-names": (_set("class_names", MISSING), "is missing key 'class_names'"),
        "num-classes-7": (_set("num_classes", 7), "'num_classes' must be 5, got 7"),
        "float-num-classes": (_set("num_classes", 5.0), "'num_classes' must be 5, got 5.0"),
        "reordered-class-names": (_set("class_names", lambda names: names[::-1]),
                                  "'class_names' must be ['CPU', 'IO', 'MEM', 'NET', 'HYBRID'], "
                                  "got ['HYBRID', 'NET', 'MEM', 'IO', 'CPU']"),
    },
    "checkpoint": {
        "zero-encoder-hidden": (_set("model", "encoder_hidden", 0),
                                "encoder_hidden must be >= 1, got 0"),
        "bool-weight": (_set("params", True), "'params' must be a base64 string, got True"),
        "asymmetric-adjacency": (_set("graph", "adjacency", [[0, 1] + [0] * (D - 2)]
                                      + [[0] * D] * (D - 1)),
                                 "adjacency must be symmetric with a zero diagonal"),
        "missing-graph-dim": (_set("graph", "dim", MISSING),
                              "has a missing or malformed field (KeyError: 'dim')"),
        "small-std": (_set("normalization", "std", _floats(lambda f: np.r_[1e-9, f[1:]])),
                      "normalization std 1e-09 is below 1e-08"),
        # the base64 fields: type, then length, then the decoder's own checks
        "list-params": (_set("params", [0.5]), "'params' must be a base64 string, got [0.5]"),
        "number-params": (_set("params", 7), "'params' must be a base64 string, got 7"),
        "null-params": (_set("params", None), "'params' must be a base64 string, got None"),
        "non-ascii-params": (_set("params", lambda text: "\u00e9" + text[1:]),
                             "'params' is not base64: "),
        "non-base64-params": (_set("params", lambda text: "*" + text[1:]),
                              "'params' is not base64: "),
        "bad-padding-params": (_set("params", lambda text: text.replace("=", "A")),
                               "float64 values: bad padding"),
        "short-params": (_set("params", _floats(lambda f: f[:-1])), "'params' has "),
        "long-params": (_set("params", _floats(lambda f: np.r_[f, 0.5])), "'params' has "),
        "short-mean": (_set("normalization", "mean", _floats(lambda f: f[:-1])),
                       f"not the {4 * -(-8 * D // 3)} that encode {D} float64 values"),
        "long-std": (_set("normalization", "std", _floats(lambda f: np.r_[f, 0.5])),
                     f"'normalization.std' has {4 * -(-8 * (D + 1) // 3)} characters"),
    },
}


@pytest.mark.parametrize("reader, case", [
    (reader, case) for reader in READERS for case in MALFORMED
    if reader != "config" or case not in NOT_FOR_CONFIG
] + [(reader, case) for reader, cases in CONTENT.items() for case in cases])
def test_malformed_json_file(original, tmp_path, capsys, reader, case):
    """The config, a dataset manifest or a checkpoint, broken one way: through the CLI, one
    error line that names the file and its fault, and the reader's exit code."""
    data, config, ckpt = original
    content, message = {**MALFORMED, **CONTENT[reader]}[case]
    if reader == "config":
        path, valid = tmp_path / "config.json", config
        argv = ["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "o")]
    elif reader == "manifest":
        shutil.copy(data, tmp_path / "dataset.npy")
        path, valid = manifest_path(tmp_path / "dataset.npy"), manifest_path(data)
        argv = ["graph", "--data", str(tmp_path / "dataset.npy")]
    else:
        path, valid = tmp_path / "checkpoint.json", ckpt
        argv = ["eval", "--checkpoint", str(path), "--data", str(data)]
    if content == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        document = json.loads(valid.read_text())
        content(document)
        path.write_text(json.dumps(document))
    assert main(argv) == READERS[reader]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reader} {path}") and err.count("\n") == 1
    assert message in err


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
        ("scenario", "leakage", float("nan"), "'scenario.leakage' must be float"),
        # split_fractions is no longer a key; it is refused as one
        (None, "split_fractions", [10**400, 0.5, 0.5], "unknown config key 'split_fractions'"),
    ],
    ids=["negative-seed", "huge-rate", "infinite-rate", "nan-leakage", "huge-fraction"],
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
    "ingest, stamps, exits",
    [
        ({"window_len": 10**12}, None, (EXIT_OK, EXIT_DATA)),
        ({"resample_step": 1, "max_fill": 64}, [0, 10**11, 2 * 10**11], (EXIT_OK, EXIT_DATA)),
        ({"resample_step": 10**30}, None, (EXIT_CONFIG,)),  # past the 2**63 bound
        ({}, [0, 60, 10**30, 10**30 + 60, -(10**40)], (EXIT_OK, EXIT_DATA)),
        ({"window_len": 2, "resample_step": 1}, [0, 1, 2**63, 2**63 + 1], (EXIT_OK, EXIT_DATA)),
    ],
    ids=["huge-window", "fill-to-the-bound", "huge-step", "stamps-past-int64",
         "stamps-across-int64"],
)
def test_sizes_a_config_or_trace_claims_allocate_nothing(tmp_path_factory, capsys, ingest,
                                                          stamps, exits):
    lines = _valid_trace().splitlines()
    if stamps is not None:
        lines = lines[:1] + [f"a,{t},0.95,0.3,0.1,0.1" for t in stamps]
    config = json.loads(json.dumps(INGEST_CONFIG))
    config["ingest"].update(ingest)
    rc = _ingest_exit(("\n".join(lines) + "\n").encode(), json.dumps(config).encode(),
                      tmp_path_factory, capsys)
    assert rc in exits
