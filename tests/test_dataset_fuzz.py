"""Hostile dataset files: read_dataset and `contention train` on broken input.

Every input here is a valid dataset with one part broken: random bytes or a
random header as the .npy, the .npy cut short or with bytes overwritten,
one manifest field replaced by random JSON, or an .npy header claiming far
more data than the file holds. The only error allowed is a DataError
(SchemaError included), which the CLI turns into exit code 3; never a
traceback.
"""

import json
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention.cli import EXIT_DATA, EXIT_OK, main
from contention.data import (
    ScenarioConfig,
    generate,
    manifest_path,
    read_dataset,
    write_dataset,
)
from contention.errors import DataError
from contention.rng import RngStream

N, T, D = 30, 8, 4

CONFIG = {
    "scenario": {"metric_count": D, "window_len": T, "separation": 3.0, "noise_std": 0.1,
                 "leak_lag": 2},
    "model": {"encoder_hidden": 4, "embed_width": 3, "propagation_width": 3, "head_hidden": 3},
    "train": {"batch_size": 16, "max_epochs": 1, "seed": 0},
}

MANIFEST_KEYS = (
    "format_version", "n_windows", "window_len", "metric_count", "num_classes",
    "metric_names", "class_names", "source", "labels",
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)

MAGIC = b"\x93NUMPY\x01\x00"


def _with_header(header) -> bytes:
    """A version 1.0 .npy whose header is the repr of `header`, followed by 64 zero bytes."""
    text = repr(header).encode("utf-8", "replace")
    return MAGIC + len(text).to_bytes(2, "little") + text + bytes(64)


array_files = st.one_of(
    st.binary(max_size=512),
    st.binary(max_size=300).map(lambda rest: MAGIC + rest),
    st.fixed_dictionaries(
        {"descr": st.sampled_from(["<f8", ">f8", "|O", "(2,)f8", "<f8,"]) | json_values,
         "fortran_order": st.booleans() | json_values,
         "shape": st.lists(st.integers(-3, 2**65), max_size=4).map(tuple) | json_values},
    ).map(_with_header),
)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """A valid dataset of N windows and a run config that trains on it in one epoch."""
    root = tmp_path_factory.mktemp("fuzz-src")
    windows = generate(ScenarioConfig(**CONFIG["scenario"]), N, RngStream(3, (0,)))
    data = root / "dataset.npy"
    write_dataset(data, replace(windows, source="fuzz"))
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    return data, config


def _copy(original, tmp_path_factory):
    """A fresh copy of the dataset and its manifest, for one example to break."""
    data, _ = original
    folder = tmp_path_factory.mktemp("fuzz")
    shutil.copy(data, folder / data.name)
    shutil.copy(manifest_path(data), manifest_path(folder / data.name))
    return folder / data.name


def _read_fails_or_holds_n_windows(path) -> bool:
    """True when read_dataset raises a DataError; any other exception propagates."""
    try:
        data = read_dataset(path)
    except DataError:
        return True
    assert len(data) == N
    return False


def _train_exit(path, config, out, capsys) -> int:
    rc = main(["train", "--config", str(config), "--data", str(path), "--out", str(out),
               "--seed", "0"])
    if rc == EXIT_DATA:
        assert "error:" in capsys.readouterr().err
    return rc


@FUZZ
@given(content=array_files)
def test_random_bytes_as_the_array(original, tmp_path_factory, capsys, content):
    copy = _copy(original, tmp_path_factory)
    copy.write_bytes(content)
    assert _read_fails_or_holds_n_windows(copy)
    out = tmp_path_factory.mktemp("run")
    assert _train_exit(copy, original[1], out, capsys) == EXIT_DATA


@FUZZ
@given(data=st.data())
def test_truncated_array(original, tmp_path_factory, capsys, data):
    copy = _copy(original, tmp_path_factory)
    content = copy.read_bytes()
    copy.write_bytes(content[: data.draw(st.integers(0, len(content) - 1))])
    assert _read_fails_or_holds_n_windows(copy)
    out = tmp_path_factory.mktemp("run")
    assert _train_exit(copy, original[1], out, capsys) == EXIT_DATA


@FUZZ
@given(data=st.data())
def test_overwritten_array_bytes(original, tmp_path_factory, data):
    copy = _copy(original, tmp_path_factory)
    content = bytearray(copy.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        # most draws land in the 128-byte header, the rest anywhere in the values
        at = data.draw(st.integers(0, 127) | st.integers(0, len(content) - 1))
        content[at] = data.draw(st.integers(0, 255))
    copy.write_bytes(bytes(content))
    _read_fails_or_holds_n_windows(copy)


@FUZZ
@given(key=st.sampled_from(MANIFEST_KEYS), value=json_values)
def test_manifest_field_replaced_by_random_json(original, tmp_path_factory, capsys, key,
                                                value):
    copy = _copy(original, tmp_path_factory)
    manifest = json.loads(manifest_path(copy).read_text())
    manifest[key] = value
    manifest_path(copy).write_text(json.dumps(manifest))
    failed = _read_fails_or_holds_n_windows(copy)
    out = tmp_path_factory.mktemp("run")
    assert _train_exit(copy, original[1], out, capsys) == (EXIT_DATA if failed else EXIT_OK)


def test_header_claiming_a_huge_array_allocates_nothing(original, tmp_path_factory, capsys):
    copy = _copy(original, tmp_path_factory)
    with copy.open("wb") as fh:
        header = {"descr": "<f8", "fortran_order": False, "shape": (10**9, 32, 12)}
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"is not a readable \.npy array"):
            read_dataset(copy)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rc = _train_exit(copy, original[1], tmp_path_factory.mktemp("run"), capsys)
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_DATA
    assert read_peak < 1 << 20
    assert train_peak < 1 << 20
