"""Determinism and independence guarantees of the splittable RNG streams."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.cli import EXIT_OK
from contention.cli import main as cli_main
from contention.config import run_config_from_dict
from contention.data import generate, write_dataset
from contention.errors import ConfigError
from contention.pipeline import prepare_synthetic, run_prepared
from contention.rng import RngStream
from contention.sweeps import sweep_datasize


def test_algorithm_tag():
    stream = RngStream(0)
    assert isinstance(stream.generator().bit_generator, np.random.Philox)


def test_same_stream_replays_exactly():
    a = RngStream(42, (1, 2)).generator().standard_normal(100)
    b = RngStream(42, (1, 2)).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_generator_is_fresh_each_call():
    """generator() must restart the stream, not continue a shared cursor."""
    stream = RngStream(7)
    first = stream.generator().integers(0, 1 << 30, size=10)
    second = stream.generator().integers(0, 1 << 30, size=10)
    assert np.array_equal(first, second)


def test_substream_extends_path():
    s = RngStream(3, (5,)).substream(9)
    assert s.seed == 3
    assert s.path == (5, 9)


def test_substreams_are_mutually_distinct():
    base = RngStream(0)
    draws = [base.substream(i).generator().standard_normal(8) for i in range(20)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_seed_separates_streams():
    a = RngStream(1, (0,)).generator().standard_normal(16)
    b = RngStream(2, (0,)).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_path_depth_matters():
    """(0, 1) and (1,) must not collide even though they share a suffix."""
    a = RngStream(5, (0, 1)).generator().standard_normal(16)
    b = RngStream(5, (1,)).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_consumption_order_independence():
    """Draws from substream k never depend on other substreams being used."""
    lone = RngStream(11).substream(3).generator().standard_normal(32)

    base = RngStream(11)
    for i in (0, 1, 2):
        base.substream(i).generator().standard_normal(1000)
    interleaved = base.substream(3).generator().standard_normal(32)

    assert np.array_equal(lone, interleaved)


def test_frozen_dataclass():
    s = RngStream(1)
    try:
        s.seed = 2
    except AttributeError:
        pass
    else:
        raise AssertionError("RngStream should be immutable")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1000), st.integers(0, 1000))
def test_distinct_indices_distinct_draws(seed, i, j):
    if i == j:
        return
    a = RngStream(seed).substream(i).generator().integers(0, 1 << 62, size=4)
    b = RngStream(seed).substream(j).generator().integers(0, 1 << 62, size=4)
    assert not np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.lists(st.integers(0, 50), max_size=4))
def test_replay_property(seed, path):
    s = RngStream(seed, tuple(path))
    assert np.array_equal(
        s.generator().standard_normal(8), s.generator().standard_normal(8)
    )


@pytest.mark.parametrize("seed,path", [(-1, ()), (0, (-1,)), (0, (1, -3)), (0, (1.5,)),
                                       (0, ("2",)), (0.0, ()), (True, ()), (0, (1.7,)),
                                       (0, (True,)), (0, ("3",))])
def test_negative_or_non_integer_entries_are_config_errors(seed, path):
    with pytest.raises(ConfigError, match="must be a non-negative integer"):
        RngStream(seed, path)
    if path:
        # substream refuses the bad last entry before any coercion
        with pytest.raises(ConfigError, match="must be a non-negative integer"):
            RngStream(seed, path[:-1]).substream(path[-1])


def _draws(gen):
    """Integer, normal and uniform draws; the odd count of int32 draws leaves
    a buffered 32-bit half-word that the next stream must not inherit."""
    return (
        gen.integers(0, 1000, size=3, dtype=np.int32).tolist(),
        gen.integers(0, 1 << 62, size=2).tolist(),
        gen.standard_normal(5).tolist(),
        gen.random(3).tolist(),
    )


@pytest.mark.parametrize("seed,path", [(0, ()), (0, (0,)), (7, (1, 2, 3)), (2**40 + 3, (0,)),
                                       (2**64, (2**32,)), (2**96 + 5, (2**33 + 1, 0))])
def test_block_generators_draw_like_jumped(seed, path):
    stream = RngStream(seed, path)
    got = [_draws(gen) for gen in stream.block_generators(40)]
    want = [_draws(np.random.Generator(stream.generator().bit_generator.jumped(i)))
            for i in range(40)]
    assert got == want


def test_block_generators_of_zero_blocks():
    assert list(RngStream(0).block_generators(0)) == []


# A config small enough that each run below trains for seconds at most.
SMALL_RUN = {
    "scenario": {"metric_count": 4, "window_len": 8, "separation": 3.0, "noise_std": 0.1,
                 "leak_lag": 2},
    "model": {"encoder_hidden": 4, "embed_width": 3, "propagation_width": 3, "head_hidden": 2},
    "train": {"batch_size": 16, "max_epochs": 3, "patience": 3, "seed": 5},
    "n_windows": 60,
}


def _synthetic_run(tmp_path):
    cfg = run_config_from_dict(SMALL_RUN)
    run_prepared(prepare_synthetic(cfg.scenario, cfg.n_windows, cfg.train.seed),
                 cfg.model, cfg.train)


def _cli_train(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(SMALL_RUN))
    rc = cli_main(["train", "--config", str(tmp_path / "run.json"), "--data",
                   str(tmp_path / "dataset.npy"), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert rc == EXIT_OK


def _datasize_cell(tmp_path):
    sweep_datasize(run_config_from_dict(SMALL_RUN), fractions=(0.5,), seeds=(5,))


@pytest.mark.parametrize("run", [_synthetic_run, _cli_train, _datasize_cell])
def test_no_stream_is_drawn_twice_in_one_run(run, tmp_path, monkeypatch):
    """Data generation, the split, the subsample, initialization and every
    epoch's batch order each draw from a stream of their own."""
    cfg = run_config_from_dict(SMALL_RUN)
    write_dataset(tmp_path / "dataset.npy",
                  generate(cfg.scenario, cfg.n_windows, RngStream(5).substream(0)))
    requested = []
    generator = RngStream.generator

    def recording(stream):
        requested.append((stream.seed, stream.path))
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", recording)
    run(tmp_path)
    assert len(requested) > 3 + 14  # split, three shuffles and 14 weight matrices at least
    repeated = sorted({key for key in requested if requested.count(key) > 1})
    assert repeated == []
