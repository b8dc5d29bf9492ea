"""Blockwise passes over a dataset against their whole-array forms.

`fit_norm`, `first_nonfinite`, the Pearson sums and the split read of a
dataset file each work a block of BLOCK_BYTES at a time (the split read in
multiples of SCORE_CHUNK windows, which these tests set to 1). Each test
sets the block size so that the data spans many blocks, a last partial
block, or one block larger than the data, and compares with the form that
holds the whole array: bit for bit, except the Pearson cross products,
whose blockwise sum may move their last bits (checked within 1e-12).
The blocks exist to bound memory, so the memory they bound is pinned too:
`fit_norm` and the Pearson matrix hold a few blocks, never an (M, D) temporary.
"""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention import data as data_module
from contention.data import (
    Dataset,
    ScenarioConfig,
    BLOCK_BYTES,
    fit_norm,
    first_nonfinite,
    generate,
    read_dataset,
    split,
    write_dataset,
)
from contention.errors import DataError
from contention.graph import pearson_from_series, pearson_matrix
from contention.pipeline import split_parts
from contention.rng import RngStream

from conftest import random_dataset


@contextmanager
def blocks_of(items: int, item_bytes: int):
    """BLOCK_BYTES set so that one block holds `items` items of item_bytes, and the
    block reader's SCORE_CHUNK set to 1 so that its blocks may hold any count."""
    with mock.patch.object(data_module, "BLOCK_BYTES", items * item_bytes), \
            mock.patch.object(data_module, "SCORE_CHUNK", 1):
        yield


def _spread(data: Dataset, gen: np.random.Generator) -> Dataset:
    """data with each metric scaled and shifted over six decades, so sums round."""
    d = data.metric_count
    values = data.values * 10.0 ** gen.uniform(-3, 3, size=d) + gen.uniform(-1e3, 1e3, size=d)
    return Dataset(values, data.labels, data.metric_names, data.source)


class TestFitNorm:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 30), t=st.integers(1, 9), d=st.sampled_from([1, 1, 2, 3, 5, 12]),
           block_rows=st.integers(1, 300), seed=st.integers(0, 10_000))
    def test_equals_whole_array_mean_and_std_bit_for_bit(self, n, t, d, block_rows, seed):
        """D = 1 is among the cases: numpy sums a single column pairwise."""
        data = _spread(random_dataset(n, t, d, seed=seed), np.random.default_rng(seed))
        rows = data.values.reshape(-1, d)
        with blocks_of(block_rows, 8 * d):
            stats = fit_norm(data)
        assert stats.mean.tobytes() == rows.mean(axis=0).tobytes()
        assert stats.std.tobytes() == np.maximum(rows.std(axis=0), 1e-8).tobytes()

    @pytest.mark.parametrize("block_rows", [1000, 4096, 8191])
    def test_default_train_part(self, block_rows):
        """The train part of the default 3000-window dataset, 67200 rows of 12 metrics."""
        train, _, _ = split_parts(generate(ScenarioConfig(), 3000, RngStream(0).substream(0)),
                                  RngStream(0).substream(1))
        rows = train.values.reshape(-1, train.metric_count)
        with blocks_of(block_rows, 8 * train.metric_count):
            stats = fit_norm(train)
        assert stats.mean.tobytes() == rows.mean(axis=0).tobytes()
        assert stats.std.tobytes() == rows.std(axis=0).tobytes()


def one_product_pearson(x: np.ndarray) -> np.ndarray:
    """pearson_from_series with every cross product in one `centered.T @ centered`."""
    n, d = x.shape
    means = x.mean(axis=0)
    centered = x - means
    sq = (centered * centered).sum(axis=0)
    live = np.sqrt(sq / n) > 1e-12 * np.maximum(1.0, np.abs(means))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (centered.T @ centered) / np.sqrt(np.outer(sq, sq))
    corr[~live, :] = 0.0
    corr[:, ~live] = 0.0
    corr[np.diag_indices(d)] = np.where(live, 1.0, 0.0)
    return np.clip(corr, -1.0, 1.0)


class TestPearson:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 400), d=st.integers(1, 8), block_rows=st.integers(1, 500),
           seed=st.integers(0, 2**32 - 1))
    def test_within_1e_12_of_the_one_product_form(self, n, d, block_rows, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, d)) * 10.0 ** gen.uniform(-3, 3, size=d)
        x += gen.uniform(-1e6, 1e6, size=d)
        x[:, gen.random(d) < 0.2] = 3.5  # some constant metrics
        with blocks_of(block_rows, 8 * d):
            got = pearson_from_series(x)
        want = one_product_pearson(x)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(got, got.T)
        assert np.array_equal(got == 0.0, want == 0.0)  # the same metrics are constant
        if block_rows >= n or d == 1:  # one block: the one-product form itself
            assert got.tobytes() == want.tobytes()


def _traced_peak_above_start(fn) -> int:
    """Peak traced bytes of fn() above those traced when it is called."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemory:
    """What the blockwise pass is for: an (M, D) temporary of an 8.2 MiB input
    would alone exceed the bound of three blocks (2.1 MiB measured)."""

    @pytest.mark.parametrize("statistic", [fit_norm, pearson_matrix])  # pearson_from_series
    def test_peak_stays_under_three_blocks(self, statistic):
        data = random_dataset(2800, 32, 12, seed=0)
        assert data.values.nbytes >= 8 << 20
        statistic(data)  # imports and caches first
        assert _traced_peak_above_start(lambda: statistic(data)) < 3 * BLOCK_BYTES


class TestFirstNonfinite:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), t=st.integers(1, 6), d=st.integers(1, 5),
           block_windows=st.integers(1, 45), data=st.data())
    def test_equals_the_whole_array_answer(self, n, t, d, block_windows, data):
        values = np.random.default_rng(n * t * d).normal(size=(n, t, d))
        for _ in range(data.draw(st.integers(0, 3))):
            at = tuple(data.draw(st.integers(0, size - 1)) for size in (n, t, d))
            values[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        finite = np.isfinite(values).all(axis=(1, 2))
        want = -1 if finite.all() else int(np.argmin(finite))
        with blocks_of(block_windows, 8 * t * d):
            assert first_nonfinite(values) == want

    def test_in_the_last_partial_block(self):
        values = np.zeros((10, 4, 3))
        values[9, 3, 2] = np.nan
        with blocks_of(3, values[0].nbytes):  # blocks of windows 0-2, 3-5, 6-8 and 9
            assert first_nonfinite(values) == 9


def _outcome(read):
    """The parts `read` returns, or the message of the DataError it raises."""
    try:
        return read()
    except DataError as exc:
        return str(exc)


class TestSplitRead:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 60), t=st.integers(1, 6), d=st.integers(1, 5),
           block_windows=st.integers(1, 70), seed=st.integers(0, 10_000))
    def test_equals_the_split_of_the_whole_read(self, tmp_path_factory, n, t, d, block_windows,
                                                seed):
        data = random_dataset(n, t, d, seed=seed)
        path = tmp_path_factory.mktemp("split") / "dataset.npy"
        write_dataset(path, data)
        rng = RngStream(seed).substream(1)
        with blocks_of(block_windows, 8 * t * d):
            got = _outcome(lambda: split_parts(path, rng))
            want = _outcome(lambda: split_parts(read_dataset(path), rng))
        if isinstance(want, str):  # too few windows for a 70/15/15 split
            assert got == want
            return
        whole = read_dataset(path)
        for g, w, index in zip(got, want, split(whole.labels, rng)):
            assert g.values.tobytes() == w.values.tobytes() == whole.values[index].tobytes()
            assert g.values.flags.c_contiguous
            assert g.labels.tolist() == w.labels.tolist() == whole.labels[index].tolist()
            assert (g.metric_names, g.source) == (whole.metric_names, whole.source)

    def test_a_non_finite_block_before_a_cut_ends_the_read(self, tmp_path, monkeypatch):
        """As read_dataset: the first fault in file order ends the read. A file cut after
        its header check reports the non-finite value of its first block, not the cut
        that a later block would meet; with that value finite, it reports the cut."""
        data = random_dataset(40, 4, 3, seed=1)
        path = tmp_path / "dataset.npy"
        open_memmap = np.lib.format.open_memmap

        def then_cut(*args, **kwargs):
            mapped = open_memmap(*args, **kwargs)
            with path.open("r+b") as fh:
                fh.truncate(path.stat().st_size - 8)
            return mapped

        monkeypatch.setattr(np.lib.format, "open_memmap", then_cut)
        for value, message in ((np.nan, "window 0 has a non-finite value"),
                               (0.0, "holds fewer values than its header declares")):
            data.values[0, 0, 0] = value
            write_dataset(path, data)
            with blocks_of(4, data.values[0].nbytes):
                with pytest.raises(DataError, match=message):
                    split_parts(path, RngStream(0).substream(1))

    def test_a_file_too_small_to_split_fails_before_its_values(self, tmp_path):
        """The split comes from the manifest's labels, so a set too small to split
        fails with the split's message before any value is read: a non-finite one
        is not reported."""
        data = random_dataset(2, 4, 3, seed=0)
        data.values[1, 2, 0] = np.inf
        path = tmp_path / "dataset.npy"
        write_dataset(path, data)
        with pytest.raises(DataError, match="split empty"):
            split_parts(path, RngStream(0).substream(1))
        with pytest.raises(DataError, match="window 1 has a non-finite value"):
            read_dataset(path)
