"""Synthetic scenario, normalization, splitting, and dataset file tests.

Signal shapes are checked against scalar re-derivations of their closed
forms. Statistical properties (class balance, AR structure, leak-induced
correlation) use fixed seeds with thresholds far from the observed values:
the chi-square bound 18.467 is the 0.001 tail for 4 degrees of freedom while
the observed statistic is under 1.
"""

import copy
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contention import data as data_module
from contention.checkpoint import Checkpoint
from contention.data import (
    AR_COEFF,
    CLASS_NAMES,
    DOWNSTREAM,
    GROUP_NAMES,
    MAX_GENERATED_VALUES,
    MAX_METRIC_COUNT,
    MAX_SCENARIO_SCALE,
    SPLIT_FRACTIONS,
    UNLABELED,
    ContentionClass,
    Dataset,
    MetricWindow,
    NormStats,
    ScenarioConfig,
    _apportion,
    apply_norm,
    class_signals,
    default_groups,
    fit_norm,
    generate,
    manifest_path,
    norm_in_place,
    read_blocks,
    read_dataset,
    split,
    write_dataset,
)
from contention.errors import ConfigError, DataError, SchemaError, ShapeError
from contention.graph import MetricGraph, build_graph, pearson_from_series, pearson_matrix
from contention.model import ForwardCache, ModelParams, Prediction, forward, init_params, predict
from contention.rng import RngStream
from contention.train import AdamState, EpochRecord, EvalMetrics, metrics_from_confusion
from contention.sweeps import subsample_stratified

from conftest import baseline_accuracy, baseline_predict, random_dataset, random_windows


def _delayed(sig, lag):
    out = np.zeros_like(sig)
    if lag == 0:
        return sig.copy()
    out[lag:] = sig[:-lag]
    return out


class TestMetricWindow:
    def test_coerces_to_float64(self):
        w = MetricWindow(
            values=[[1, 2], [3, 4]], label=0, source="x", metric_names=("a", "b")
        )
        assert w.values.dtype == np.float64
        assert w.window_len == 2 and w.metric_count == 2

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            MetricWindow(values=np.zeros(4), label=0, source="x", metric_names=("a",))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ShapeError, match="metric names"):
            MetricWindow(
                values=np.zeros((2, 3)), label=0, source="x", metric_names=("a", "b")
            )

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2))
        bad[1, 1] = np.nan
        with pytest.raises(DataError, match="'w7'"):
            MetricWindow(values=bad, label=0, source="w7", metric_names=("a", "b"))


class TestGroups:
    def test_default_quarters(self):
        got = default_groups(12)
        assert got == (
            ("cpu", (0, 1, 2)),
            ("mem", (3, 4, 5)),
            ("disk", (6, 7, 8)),
            ("net", (9, 10, 11)),
        )

    def test_indivisible_rejected(self):
        for bad in (10, 3, 5):
            with pytest.raises(ConfigError):
                default_groups(bad)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.metric_count == 12
        assert cfg.window_len == 32
        assert cfg.separation == 1.0
        assert cfg.leakage == 0.3
        assert cfg.leak_lag == 4
        assert cfg.noise_std == 0.2
        assert cfg.metric_names()[:4] == ("cpu0", "cpu1", "cpu2", "mem0")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"metric_count": 3},
            {"metric_count": 10},
            {"window_len": 7},
            {"separation": -0.1},
            {"leakage": 1.5},
            {"leakage": -0.1},
            {"leak_lag": 32},
            {"leak_lag": -1},
            {"separation": float("nan")},
            {"noise_std": 0.0},
            {"metric_count": MAX_METRIC_COUNT + 4},
            {"separation": 1e308},
            {"noise_std": 1e308},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_largest_scale_generates_finite_values_without_warnings(self):
        cfg = ScenarioConfig(separation=MAX_SCENARIO_SCALE, noise_std=MAX_SCENARIO_SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = generate(cfg, 20, RngStream(0))
        assert np.isfinite(data.values).all()

    def test_oversized_metric_count_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"lie in \[4, {MAX_METRIC_COUNT}\]"):
                ScenarioConfig(metric_count=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestClassSignals:
    def test_cpu_plateau_closed_form(self):
        cfg = ScenarioConfig(separation=1.5)
        sig = class_signals(cfg, ContentionClass.CPU)
        quarter = cfg.window_len // 4
        want = np.zeros(cfg.window_len)
        for t in range(cfg.window_len):
            u = min(t / quarter, 1.0)
            want[t] = 1.5 * (3 * u * u - 2 * u**3)
        assert np.max(np.abs(sig["cpu"] - want)) <= 1e-12
        # held at full amplitude after the ramp-up quarter
        assert np.all(sig["cpu"][quarter:] == 1.5)

    def test_mem_ramp_closed_form(self):
        cfg = ScenarioConfig(separation=2.0)
        sig = class_signals(cfg, ContentionClass.MEM)
        t = np.arange(32.0)
        assert np.max(np.abs(sig["mem"] - 2.0 * t / 31.0)) <= 1e-12

    def test_io_spike_train(self):
        cfg = ScenarioConfig(separation=0.5)
        sig = class_signals(cfg, ContentionClass.IO)
        for t in range(32):
            want = 1.0 if t % 5 == 0 else 0.0
            assert sig["disk"][t] == want

    def test_net_burst_zero_mean_and_local(self):
        cfg = ScenarioConfig()
        sig = class_signals(cfg, ContentionClass.NET)
        burst = sig["net"]
        assert np.all(burst[:8] == 0.0)
        assert np.all(burst[24:] == 0.0)
        assert np.any(burst[8:24] != 0.0)
        # two full sinusoid periods across the middle half: mean vanishes
        assert abs(burst.mean()) <= 1e-12

    def test_hybrid_combines_cpu_and_delayed_io(self):
        cfg = ScenarioConfig(leakage=0.0)
        cpu = class_signals(cfg, ContentionClass.CPU)["cpu"]
        spikes = class_signals(cfg, ContentionClass.IO)["disk"]
        hybrid = class_signals(cfg, ContentionClass.HYBRID)
        assert np.array_equal(hybrid["cpu"], cpu)
        assert np.max(
            np.abs(hybrid["disk"] - 0.7 * _delayed(spikes, cfg.leak_lag))
        ) <= 1e-12

    def test_leak_goes_to_fixed_downstream(self):
        cfg = ScenarioConfig(leakage=0.4, leak_lag=3)
        cases = {
            ContentionClass.CPU: "cpu",
            ContentionClass.IO: "disk",
            ContentionClass.MEM: "mem",
            ContentionClass.NET: "net",
        }
        for label, origin in cases.items():
            sig = class_signals(cfg, label)
            down = DOWNSTREAM[origin]
            assert set(sig) == {origin, down}
            want = 0.4 * _delayed(sig[origin], 3)
            assert np.max(np.abs(sig[down] - want)) <= 1e-12

    def test_hybrid_leak_chain_reaches_net(self):
        """The hybrid disk component leaks onward as a doubly delayed train."""
        cfg = ScenarioConfig(leakage=0.5, leak_lag=4)
        sig = class_signals(cfg, ContentionClass.HYBRID)
        spikes = class_signals(cfg, ContentionClass.IO)["disk"]
        want_net = 0.5 * 0.7 * _delayed(spikes, 8)
        assert set(sig) == {"cpu", "disk", "net"}
        assert np.max(np.abs(sig["net"] - want_net)) <= 1e-12

    def test_zero_leakage_still_emits_zero_leak_row(self):
        sig = class_signals(ScenarioConfig(leakage=0.0), ContentionClass.MEM)
        assert np.all(sig["cpu"] == 0.0)
        assert np.any(sig["mem"] != 0.0)

    def test_bad_label(self):
        with pytest.raises(DataError):
            class_signals(ScenarioConfig(), 5)


# ---------------------------------------------------------------------------
# Per-window reference: the generator that the stacked build replaced, apart
# from returning plain tuples and drawing window i from numpy's own
# `Philox.jumped(i)` of the dataset's stream.


def _reference_generate(cfg, n, rng):
    """(values, label, source) per window, one window and one AR loop at a time."""
    out = []
    for index in range(n):
        gen = np.random.Generator(rng.generator().bit_generator.jumped(index))
        label = int(gen.integers(len(CLASS_NAMES)))
        eps = gen.normal(0.0, cfg.noise_std, size=(cfg.window_len, cfg.metric_count))
        x = np.empty_like(eps)
        x[0] = eps[0]
        for t in range(1, cfg.window_len):
            x[t] = AR_COEFF * x[t - 1] + eps[t]
        group_map = cfg.group_map
        for name, sig in class_signals(cfg, label).items():
            x[:, list(group_map[name])] += sig[:, None]
        out.append((x, label, f"synthetic:{rng.seed}:{index}"))
    return out


@st.composite
def _scenarios(draw):
    """Scenario configs over window and metric sizes and edge knobs."""
    t_len = draw(st.integers(8, 40))
    return ScenarioConfig(
        metric_count=4 * draw(st.integers(1, 6)),
        window_len=t_len,
        separation=draw(st.sampled_from([0.0, 0.3, 1.0, 4.0])),
        leakage=draw(st.sampled_from([0.0, 0.3, 1.0])),
        leak_lag=draw(st.integers(0, t_len - 1)),
        noise_std=draw(st.sampled_from([1e-3, 0.2, 3.0])),
    )


class TestGenerateMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(cfg=_scenarios(), n=st.integers(1, 30),
           # one, two and three 32-bit entropy words per seed
           seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                          st.integers(2**64, 2**96 - 1)),
           path=st.lists(st.integers(0, 2**40), max_size=3))
    def test_values_labels_and_sources_equal(self, cfg, n, seed, path):
        rng = RngStream(seed, tuple(path))
        got = generate(cfg, n, rng)
        want = _reference_generate(cfg, n, rng)
        assert len(got) == n
        for w, (values, label, source) in zip(got, want):
            assert w.values.tobytes() == values.tobytes()
            assert w.label == label
            assert w.source == source
            assert w.metric_names == cfg.metric_names()

    def test_default_scenario_over_500_windows(self):
        rng = RngStream(0, (0,))
        got = generate(ScenarioConfig(), 500, rng)
        want = _reference_generate(ScenarioConfig(), 500, rng)
        assert got.values.tobytes() == np.stack([v for v, _, _ in want]).tobytes()
        assert got.labels.tolist() == [label for _, label, _ in want]
        assert got.source == "synthetic:0"


class TestGenerate:
    def test_deterministic_and_order_independent(self):
        cfg = ScenarioConfig()
        a = generate(cfg, 5, RngStream(3, (0,)))
        b = generate(cfg, 9, RngStream(3, (0,)))
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.values, wb.values)
            assert wa.label == wb.label

    def test_window_metadata(self):
        cfg = ScenarioConfig()
        ws = generate(cfg, 3, RngStream(11, (0,)))
        for i, w in enumerate(ws):
            assert w.values.shape == (32, 12)
            assert 0 <= w.label <= 4
            assert w.source == f"synthetic:11:{i}"
            assert w.metric_names == cfg.metric_names()

    def test_rejects_zero_windows(self):
        with pytest.raises(ConfigError):
            generate(ScenarioConfig(), 0, RngStream(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow
    def test_overflowing_noise_names_the_window(self):
        """generate's finite check backs up the scale bound, set past it here."""
        cfg = ScenarioConfig()
        object.__setattr__(cfg, "noise_std", 1e308)
        with pytest.raises(DataError, match=r"window 'synthetic:2:0' contains non-finite values"):
            generate(cfg, 3, RngStream(2, (0,)))

    @pytest.mark.parametrize("n", [MAX_GENERATED_VALUES // (32 * 12) + 1, 10**12])
    def test_oversized_dataset_allocates_nothing(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"limit of {MAX_GENERATED_VALUES}"):
                generate(ScenarioConfig(), n, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_windows_are_views_of_one_stack(self):
        data = generate(ScenarioConfig(), 4, RngStream(0, (0,)))
        assert data.values.shape == (4, 32, 12)
        assert all(w.values.base is data.values for w in data)

    def test_class_balance_chi_square(self):
        """chi2 over 5000 draws stays under the 0.001 tail (18.467, 4 dof)."""
        ws = generate(ScenarioConfig(), 5000, RngStream(77, (0,)))
        counts = np.bincount(ws.labels, minlength=5)
        chi2 = float((((counts - 1000.0) ** 2) / 1000.0).sum())
        assert chi2 < 18.467

    def test_autoregressive_structure(self):
        """With no injected signal the lag-1 autocorrelation tracks AR_COEFF."""
        cfg = ScenarioConfig(separation=0.0)
        ws = generate(cfg, 300, RngStream(5, (0,)))
        num = den = 0.0
        for w in ws:
            a = w.values[:-1].ravel()
            b = w.values[1:].ravel()
            a = a - a.mean()
            b = b - b.mean()
            num += float((a * b).sum())
            den += float(np.sqrt((a * a).sum() * (b * b).sum()))
        corr = num / den
        assert 0.70 <= corr <= 0.87

    def test_leaks_show_up_as_cross_group_correlation(self):
        """Group pairs on the leak map correlate more than pairs off it."""
        linked = (("cpu", "disk"), ("disk", "net"), ("mem", "cpu"), ("mem", "net"))
        unrelated = (("cpu", "net"), ("mem", "disk"))
        for seed in range(3):
            cfg = ScenarioConfig(leakage=0.8)
            ws = generate(cfg, 300, RngStream(seed, (1,)))
            gmap = cfg.group_map
            series = np.stack(
                [
                    np.concatenate(
                        [w.values[:, list(gmap[g])].mean(axis=1) for w in ws]
                    )
                    for g in GROUP_NAMES
                ],
                axis=1,
            )
            c = pearson_from_series(series)
            gi = {name: i for i, name in enumerate(GROUP_NAMES)}
            linked_mean = np.mean([abs(c[gi[a], gi[b]]) for a, b in linked])
            unrelated_mean = np.mean([abs(c[gi[a], gi[b]]) for a, b in unrelated])
            assert linked_mean > unrelated_mean + 0.02

    def test_signal_lands_on_configured_columns(self):
        cfg = ScenarioConfig(separation=50.0, leakage=0.0, noise_std=1e-3)
        ws = generate(cfg, 40, RngStream(9, (0,)))
        cpu_cols = list(cfg.group_map["cpu"])
        for w in ws:
            if w.label != ContentionClass.CPU:
                continue
            tail = w.values[16:]
            assert np.all(tail[:, cpu_cols].mean(axis=0) > 25.0)
            other = [j for j in range(12) if j not in cpu_cols]
            assert np.all(np.abs(tail[:, other].mean(axis=0)) < 5.0)


class TestBaseline:
    def test_accuracy_at_defaults(self):
        cfg = ScenarioConfig()
        ws = generate(cfg, 300, RngStream(123, (0,)))
        assert baseline_accuracy(ws, cfg) >= 0.95

    def test_returns_valid_label_even_when_nothing_is_hot(self):
        assert 0 <= baseline_predict(np.zeros((32, 12)), ScenarioConfig(separation=1.0)) <= 3

    def test_empty_rejected(self):
        cfg = ScenarioConfig()
        with pytest.raises(DataError):
            baseline_accuracy(Dataset(np.empty((0, 32, 12)), np.empty(0), cfg.metric_names()), cfg)


class TestNormalization:
    def test_matches_scalar_oracle(self):
        data = random_dataset(3, 6, 4, seed=0)
        stats = fit_norm(data)
        stacked = np.concatenate(list(data.values), axis=0)
        n = stacked.shape[0]
        for j in range(4):
            mean = sum(stacked[i, j] for i in range(n)) / n
            var = sum((stacked[i, j] - mean) ** 2 for i in range(n)) / n
            assert abs(stats.mean[j] - mean) <= 1e-12
            assert abs(stats.std[j] - math.sqrt(var)) <= 1e-12

    def test_apply_standardizes(self):
        data = random_dataset(10, 8, 3, seed=1)
        normed = apply_norm(data, fit_norm(data)).values.reshape(-1, 3)
        assert np.max(np.abs(normed.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(normed.std(axis=0) - 1.0)) <= 1e-12

    def test_constant_metric_floored(self):
        vals = np.ones((5, 2))
        vals[:, 1] = np.arange(5.0)
        data = Dataset(vals[None], np.array([0]), ("a", "b"))
        stats = fit_norm(data)
        assert stats.std[0] == NormStats.STD_FLOOR == 1e-8
        assert np.all(apply_norm(data, stats).values[0, :, 0] == 0.0)
        w = MetricWindow(values=vals, label=0, source="x", metric_names=("a", "b"))
        assert np.all(apply_norm(w, stats).values[:, 0] == 0.0)

    def test_apply_preserves_label_and_names(self):
        data = random_dataset(4, 6, 3, seed=2, labeled=False)
        out = apply_norm(data, fit_norm(data))
        assert np.array_equal(out.labels, data.labels)
        assert out.metric_names == data.metric_names
        assert out.source == data.source
        single = random_dataset(1, 6, 3, seed=2)
        w = next(iter(single))
        one = apply_norm(w, fit_norm(single))
        assert (one.label, one.metric_names, one.source) == (w.label, w.metric_names, w.source)

    def test_metric_count_mismatch(self):
        stats = fit_norm(random_dataset(2, 6, 3, seed=3))
        with pytest.raises(ShapeError):
            apply_norm(random_windows(1, 6, 4, seed=4)[0], stats)
        with pytest.raises(ShapeError):
            apply_norm(random_dataset(1, 6, 4, seed=4), stats)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_norm(Dataset(np.empty((0, 6, 3)), np.empty(0), ("a", "b", "c")))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 6), st.integers(0, 10_000))
    def test_dataset_equals_per_window_bit_for_bit(self, n, t, d, seed):
        data = random_dataset(n, t, d, seed=seed)
        ws = list(data)
        stats = fit_norm(data)
        before = data.values.tobytes()
        want = np.stack([apply_norm(w, stats).values for w in ws])
        assert apply_norm(data, stats).values.tobytes() == want.tobytes()
        assert data.values.tobytes() == before  # apply_norm writes neither a window nor a set
        assert norm_in_place(data.subset(np.arange(n)), stats).values.tobytes() == want.tobytes()
        # fit_norm over the reshaped stack equals the old fit over concatenated windows
        rows = np.concatenate([w.values for w in ws], axis=0)
        assert stats.mean.tobytes() == rows.mean(axis=0).tobytes()
        assert stats.std.tobytes() == np.maximum(rows.std(axis=0), 1e-8).tobytes()


class TestDataset:
    def test_iter_yields_window_views_in_order(self):
        data = Dataset(np.arange(48.0).reshape(4, 4, 3), [2, UNLABELED, 0, 4], ("a", "b", "c"), "s")
        ws = list(data)
        assert [w.label for w in ws] == [2, None, 0, 4]
        assert all(type(w.label) is int for w in ws if w.label is not None)
        assert [w.source for w in ws] == ["s:0", "s:1", "s:2", "s:3"]
        for w, v in zip(ws, data.values, strict=True):
            assert np.shares_memory(w.values, data.values) and np.array_equal(w.values, v)
            assert w.metric_names == ("a", "b", "c")

    def test_dataset_rejects_inconsistent_fields(self):
        with pytest.raises(ShapeError, match=r"\(N, T, D\)"):
            Dataset(np.zeros((8, 3)), np.zeros(8), ("a", "b", "c"))
        with pytest.raises(ShapeError, match="labels"):
            Dataset(np.zeros((2, 8, 3)), np.zeros(3), ("a", "b", "c"))
        with pytest.raises(ShapeError, match="metric names"):
            Dataset(np.zeros((2, 8, 3)), np.zeros(2), ("a", "b"))

    def test_subset_gathers_in_index_order(self):
        data = random_dataset(6, 4, 2, seed=3)
        sub = data.subset(np.array([4, 0, 5]))
        assert np.array_equal(sub.values, data.values[[4, 0, 5]])
        assert sub.labels.tolist() == data.labels[[4, 0, 5]].tolist()
        assert sub.metric_names == data.metric_names


def _reference_split(windows, rng):
    """The list-based split this package used before index arrays: the reference."""
    strata = {}
    for i, w in enumerate(windows):
        strata.setdefault(-1 if w.label is None else int(w.label), []).append(i)
    gen = rng.generator()
    parts = ([], [], [])
    for key in sorted(strata):
        idx = np.array(strata[key])
        gen.shuffle(idx)
        counts = _apportion(len(idx))
        offset = 0
        for part, count in zip(parts, counts):
            part.extend(windows[i] for i in idx[offset : offset + count])
            offset += count
    return parts


def _reference_subsample(windows, fraction, rng):
    """The list-based subsample_stratified of the sweeps before index arrays."""
    strata = {}
    for i, w in enumerate(windows):
        strata.setdefault(-1 if w.label is None else int(w.label), []).append(i)
    gen = rng.generator()
    keep = []
    for key in sorted(strata):
        idx = np.array(strata[key])
        gen.shuffle(idx)
        count = max(1, int(np.floor(fraction * idx.size + 0.5)))
        keep.extend(int(i) for i in idx[:count])
    return [windows[i] for i in sorted(keep)]


def _labeled_mix(labels):
    """One tiny window per entry of `labels` (None = unlabeled)."""
    return Dataset(np.arange(float(len(labels))).reshape(-1, 1, 1),
                   [UNLABELED if label is None else label for label in labels], ("m",), "w")


class TestIndexSelectionMatchesReference:
    """split and subsample_stratified pick the windows the list versions picked,
    in the same order, from the same RNG draws."""

    def _check(self, data, seed):
        ws, labels = list(data), data.labels
        want = _reference_split(ws, RngStream(seed, (2,)))
        got = split(labels, RngStream(seed, (2,)))
        for part_w, part_i in zip(want, got, strict=True):
            assert [w.source for w in part_w] == [ws[i].source for i in part_i]
        for fraction in (0.1, 0.5, 1.0):
            want = _reference_subsample(ws, fraction, RngStream(seed, (3,)))
            got = subsample_stratified(labels, fraction, RngStream(seed, (3,)))
            assert [w.source for w in want] == [ws[i].source for i in got]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.none() | st.integers(0, len(CLASS_NAMES) - 1), min_size=12,
                    max_size=80), st.integers(0, 10_000))
    def test_label_mixes_with_unlabeled_windows(self, labels, seed):
        data = _labeled_mix(labels)
        if not all(_reference_split(list(data), RngStream(seed, (2,)))):
            with pytest.raises(DataError, match="empty"):  # the index version refuses
                split(data.labels, RngStream(seed, (2,)))
            return
        self._check(data, seed)

    def test_default_windows(self):
        self._check(generate(ScenarioConfig(), 3000, RngStream(0, (0,))), seed=1)


class TestSplit:
    def _label_counts(self, labels):
        return np.bincount(labels[labels >= 0], minlength=5)

    def _labels(self, n, seed):
        return generate(ScenarioConfig(), n, RngStream(seed, (0,))).labels

    def test_partition_is_exact(self):
        tr, va, te = split(self._labels(120, 0), RngStream(1, (0,)))
        assert len(tr) + len(va) + len(te) == 120
        assert np.array_equal(np.sort(np.concatenate([tr, va, te])), np.arange(120))

    def test_deterministic(self):
        labels = self._labels(60, 2)
        a = split(labels, RngStream(3, (0,)))
        b = split(labels, RngStream(3, (0,)))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_seed_changes_assignment(self):
        labels = self._labels(60, 2)
        a = split(labels, RngStream(3, (0,)))
        b = split(labels, RngStream(4, (0,)))
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(a, b))

    def test_stratification_within_one_window(self):
        labels = self._labels(400, 5)
        parts = split(labels, RngStream(6, (0,)))
        totals = self._label_counts(labels)
        for part, f in zip(parts, SPLIT_FRACTIONS):
            counts = self._label_counts(labels[part])
            for c in range(5):
                assert abs(counts[c] - f * totals[c]) <= 1.0

    def test_unlabeled_windows_form_their_own_stratum(self):
        labels = np.full(30, UNLABELED)
        tr, va, te = split(labels, RngStream(8, (0,)))
        assert (len(tr), len(va), len(te)) == (21, 5, 4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            split(np.empty(0, dtype=np.int64), RngStream(0))

    def test_empty_part_rejected(self):
        """Two windows of one stratum both go to train, which leaves val empty."""
        with pytest.raises(DataError, match="^2 windows leave the val part"):
            split(np.full(2, UNLABELED), RngStream(0))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(30, 80), st.integers(0, 10_000))
    def test_property_partition_and_stratification(self, n, seed):
        labels = random_dataset(n, 8, 4, seed=seed, num_classes=3).labels
        parts = split(labels, RngStream(seed, (2,)))
        assert sum(len(p) for p in parts) == n
        totals = np.bincount(labels, minlength=3)
        for part, f in zip(parts, SPLIT_FRACTIONS):
            counts = np.bincount(labels[part], minlength=3)
            for c in range(3):
                assert abs(counts[c] - f * totals[c]) <= 1.0


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        data = generate(ScenarioConfig(metric_count=4), 6, RngStream(1, (0,)))
        path = tmp_path / "ds.npy"
        write_dataset(path, data)
        back = read_dataset(path)
        assert len(back) == 6
        for orig, values, label in zip(data, back.values, back.labels, strict=True):
            assert np.array_equal(orig.values, values)
            assert orig.label == label
        assert back.metric_names == data.metric_names
        assert back.source == "synthetic:1"

    def test_unlabeled_round_trip(self, tmp_path):
        path = tmp_path / "u.npy"
        write_dataset(path, random_dataset(3, 8, 4, seed=2, labeled=False))
        assert read_dataset(path).labels.tolist() == [UNLABELED] * 3
        assert json.loads(manifest_path(path).read_text())["labels"] == [None] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 4))
        t = data.draw(st.integers(1, 5))
        d = data.draw(st.integers(1, 4))
        floats = st.floats(allow_nan=False, allow_infinity=False)
        names = tuple(data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=d,
                                         max_size=d, unique=True)))
        cells = data.draw(st.lists(floats, min_size=n * t * d, max_size=n * t * d))
        labels = data.draw(st.lists(st.none() | st.integers(0, len(CLASS_NAMES) - 1),
                                    min_size=n, max_size=n))
        labels = [UNLABELED if label is None else label for label in labels]
        values = np.array(cells).reshape(n, t, d)
        folder = tmp_path_factory.mktemp("prop")
        first, second = folder / "a.npy", folder / "b.npy"
        write_dataset(first, Dataset(values, labels, names, "h"))
        back = read_dataset(first)
        assert back.labels.tolist() == labels
        assert back.metric_names == names
        assert back.values.tobytes() == values.tobytes()  # bit for bit, -0.0 too
        write_dataset(second, back)
        assert second.read_bytes() == first.read_bytes()
        assert manifest_path(second).read_bytes() == manifest_path(first).read_bytes()

    def test_row_is_the_flattened_window(self, tmp_path):
        values = np.array([[[1.0, 2.0], [3.0, 0.1]], [[5.0, 6.0], [7.0, 8.0]]])
        path = tmp_path / "two.npy"
        write_dataset(path, Dataset(values, [4, UNLABELED], ("x", "y")))
        stacked = np.load(path, allow_pickle=False)
        assert stacked.dtype.str == "<f8" and stacked.flags.c_contiguous
        assert stacked.reshape(2, -1).tolist() == [[1.0, 2.0, 3.0, 0.1], [5.0, 6.0, 7.0, 8.0]]
        assert json.loads(manifest_path(path).read_text())["labels"] == [4, None]

    def test_read_of_a_fortran_order_file_is_a_schema_error(self, tmp_path, monkeypatch):
        """Only other writers make one: it is refused beside the dtype and shape checks,
        before any value is read."""
        data = random_dataset(3, 5, 4, seed=6)
        path = tmp_path / "f.npy"
        write_dataset(path, data)
        with path.open("wb") as fh:
            np.save(fh, np.asfortranarray(data.values))
        assert np.lib.format.open_memmap(path, mode="r").flags.f_contiguous
        reads = []
        monkeypatch.setattr(data_module, "_read_into", lambda *args: reads.append(args))
        message = rf"^dataset {re.escape(str(path))} holds a Fortran-order array, not a C-order"
        with pytest.raises(SchemaError, match=message):
            with read_blocks(path):
                pass
        with pytest.raises(SchemaError, match=message):
            read_dataset(path)
        assert reads == []

    def test_read_of_a_file_cut_after_its_header_check_is_a_data_error(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.npy"
        write_dataset(path, random_dataset(2, 8, 3, seed=0))
        open_memmap = np.lib.format.open_memmap

        def then_cut(*args, **kwargs):
            mapped = open_memmap(*args, **kwargs)
            with path.open("r+b") as fh:
                fh.truncate(path.stat().st_size - 8)
            return mapped

        monkeypatch.setattr(np.lib.format, "open_memmap", then_cut)
        message = rf"^dataset {re.escape(str(path))} holds fewer values than its header declares"
        with pytest.raises(DataError, match=message):
            read_dataset(path)

    def test_write_keeps_the_name_it_is_given(self, tmp_path):
        path = tmp_path / "windows.bin"
        write_dataset(path, random_dataset(2, 8, 3, seed=1))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "windows.bin", "windows.manifest.json"
        ]
        assert len(read_dataset(path)) == 2

    def test_write_is_byte_deterministic(self, tmp_path):
        data = generate(ScenarioConfig(metric_count=4), 4, RngStream(3, (0,)))
        p1, p2 = tmp_path / "a.npy", tmp_path / "b.npy"
        write_dataset(p1, data)
        write_dataset(p2, data)
        assert p1.read_bytes() == p2.read_bytes()
        assert manifest_path(p1).read_text() == manifest_path(p2).read_text()

    def test_write_of_either_memory_order_is_one_c_order_file(self, tmp_path):
        data = random_dataset(3, 5, 4, seed=6)
        values = np.asfortranarray(data.values)
        fortran = Dataset(values, data.labels, data.metric_names, data.source)
        assert fortran.values.flags.f_contiguous
        c_path, f_path = tmp_path / "c.npy", tmp_path / "f.npy"
        write_dataset(c_path, data)
        write_dataset(f_path, fortran)
        assert f_path.read_bytes() == c_path.read_bytes()
        assert np.lib.format.open_memmap(f_path, mode="r").flags.c_contiguous

    def test_manifest_contents(self, tmp_path):
        data = generate(ScenarioConfig(metric_count=4, window_len=8), 2, RngStream(4, (0,)))
        path = tmp_path / "m.npy"
        write_dataset(path, data)
        manifest = json.loads(manifest_path(path).read_text())
        assert manifest["format_version"] == 3
        assert manifest["n_windows"] == 2
        assert manifest["window_len"] == 8
        assert manifest["metric_count"] == 4
        assert manifest["metric_names"] == list(data.metric_names)
        assert manifest["class_names"] == list(CLASS_NAMES)
        assert manifest["source"] == "synthetic:4"
        assert manifest["labels"] == data.labels.tolist()

    def test_write_rejects_empty_and_mismatched(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            write_dataset(tmp_path / "e.npy", Dataset(np.empty((0, 8, 4)), np.empty(0), "abcd"))
        assert not list(tmp_path.iterdir())
        # values and metric names that disagree never become a Dataset to write
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 8, 5)), np.zeros(2), "abcd")

    def test_read_missing_files(self, tmp_path):
        with pytest.raises(DataError, match=r"^dataset .*absent\.npy is not found$"):
            read_dataset(tmp_path / "absent.npy")
        orphan = tmp_path / "orphan.npy"
        np.save(orphan, np.zeros((1, 8, 3)))
        with pytest.raises(DataError, match="manifest"):
            read_dataset(orphan)

    def _written(self, tmp_path):
        """Two labeled windows of T=8 x D=3."""
        path = tmp_path / "ds.npy"
        write_dataset(path, random_dataset(2, 8, 3, seed=8))
        return path

    def _set_manifest(self, path, **fields):
        m = json.loads(manifest_path(path).read_text())
        m.update(fields)
        manifest_path(path).write_text(json.dumps(m))

    def test_read_rejects_missing_manifest_key(self, tmp_path):
        path = self._written(tmp_path)
        m = json.loads(manifest_path(path).read_text())
        del m["window_len"]
        manifest_path(path).write_text(json.dumps(m))
        with pytest.raises(SchemaError, match="window_len"):
            read_dataset(path)

    @pytest.mark.parametrize("version", [1, 2, "3", None, 3.0])
    def test_read_rejects_other_format_version(self, tmp_path, version):
        path = self._written(tmp_path)
        self._set_manifest(path, format_version=version)
        with pytest.raises(SchemaError, match=r"format_version .*, not 3; regenerate it with"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"window_len": "8"}, "'window_len' must be a positive integer"),
            ({"n_windows": True}, "'n_windows' must be a positive integer"),
            ({"n_windows": 0}, "'n_windows' must be a positive integer"),
            ({"metric_names": "m0m1m2"}, "'metric_names' must be a list of 3 strings, got 'm0"),
            ({"metric_names": ["m0", "m1", 2]}, "'metric_names' must be a list of 3 strings"),
            ({"metric_count": 4}, "'metric_names' must be a list of 4 strings, got \\['m0"),
            ({"metric_count": 0}, "'metric_count' must be a positive integer"),
            ({"source": ["s"]}, "'source' must be a string"),
            ({"labels": [0]}, "'labels' must be a list of 2 entries"),
            ({"labels": {"0": 0, "1": 1}}, "'labels' must be a list of 2 entries"),
        ],
    )
    def test_read_rejects_mistyped_manifest_field(self, tmp_path, fields, match):
        path = self._written(tmp_path)
        self._set_manifest(path, **fields)
        with pytest.raises(SchemaError, match=match):
            read_dataset(path)

    def _replace_array(self, path, array):
        with path.open("wb") as fh:
            np.save(fh, array)

    def test_read_rejects_wrong_header(self, tmp_path):
        path = self._written(tmp_path)
        values = np.load(path)
        for dtype in ("<f4", ">f8", "<i8", "<c16"):
            self._replace_array(path, values.astype(dtype))
            with pytest.raises(SchemaError, match=rf"^dataset .*ds\.npy holds a \{dtype} array"
                                                  r" of shape \(2, 8, 3\); the manifest needs <f8"):
                read_dataset(path)

    def test_read_rejects_unknown_metric(self, tmp_path):
        path = self._written(tmp_path)
        values = np.load(path)
        self._replace_array(path, np.concatenate([values, values[:, :, :1]], axis=2))
        with pytest.raises(SchemaError, match=r"shape \(2, 8, 4\); .* shape \(2, 8, 3\)"):
            read_dataset(path)

    def test_read_rejects_metric_major_header(self, tmp_path):
        path = self._written(tmp_path)
        self._replace_array(path, np.ascontiguousarray(np.load(path).transpose(0, 2, 1)))
        with pytest.raises(SchemaError, match=r"shape \(2, 3, 8\); .* shape \(2, 8, 3\)"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"n_windows": 10**12}, "'labels' must be a list of 1000000000000"),
            ({"window_len": 10**12}, r"the manifest needs <f8 of shape \(2, 1000000000000, 3\)"),
            ({"n_windows": 10**12, "window_len": 10**12}, "'labels' must be a list"),
        ],
    )
    def test_read_allocates_nothing_from_unconfirmed_manifest_sizes(
        self, tmp_path, fields, match
    ):
        path = self._written(tmp_path)
        self._set_manifest(path, **fields)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=match):
                read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_read_rejects_nonfinite_value(self, tmp_path, value):
        path = self._written(tmp_path)
        values = np.load(path)
        values[1, 7, 2] = value
        self._replace_array(path, values)
        message = rf"^dataset {re.escape(str(path))}: window 1 has a non-finite value"
        with pytest.raises(DataError, match=message):
            read_dataset(path)

    @pytest.mark.parametrize("label", ["x", 1.0, True, [1]])
    def test_read_reports_bad_label_with_window_index(self, tmp_path, label):
        path = self._written(tmp_path)
        self._set_manifest(path, labels=[0, label])
        with pytest.raises(SchemaError, match=r"label .* of window 1 is neither null nor an"):
            read_dataset(path)

    @pytest.mark.parametrize("label", [-1, len(CLASS_NAMES)])
    def test_read_rejects_label_outside_classes(self, tmp_path, label):
        path = self._written(tmp_path)
        self._set_manifest(path, labels=[0, label])
        with pytest.raises(SchemaError, match=rf"label {label} of window 1 .* in \[0, 5\)"):
            read_dataset(path)

    def test_read_rejects_incomplete_window(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match=r"^dataset .*ds\.npy is not a readable \.npy array"):
            read_dataset(path)

    def test_read_rejects_count_mismatch(self, tmp_path):
        path = self._written(tmp_path)
        self._set_manifest(path, n_windows=5, labels=[0] * 5)
        with pytest.raises(SchemaError, match=r"shape \(2, 8, 3\); .* shape \(5, 8, 3\)"):
            read_dataset(path)
        self._set_manifest(path, n_windows=2, labels=[0, 0])
        self._replace_array(path, np.load(path)[:1])
        with pytest.raises(SchemaError, match=r"shape \(1, 8, 3\); .* shape \(2, 8, 3\)"):
            read_dataset(path)

    def test_read_rejects_unreadable_npy(self, tmp_path):
        path = self._written(tmp_path)
        values = np.load(path)
        object_array = np.empty(values.shape, dtype=object)
        object_array[...] = 0.0
        with path.open("wb") as fh:
            np.save(fh, object_array, allow_pickle=True)
        pickled = path.read_bytes()
        with path.open("wb") as fh:
            np.savez(fh, values=values)
        zipped = path.read_bytes()
        with path.open("wb") as fh:  # a size past int64, rejected without a numpy warning
            header = {"descr": "<f8", "fortran_order": False, "shape": (2**40, 2**40)}
            np.lib.format.write_array_header_1_0(fh, header)
        overflowing = path.read_bytes()
        for content in (b"", b"window_id,label\n0,1\n", pickled, zipped, overflowing):
            path.write_bytes(content)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DataError, match=r"^dataset .*ds\.npy is not a readable \.npy"):
                    read_dataset(path)
            assert not caught

    def test_manifest_path_shape(self):
        assert manifest_path("runs/foo.npy").name == "foo.manifest.json"


class TestReadBlocks:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 40), t=st.integers(1, 4), d=st.integers(1, 3),
           block_windows=st.integers(1, 50), chunk=st.integers(1, 7),
           seed=st.integers(0, 10_000))
    def test_blocks_are_the_file_cut_at_multiples_of_the_chunk(
            self, tmp_path_factory, monkeypatch, n, t, d, block_windows, chunk, seed):
        data = random_dataset(n, t, d, seed=seed)
        path = tmp_path_factory.mktemp("blocks") / "dataset.npy"
        write_dataset(path, data)
        monkeypatch.setattr(data_module, "BLOCK_BYTES", block_windows * 8 * t * d)
        monkeypatch.setattr(data_module, "SCORE_CHUNK", chunk)
        step = max(1, block_windows // chunk) * chunk
        with read_blocks(path) as (blocks, window_shape, names, source, labels):
            assert window_shape == (t, d)
            assert (names, source, labels.tolist()) == (
                data.metric_names, data.source, data.labels.tolist())
            lo = 0
            for block in blocks:
                assert len(block) == min(step, n - lo)
                assert block.values.tobytes() == data.values[lo : lo + len(block)].tobytes()
                assert block.labels.tolist() == data.labels[lo : lo + len(block)].tolist()
                assert (block.metric_names, block.source) == (names, source)
                block.values[...] = np.nan  # a block is its holder's to write
                lo += len(block)
        assert lo == n

    def test_blocks_of_a_c_order_file_share_one_buffer(self, tmp_path, monkeypatch):
        path = tmp_path / "dataset.npy"
        write_dataset(path, random_dataset(10, 2, 3, seed=0))
        monkeypatch.setattr(data_module, "BLOCK_BYTES", 4 * 48)
        monkeypatch.setattr(data_module, "SCORE_CHUNK", 2)
        with read_blocks(path) as (blocks, *_):
            blocks = list(blocks)
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert all(np.shares_memory(b.values, blocks[0].values) for b in blocks)

    def test_no_block_from_the_first_non_finite_one_on_is_passed_on(self, tmp_path,
                                                                    monkeypatch):
        data = random_dataset(10, 2, 3, seed=1)
        data.values[5, 1, 2] = np.inf
        path = tmp_path / "dataset.npy"
        write_dataset(path, data)
        monkeypatch.setattr(data_module, "BLOCK_BYTES", 2 * 48)
        monkeypatch.setattr(data_module, "SCORE_CHUNK", 1)
        seen = []
        with pytest.raises(DataError, match="window 5 has a non-finite value"):
            with read_blocks(path) as (blocks, *_):
                for block in blocks:
                    seen.append(len(block))
        assert seen == [2, 2]

    def test_nothing_is_read_before_the_first_block_is_drawn(self, tmp_path):
        data = random_dataset(3, 2, 3, seed=2)
        data.values[0, 0, 0] = np.nan
        path = tmp_path / "dataset.npy"
        write_dataset(path, data)
        with read_blocks(path) as (_, window_shape, *_):
            assert window_shape == (2, 3)  # the header's checks pass; no value is checked


def test_records_that_hold_arrays_compare_and_hash_by_identity(tiny_model_cfg):
    """A generated == would compare arrays and raise; a generated hash would hash them."""
    records = (MetricWindow, Dataset, NormStats, MetricGraph, Prediction, ForwardCache,
               AdamState, EvalMetrics, EpochRecord, ModelParams)
    assert all(cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
               for cls in records)
    data = random_dataset(4, 8, 3, seed=3)
    norm, graph = fit_norm(data), build_graph(pearson_matrix(data))
    params = init_params(tiny_model_cfg, 8, RngStream(0))
    pred, cache = forward(data.values, graph, params)
    metrics = metrics_from_confusion(np.eye(5, dtype=np.int64))
    made = (next(iter(data)), data, norm, graph, pred, cache, AdamState.zeros(3), metrics,
            EpochRecord(0, np.ones(5), np.ones(5), 5.0, metrics), params)
    for record in made:
        twin = copy.copy(record)
        assert record == record and record != twin
        assert hash(record) == hash(record) != hash(twin)
        assert record in {record} and twin not in {record}
    ckpt = Checkpoint(params, graph, norm)
    assert ckpt == Checkpoint(params, graph, norm) != Checkpoint(params, graph, fit_norm(data))
    assert predict(pred.logits) != pred
