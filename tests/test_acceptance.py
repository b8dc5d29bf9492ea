"""Acceptance suite: ten numbered end-to-end correctness criteria.

Each test prints exactly one verdict line (run with ``pytest -s`` to see
them all) and then asserts, so a plain ``pytest`` run enforces the same
gates. Tolerances are pinned in the assertions, not derived at runtime.

The heavyweight criteria (synthetic recovery, ablation, sweeps) train real
models and take a couple of minutes combined; everything else is fast.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dataset, random_graph
from contention.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from contention.cli import main as cli_main
from contention.data import Dataset, ScenarioConfig, baseline_accuracy, generate
from contention.graph import build_graph, normalize_adjacency, pearson_matrix
from contention.ingest import IngestConfig, TraceSchema, ingest_csv
from contention.linalg import finite_diff_check, softmax
from contention.losses import (
    TaskWeightState,
    combine,
    combine_grads,
    task_losses,
    update_weights,
)
from contention.model import (
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
)
from contention.pipeline import prepare_parts, run_prepared, run_synthetic
from contention.rng import RngStream
from contention.sweeps import SweepSpec, sweep_batch, sweep_datasize, sweep_dim
from contention.train import TrainConfig, confusion_matrix, metrics_from_confusion


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


TINY_MODEL = ModelConfig(
    window_len=8,
    num_classes=5,
    encoder_hidden=8,
    embed_width=6,
    propagation_width=6,
    head_hidden=4,
)

TINY_SCENARIO = ScenarioConfig(
    metric_count=4, window_len=8, separation=3.0, noise_std=0.1, leak_lag=2
)


# --------------------------------------------------------------------------
# 1. Gradient correctness of the weighted multi-task objective.


def test_criterion_01_multitask_gradient_check():
    start = time.perf_counter()
    model_cfg = ModelConfig(
        window_len=8,
        num_classes=3,
        encoder_hidden=6,
        embed_width=5,
        propagation_width=5,
        head_hidden=4,
    )
    graph = random_graph(4, seed=0)
    params = init_params(model_cfg, RngStream(0))
    gen = RngStream(0, (5,)).generator()
    xs = np.stack([gen.normal(size=(8, 4)) for _ in range(6)])
    labels = np.array([0, 1, 2, 0, 1, 2])
    state = TaskWeightState(
        weights=np.array([1.25, 0.8, 0.95]), history=(), temperature=2.0
    )

    def loss_fn(theta: np.ndarray) -> float:
        logits = forward(xs, graph, ModelParams(model_cfg, theta))[0].logits
        return combine(task_losses(logits, labels)[0], state)

    pred, cache = forward(xs, graph, params)
    dz = combine_grads(task_losses(pred.logits, labels)[1], state)
    grad = backward(cache, dz, ModelParams.zeros(model_cfg))

    err = finite_diff_check(loss_fn, params.flat, grad.flat, h=1e-5)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-4 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"finite-difference check of the weighted objective: max rel err "
        f"{err:.3e} (tol 1e-4) in {elapsed:.2f}s (budget 10s)",
    )


# --------------------------------------------------------------------------
# 2. Softmax inference invariants.


def test_criterion_02_softmax_invariants():
    gen = RngStream(42).generator()
    z = gen.normal(scale=3.0, size=(1000, 5))
    z[::7, 0] += 500.0  # saturate some rows
    z[::11] += 500.0  # whole-row offsets
    worst_sum = 0.0
    worst_shift = 0.0
    argmax_ok = True
    for row in z:
        p = softmax(row)
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        argmax_ok = argmax_ok and int(np.argmax(p)) == int(np.argmax(row))
        c = float(gen.normal(scale=50.0))
        worst_shift = max(worst_shift, float(np.max(np.abs(softmax(row + c) - p))))
    ok = worst_sum <= 1e-12 and worst_shift <= 1e-12 and argmax_ok
    _verdict(
        2,
        ok,
        f"1000 random logit vectors: |sum(p)-1| <= {worst_sum:.2e} (tol 1e-12), "
        f"shift drift <= {worst_shift:.2e} (tol 1e-12), argmax always agrees: "
        f"{argmax_ok}",
    )


# --------------------------------------------------------------------------
# 3. Adaptive task-weight invariants over a full 50-epoch run.


def test_criterion_03_task_weight_invariants():
    train_cfg = TrainConfig(
        batch_size=32, max_epochs=50, patience=50, learning_rate=0.01, seed=0
    )
    result = run_synthetic(TINY_SCENARIO, 240, TINY_MODEL, train_cfg, data_seed=3)
    records = result.history.records
    ran_full = len(records) == 50
    cold_start = all(
        float(w) == 1.0 for rec in records[:2] for w in np.asarray(rec.weights)
    )

    k = TINY_MODEL.num_classes
    state = TaskWeightState.initial(k, temperature=train_cfg.dwa_temperature)
    sums_ok = True
    positive_ok = True
    aligned_ok = True
    for i, rec in enumerate(records):
        state = update_weights(state, np.asarray(rec.task_losses))
        sums_ok = sums_ok and abs(float(state.weights.sum()) - k) <= 1e-9
        positive_ok = positive_ok and bool((state.weights > 0).all())
        if i + 1 < len(records):
            aligned_ok = aligned_ok and np.array_equal(
                state.weights, np.asarray(records[i + 1].weights)
            )

    flat = TaskWeightState.initial(k)
    for _ in range(3):
        flat = update_weights(flat, np.full(k, 0.37))
    equal_history_exact = bool((flat.weights == 1.0).all())

    ok = ran_full and cold_start and sums_ok and positive_ok and aligned_ok and equal_history_exact
    _verdict(
        3,
        ok,
        f"50-epoch run: every weight update sums to K within 1e-9 ({sums_ok}), "
        f"all positive ({positive_ok}), recorded schedule matches replay "
        f"({aligned_ok}), first two epochs and equal-loss histories give exact "
        f"ones ({cold_start and equal_history_exact})",
    )


# --------------------------------------------------------------------------
# 4. Synthetic recovery at the default operating point.


def test_criterion_04_synthetic_recovery():
    start = time.perf_counter()
    scenario = ScenarioConfig()
    rng = RngStream(7)
    train_d, val_d, test_d = (
        generate(scenario, n, rng.substream(k)) for k, n in enumerate((2000, 500, 500))
    )

    gate = baseline_accuracy(test_d, scenario)
    parts = (np.arange(2000), np.arange(2000, 2500), np.arange(2500, 3000))
    whole = Dataset(
        np.concatenate([train_d.values, val_d.values, test_d.values]),
        np.concatenate([train_d.labels, val_d.labels, test_d.labels]),
        scenario.metric_names(),
    )
    prepared = prepare_parts(whole, parts, corr_threshold=0.3)
    result = run_prepared(prepared, ModelConfig(), TrainConfig())
    m = result.test_metrics
    elapsed = time.perf_counter() - start
    ok = gate >= 0.95 and m.macro_f1 >= 0.90 and m.accuracy >= 0.90 and elapsed <= 300
    _verdict(
        4,
        ok,
        f"threshold oracle {gate:.3f} (gate 0.95); trained test macro-F1 "
        f"{m.macro_f1:.4f} and accuracy {m.accuracy:.4f} (floors 0.90) on "
        f"2000/500/500 in {elapsed:.0f}s (budget 300s)",
    )


# --------------------------------------------------------------------------
# 5. Graph propagation beats the identity operator on the hard setting.


def test_criterion_05_propagation_ablation():
    start = time.perf_counter()
    scenario = ScenarioConfig(separation=0.5, leakage=0.5)
    gaps = []
    per_seed = []
    for seed in range(5):
        scores = {}
        for flag in (True, False):
            cfg = TrainConfig(max_epochs=30, seed=seed, graph_propagation=flag)
            result = run_synthetic(scenario, 1500, ModelConfig(), cfg, data_seed=seed)
            scores[flag] = result.test_metrics.macro_f1
        gaps.append(scores[True] - scores[False])
        per_seed.append(f"{scores[True]:.3f}/{scores[False]:.3f}")
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - start
    ok = mean_gap >= 0.02
    _verdict(
        5,
        ok,
        f"macro-F1 with/without propagation per seed: {', '.join(per_seed)}; "
        f"mean gap {mean_gap:.4f} (floor 0.02) in {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 6. Graph construction matches brute-force oracles.


def test_criterion_06_graph_oracles():
    data = random_dataset(4, t=30, d=5, seed=6)
    series = np.vstack([w.values for w in data])
    n, d = series.shape
    means = series.sum(axis=0) / n
    sds = np.sqrt(((series - means) ** 2).sum(axis=0) / n)
    expected = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                expected[i, j] = 1.0
                continue
            cov = float(((series[:, i] - means[i]) * (series[:, j] - means[j])).mean())
            expected[i, j] = cov / (sds[i] * sds[j])
    pearson_err = float(np.max(np.abs(pearson_matrix(data).values - expected)))

    gen = RngStream(64).generator()
    norm_err = 0.0
    for _ in range(100):
        dim = int(gen.integers(2, 17))
        upper = gen.random((dim, dim)) < 0.4
        adjacency = np.triu(upper, k=1)
        adjacency = (adjacency | adjacency.T).astype(float)
        got = normalize_adjacency(adjacency)
        degrees = 1.0 + adjacency.sum(axis=1)
        want = np.zeros_like(adjacency)
        for i in range(dim):
            for j in range(dim):
                a = adjacency[i, j] + (1.0 if i == j else 0.0)
                want[i, j] = a / np.sqrt(degrees[i] * degrees[j])
        norm_err = max(norm_err, float(np.max(np.abs(got - want))))

    corr = pearson_matrix(random_dataset(6, t=40, d=8, seed=9))
    previous = None
    nested = True
    for tau in np.linspace(0.0, 0.9, 10):
        g = build_graph(corr, float(tau))
        edges = {
            (i, j)
            for i in range(g.dim)
            for j in range(i + 1, g.dim)
            if g.adjacency[i, j]
        }
        if previous is not None:
            nested = nested and edges <= previous
        previous = edges

    ok = pearson_err <= 1e-10 and norm_err <= 1e-12 and nested
    _verdict(
        6,
        ok,
        f"pearson vs two-pass oracle {pearson_err:.2e} (tol 1e-10); normalized "
        f"operator vs elementwise formula {norm_err:.2e} over 100 graphs "
        f"(tol 1e-12); edge sets nested over 10 thresholds: {nested}",
    )


# --------------------------------------------------------------------------
# 7. Evaluation metrics reproduce a hand-counted fixture exactly.


def test_criterion_07_evaluation_oracle():
    labels = np.array([0, 1, 2, 2])
    predictions = np.array([0, 1, 1, 2])
    confusion = confusion_matrix(labels, predictions, num_classes=3)
    m = metrics_from_confusion(confusion)
    confusion_ok = np.array_equal(
        confusion, np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    )
    accuracy_exact = m.accuracy == 0.75
    f1_err = abs(m.macro_f1 - 7.0 / 9.0)
    precision_err = abs(m.macro_precision - (1.0 + 0.5 + 1.0) / 3.0)
    recall_err = abs(m.macro_recall - (1.0 + 1.0 + 0.5) / 3.0)
    micro_ok = m.accuracy == float(np.trace(confusion)) / 4.0
    ok = (
        confusion_ok
        and accuracy_exact
        and micro_ok
        and f1_err <= 1e-15
        and precision_err <= 1e-15
        and recall_err <= 1e-15
    )
    _verdict(
        7,
        ok,
        f"hand-counted fixture: accuracy == 0.75 exactly ({accuracy_exact}), "
        f"|macro-F1 - 7/9| = {f1_err:.1e} (tol 1e-15), confusion matches "
        f"({confusion_ok})",
    )


# --------------------------------------------------------------------------
# 8. Bitwise determinism of training outputs and checkpoints.


def test_criterion_08_determinism(tmp_path):
    run_config = {
        "scenario": {
            "metric_count": 4,
            "window_len": 8,
            "separation": 3.0,
            "noise_std": 0.1,
            "leak_lag": 2,
        },
        "model": {
            "window_len": 8,
            "num_classes": 5,
            "encoder_hidden": 8,
            "embed_width": 6,
            "propagation_width": 6,
            "head_hidden": 4,
        },
        "train": {"batch_size": 16, "max_epochs": 4, "learning_rate": 0.01, "seed": 0},
        "n_windows": 80,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(run_config))
    data_dir = tmp_path / "data"
    assert (
        cli_main(
            ["gen", "--config", str(cfg_path), "--out", str(data_dir),
             "--n", "80", "--seed", "1"]
        )
        == 0
    )
    histories = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert (
            cli_main(
                ["train", "--config", str(cfg_path),
                 "--data", str(data_dir / "dataset.npy"),
                 "--out", str(out), "--seed", "0"]
            )
            == 0
        )
        histories.append((out / "history.csv").read_bytes())
    history_identical = histories[0] == histories[1]

    result = run_synthetic(
        TINY_SCENARIO,
        120,
        TINY_MODEL,
        TrainConfig(batch_size=16, max_epochs=2, seed=0),
        data_seed=5,
    )
    ckpt_path = tmp_path / "roundtrip.json"
    save_checkpoint(
        Checkpoint(
            params=result.params,
            graph=result.graph_used,
            norm=result.prepared.norm,
        ),
        ckpt_path,
    )
    loaded = load_checkpoint(ckpt_path)
    test_windows = result.prepared.test.values
    before = np.stack(
        [forward(x, result.graph_used, result.params)[0].logits for x in test_windows]
    )
    after = np.stack([forward(x, loaded.graph, loaded.params)[0].logits for x in test_windows])
    logits_bitwise = np.array_equal(before, after)
    ok = history_identical and logits_bitwise
    _verdict(
        8,
        ok,
        f"two identical training runs produce byte-identical history CSVs "
        f"({history_identical}); checkpoint round trip reproduces logits "
        f"bitwise on {len(test_windows)} windows ({logits_bitwise})",
    )


# --------------------------------------------------------------------------
# 9. Sensitivity sweeps execute end to end with well-formed tables.


def test_criterion_09_sensitivity_harnesses():
    start = time.perf_counter()
    spec = SweepSpec(n_windows=600, train_cfg=TrainConfig(max_epochs=12))
    seeds = (0, 1, 2)
    tables = {
        "batch_size": sweep_batch(spec, seeds=seeds),
        "train_fraction": sweep_datasize(spec, seeds=seeds),
        "metric_count": sweep_dim(spec, seeds=seeds),
    }
    elapsed = time.perf_counter() - start

    expected_settings = {
        "batch_size": (16, 32, 64, 128),
        "train_fraction": (0.25, 0.5, 0.75, 1.0),
        "metric_count": (8, 12, 16, 24),
    }
    well_formed = True
    shapes = []
    for name, table in tables.items():
        settings = tuple(row.setting for row in table.rows)
        well_formed = well_formed and settings == expected_settings[name]
        well_formed = well_formed and table.seeds == seeds
        for row in table.rows:
            well_formed = well_formed and len(row.per_seed) == len(seeds)
            for metric in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
                mean = row.mean(metric)
                std = row.std(metric)
                well_formed = well_formed and 0.0 <= mean <= 1.0
                well_formed = well_formed and 0.0 <= std <= 0.5
        f1s = "/".join(f"{row.mean('macro_f1'):.3f}" for row in table.rows)
        shapes.append(f"{name} macro-F1 {f1s}")
    ok = well_formed and elapsed <= 1800
    _verdict(
        9,
        ok,
        f"three sweeps over seeds {seeds} in {elapsed:.0f}s (budget 1800s); "
        f"tables well-formed ({well_formed}); " + "; ".join(shapes),
    )


# --------------------------------------------------------------------------
# 10. Ingestion reproduces a hand-computed two-machine fixture.


def _write_fixture_trace(path: Path) -> None:
    rows = ["machine,ts,cpu_util,mem_util"]
    alpha = [
        (0, 0.0), (60, 0.25), (120, 0.25), (130, 0.75), (180, 0.75),
        (240, 1.0), (300, 1.25), (360, 1.5), (420, 1.75), (480, 2.0),
    ]
    beta = [
        (0, 5.0), (60, 5.25), (360, 6.0), (420, 6.25), (480, 6.5),
        (600, 7.0), (660, 7.25),
    ]
    for machine, samples in (("alpha", alpha), ("beta", beta)):
        for ts, v in samples:
            rows.append(f"{machine},{ts},{v},{v + 10.0}")
    path.write_text("\n".join(rows) + "\n")


def test_criterion_10_ingestion_oracle(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_fixture_trace(trace)
    schema = TraceSchema(
        machine_column="machine",
        timestamp_column="ts",
        metric_columns=(("cpu_util", "cpu"), ("mem_util", "mem")),
    )
    cfg = IngestConfig(window_len=4, resample_step=60, max_fill=3)
    result = ingest_csv(trace, schema, cfg)

    def expect(col0: list[float]) -> np.ndarray:
        col = np.array(col0)
        return np.column_stack([col, col + 10.0])

    wanted = {
        # alpha is gap-free; bucket 2 is the mean of two raw samples
        "alpha@0": expect([0.0, 0.25, 0.5, 0.75]),
        "alpha@240": expect([1.0, 1.25, 1.5, 1.75]),
        # beta has a 4-step gap (dropped) and a 1-step gap (forward-filled)
        "beta@480": expect([6.5, 6.5, 7.0, 7.25]),
    }
    count_ok = len(result.windows) == 3 and result.machines == 2
    sources_ok = list(result.sources) == list(wanted)
    values_ok = all(
        np.array_equal(values, wanted[source])
        for values, source in zip(result.windows.values, result.sources, strict=True)
    )

    # raising max_fill to the gap length bridges it, recovering beta's windows
    bridged = ingest_csv(trace, schema, IngestConfig(window_len=4, max_fill=4))
    gap_rule_ok = (
        len(bridged.windows) == 5
        and bridged.sources == ("alpha@0", "alpha@240", "beta@0", "beta@240", "beta@480")
        and np.array_equal(
            bridged.windows.values[bridged.sources.index("beta@240")],
            expect([5.25, 5.25, 6.0, 6.25]),
        )
    )
    ok = count_ok and sources_ok and values_ok and gap_rule_ok
    _verdict(
        10,
        ok,
        f"two-machine fixture: {len(result.windows)} windows with exact "
        f"hand-computed values ({values_ok}); 4-step gap dropped at "
        f"max_fill=3 and bridged at max_fill=4 ({gap_rule_ok})",
    )
