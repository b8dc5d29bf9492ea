"""End-to-end metamorphic relations: two changes of a dataset that change no prediction.

The model z-scores each metric with the train part's statistics and builds
its graph from Pearson correlations, so a positive affine change of each
metric, x -> a * x + b with a > 0, leaves the normalized data the same up to
rounding. Its encoder is shared by every metric, its operator is
permutation-equivariant and its readout is a mean, so listing the metrics
in another order gives the same model. Both relations are checked through
the CLI: `gen` one dataset, write a permuted and a rescaled copy of it, and
`graph`, `train` and `predict` on all three. The predicted labels and the
best epoch must be the same, every probability within 1e-9 (the sums over
metrics run in another order, and the rescaled values round differently),
the checkpoint's adjacency the original's, permuted for the permuted copy,
and what `graph` prints of the whole set's graph the same.

An edge may flip if a correlation lies within rounding of the threshold, so
each test first fails, with a message, if one of the train part's or the
whole set's lies within 1e-9 of it; the data is fixed and never drawn again
to avoid that case.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from contention.checkpoint import load_checkpoint
from contention.cli import EXIT_OK, main
from contention.data import Dataset, read_dataset, write_dataset
from contention.graph import CORR_THRESHOLD, pearson_matrix
from contention.pipeline import prepare, split_parts
from contention.rng import RngStream

SEED = 0
CONFIG = {
    "scenario": {"metric_count": 8, "window_len": 8, "separation": 3.0, "noise_std": 0.1,
                 "leak_lag": 2},
    # the acceptance criteria's small model
    "model": {"encoder_hidden": 8, "embed_width": 6, "propagation_width": 6, "head_hidden": 4},
    "train": {"batch_size": 16, "max_epochs": 8, "learning_rate": 0.01, "seed": SEED},
    "n_windows": 120,
}
PERMUTATION = np.array([5, 2, 7, 0, 3, 6, 1, 4])  # metric i of the copy is metric PERMUTATION[i]
SCALE = np.array([0.25, 4.0, 1.5, 0.5, 3.0, 2.0, 0.75, 1.25])  # a > 0 per metric
SHIFT = np.array([-50.0, 10.0, 3.5, 40.0, -7.0, 0.0, 25.0, -1.0])  # b per metric
TOLERANCE = 1e-9


def _run(cfg: Path, data: Path, out: Path) -> dict:
    """Describe data's graph, train on data and predict on it: what `graph` prints, the
    predictions, the checkpoint's adjacency and the best epoch."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["graph", "--data", str(data)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out / "run"),
                 "--seed", str(SEED)]) == EXIT_OK
    ckpt = out / "run" / "checkpoint.json"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(out / "predict")]) == EXIT_OK
    header, *rows = [line.split(",") for line in
                     (out / "predict" / "predictions.csv").read_text().splitlines()]
    p_columns = [i for i, name in enumerate(header) if name.startswith("p_")]
    history = [line.split(",") for line in (out / "run" / "history.csv").read_text().splitlines()]
    val_f1 = [float(row[history[0].index("val_macro_f1")]) for row in history[1:]]
    return {
        "graph": printed.getvalue(),
        "labels": [row[-1] for row in rows],
        "p": np.array([[float(row[i]) for i in p_columns] for row in rows]),
        "adjacency": load_checkpoint(ckpt).graph.adjacency,
        "best_epoch": int(np.argmax(val_f1)),  # train keeps the first epoch of the best F1
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, dict]:
    root = tmp_path_factory.mktemp("metamorphic")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["gen", "--config", str(cfg), "--out", str(root / "original"),
                 "--seed", str(SEED)]) == EXIT_OK
    path = root / "original" / "dataset.npy"

    data = read_dataset(path)
    # the correlations that train (its normalized train part) and graph (the whole set) threshold
    for part, corr in (
        ("train part", pearson_matrix(prepare(*split_parts(path, RngStream(SEED).substream(1)))
                                      .train)),
        ("whole set", pearson_matrix(data)),
    ):
        gap = np.abs(np.abs(corr[~np.eye(len(corr), dtype=bool)]) - CORR_THRESHOLD).min()
        if gap <= TOLERANCE:
            pytest.fail(f"a {part} correlation lies {gap:.1e} from the threshold "
                        f"{CORR_THRESHOLD}, where rounding may flip its edge")
    copies = {
        "permuted": Dataset(data.values[:, :, PERMUTATION], data.labels,
                            tuple(data.metric_names[i] for i in PERMUTATION), data.source),
        "rescaled": Dataset(data.values * SCALE + SHIFT, data.labels, data.metric_names,
                            data.source),
    }
    for name, copy in copies.items():
        (root / name).mkdir()
        write_dataset(root / name / "dataset.npy", copy)
    return {name: _run(cfg, root / name / "dataset.npy", root / name)
            for name in ("original", *copies)}


def _assert_same_predictions(got: dict, want: dict) -> None:
    assert got["graph"] == want["graph"]
    assert got["labels"] == want["labels"]
    assert np.max(np.abs(got["p"] - want["p"])) <= TOLERANCE
    assert got["best_epoch"] == want["best_epoch"]


def test_permuting_the_metrics_changes_no_prediction(runs):
    original, permuted = runs["original"], runs["permuted"]
    _assert_same_predictions(permuted, original)
    assert np.array_equal(permuted["adjacency"],
                          original["adjacency"][np.ix_(PERMUTATION, PERMUTATION)])


def test_rescaling_each_metric_changes_no_prediction(runs):
    original, rescaled = runs["original"], runs["rescaled"]
    _assert_same_predictions(rescaled, original)
    assert np.array_equal(rescaled["adjacency"], original["adjacency"])
