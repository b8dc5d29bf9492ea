"""Command-line surface for the contention pipeline.

Subcommands mirror the pipeline stages one-to-one: gen, ingest, graph,
train, eval, predict, sweep. Every command validates its entire config
before writing anything, prints human-readable tables to stdout, and maps
failures onto documented exit codes: 2 for config/usage problems and
outputs that cannot be written, 3 for data/shape problems, 4 for numeric
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from contention.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from contention.config import RunConfig, config_digest, load_run_config, resolve_out_dir
from contention.data import (
    BLOCK_BYTES,
    CLASS_NAMES,
    NUM_CLASSES,
    SCORE_CHUNK,
    generate,
    manifest_path,
    norm_in_place,
    read_blocks,
    read_dataset,
    write_dataset,
)
from contention.errors import ConfigError, ContentionError, DataError, NumericError, ShapeError
from contention.graph import CORR_THRESHOLD, build_graph, graph_stats, pearson_matrix
from contention.ingest import apply_weak_labels, ingest_csv
from contention.model import Prediction, predict, softmax
from contention.pipeline import prepare, run_prepared, split_parts
from contention.rng import RngStream
from contention.sweeps import DEFAULT_SWEEP_SEEDS, SWEEPS, sweep_csv_names, write_sweep_csv
from contention.train import (
    METRIC_FIELDS,
    EvalMetrics,
    check_labeled,
    confusion_matrix,
    csv_text,
    metrics_from_confusion,
    score,
    write_history_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


DATASET_FILES = ("dataset.npy", manifest_path("dataset.npy").name)  # what write_dataset writes
# BLAS reductions split by thread count, so these set the last bits of a trained model
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_blob_sha1(path: str | Path) -> str:
    """Content hash identical to `git hash-object` on the file, read in blocks."""
    path = Path(path)
    digest = hashlib.sha1(f"blob {path.stat().st_size}\x00".encode("ascii"))
    with path.open("rb") as fh:
        while block := fh.read(BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _numeric_environment() -> dict:
    """The software and thread settings that decide the bits of a trained model."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig, seed,
                    inputs: list[Path], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config_digest": config_digest(cfg),
        "seed": seed,
        "inputs": [
            {"path": str(p), "git_sha1": git_blob_sha1(p)} for p in inputs if p.exists()
        ],
        "outputs": outputs,
        "environment": _numeric_environment(),
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _print_metrics(title: str, metrics: EvalMetrics) -> None:
    print(title)
    width = max(len(m) for m in METRIC_FIELDS)
    for name in METRIC_FIELDS:
        print(f"  {name:<{width}}  {getattr(metrics, name):.4f}")


def _print_confusion(confusion: np.ndarray) -> None:
    cell = max(6, max(len(c) for c in CLASS_NAMES) + 1)
    print("confusion matrix (rows = true, cols = predicted)")
    print(" " * (cell + 5) + "".join(f"{c:>{cell}}" for c in CLASS_NAMES))
    for i, name in enumerate(CLASS_NAMES):
        row = "".join(f"{int(v):>{cell}}" for v in confusion[i])
        print(f"true {name:<{cell}}{row}")


def _print_per_class(metrics: EvalMetrics) -> None:
    cell = max(6, max(len(c) for c in CLASS_NAMES) + 1)
    print("per-class scores")
    print(f"  {'class':<{cell}}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
    for name, p, r, f, n in zip(CLASS_NAMES, metrics.precision, metrics.recall, metrics.f1,
                                metrics.support):
        print(f"  {name:<{cell}}{p:>10.4f}{r:>10.4f}{f:>10.4f}{int(n):>10}")


def _class_histogram(labels: np.ndarray) -> dict[str, int]:
    """Windows per class, then the unlabeled ones when there are any."""
    unlabeled, *per_class = np.bincount(labels + 1, minlength=NUM_CLASSES + 1).tolist()
    counts = dict(zip(CLASS_NAMES, per_class))
    if unlabeled:
        counts["unlabeled"] = unlabeled
    return counts


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    seed = args.seed if args.seed is not None else cfg.train.seed
    n = args.n if args.n is not None else cfg.n_windows
    out_dir = resolve_out_dir(args.out, DATASET_FILES)
    data = generate(cfg.scenario, n, RngStream(seed).substream(0))
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / DATASET_FILES[0]
    write_dataset(dataset_path, data)
    print(f"wrote {len(data)} windows to {dataset_path}")
    for name, count in _class_histogram(data.labels).items():
        print(f"  {name:<10} {count}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    if cfg.schema is None:
        raise ConfigError("ingestion requires a 'schema' section in the config")
    out_dir = resolve_out_dir(args.out, DATASET_FILES)
    result = ingest_csv(args.trace, cfg.schema, cfg.ingest)
    data, dropped = result.windows, 0
    if args.weak_label:
        data, dropped = apply_weak_labels(data, cfg.schema.group_map())
        if not len(data):
            raise DataError("weak labeling left zero labeled windows")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / DATASET_FILES[0]
    write_dataset(dataset_path, data)
    print(
        f"ingested {result.machines} machines -> {len(data)} windows "
        f"({result.skipped_rows} rows skipped, {result.windows_lost} windows lost to gaps, "
        f"{dropped} windows unlabeled/dropped)"
    )
    print(
        f"  of {result.rows_read} rows read: {result.rows_unparseable} unparseable, "
        f"{result.rows_nonfinite} non-finite, {result.rows_no_machine} without machine id"
    )
    print(f"wrote {dataset_path}")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    graph = build_graph(pearson_matrix(read_dataset(args.data)))
    stats = graph_stats(graph)
    print(f"metric graph over {graph.dim} metrics at |corr| >= {CORR_THRESHOLD}")
    print(f"  edges     {stats.edges}")
    print(f"  density   {stats.density:.4f}")
    print(f"  isolated  {stats.isolated}")
    print("  degree histogram (degree: vertices)")
    for degree, count in enumerate(stats.degree_histogram):
        if count:
            print(f"    {degree:>3}: {count}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    seed = args.seed if args.seed is not None else cfg.train.seed
    train_cfg = replace(cfg.train, seed=seed)
    out_dir = resolve_out_dir(args.out, ("checkpoint.json", "history.csv", "run_manifest.json"))
    # read straight into the three parts: the whole set never exists in memory
    prepared = prepare(*split_parts(args.data, RngStream(seed).substream(1)))
    result = run_prepared(prepared, cfg.model, train_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = Checkpoint(
        params=result.params,
        graph=prepared.graph,
        norm=prepared.norm,
        metric_names=prepared.train.metric_names,
        train_seed=seed,
        config_digest=config_digest(cfg),
    )
    ckpt_path = out_dir / "checkpoint.json"
    history_path = out_dir / "history.csv"
    save_checkpoint(ckpt, ckpt_path)
    write_history_csv(result.history, history_path)
    _write_manifest(
        out_dir, "train", cfg, seed,
        inputs=[Path(args.data), manifest_path(args.data)],
        outputs=[ckpt_path.name, history_path.name],
    )
    best = result.history.best_epoch
    print(f"trained {len(result.history.records)} epochs; best epoch {best}")
    _print_metrics("validation metrics (best epoch)", result.val_metrics)
    _print_metrics("test metrics (held-out split)", result.test_metrics)
    print(f"wrote {ckpt_path} and {history_path}")
    return EXIT_OK


def _score_file(args: argparse.Namespace, labeled: bool) -> tuple[Prediction, np.ndarray]:
    """The prediction for every window of the dataset file, and its labels. The
    checks against the checkpoint, then with `labeled` that every window has a
    label, run before any value is read; then each block is normalized in its
    buffer and scored, one block of values in memory."""
    ckpt = load_checkpoint(args.checkpoint)
    with read_blocks(args.data) as (blocks, (window_len, metric_count), names, _, labels):
        if window_len != ckpt.params.window_len:
            raise ShapeError(f"dataset windows have {window_len} timesteps, "
                             f"checkpoint expects {ckpt.params.window_len}")
        # normalization and graph come from the training split only, never from scored data
        if metric_count != ckpt.graph.dim:
            raise ShapeError(f"dataset windows have {metric_count} metrics, "
                             f"checkpoint graph covers {ckpt.graph.dim}")
        if labeled:
            check_labeled(labels, "evaluation")
        if ckpt.metric_names and ckpt.metric_names != names:
            print("warning: dataset metric names differ from the ones the checkpoint was "
                  "trained on", file=sys.stderr)
        logits = [score(ckpt.params, ckpt.graph, norm_in_place(block, ckpt.norm)).logits
                  for block in blocks]
    return predict(np.concatenate(logits)), labels


def cmd_eval(args: argparse.Namespace) -> int:
    out_dir = resolve_out_dir(args.out, ("metrics.csv", "confusion.csv", "per_class.csv"))
    pred, labels = _score_file(args, labeled=True)
    metrics = metrics_from_confusion(confusion_matrix(labels, pred.label, NUM_CLASSES))
    _print_metrics(f"evaluation over {len(labels)} windows", metrics)
    _print_per_class(metrics)
    _print_confusion(metrics.confusion)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        scores = zip(metrics.precision.tolist(), metrics.recall.tolist(), metrics.f1.tolist())
        files = {
            "metrics.csv": [METRIC_FIELDS, [repr(getattr(metrics, m)) for m in METRIC_FIELDS]],
            "confusion.csv": [("true_class", *CLASS_NAMES)] + [
                [name, *map(str, row)]
                for name, row in zip(CLASS_NAMES, metrics.confusion.tolist())],
            "per_class.csv": [("class", "precision", "recall", "f1", "support")] + [
                [name, *map(repr, prf), str(n)]
                for name, prf, n in zip(CLASS_NAMES, scores, metrics.support.tolist())],
        }
        for name, rows in files.items():
            (out_dir / name).write_text(csv_text(rows))
        print(f"wrote {out_dir / 'metrics.csv'}, {out_dir / 'confusion.csv'} and "
              f"{out_dir / 'per_class.csv'}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    out_dir = resolve_out_dir(args.out, ("predictions.csv",))
    pred, _ = _score_file(args, labeled=False)
    header = ["window_id", *(f"logit_{c}" for c in CLASS_NAMES), *(f"p_{c}" for c in CLASS_NAMES),
              "predicted_class"]
    cells = np.concatenate([pred.logits, softmax(pred.logits)], axis=1)

    def write(fh) -> None:  # SCORE_CHUNK rows at a time, never the whole text
        fh.write(csv_text([header]))
        for lo in range(0, len(cells), SCORE_CHUNK):
            rows = zip(cells[lo : lo + SCORE_CHUNK].tolist(),
                       pred.label[lo : lo + SCORE_CHUNK].tolist())
            fh.write(csv_text([str(wid), *map(repr, row), CLASS_NAMES[label]]
                              for wid, (row, label) in enumerate(rows, lo)))

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "predictions.csv").open("w") as fh:
            write(fh)
        print(f"wrote {len(cells)} predictions to {out_dir / 'predictions.csv'}")
    else:
        write(sys.stdout)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"--seeds must be comma-separated integers: {exc}") from exc
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    if repeated := [s for i, s in enumerate(seeds) if s in seeds[:i]]:
        raise ConfigError(f"--seeds names seed {repeated[0]} more than once")
    outputs = list(sweep_csv_names(args.kind))
    out_dir = resolve_out_dir(args.out, (*outputs, "run_manifest.json"))
    table = SWEEPS[args.kind](cfg, seeds=seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = write_sweep_csv(table, out_dir)
    _write_manifest(out_dir, f"sweep:{args.kind}", cfg, list(seeds), inputs=[], outputs=outputs)
    print(f"{table.setting_name} sweep over seeds {list(table.seeds)}")
    for row in table.rows:
        cells = "  ".join(f"{m}={row.mean(m):.4f}+/-{row.std(m):.4f}" for m in METRIC_FIELDS)
        print(f"  {table.setting_name}={row.label}: {cells}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contention",
        description="Graph-structured multi-task contention classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False, config=True, out=True):
        if config:
            p.add_argument("--config", default=None, help="JSON run config path")
        if data:
            p.add_argument("--data", required=True,
                           help="dataset .npy path, with its .manifest.json beside it")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
        if out:  # eval and predict, which take no config, write files only with --out
            p.add_argument("--out", default="runs" if config else None, help="output directory")

    p = sub.add_parser("gen", help="generate a labeled synthetic dataset")
    common(p)
    p.add_argument("--n", type=int, default=None, help="window count")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="cut windows from a raw trace CSV")
    common(p)
    p.add_argument("--trace", required=True, help="raw trace CSV path")
    p.add_argument("--weak-label", action=argparse.BooleanOptionalAction, default=True,
                   help="assign heuristic labels and drop unlabeled windows")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("graph", help="build and describe the metric graph")
    common(p, data=True, config=False, out=False)  # it reads no config and only prints
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", help="train a model on a labeled dataset")
    common(p, data=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled dataset")
    common(p, data=True, checkpoint=True, config=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="emit logits and probabilities per window")
    common(p, data=True, checkpoint=True, config=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="run a sensitivity sweep or the ablation arms")
    common(p)
    p.add_argument("--kind", required=True, choices=tuple(SWEEPS))
    p.add_argument("--seeds", default=",".join(map(str, DEFAULT_SWEEP_SEEDS)),
                   help="comma-separated seed list")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContentionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_DATA
    except OSError as exc:  # an output that cannot be written; every reader raises ContentionError
        print(f"error: output cannot be written: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
