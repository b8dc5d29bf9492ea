"""Benchmark of the contention CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-default --seed 0 --seconds 4 --trace 0

The program is imported from `src/` of the checkout and driven only from
outside, through `contention.cli.main` and the names `contention` exports.
One process, one client, a closed loop: each call starts after the
previous one returned. BLAS runs on one thread.

Every workload runs every stage, so that every end-to-end metric is
measured on every workload; the workload decides the sizes (see
WORKLOADS and perfbench/README.md). Stage and set-up times and the median
scoring latency are scaled to a nominal machine speed (see "Machine speed").
With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass, and the tracing overhead against untraced passes of the
same work.

Exit codes: 0 when every correctness check passed, 1 when one failed (the
result is still printed), 2 when the benchmark could not run (no result).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, so BLAS starts one thread
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workload_inputs import heldout_windows, write_run_config, write_trace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    why: str
    windows: int  # synthetic windows through gen, train, eval and predict
    epochs: int  # fixed training budget; patience equals it
    learning_rate: float
    batch_size: int
    f1_floor: float | None  # acceptance floor on eval macro-F1, where it applies
    score_seconds: float | None  # online scoring per run; None: --seconds
    machines: int  # raw trace for ingest
    buckets: int  # samples per machine
    rounds: int  # CLI sessions per run; each stage time is the median over them


# Small parts: a pipeline of 450 windows that trains to macro-F1 ~0.99 in
# about a second (higher learning rate, smaller batches), a 20k-row trace,
# and 1.5 s of scoring. They run in more rounds than the full-size stages:
# short stages catch more of the machine's speed drift.
SMALL_PIPELINE = dict(windows=450, epochs=8, learning_rate=0.005, batch_size=16, f1_floor=None,
                      rounds=5)
SMALL_TRACE = dict(machines=2, buckets=10000)

WORKLOADS = {
    "pipeline-default": Workload(
        why="the README path gen, train, eval, predict at 3000 windows, D=12, T=32, "
            "batch 64, then batch-1 online scoring",
        windows=3000, epochs=6, learning_rate=0.001, batch_size=64, f1_floor=0.90,
        score_seconds=None, rounds=2, **SMALL_TRACE,
    ),
    "ingest-trace": Workload(
        why="weak-labelled ingest of a 100k-row, 8-machine trace with gaps and bad rows",
        score_seconds=1.5, machines=8, buckets=12500, **SMALL_PIPELINE,
    ),
}

SETUP_ROUNDS = 3  # fresh imports before the first stage; more follow between stages
SCORE_CHUNK = 2000  # windows per chunk of scoring latencies; p99 has 20 beyond it
SCORE_WARMUP_S = 0.1  # untimed scoring before each burst
HELDOUT = 512  # held-out windows, cycled through by the scoring loop
TRACE_SCORE_WINDOWS = 5000  # scoring work in each pass of a traced run
PROBE_WINDOWS = 2000  # windows per stage in the B=1 encode/propagate/heads probe

END_TO_END_UNITS = {
    "setup_s": "s", "gen_s": "s", "train_s": "s", "eval_s": "s", "predict_s": "s",
    "eval_macro_f1": "ratio", "score_windows_per_s": "1/s", "score_p50_us": "us",
    "score_p99_us": "us", "ingest_s": "s", "peak_rss_mb": "MB",
}
STAGES = ("gen", "train", "eval", "predict", "ingest")
SCORED_AFTER = STAGES[1:]  # a scoring burst follows each stage once a checkpoint exists


def _arg_len(i):
    return lambda args: len(args[i]) if len(args) > i else 0


def _file_size(args):
    return Path(args[0]).stat().st_size if args else 0


# (module, attribute, label, windows per call, bytes moved, name of the time metric)
LAYERS = (
    ("contention.model", "forward", "model.forward", None, None, "self_s"),
    ("contention.model", "backward", "model.backward", None, None, "self_s"),
    ("contention.model", "predict", "model.predict", None, None, "self_s"),
    ("contention.losses", "task_losses", "losses.task_losses", None, None, "self_s"),
    ("contention.losses", "task_logit_grads", "losses.task_logit_grads", None, None, "self_s"),
    ("contention.losses", "combine_grads", "losses.combine_grads", None, None, "self_s"),
    ("contention.losses", "update_weights", "losses.update_weights", None, None, "self_s"),
    ("contention.train", "adam_step", "train.adam_step", None, None, "self_s"),
    ("contention.train", "train", "train.train", _arg_len(0), None, "self_s"),
    ("contention.train", "evaluate", "train.evaluate", _arg_len(2), None, "self_s"),
    ("contention.data", "read_dataset", "data.read_dataset", None, _file_size, "s"),
    ("contention.data", "write_dataset", "data.write_dataset", _arg_len(1), _file_size, "s"),
    ("contention.data", "generate", "data.generate", None, None, "self_s"),
    ("contention.data", "fit_norm", "data.fit_norm", None, None, "self_s"),
    ("contention.data", "apply_norm", "data.apply_norm", None, None, "self_s"),
    ("contention.data", "split", "data.split", None, None, "self_s"),
    ("contention.graph", "pearson_matrix", "graph.pearson_matrix", None, None, "self_s"),
    ("contention.graph", "build_graph", "graph.build_graph", None, None, "self_s"),
    ("contention.pipeline", "prepare", "pipeline.prepare", None, None, "self_s"),
    ("contention.checkpoint", "save_checkpoint", "checkpoint.save", None, lambda a: _file_size(a[1:]), "s"),
    ("contention.checkpoint", "load_checkpoint", "checkpoint.load", None, _file_size, "s"),
    ("contention.ingest", "ingest_csv", "ingest.ingest_csv", None, None, "s"),
    ("contention.ingest", "apply_weak_labels", "ingest.apply_weak_labels", None, None, "s"),
)
# Per-batch parameter packing: counted only, so its time stays in train.train.self_s.
PACKING = ("ModelParams.to_vector", "ModelParams.from_vector", "ModelParams.accumulate")
PER_WINDOW = ("model.forward", "model.backward", "train.evaluate")
PER_CALL = ("train.adam_step",)
PROBE_STAGES = ("encode", "propagate", "heads")
INGEST_COUNTS = ("rows_skipped", "windows_kept", "window_yield", "labeled_ratio")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for _, _, label, _, nbytes, time_key in LAYERS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.{time_key}"] = "s"
        if nbytes is not None:
            units[f"{label}.bytes"] = "B"
        if label in PER_WINDOW:
            units[f"{label}.us_per_window"] = "us"
        if label in PER_CALL:
            units[f"{label}.us_per_call"] = "us"
    units["model.params_pack.calls"] = "count"
    for stage in PROBE_STAGES:
        units[f"model.{stage}.us_per_window"] = "us"
    units["train.epochs_run"] = "count"
    for name in INGEST_COUNTS:
        units[f"ingest.{name}"] = "ratio" if name in ("window_yield", "labeled_ratio") else "count"
    for stage in STAGES:
        units[f"cli.{stage}.self_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class BenchError(Exception):
    """The benchmark cannot run: no program to import, or a stage exited non-zero."""


# ---------------------------------------------------------------------------
# Program set-up


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "contention" or n.startswith("contention.")]:
        del sys.modules[name]


def set_up(config: Path) -> tuple[float, object, object]:
    """Fresh import of the program plus its config parse; returns (seconds, package, cli)."""
    _purge_program()
    start = perf_counter()
    program = importlib.import_module("contention")
    cli = importlib.import_module("contention.cli")
    cli.load_run_config(config)
    elapsed = perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(program.__file__).resolve().parents:
        raise BenchError(f"imported contention from {program.__file__}, not from {src}")
    return elapsed, program, cli


# ---------------------------------------------------------------------------
# One pass over every stage


@dataclass
class Pass:
    times: dict[str, list[float]] = field(default_factory=dict)
    latency_chunks: list = field(default_factory=list)  # ns, SCORE_CHUNK windows each
    speed: list[float] = field(default_factory=list)  # speed-kernel seconds
    setup: list[tuple[float, float]] = field(default_factory=list)  # (set-up s, kernel s before)
    scored: int = 0
    cli_calls: int = 0
    macro_f1: float = float("nan")
    epochs_run: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    ingest_counts: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def merge(self, other: "Pass") -> None:
        """Fold in the checks and operation counts of another pass over the same work."""
        self.checks += other.checks
        self.cli_calls += other.cli_calls
        self.scored += other.scored


def _only_file(directory: Path, what: str) -> Path:
    """The file a stage wrote to its fresh output directory, whatever its suffix.

    Side files (JSON manifests and sidecars) are not the artefact itself.
    """
    found = [p for p in sorted(directory.iterdir()) if p.suffix != ".json"]
    if len(found) != 1:
        raise BenchError(f"expected one {what} in {directory}, found {[p.name for p in found]}")
    return found[0]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs the stages of one workload against the imported program."""

    def __init__(self, program, cli, work: Path, workload: Workload, seed: int):
        self.program, self.cli, self.tracer = program, cli, Tracer(timing=False)
        self.work, self.wl, self.seed = work, workload, seed
        self.config = work / "run.json"
        self.trace = work / "trace.csv"
        self.oracle = write_trace(self.trace, seed, workload.machines, workload.buckets)
        self.heldout = heldout_windows(program, seed, HELDOUT)
        self.checkpoint = None  # written by the pipeline, read by the scoring loop
        self.reference = None  # (label, logit bytes) per held-out window
        self.resetup = False  # set the program up afresh between stages
        self.inputs_rss_mb = _peak_rss_mb()  # the benchmark's own peak, before any stage

    def stage(self, p: Pass, name: str, argv: list) -> None:
        out, err = io.StringIO(), io.StringIO()
        argv = [str(a) for a in argv]
        gc.collect()  # every stage starts from a collected heap
        with self.tracer.span(f"cli.{name}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                code = self.cli.main(argv)
                elapsed = perf_counter() - start
        p.cli_calls += 1
        if code != 0:
            raise BenchError(f"contention {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        p.times.setdefault(f"{name}_s", []).append(elapsed)
        self._between(p)

    def _between(self, p: Pass) -> None:
        """After every stage and burst: time the speed kernel, and set up afresh if asked.

        A fresh set-up rebinds the program and the CLI and puts the tracer's
        wrappers on the new modules. Set-up samples taken here are spread
        over the run like the stage samples.
        """
        p.speed.append(calibrate())
        if self.resetup:
            self.tracer.restore()
            elapsed, self.program, self.cli = set_up(self.config)
            instrument(self.tracer)
            p.setup.append((elapsed, p.speed[-1]))

    def run(self, tag: str, reps: int, score_seconds: float | None, score_windows: int | None) -> Pass:
        """`reps` rounds of gen, train, eval, predict and ingest, with scoring bursts.

        The machine's speed drifts over seconds, so each stage is sampled once
        per round, spread over the run, and the scoring loop is split into a
        burst after each stage that has a checkpoint to load; the metrics are
        medians over rounds and over chunks of the bursts.
        """
        p = Pass()
        bursts = reps * len(SCORED_AFTER)
        burst = (score_seconds and score_seconds / bursts, score_windows and score_windows // bursts)
        rounds = [self._round(p, self.work / tag / f"round{r}", *burst) for r in range(reps)]
        self._check_rounds(p, rounds)
        return p

    def _round(self, p: Pass, d: Path, burst_s: float | None, burst_n: int | None) -> dict:
        wl, seed, cfg, ckpt = self.wl, self.seed, self.config, d / "train" / "checkpoint.json"
        self.stage(p, "gen", ["gen", "--config", cfg, "--out", d / "gen", "--n", wl.windows, "--seed", seed])
        data = _only_file(d / "gen", "dataset")
        for name, argv in (
            ("train", ["--config", cfg, "--data", data, "--out", d / "train", "--seed", seed]),
            ("eval", ["--checkpoint", ckpt, "--data", data, "--out", d / "eval"]),
            ("predict", ["--checkpoint", ckpt, "--data", data, "--out", d / "predict"]),
            ("ingest", ["--config", cfg, "--trace", self.trace, "--out", d / "ingest"]),
        ):
            self.stage(p, name, [name, *argv])
            self._score(p, ckpt, burst_s, burst_n)
        self.checkpoint = ckpt
        return {
            "dataset": data,
            "checkpoint": ckpt,
            "history": d / "train" / "history.csv",
            "metrics": d / "eval" / "metrics.csv",
            "confusion": d / "eval" / "confusion.csv",
            "predictions": _only_file(d / "predict", "predictions file"),
            "ingested": _only_file(d / "ingest", "dataset"),
            **self._ingest_counts(),
        }

    def _ingest_counts(self) -> dict:
        """What ingest returned, as counts: the windows themselves are dropped here."""
        result = self.tracer.returned.pop("ingest.ingest_csv")
        labeled, dropped = self.tracer.returned.pop("ingest.apply_weak_labels")
        return {
            "skipped": result.skipped_rows,
            "kept": len(result.windows),
            "labeled": len(labeled),
            "dropped": dropped,
            "classes": sorted({int(w.label) for w in labeled}),
        }

    def _check_rounds(self, p: Pass, rounds: list[dict]) -> None:
        wl, first = self.wl, rounds[0]
        for stage, key in (("gen", "dataset"), ("train", "checkpoint"), ("eval", "metrics"),
                           ("eval", "confusion"), ("predict", "predictions"), ("ingest", "ingested")):
            p.check(f"{stage} writes identical {key} in every round",
                    len({_digest(r[key]) for r in rounds}) == 1)

        with first["history"].open() as fh:
            p.epochs_run = sum(1 for _ in fh) - 1
        p.check("epochs_run equals the budget", p.epochs_run == wl.epochs,
                f"{p.epochs_run} of {wl.epochs}")
        with first["metrics"].open(newline="") as fh:
            p.macro_f1 = float(next(csv.DictReader(fh))["macro_f1"])
        if wl.f1_floor is not None:
            p.check("eval macro-F1 reaches the floor", p.macro_f1 >= wl.f1_floor,
                    f"{p.macro_f1:.4f} >= {wl.f1_floor}")
        with first["confusion"].open(newline="") as fh:
            rows = list(csv.reader(fh))
        classes = rows[0][1:]
        predicted = np.array([[int(v) for v in row[1:]] for row in rows[1:]]).sum(axis=0).tolist()
        self._check_predictions(p, first["predictions"], classes, predicted)

        oracle = self.oracle
        skipped = sorted({r["skipped"] for r in rounds})
        kept = sorted({r["kept"] for r in rounds})
        p.check("ingest skips exactly the malformed rows", skipped == [oracle.rows_skipped],
                f"{skipped} vs oracle {oracle.rows_skipped}")
        p.check("ingest keeps exactly the gap-free windows", kept == [oracle.windows_kept],
                f"{kept} vs oracle {oracle.windows_kept}")
        p.check("weak labels give every class and leave some windows unlabelled",
                first["classes"] == list(range(5)) and first["dropped"] > 0
                and first["labeled"] + first["dropped"] == first["kept"],
                f"classes {first['classes']}, {first['dropped']} unlabelled")
        p.ingest_counts = {
            "rows_skipped": first["skipped"],
            "windows_kept": first["kept"],
            "window_yield": first["kept"] / oracle.windows_possible,
            "labeled_ratio": first["labeled"] / first["kept"],
        }

    def _check_predictions(self, p: Pass, path: Path, classes: list[str], predicted) -> None:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        p.check("predict emits one row per window", len(rows) == self.wl.windows,
                f"{len(rows)} rows for {self.wl.windows} windows")
        worst = max(abs(sum(float(r[f"p_{c}"]) for c in classes) - 1.0) for r in rows)
        p.check("probabilities sum to 1 within 1e-12", worst <= 1e-12, f"worst {worst:.3g}")
        counts = [sum(1 for r in rows if r["predicted_class"] == c) for c in classes]
        p.check("predict labels agree with eval's confusion counts",
                counts == predicted, f"{counts} vs {predicted}")

    # -- online scoring ------------------------------------------------------

    def _score(self, p: Pass, checkpoint: Path, seconds: float | None, count: int | None) -> None:
        """One burst of batch-1 scoring, for `seconds` or `count` windows, after a warm-up.

        Every output must equal, bit for bit, the reference pass made untimed
        with the first round's checkpoint: rounds train identical checkpoints.
        """
        program = self.program
        ckpt = program.load_checkpoint(checkpoint)
        xs = [program.apply_norm(w, ckpt.norm).values for w in self.heldout]
        graph, params = ckpt.graph, ckpt.params
        if self.reference is None:
            ref = [program.forward(x, graph, params)[0] for x in xs]
            self.reference = [(r.label, r.logits.tobytes()) for r in ref]
        reference = self.reference
        forward = program.forward  # looked up now: a traced run has wrapped it

        def loop(limit_s: float | None, limit_n: int | None) -> tuple[list[int], int]:
            lat, bad, i, n = [], 0, 0, len(xs)
            deadline = perf_counter() + (limit_s or 0.0)
            while True:
                k = i % n
                start = perf_counter_ns()
                pred, _ = forward(xs[k], graph, params)
                lat.append(perf_counter_ns() - start)
                if (pred.label, pred.logits.tobytes()) != reference[k]:
                    bad += 1
                i += 1
                if limit_n is not None:
                    if i >= limit_n:
                        return lat, bad
                elif i % 64 == 0 and perf_counter() >= deadline:
                    return lat, bad

        gc.collect()
        if count is None:
            loop(SCORE_WARMUP_S, None)
        else:
            loop(None, count // 10)
        start = perf_counter()
        with self.tracer.span("score"):
            lat, bad = loop(seconds, count)
        p.times.setdefault("score_s", []).append(perf_counter() - start)
        self._between(p)
        n_chunks = max(1, len(lat) // SCORE_CHUNK)
        p.latency_chunks += np.array_split(np.asarray(lat, dtype=np.float64), n_chunks)
        p.scored += len(lat)
        p.check("online labels and logits equal the reference pass", bad == 0,
                f"{bad} of {len(lat)} windows differ")


# ---------------------------------------------------------------------------
# Machine speed
#
# On a shared 2-vCPU virtual machine the speed drifts with the neighbours'
# load, by up to 1.6x, and a slow or fast spell can outlast a run. So each run
# also times a fixed kernel (the small-array numpy work of a forward pass)
# after every stage and every scoring burst, and scales the SCALED metrics by
# NOMINAL_SPEED_S over the kernel's median time in the run: to what they would
# have been at the nominal speed. Scaled are every stage time and the scoring
# p50 and throughput. The p99 latency is set by interruptions more than by
# speed: scaling made its spread worse, so it stays as measured. Each set-up
# sample, some 50 ms long, is scaled on its own by the kernel timed just
# before it.


def _speed_kernel():
    rng = np.random.default_rng(0)
    x, w1 = rng.standard_normal((32, 12)), rng.standard_normal((64, 32)) / 8
    w2, a = rng.standard_normal((32, 64)) / 8, np.full((12, 12), 1 / 12)
    w3, w4 = rng.standard_normal((32, 32)) / 6, rng.standard_normal((5, 16, 32)) / 6

    def run():
        for _ in range(450):
            h = np.tanh(w2 @ np.tanh(w1 @ x)).T
            r = np.tanh(a @ np.tanh(a @ h @ w3) @ w3).mean(axis=0)
            float(np.tanh(w4 @ r).sum())
    return run


SPEED_KERNEL = _speed_kernel()
NOMINAL_SPEED_S = 0.012  # the kernel's time on such a machine in its common fast state
SCALED = ("gen_s", "train_s", "eval_s", "predict_s", "ingest_s", "score_p50_us",
          "score_windows_per_s")


def calibrate() -> float:
    """Seconds the speed kernel takes now."""
    start = perf_counter()
    SPEED_KERNEL()
    return perf_counter() - start


# ---------------------------------------------------------------------------
# Metrics


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(p: Pass, setup: list[tuple[float, float]]) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics, the same before speed scaling)."""
    chunks = p.latency_chunks
    raw = {"setup_s": _median([elapsed for elapsed, _ in setup])}
    for stage in ("gen", "train", "eval", "predict"):
        raw[f"{stage}_s"] = _median(p.times[f"{stage}_s"])
    raw["eval_macro_f1"] = p.macro_f1
    raw["score_windows_per_s"] = _median([c.size / (c.sum() / 1e9) for c in chunks])
    raw["score_p50_us"] = _median([np.percentile(c, 50) / 1e3 for c in chunks])
    raw["score_p99_us"] = _median([np.percentile(c, 99) / 1e3 for c in chunks])
    raw["ingest_s"] = _median(p.times["ingest_s"])
    raw["peak_rss_mb"] = _peak_rss_mb()
    scale = NOMINAL_SPEED_S / _median(p.speed)
    m = dict(raw)
    m["setup_s"] = _median([elapsed * NOMINAL_SPEED_S / kernel for elapsed, kernel in setup])
    for name in SCALED:
        m[name] = raw[name] / scale if name == "score_windows_per_s" else raw[name] * scale
    return m, raw


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer: Tracer, p: Pass, untraced: dict[str, float],
              probe: dict[str, float]) -> dict[str, float]:
    stats = tracer.layers()
    m: dict[str, float] = {}
    for _, _, label, _, nbytes, time_key in LAYERS:
        st = stats.get(label)
        calls = st.calls if st else 0
        m[f"{label}.calls"] = calls
        m[f"{label}.{time_key}"] = st.self_s if st else 0.0
        if nbytes is not None:
            m[f"{label}.bytes"] = tracer.nbytes.get(label, 0)
        if label in PER_WINDOW:
            m[f"{label}.us_per_window"] = st.total_s / st.windows * 1e6 if st and st.windows else 0.0
        if label in PER_CALL:
            m[f"{label}.us_per_call"] = st.total_s / calls * 1e6 if calls else 0.0
    m["model.params_pack.calls"] = tracer.counts.get("model.params_pack", 0)
    for stage in PROBE_STAGES:
        m[f"model.{stage}.us_per_window"] = probe.get(stage, 0.0)
    m["train.epochs_run"] = p.epochs_run
    for name in INGEST_COUNTS:
        m[f"ingest.{name}"] = p.ingest_counts[name]
    for stage in STAGES:
        st = stats.get(f"cli.{stage}")
        m[f"cli.{stage}.self_s"] = st.self_s if st else 0.0
    traced = sum(sum(v) for v in p.times.values())
    m["trace.overhead_pct"] = (traced - sum(untraced.values())) / sum(untraced.values()) * 100.0
    return m


def probe_stages(program, runner: Runner) -> dict[str, float]:
    """µs per window of encode, propagate and heads at batch size 1, on the held-out windows.

    A stage whose function is gone or no longer takes one (T, D) window is
    reported as absent (0).
    """
    model = sys.modules["contention.model"]
    ckpt = program.load_checkpoint(runner.checkpoint)
    g, params = ckpt.graph, ckpt.params
    try:
        xs = [program.apply_norm(w, ckpt.norm).values for w in runner.heldout]
        hs = [model.encode(x, params) for x in xs]
        hts = [model.propagate(g, h, params) for h in hs]
        stages = {
            "encode": (lambda x: model.encode(x, params), xs),
            "propagate": (lambda h: model.propagate(g, h, params), hs),
            "heads": (lambda ht: model.heads(ht, params), hts),
        }
        for call, inputs in stages.values():
            call(inputs[0])
    except (AttributeError, TypeError, ValueError) as exc:
        print(f"probe: encode/propagate/heads absent or changed ({exc}); reported as 0",
              file=sys.stderr)
        return {}
    out = {}
    for stage, (call, inputs) in stages.items():
        start = perf_counter()
        for i in range(PROBE_WINDOWS):
            call(inputs[i % len(inputs)])
        out[stage] = (perf_counter() - start) / PROBE_WINDOWS * 1e6
    return out


# ---------------------------------------------------------------------------
# Environment and output


def _os_threads() -> int | None:
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": _os_threads(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def emit(metrics: dict[str, float], units: dict[str, str], p: Pass, extra: str) -> int:
    """Print the checks, the metrics with units and the JSON result; returns the exit code."""
    threads = _os_threads()
    p.check("the process runs one thread", threads in (None, 1), f"{threads} threads")
    failed = sum(1 for _, ok, _ in p.checks if not ok)
    attempted = p.cli_calls + p.scored
    shown: dict[str, tuple[bool, str]] = {}  # one line per check; a failure wins
    for name, ok, detail in p.checks:
        if name not in shown or (shown[name][0] and not ok):
            shown[name] = (ok, detail)
    for name, (ok, detail) in shown.items():
        print(f"check {'ok    ' if ok else 'FAILED'} {name}" + (f" ({detail})" if detail else ""))
    for name in units:
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    print(f"error_rate = {failed / attempted!r} ({failed} failed of {attempted} attempted)"
          f"{extra}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=4.0,
                    help="online scoring time of pipeline-default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        write_run_config(work / "run.json", wl.epochs, wl.learning_rate, wl.batch_size, args.seed)
        sys.path.insert(0, str(ROOT / "src"))
        setup = []
        for _ in range(SETUP_ROUNDS):
            kernel = calibrate()
            elapsed, program, cli = set_up(work / "run.json")
            setup.append((elapsed, kernel))
        return _run(args, wl, work, program, cli, setup)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def instrument(tracer: Tracer) -> None:
    """Install the tracer's wrappers: spans if it times, and always the ingest captures."""
    if tracer.timing:
        for module, attr, label, windows, nbytes, _ in LAYERS:
            tracer.wrap(module, attr, label, windows, nbytes)
        for method in PACKING:
            tracer.count("contention.model", method, "model.params_pack")
    for name in ("ingest_csv", "apply_weak_labels"):
        tracer.capture("contention.ingest", name, f"ingest.{name}")


def run_pass(runner: Runner, tracer: Tracer, tag: str, reps: int,
             seconds: float | None, count: int | None) -> Pass:
    runner.tracer = tracer
    instrument(tracer)
    try:
        return runner.run(tag, reps, seconds, count)
    finally:
        tracer.restore()


def _run(args, wl: Workload, work: Path, program, cli, setup: list[tuple[float, float]]) -> int:
    runner = Runner(program, cli, work, wl, args.seed)
    if not args.trace:
        seconds = wl.score_seconds if wl.score_seconds is not None else args.seconds
        runner.resetup = True
        p = run_pass(runner, Tracer(timing=False), "plain", wl.rounds, seconds, None)
        metrics, raw = end_to_end(p, setup + p.setup)
        return emit(metrics, END_TO_END_UNITS, p,
                    f"; {p.scored} windows scored online\n"
                    f"set-up: median of {len(setup) + len(p.setup)} samples, {len(p.setup)}"
                    f" of them between stages\n"
                    f"peak_rss_mb before the first stage (inputs generated): {runner.inputs_rss_mb!r}\n"
                    f"speed kernel: median {_median(p.speed) * 1e3:.3f} ms over {len(p.speed)} samples,"
                    f" nominal {NOMINAL_SPEED_S * 1e3:g} ms\n"
                    f"as measured, before speed scaling: {json.dumps(raw)}")

    # Untraced, traced, untraced: the overhead compares the traced pass with
    # the mean of the passes on either side of it, all doing the same work.
    n = TRACE_SCORE_WINDOWS
    before = run_pass(runner, Tracer(timing=False), "before", 1, None, n)
    tracer = Tracer(timing=True)
    p = run_pass(runner, tracer, "traced", 1, None, n)
    after = run_pass(runner, Tracer(timing=False), "after", 1, None, n)
    untraced = {k: (sum(before.times[k]) + sum(after.times[k])) / 2 for k in p.times}

    WORK_ROOT.mkdir(exist_ok=True)
    spans_file = WORK_ROOT / f"spans-{args.workload}-{args.seed}.csv"
    tracer.dump(spans_file)
    metrics = per_layer(tracer, p, untraced, probe_stages(program, runner))
    lines = ["", "stage      untraced_s  traced_s  sum_of_self_s  overhead_%"]
    for stage in STAGES + ("score",):
        key = "score" if stage == "score" else f"cli.{stage}"
        u, t = untraced[f"{stage}_s"], sum(p.times[f"{stage}_s"])
        lines.append(f"{stage:<10} {u:>10.4f} {t:>9.4f} {tracer.self_within(key):>14.4f}"
                     f" {(t - u) / u * 100:>11.2f}")
    absent = sorted(set(tracer.absent))
    lines.append(f"absent: {', '.join(absent) if absent else 'none'}; spans in {spans_file}")
    p.merge(before)
    p.merge(after)
    return emit(metrics, per_layer_units(), p, "\n".join(lines))


if __name__ == "__main__":
    sys.exit(main())
