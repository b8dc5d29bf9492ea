"""Seeded inputs for the benchmark: run config, raw trace with its oracle, held-out windows.

Everything here is a pure function of the seed, so a seed names one input
set. The raw-trace generator places every gap and every malformed row
itself, and works out from them what `contention ingest` must report: the
rows it skips and the windows it keeps. That oracle is the ingest
correctness check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WINDOW_LEN = 32  # T, the README default
RESAMPLE_STEP = 60  # seconds per bucket
MAX_FILL = 3  # longest gap (in buckets) that ingest forward-fills

# Three metric columns per resource group, in schema order.
METRIC_COLUMNS = {
    "cpu_user": "cpu", "cpu_system": "cpu", "cpu_steal": "cpu",
    "mem_used": "mem", "mem_cache": "mem", "mem_swap": "mem",
    "disk_read": "disk", "disk_write": "disk", "disk_util": "disk",
    "net_rx": "net", "net_tx": "net", "net_retrans": "net",
}

# Per-group level when the group is idle and when it is hot. cpu and mem are
# utilisations (ingest's fixed hot cutoffs are 0.85 and 0.90); disk and net
# are rates, labelled hot against the trace's own 95th percentile.
IDLE_LEVEL = {"cpu": 0.30, "mem": 0.50, "disk": 20.0, "net": 50.0}
HOT_LEVEL = {"cpu": 0.95, "mem": 0.97, "disk": 220.0, "net": 600.0}
NOISE = {"cpu": 0.01, "mem": 0.005, "disk": 4.0, "net": 10.0}

# The rates below are assumptions, not taken from a measured trace: no
# public source for them is cited here, and none is in the repository.
# perfbench/README.md ("Trace assumptions") says which metrics move with each.

# Regime of each window-aligned block of buckets: the hot groups and the
# chance of the regime. Idle blocks stay unlabelled after weak labelling.
REGIMES = (
    ((), 0.52),
    (("cpu",), 0.14),
    (("mem",), 0.14),
    (("disk",), 0.06),
    (("net",), 0.06),
    (("cpu", "disk"), 0.08),
)

# Gaps start with a fixed chance per bucket; their lengths in buckets follow
# a discrete Pareto law, so most are a few samples long and a few last hours,
# capped at 12 hours. Gaps lie inside a machine's time span, so they never
# widen ingest's bucket arrays; the hostile gap of ROADMAP item 4 is left out.
GAP_START_PROB = 0.004
GAP_PARETO_ALPHA = 1.2
GAP_CAP = 720

# Malformed rows, added beside the valid rows so that none of them empties
# a bucket. Each kind is one reason `ingest_csv` skips a row.
MALFORMED_SHARE = 0.005
MALFORMED_KINDS = ("bad_timestamp", "non_numeric", "non_finite", "no_machine", "truncated")

# Share of observed buckets that hold a second sample, which ingest averages.
DUPLICATE_SHARE = 0.05


def run_config(epochs: int, learning_rate: float, batch_size: int, seed: int) -> dict:
    """One config for every stage: README defaults plus a fixed epoch budget.

    patience equals the budget, so early stopping never ends training
    before `epochs` epochs.
    """
    train = {"max_epochs": epochs, "patience": epochs, "learning_rate": learning_rate,
             "batch_size": batch_size, "seed": seed}
    return {
        "train": train,
        "schema": {
            "machine_column": "machine_id",
            "timestamp_column": "ts",
            "metric_columns": METRIC_COLUMNS,
        },
        "ingest": {"window_len": WINDOW_LEN, "resample_step": RESAMPLE_STEP, "max_fill": MAX_FILL},
    }


def write_run_config(path: Path, epochs: int, learning_rate: float, batch_size: int,
                     seed: int) -> None:
    path.write_text(json.dumps(run_config(epochs, learning_rate, batch_size, seed), indent=2) + "\n")


@dataclass(frozen=True)
class TraceOracle:
    """What ingest must report for a generated trace."""

    rows_skipped: int  # malformed rows
    windows_possible: int  # windows the machines' time spans hold
    windows_kept: int  # of those, windows that touch no gap longer than MAX_FILL


def _gaps(gen: np.random.Generator, buckets: int) -> np.ndarray:
    """Mask of missing buckets. Bucket 0 and the last bucket stay observed."""
    missing = np.zeros(buckets, dtype=bool)
    b = 1
    while b < buckets - 1:
        if gen.random() < GAP_START_PROB:
            length = min(GAP_CAP, int(np.ceil(gen.random() ** (-1.0 / GAP_PARETO_ALPHA))))
            end = min(b + length, buckets - 1)
            missing[b:end] = True
            b = end + 1
        else:
            b += 1
    return missing


def _long_gap_buckets(missing: np.ndarray) -> np.ndarray:
    """Buckets inside a missing run longer than MAX_FILL, which ingest leaves empty."""
    out = np.zeros_like(missing)
    b, n = 0, len(missing)
    while b < n:
        if not missing[b]:
            b += 1
            continue
        e = b
        while e < n and missing[e]:
            e += 1
        if e - b > MAX_FILL:
            out[b:e] = True
        b = e
    return out


def _levels(gen: np.random.Generator, buckets: int) -> np.ndarray:
    """(buckets, 12) metric values; each WINDOW_LEN block has one regime."""
    blocks = -(-buckets // WINDOW_LEN)
    probs = np.array([p for _, p in REGIMES])
    regime = gen.choice(len(REGIMES), size=blocks, p=probs / probs.sum())
    columns = list(METRIC_COLUMNS.values())
    values = np.empty((buckets, len(columns)))
    for j, group in enumerate(columns):
        hot = np.array([group in REGIMES[r][0] for r in regime]).repeat(WINDOW_LEN)[:buckets]
        base = np.where(hot, HOT_LEVEL[group], IDLE_LEVEL[group])
        values[:, j] = base + gen.normal(0.0, NOISE[group], size=buckets)
    return values


def _fmt(row) -> list[str]:
    return [f"{v:.5g}" for v in row]


def _malformed(kind: int, pick: int, machine: str, ts: int, values) -> str:
    """One malformed row of MALFORMED_KINDS[kind]; `pick` chooses the spoilt cell."""
    cells = _fmt(values)
    name = MALFORMED_KINDS[kind]
    if name == "bad_timestamp":
        return ",".join([machine, "n/a", *cells])
    if name == "non_numeric":
        cells[pick % len(cells)] = "err"
    elif name == "non_finite":
        cells[pick % len(cells)] = ("nan", "inf", "-inf")[pick % 3]
    elif name == "no_machine":
        machine = ""
    else:  # truncated: metric cells missing
        cells = cells[:3]
    return ",".join([machine, str(ts), *cells])


def write_trace(path: Path, seed: int, machines: int, buckets: int) -> TraceOracle:
    """Write a raw trace CSV of `machines` machines, `buckets` samples each.

    Rows of all machines are interleaved by time. Per machine the first
    sample sits on its start time and the rest anywhere inside their
    bucket; DUPLICATE_SHARE of them hold a second sample. The rows are
    kept as arrays and formatted only as they are written, so the
    generator's memory stays well below that of ingest.
    """
    gen = np.random.default_rng([seed, 7919])
    header = ["machine_id", "ts", *METRIC_COLUMNS]
    # Per row: time, machine, bucket, value scale, malformed kind (-1: valid), spoilt cell.
    parts: list[tuple[np.ndarray, ...]] = []
    levels: list[np.ndarray] = []
    skipped = possible = kept = 0
    for m in range(machines):
        t0 = 1_700_000_000 + 17 * m
        missing = _gaps(gen, buckets)
        levels.append(_levels(gen, buckets))
        observed = np.flatnonzero(~missing)
        jitter = gen.integers(0, RESAMPLE_STEP, size=buckets)
        jitter[0] = 0
        twice = observed[gen.random(len(observed)) < DUPLICATE_SHARE]
        bad = observed[gen.random(len(observed)) < MALFORMED_SHARE]
        bucket = np.concatenate([observed, twice, bad])
        offset = np.concatenate([jitter[observed], gen.integers(RESAMPLE_STEP, size=len(twice)),
                                 gen.integers(RESAMPLE_STEP, size=len(bad))])
        kind = np.full(len(bucket), -1)
        kind[len(bucket) - len(bad):] = gen.integers(len(MALFORMED_KINDS), size=len(bad))
        parts.append((
            t0 + bucket * RESAMPLE_STEP + offset,
            np.full(len(bucket), m),
            bucket,
            np.concatenate([np.ones(len(observed)), np.full(len(twice), 1.01), np.ones(len(bad))]),
            kind,
            gen.integers(0, 1 << 30, size=len(bucket)),
        ))
        skipped += len(bad)
        dead = _long_gap_buckets(missing)
        starts = range(0, buckets - WINDOW_LEN + 1, WINDOW_LEN)
        possible += len(starts)
        kept += sum(1 for s in starts if not dead[s : s + WINDOW_LEN].any())
    ts, machine, bucket, scale, kind, pick = (np.concatenate(c) for c in zip(*parts))
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in np.argsort(ts, kind="stable").tolist():
            m, t, b = int(machine[i]), int(ts[i]), int(bucket[i])
            values = levels[m][b] * scale[i]
            if kind[i] < 0:
                fh.write(f"node{m:02d},{t}," + ",".join(_fmt(values)) + "\n")
            else:
                fh.write(_malformed(int(kind[i]), int(pick[i]), f"node{m:02d}", t, values) + "\n")
    return TraceOracle(rows_skipped=skipped, windows_possible=possible, windows_kept=kept)


def heldout_windows(program, seed: int, n: int) -> list:
    """Synthetic windows the pipeline never sees: the generator's own substream 7.

    `contention gen --seed s` draws from substream 0 of seed s, so these
    windows share its distribution but not its draws.
    """
    return program.generate(program.ScenarioConfig(), n, program.RngStream(seed).substream(7))
