"""The per-window calls the repo benchmark (perfbench/run.py) makes on the producers.

The benchmark reads single windows from the Datasets that the producers
return: it normalizes each held-out window of `generate` on its own, counts
the windows of `ingest_csv`, and reads the label of each window that
`apply_weak_labels` keeps. These tests pin what those calls see, so a change
to the producers that would break the benchmark fails here first.
"""

import numpy as np

from contention.data import ScenarioConfig, apply_norm, fit_norm, generate
from contention.ingest import IngestConfig, TraceSchema, apply_weak_labels, ingest_csv
from contention.rng import RngStream


def test_generated_windows_normalize_like_their_rows():
    data = generate(ScenarioConfig(), 40, RngStream(5).substream(7))
    norm = fit_norm(data)
    rows = apply_norm(data, norm).values
    windows = list(data)
    assert len(windows) == len(data)
    for i, w in enumerate(windows):
        assert apply_norm(w, norm).values.tobytes() == rows[i].tobytes()
        assert w.source == f"synthetic:5:{i}"
        assert w.label == data.labels[i]


def test_ingested_windows_count_and_weak_labels(tmp_path):
    schema = TraceSchema("machine", "ts", (("cpu", "cpu"), ("disk", "disk")))
    gen = np.random.default_rng(3)
    lines = ["machine,ts,cpu,disk"]
    for machine in ("a", "b"):
        for k in range(64):
            cpu, disk = gen.uniform(0.5, 1.0), gen.exponential(2.0)
            lines.append(f"{machine},{60 * k},{cpu!r},{disk!r}")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")

    result = ingest_csv(path, schema, IngestConfig(window_len=4))
    assert len(result.windows) == len(result.sources) == 32
    labeled, dropped = apply_weak_labels(result.windows, schema.group_map())
    assert 0 < len(labeled) and dropped == len(result.windows) - len(labeled)
    assert [w.label for w in labeled] == labeled.labels.tolist()
