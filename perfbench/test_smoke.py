"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs the benchmark's `main` in-process on a shrunken workload, so the whole
file takes well under a minute. It checks that one command prints every
metric that BENCHMARK.json names, with its unit, that a failed correctness
check makes the command exit non-zero, and that the command fails without
a result where there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run.Workload(why="smoke test", windows=60, epochs=2, learning_rate=0.005, batch_size=32,
                    f1_floor=None, score_seconds=0.3, machines=2, buckets=1600, rounds=2)
ARGV = ["--workload", "pipeline-default", "--seed", "0", "--seconds", "1"]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "pipeline-default", TINY)
    monkeypatch.setattr(run, "TRACE_SCORE_WINDOWS", 200)
    monkeypatch.setattr(run, "PROBE_WINDOWS", 50)


def _output(capsys) -> tuple[list[str], dict]:
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_named_metric(tiny, capsys, trace, section):
    code = run.main(ARGV + ["--trace", str(trace)])
    lines, result = _output(capsys)
    assert code == 0, "\n".join(line for line in lines if "FAILED" in line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name, unit in named.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    env = json.loads(lines[-2])["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["numpy"]


def test_failed_check_exits_non_zero(tiny, capsys, monkeypatch):
    real = run.write_trace

    def wrong_oracle(*args):
        oracle = real(*args)
        return replace(oracle, rows_skipped=oracle.rows_skipped + 1)

    monkeypatch.setattr(run, "write_trace", wrong_oracle)
    code = run.main(ARGV + ["--trace", "0"])
    lines, result = _output(capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("check FAILED ingest skips") for line in lines)


def test_fails_without_a_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *ARGV, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
