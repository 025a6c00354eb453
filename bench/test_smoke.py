"""Smoke test of the benchmark itself, at the smallest size it runs.

    python3 -m pytest bench/test_smoke.py -q

With --seconds 0 every workload runs only its fixed request prefix.  The
test checks that each run prints every metric BENCHMARK.json names, with
its unit, that no request fails, and that two runs on one seed print the
same output digest.  It takes about a minute on a 2-core x86 host.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(lines, result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_ratio = 0.0 ratio" in "\n".join(lines)
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_and_stable_digest(workload):
    first_lines, first = bench(workload, 0)
    second_lines, _ = bench(workload, 0)
    assert_metrics(first_lines, first, SPEC["end_to_end"])
    for metric in first["metrics"].values():
        assert metric["value"] > 0

    def digest(lines):
        found = [re.match(r"digest = (sha256:[0-9a-f]{64})", line) for line in lines]
        return [m.group(1) for m in found if m]

    assert len(digest(first_lines)) == 1
    assert digest(first_lines) == digest(second_lines)


def test_traced_run_prints_every_layer_metric():
    lines, result = bench("verify-nambu", 1)
    assert_metrics(lines, result, SPEC["per_layer"])
    assert result["metrics"]["poly.mul.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "integrate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
