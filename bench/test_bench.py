"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Runs the quickest workload once untraced and once traced, and checks
that every metric named in BENCHMARK.json is printed with its unit,
that no command failed, and that a tree without the program is refused.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ARGS = ["--workload", "mlp-wide", "--seed", "21", "--seconds", "1"]


def _run(trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *ARGS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _printed(stdout: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$",
                     stdout, re.M) is not None


def _check(proc, declared) -> str:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert _printed(proc.stdout, m["name"], m["unit"]), m["name"]
    assert re.search(r"^error_rate\s+0\s+ratio\s+n=\d+$", proc.stdout, re.M)
    return proc.stdout


def test_end_to_end_metrics_are_printed():
    out = _check(_run(0), SPEC["end_to_end"])
    assert _printed(out, "tuned_loss_gap", "nats")
    assert len(re.findall(r"^sha256 \S+ [0-9a-f]{64}$", out, re.M)) == 4


def test_per_layer_metrics_are_printed():
    _check(_run(1), SPEC["per_layer"])


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
