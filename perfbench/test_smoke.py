"""Smoke test of the benchmark itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
It is not part of the package's test suite (``tests/``) because it spawns the
CLI a dozen times.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-bands", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _scale_first_zeta(path: str, factor: float) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_output_check_tolerates_rounding_and_rejects_errors(tmp_path):
    assert bench("--workload", "paper-bands", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--smoke").returncode == 0
    with open(os.path.join(ROOT, "perfbench", "reference", "paper-bands.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["smoke"]["0"]
    out = os.path.join(ROOT, ".perfbench", "smoke", "paper-bands", "0", "out")
    assert check.check(out, ref) is True

    shutil.copytree(out, tmp_path / "out")
    csv = str(tmp_path / "out" / "efficiency.csv")
    _scale_first_zeta(csv, 1 + 1e-13)
    assert check.check(str(tmp_path / "out"), ref) is False
    _scale_first_zeta(csv, 1 + 1e-6)
    with pytest.raises(check.OutputMismatch):
        check.check(str(tmp_path / "out"), ref)
