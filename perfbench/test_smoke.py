"""Smoke tests for the benchmark: every workload, shortened, on both paths.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--duration", "0.2",
         "--workdir", str(tmp_path / "work")],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_short_run_is_correct_and_complete(tmp_path, workload, trace):
    proc = _bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["blas_threads"]["OPENBLAS_NUM_THREADS"] == run.BLAS_THREADS
    assert record["output_sha256"]


def test_changed_output_bytes_fail_the_run(tmp_path):
    args = run.parse_args(["--workload", "masked", "--seed", "1",
                           "--duration", "0.2", "--workdir", str(tmp_path)])
    sys.path.insert(0, str(run.SRC))
    bench = run.Bench(args)
    bench.set_up_all(1)
    out = tmp_path / "out"
    assert run.run_cli(bench.bundle(42), out, {}, tmp_path / "log").returncode == 0
    assert bench.check(42, out, "first")
    (out / "tracks.csv").write_text("frame,track_id,status,x_m,y_m,z_m\n")
    (out / "trajectories.svg").unlink()
    assert not bench.check(42, out, "second")
    assert bench.failed == 1
    assert any("missing trajectories.svg" in f for f in bench.failures)
    assert any("differ from the first run" in f for f in bench.failures)


def test_fails_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(tmp_path, "masked", 0, cwd=bare,
                  script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
