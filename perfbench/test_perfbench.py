"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
quick runs use one second of ops per workload, so the whole file takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_library()

import workloads  # noqa: E402
from spans import SpanLog  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
#: Share of traced op time the layer spans must account for.
COVERAGE_FLOOR = 0.9


def invoke(script: Path, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )


def test_spec_lists_the_workloads_run_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_quick_run_prints_the_spec_metrics(name, trace):
    proc = invoke(
        HERE / "run.py", "--workload", name, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {key: m["unit"] for key, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    for key, m in result["metrics"].items():
        # Every metric printed in the human-readable table too.
        assert f"  {key} " in proc.stdout
        assert np.isfinite(m["value"])
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= COVERAGE_FLOOR


def test_nudged_distance_counts_as_a_failure():
    wl = workloads.ColdMesh(0)
    inp = wl.prepare(0)
    out, _ = wl.op(inp)
    nudged = out.copy()
    nudged[3, 5] += 1.0 / 8.0
    tally = run.Tally()
    tally(wl.check(inp, out))
    tally(wl.check(inp, nudged))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_nudged_query_answer_counts_as_a_failure():
    wl = workloads.ServeRoad(0)
    wl.setup(0)
    inp = wl.prepare(0)
    out, _ = wl.op(inp)
    nudged = out.copy()
    nudged[7] -= 1.0 / 8.0
    tally = run.Tally()
    tally(wl.check(inp, out))
    tally(wl.check(inp, nudged))
    assert (tally.attempted, tally.failed) == (2, 1)
    wl.server.close()


@pytest.mark.parametrize("cls", [workloads.ColdMesh, workloads.WarmSocial])
def test_traced_and_untraced_ops_return_identical_distances(cls):
    wl = cls(0)
    wl.setup(0)
    for i in range(2):
        inp = wl.prepare(i)
        out, count = wl.op(inp)
        traced, traced_count = wl.traced_op(inp, SpanLog())
        assert np.array_equal(out, traced) and count == traced_count


def test_exits_nonzero_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = invoke(
        tmp_path / "perfbench" / "run.py", "--workload", "cold_mesh",
        "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
