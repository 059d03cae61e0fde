"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from flexshuffle import random_instance, save_instance  # noqa: E402

import harness  # noqa: E402
from workloads import Percolation, Solve, Sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = ROOT / ".bench_build" / "flexshuffle-bench" / "tests"


def _run(workload: str, trace: int, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        record = json.loads(proc.stdout.strip().splitlines()[-2])
        gates = {g["gate"]: g["ok"] for g in record["gates"]}
        assert gates["traced results == untraced results"]
        assert gates["sum of self times == traced wall time"]


def test_refuses_to_run_without_the_package():
    bare = WORKDIR / "bare"
    (bare / "benchmarks").mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for f in BENCH.glob("*.py"):
        (bare / "benchmarks" / f.name).write_bytes(f.read_bytes())
    proc = _run("percolation", 0, cwd=bare, script=bare / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _inputs(wl) -> list:
    if isinstance(wl, Solve):
        files = [(path.name, cls, path.read_bytes()) for path, cls, _ in wl.corpus]
        return [files, wl.order, {m: sorted(p.items()) for m, p in wl.payloads.items()}]
    return [wl.prepare(i) for i in range(60)]


@pytest.mark.parametrize("cls", [Percolation, Sweep, Solve])
def test_a_seed_regenerates_identical_inputs(cls):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    first, again, other = (cls(seed, tiny=True, workdir=WORKDIR) for seed in (7, 7, 8))
    try:
        assert _inputs(first) == _inputs(again)
        assert _inputs(first) != _inputs(other)
    finally:
        for wl in (first, again, other):
            wl.close()


@pytest.fixture
def slow_coded_instance():
    """A coded search that runs for minutes before the caps refuse it."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / "slow-coded.txt"
    save_instance(random_instance(10, 8, 5, 2, 0.3, seed=0), path)
    return path


def test_deadline_stops_the_coded_search(slow_coded_instance):
    wl = Solve(1, tiny=True, workdir=WORKDIR, deadline_s=0.3)
    try:
        widest = wl.payloads[max(wl.payloads)]
        args = (slow_coded_instance, "coded", {j: widest[j] for j in range(10)})
        t0 = perf_counter()
        solved = wl.call(args)
        assert perf_counter() - t0 < 5
        assert solved.coded_status == "timed_out" and solved.coded is None
        outcome = wl.check(args, solved)
        assert not outcome.failed, outcome.detail
    finally:
        wl.close()


def test_deadline_outside_the_coded_search_fails_the_operation():
    wl = Solve(1, tiny=True, workdir=WORKDIR, deadline_s=1e-4)
    try:
        args = wl.prepare(next(i for i in range(len(wl.corpus)) if wl.prepare(i)[1] == "readme"))
        solved = wl.call(args)
        assert solved.error
        assert wl.check(args, solved).failed
        measured = harness.measure(wl, 0)  # one pass over the corpus
        assert sum(o.failed for o in measured.outcomes) >= 1
    finally:
        wl.close()

