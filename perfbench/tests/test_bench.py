"""The benchmark's own tests, at the reduced ``small`` input size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cases import SIZES, WORKLOADS, Batch, digest, run_replica
from metrics import END_TO_END, MOVES
from run import problems
from spans import LAYERS, Instrumentation

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = SIZES["small"]


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_every_listed_workload_and_layer_metric_is_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(MOVES)


def test_repeat_rounds_depend_on_seconds_alone():
    batch = Batch(replicas=4, repeated=2, round_s=7.5)
    assert [batch.rounds(s) for s in (0, 7, 15, 22.4, 30)] == [1, 1, 2, 2, 4]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        for name, unit in END_TO_END.items():
            line = rf"^{re.escape(name)} = \S+ {re.escape(unit)}$"
            assert re.search(line, proc.stdout, re.M), (name, unit)


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-swim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def traced_runs():
    """One traced small execution per workload."""
    runs = {}
    for workload in WORKLOADS:
        with Instrumentation(f"test-{workload}") as inst:
            run = run_replica(workload, 5, 0, SMALL, span=inst.span)
        runs[workload] = (run, inst)
    return runs


def test_self_times_lie_within_their_spans(traced_runs):
    for run, inst in traced_runs.values():
        log = inst.log
        assert len(log) > 0
        durations = log.durations_ns()
        for self_ns, duration in zip(log.self_ns(), durations):
            assert 0 <= self_ns <= duration


def test_spans_cover_every_layer(traced_runs):
    seen = set()
    for _run, inst in traced_runs.values():
        seen.update(inst.log.layers[nid] for nid in set(inst.log.name))
    assert set(LAYERS) <= seen


def test_tracing_reproduces_the_untraced_digest(traced_runs):
    from repro.dfs.namenode import NameNode
    from repro.sim.engine import Simulator

    # Leaving the traced pass restores the original methods.
    assert Simulator.step.__qualname__ == "Simulator.step"
    assert NameNode.receive_heartbeat.__qualname__ == "NameNode.receive_heartbeat"
    for workload, (run, _inst) in traced_runs.items():
        plain = run_replica(workload, 5, 0, SMALL)
        assert problems([plain], run) == []


@pytest.fixture(scope="module")
def clean_run():
    return run_replica("chaos-soak", 7, 0, SMALL)


def test_clean_run_passes(clean_run):
    assert problems([clean_run]) == []


def test_dropped_job_fails_the_check(clean_run):
    doctored = copy.deepcopy(clean_run)
    jobs = doctored.outcomes[0].jobs
    del jobs[next(iter(jobs))]
    assert any("jobs failed" in p for p in problems([doctored]))


def test_unfinished_job_fails_the_check(clean_run):
    doctored = copy.deepcopy(clean_run)
    job = next(iter(doctored.outcomes[1].jobs.values()))
    job.duration = None
    assert any("1 of" in p for p in problems([doctored]))


def test_injected_violation_fails_the_check(clean_run):
    doctored = copy.deepcopy(clean_run)
    doctored.outcomes[0].violations.append("injected: record bound twice")
    found = problems([doctored])
    assert any("injected" in p for p in found)
    assert doctored.outcomes[0].failed_jobs() == doctored.outcomes[0].submitted


def test_diverging_executions_fail_the_check(clean_run):
    doctored = copy.deepcopy(clean_run)
    doctored.outcomes[0].end_time += 1.0
    doctored.digest = digest(doctored.outcomes)
    assert any("disagree" in p for p in problems([clean_run, doctored]))
    assert any("traced" in p for p in problems([clean_run], doctored))
