"""Metric definitions and how each is computed.

End-to-end metrics come from untraced executions; per-layer metrics
from one traced execution of replica 0.  Host time is what the
simulator takes; sim time is what the modelled cluster would take.
"""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path

from repro.analysis.stats import percentile, speedup

from cases import CaseOutcome, ReplicaRun
from spans import LAYERS, Instrumentation

#: Paper Table I / Fig 6 (§V): speedups over HDFS and the mapper factor.
PAPER = {"ram": 0.46, "dyrs": 0.33, "ignem": -1.11, "mapper_factor": 1.8}

#: Metric names, units and report order come from ``BENCHMARK.json``.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_SWIM_SCALE_WALL = "wall_s -> swim-scale"
_SHARD_LIFECYCLE = "wall_s, failed_frac -> shard-lifecycle"

#: Per-layer metric -> the end-to-end metric it should move, and where.
MOVES = {
    "sim.events": "wall_s, tasks_per_s -> swim-scale (most), all",
    "sim.events_per_task": "wall_s, tasks_per_s -> swim-scale (most), all",
    "sim.self_s": "wall_s -> swim-scale vs paper-swim",
    "sim.ns_per_event": "wall_s -> swim-scale vs paper-swim",
    "sim.processes_started": "wall_s, peak_rss_mb -> swim-scale",
    "sim.timeouts": "wall_s, peak_rss_mb -> swim-scale",
    "sim.pending_peak": "wall_s, peak_rss_mb -> swim-scale",
    "sim.flows_started": "wall_s -> paper-swim",
    "sim.flow_self_s": "wall_s -> paper-swim",
    "dfs.heartbeats": "wall_s -> swim-scale; no change on paper-swim",
    "dfs.heartbeat_self_s": "wall_s -> swim-scale; no change on paper-swim",
    "dfs.reads": "wall_s -> all",
    "dfs.read_self_s": "wall_s -> all",
    "core.retarget_calls": _SWIM_SCALE_WALL,
    "core.retarget_self_s": _SWIM_SCALE_WALL,
    "core.pending_at_retarget_mean": _SWIM_SCALE_WALL,
    "core.pulls": "wall_s -> swim-scale (notify) vs paper-swim (poll)",
    "core.pull_useful_frac": "wall_s -> swim-scale (notify) vs paper-swim (poll)",
    "core.pull_self_s": "wall_s -> swim-scale (notify) vs paper-swim (poll)",
    "core.reclaim_self_s": "wall_s -> shard-lifecycle",
    "core.rpc_retries": "wall_s -> shard-lifecycle",
    "core.migrations_completed": "mem_read_frac, sim_job_mean_s -> paper-swim",
    "core.migrations_dropped": "mem_read_frac, sim_job_mean_s -> paper-swim",
    "core.migrated_gb": "mem_read_frac, sim_job_mean_s -> paper-swim",
    "core.migration_useful_frac": "mem_read_frac, sim_job_mean_s -> paper-swim",
    "core.bind_wait_p50_s": "sim_job_mean_s, sim_job_p90_s -> paper-swim, shard-lifecycle",
    "core.bind_wait_p90_s": "sim_job_mean_s, sim_job_p90_s -> paper-swim, shard-lifecycle",
    "compute.acquires": _SWIM_SCALE_WALL,
    "compute.acquire_self_s": _SWIM_SCALE_WALL,
    "compute.queue_wait_p90_s": "sim_job_mean_s, sim_job_p90_s -> all",
    "compute.read_time_mean_s": "sim_job_mean_s, sim_job_p90_s -> all",
    "cluster.disk_util_mean": "sim_job_mean_s, mem_read_frac -> paper-swim",
    "cluster.mem_peak_gb": "sim_job_mean_s, mem_read_frac -> paper-swim",
    "shard.binds": _SHARD_LIFECYCLE,
    "shard.bind_useful_frac": _SHARD_LIFECYCLE,
    "shard.bind_self_s": _SHARD_LIFECYCLE,
    "shard.faults": _SHARD_LIFECYCLE,
    "tiers.promotions": _SHARD_LIFECYCLE,
    "tiers.demotions": _SHARD_LIFECYCLE,
    "lifecycle.archive_moves": _SHARD_LIFECYCLE,
    "lifecycle.restores": _SHARD_LIFECYCLE,
    "lifecycle.self_s": _SHARD_LIFECYCLE,
    "obs.trace_events": "wall_s, peak_rss_mb -> shard-lifecycle; 0 elsewhere",
    "obs.emit_self_s": "wall_s, peak_rss_mb -> shard-lifecycle; 0 elsewhere",
    "obs.audit_s": "wall_s, peak_rss_mb -> shard-lifecycle; 0 elsewhere",
    "workloads.build_s": "setup_s -> swim-scale (most)",
    "workloads.materialize_s": "setup_s -> swim-scale (most)",
    **{
        f"{layer}.self_s": "wall_s -> where the layer runs"
        for layer in LAYERS
        if layer not in ("sim", "lifecycle")
    },
    "bench.trace_overhead": "none (span cost, not program cost)",
}


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dyrs(outcomes: list[CaseOutcome]) -> list[CaseOutcome]:
    return [o for o in outcomes if o.dyrs_family]


def end_to_end(first_cycle: list[ReplicaRun],
               executions: list[ReplicaRun]) -> dict:
    """Host metrics cover every execution of the run; simulated
    metrics pool every DYRS-family job of the first cycle.

    ``wall_s`` is the host time of all executions together (simulation
    plus audit, after set-up): a fixed amount of work on every commit,
    see ``cases.Batch``.  Co-tenant load on a shared host comes and
    goes in stretches of seconds to tens of seconds, so the total over
    the whole run averages more of it out than a min or a median per
    replica does.  ``setup_s`` sums, over every case of the batch, its
    median set-up time (cases of repeated replicas were set up more
    than once).
    """
    setups: dict[tuple[int, int], list[float]] = {}
    for ex in executions:
        for case, setup in enumerate(ex.case_setup_s):
            setups.setdefault((ex.replica, case), []).append(setup)
    tasks_of = {run.replica: sum(o.tasks for o in run.outcomes)
                for run in first_cycle}
    wall = sum(ex.wall_s for ex in executions)
    tasks = sum(tasks_of[ex.replica] for ex in executions)
    outcomes = [o for run in first_cycle for o in run.outcomes]
    jobs = [j for o in _dyrs(outcomes) for j in o.jobs.values()]
    durations = [j.duration for j in jobs if j.duration is not None]
    read = sum(j.read_bytes for j in jobs)
    return {
        "wall_s": wall,
        "tasks_per_s": tasks / wall,
        "setup_s": sum(statistics.median(v) for v in setups.values()),
        "peak_rss_mb": peak_rss_mb(),
        "sim_job_mean_s": statistics.fmean(durations),
        "sim_job_p90_s": percentile(durations, 90),
        "mem_read_frac": sum(j.memory_bytes for j in jobs) / read if read else 0.0,
    }


# -- accuracy against the paper (paper-swim only) ------------------------------


def accuracy(first_cycle: list[ReplicaRun]) -> dict[str, float]:
    """Median over the five-scheme replicas of the Table I speedups and
    the Fig 6 mapper factor."""
    rows = []
    for run in first_cycle:
        by_scheme = {o.scheme: o for o in run.outcomes}
        if "hdfs" not in by_scheme:
            continue

        def mean_duration(scheme: str) -> float:
            return statistics.fmean(
                j.duration for j in by_scheme[scheme].jobs.values()
            )

        def mean_map(scheme: str) -> float:
            return statistics.fmean(
                d for j in by_scheme[scheme].jobs.values() for d in j.map_durations
            )

        hdfs = mean_duration("hdfs")
        row = {s: speedup(hdfs, mean_duration(s)) for s in ("ram", "dyrs", "ignem")}
        row["mapper_factor"] = mean_map("hdfs") / mean_map("dyrs")
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in PAPER}
    out["paper_err_pp"] = abs(out["dyrs"] - PAPER["dyrs"]) * 100
    return out


# -- per-layer metrics from one traced execution --------------------------------


def _self_of(totals: dict, predicate) -> float:
    return sum(row["self_s"] for name, row in totals.items() if predicate(name))


def _total_of(totals: dict, predicate) -> float:
    return sum(row["total_s"] for name, row in totals.items() if predicate(name))


def _pctl(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def per_layer(traced: ReplicaRun, inst: Instrumentation,
              untraced_wall_s: float) -> dict[str, float]:
    outcomes = traced.outcomes
    dyrs = _dyrs(outcomes)
    totals = inst.log.totals()
    layer_self = inst.log.layer_self_s()
    counts = inst.counters.values
    events = sum(o.events for o in outcomes)
    tasks = sum(o.tasks for o in outcomes)

    def layer_sum(key: str, cases=outcomes) -> float:
        return sum(o.layer.get(key, 0.0) for o in cases)

    pending = inst.counters.samples.get("core.pending_at_retarget", [])
    pulls = counts.get("core.pulls", 0)
    binds = counts.get("shard.binds", 0)
    completed = layer_sum("core.migrations_completed", dyrs)
    bind_waits = [w for o in dyrs for w in o.bind_waits]
    queue_waits = [w for o in dyrs for w in o.queue_waits]
    read_times = [w for o in dyrs for w in o.read_times]

    return {
        "sim.events": events,
        "sim.events_per_task": events / tasks,
        "sim.self_s": layer_self.get("sim", 0.0),
        "sim.ns_per_event": layer_self.get("sim", 0.0) / events * 1e9,
        "sim.processes_started": counts.get("sim.processes_started", 0),
        "sim.timeouts": counts.get("sim.timeouts", 0),
        "sim.pending_peak": inst.counters.peaks.get("sim.pending_peak", 0),
        "sim.flows_started": counts.get("sim.flows_started", 0),
        "sim.flow_self_s": _self_of(totals, lambda n: n.startswith("flow.")),
        "dfs.heartbeats": counts.get("dfs.heartbeats", 0),
        "dfs.heartbeat_self_s": _self_of(
            totals,
            lambda n: n == "NameNode.receive_heartbeat"
            or n.startswith("dfs:HeartbeatService."),
        ),
        "dfs.reads": counts.get("dfs.reads", 0),
        "dfs.read_self_s": _self_of(
            totals,
            lambda n: n in ("NameNode.resolve_read", "DFSClient.read_block",
                            "DataNode.read")
            or n.startswith(("dfs:DataNode.", "dfs:DFSClient.")),
        ),
        "core.retarget_calls": counts.get("core.retarget_calls", 0),
        "core.retarget_self_s": _self_of(
            totals,
            lambda n: n.endswith(".retarget") or n == "compute_targets"
            or (n.startswith("core:") and "retarget" in n),
        ),
        "core.pending_at_retarget_mean": statistics.fmean(pending) if pending else 0.0,
        "core.pulls": pulls,
        "core.pull_useful_frac": counts.get("core.pulls.useful", 0) / pulls
        if pulls else 0.0,
        "core.pull_self_s": _self_of(
            totals,
            lambda n: n.endswith(".request_work") or n == "bind_from_pool"
            or n.startswith("core:DyrsSlave._pull"),
        ),
        "core.reclaim_self_s": _self_of(
            totals, lambda n: n == "DyrsMaster.reclaim_unavailable"
        ),
        "core.rpc_retries": layer_sum("core.rpc_retries"),
        "core.migrations_completed": completed,
        "core.migrations_dropped": layer_sum("core.migrations_dropped", dyrs),
        "core.migrated_gb": layer_sum("core.migrated_gb", dyrs),
        "core.migration_useful_frac": layer_sum("core.migrations_useful", dyrs)
        / completed if completed else 0.0,
        "core.bind_wait_p50_s": _pctl(bind_waits, 50),
        "core.bind_wait_p90_s": _pctl(bind_waits, 90),
        "compute.acquires": counts.get("compute.acquires", 0),
        "compute.acquire_self_s": _self_of(
            totals, lambda n: n == "TaskScheduler.acquire"
        ),
        "compute.queue_wait_p90_s": _pctl(queue_waits, 90),
        "compute.read_time_mean_s": statistics.fmean(read_times) if read_times else 0.0,
        "cluster.disk_util_mean": layer_sum("cluster.disk_util_mean", dyrs) / len(dyrs),
        "cluster.mem_peak_gb": max(o.layer["cluster.mem_peak_gb"] for o in dyrs),
        "shard.binds": binds,
        "shard.bind_useful_frac": counts.get("shard.binds.useful", 0) / binds
        if binds else 0.0,
        "shard.bind_self_s": _self_of(
            totals,
            lambda n: n in ("ShardCoordinator.bind_from_shard",
                            "ShardCoordinator.pull_plan", "MasterShard.take"),
        ),
        "shard.faults": layer_sum("shard.faults"),
        "tiers.promotions": layer_sum("tiers.promotions"),
        "tiers.demotions": layer_sum("tiers.demotions"),
        "lifecycle.archive_moves": layer_sum("lifecycle.archive_moves"),
        "lifecycle.restores": layer_sum("lifecycle.restores"),
        "lifecycle.self_s": layer_self.get("lifecycle", 0.0),
        "obs.trace_events": layer_sum("obs.trace_events"),
        "obs.emit_self_s": _self_of(totals, lambda n: n == "obs.emit"),
        "obs.audit_s": _total_of(totals, lambda n: n.startswith("audit.")),
        "workloads.build_s": _total_of(totals, lambda n: n == "workloads.generate"),
        "workloads.materialize_s": _total_of(
            totals, lambda n: n == "workloads.materialize"
        ),
        **{f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS},
        "bench.trace_overhead": traced.wall_s / untraced_wall_s,
    }
