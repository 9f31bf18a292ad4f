"""The benchmark's workloads and the simulated cases they run.

A *replica* is one complete simulated experiment on its own generated
inputs: for ``paper-swim`` one 200-job SWIM mix (all five Table I
schemes on the first replicas, DYRS alone on the rest), for
``swim-scale`` one 400-node SWIM run, for ``shard-lifecycle`` one
sharded and one lifecycle run under fixed faults, for ``chaos-soak``
the same two systems under chaos campaigns.  Each workload runs a
fixed number of replicas, whose system seeds derive from the
benchmark seed, as one batch.  The simulated metrics pool the jobs of every replica: on the
7-node testbed a single heavy-tailed 200-job SWIM draw moves mean job
duration by ~30 % and p90 by ~50 % from seed to seed, so one draw
cannot show a regression of a few percent.

Every workload is an open loop in simulated time: jobs are submitted
at their generated submit times whatever the completions.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.core.failures import ChaosCampaign, FailureInjector, quiesce_violations
from repro.core.records import MigrationStatus
from repro.experiments.chaos import CHAOS_DYRS_OVERRIDES, CHAOS_TIER_OVERRIDES
from repro.experiments.common import PaperSetup, build_system
from repro.obs import trace as obs
from repro.obs.invariants import TraceInvariants
from repro.units import GB, MB
from repro.workloads.aging import generate_aging_workload, materialize_aging_jobs
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

#: Schemes whose master is DYRS (the simulated end-to-end metrics
#: describe these; the baselines feed only the accuracy report).
DYRS_FAMILY = ("dyrs", "dyrs-sharded-async", "dyrs-lifecycle")


@dataclass
class JobOutcome:
    duration: Optional[float]
    input_bytes: float
    read_bytes: float
    memory_bytes: float
    map_durations: list[float]

    @property
    def failed(self) -> bool:
        return self.duration is None or self.read_bytes < self.input_bytes


@dataclass
class CaseOutcome:
    """What one simulated case produced; the digest covers the
    simulated fields only, never host timings."""

    name: str
    scheme: str
    end_time: float
    events: int
    tasks: int
    submitted: int
    jobs: dict[str, JobOutcome]
    record_status: dict[str, int]
    violations: list[str] = field(default_factory=list)
    #: Deterministic layer statistics read off the finished system.
    layer: dict[str, float] = field(default_factory=dict)
    bind_waits: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    read_times: list[float] = field(default_factory=list)

    @property
    def dyrs_family(self) -> bool:
        return self.scheme in DYRS_FAMILY

    def failed_jobs(self) -> int:
        """Submitted jobs that did not complete with all their input
        read; with any audit violation, every job of the case."""
        if self.violations:
            return self.submitted
        return self.submitted - sum(1 for j in self.jobs.values() if not j.failed)

    def digest_fields(self) -> dict:
        return {
            "case": self.name,
            "scheme": self.scheme,
            "end_time": repr(self.end_time),
            "events": self.events,
            "jobs": sorted(
                (job_id, repr(j.duration)) for job_id, j in self.jobs.items()
            ),
            "record_status": sorted(self.record_status.items()),
        }


def digest(outcomes: list[CaseOutcome]) -> str:
    """sha256 over the simulated outcome of a replica's cases."""
    blob = json.dumps([o.digest_fields() for o in outcomes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def replica_seed(seed: int, replica: int) -> int:
    """The system seed of ``replica`` under benchmark seed ``seed``."""
    state = np.random.SeedSequence([seed, replica]).generate_state(1)
    return int(state[0] % (2**31))


# -- one simulated case ---------------------------------------------------


class Case:
    """Set-up, simulation and audit of one scheme x input pair."""

    def __init__(self, name: str, scheme: str, setup: Callable, drain=None,
                 audited: bool = False) -> None:
        self.name = name
        self.scheme = scheme
        self._setup = setup
        self._drain = drain
        self.audited = audited
        self.system = None
        self.jobs = None
        self.injector = None
        self._tracer = None
        self._previous_tracer = None

    def setup(self) -> None:
        """Build the system and materialise the generated inputs."""
        if self.audited:
            self._tracer = obs.Tracer()
            self._previous_tracer = obs.set_tracer(self._tracer)
        self.system, self.jobs, self.injector = self._setup()

    def run(self) -> None:
        self.system.runtime.run_to_completion(self.jobs)
        if self._drain is not None:
            self._drain(self.system)

    def audit(self) -> list[str]:
        """Trace invariants, liveness and quiesce (audited cases only)."""
        if not self.audited:
            return []
        try:
            system, master = self.system, self.system.master
            checker = TraceInvariants(self._tracer.events)
            found = list(checker.violations())
            found.extend(checker.shard_violations())
            found.extend(
                checker.liveness_violations(
                    final_memory_bytes=system.cluster.total_memory_used()
                )
            )
            found.extend(quiesce_violations(master))
            return found
        finally:
            obs.set_tracer(self._previous_tracer)

    def outcome(self, violations: list[str]) -> CaseOutcome:
        system = self.system
        jobs: dict[str, JobOutcome] = {}
        queue_waits: list[float] = []
        read_times: list[float] = []
        tasks = 0
        for spec in self.jobs:
            jm = system.metrics.jobs.get(spec.job_id)
            input_bytes = sum(
                t.block.size for st in spec.stages for t in st.tasks
                if t.block is not None
            )
            tasks += spec.total_map_tasks
            read = memory = 0.0
            maps: list[float] = []
            duration = None
            if jm is not None:
                duration = jm.duration
                for t in jm.tasks:
                    if t.read_source is not None:
                        read += t.input_bytes
                        if t.read_source.is_memory:
                            memory += t.input_bytes
                    if t.queueing_delay is not None:
                        queue_waits.append(t.queueing_delay)
                    if t.read_time is not None:
                        read_times.append(t.read_time)
                maps = jm.map_durations()
            jobs[spec.job_id] = JobOutcome(duration, input_bytes, read, memory, maps)

        master = system.master
        status: Counter = Counter()
        bind_waits: list[float] = []
        layer: dict[str, float] = {}
        if master is not None:
            for log_name in ("record_log", "tier_record_log", "lifecycle_record_log"):
                for r in getattr(master, log_name, ()):
                    status[f"{log_name}:{r.status.value}"] += 1
            for r in master.record_log:
                if r.binding_delay is not None:
                    bind_waits.append(r.binding_delay)
            layer.update(_migration_stats(system, master))
        nodes = system.cluster.nodes
        layer["cluster.disk_util_mean"] = sum(
            n.disk.utilization() for n in nodes
        ) / len(nodes)
        layer["cluster.mem_peak_gb"] = max(n.memory.peak for n in nodes) / GB
        layer["tiers.promotions"] = system.metrics.promotion_count()
        layer["tiers.demotions"] = system.metrics.demotion_count()
        layer["lifecycle.archive_moves"] = getattr(master, "archived_blocks", 0)
        layer["lifecycle.restores"] = getattr(master, "restored_blocks", 0)
        if self._tracer is not None:
            events = self._tracer.events
            layer["obs.trace_events"] = len(events)
            layer["core.rpc_retries"] = sum(
                1 for e in events if e.type == obs.RPC_RETRY
            )
        if self.injector is not None:
            layer["shard.faults"] = sum(
                1 for _when, action, subject in self.injector.log
                if action in ("shard-crash", "rpc-delay")
                and subject.startswith("shard")
            )
        return CaseOutcome(
            name=self.name,
            scheme=self.scheme,
            end_time=system.sim.now,
            events=system.sim.steps,
            tasks=tasks,
            submitted=len(self.jobs),
            jobs=jobs,
            record_status=dict(status),
            violations=violations,
            layer=layer,
            bind_waits=bind_waits,
            queue_waits=queue_waits,
            read_times=read_times,
        )

    def release(self) -> None:
        self.system = self.jobs = self.injector = self._tracer = None


def _migration_stats(system, master) -> dict[str, float]:
    """Migration ledger counts and how much of it reads used."""
    done = [
        r for r in master.record_log
        if r.status in (MigrationStatus.DONE, MigrationStatus.EVICTED)
        and r.completed_at is not None
    ]
    dropped = sum(
        1 for r in master.record_log if r.status is MigrationStatus.DISCARDED
        and r.started_at is None
    )
    memory_reads: set = set()
    for datanode in system.namenode.datanodes.values():
        for rec in datanode.read_log:
            if rec.source.is_memory:
                memory_reads.add(rec.block_id)
    useful = sum(1 for r in done if r.block_id in memory_reads)
    return {
        "core.migrations_completed": len(done),
        "core.migrations_dropped": dropped,
        "core.migrated_gb": sum(r.block.size for r in done) / GB,
        "core.migrations_useful": useful,
    }


# -- drains -----------------------------------------------------------------


def drain_chaos(horizon: float, grace: float = 30.0, bound: float = 3600.0):
    """Let scheduled recoveries fire, then drain the lifecycle mover
    until every lifecycle record is terminal, for at most ``bound``
    simulated seconds (the protocol of
    ``repro.experiments.chaos.run_case``, whose 300 s bound leaves
    moves queued behind a fabric fault non-terminal at 32 workers)."""

    def drain(system) -> None:
        system.sim.run(until=max(system.sim.now, horizon) + grace)
        master = system.master
        moves = getattr(master, "_lifecycle_moves", {})
        deadline = system.sim.now + bound
        while system.sim.now < deadline and any(
            not r.status.is_terminal for r in moves.values()
        ):
            system.sim.run(until=system.sim.now + grace / 3)

    return drain


# -- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """How one workload's run is made up: every replica once, then a
    fixed number of rounds of the leading ``repeated`` replicas."""

    #: Replicas whose simulated outcome the run reports.
    replicas: int
    #: The leading replicas each round runs again (their digests must
    #: repeat); on paper-swim, the ones that run all five schemes.
    repeated: int
    #: Nominal host seconds of one round (measured on a 2-vCPU Xeon
    #: container); ``--seconds`` buys as many whole rounds as fit in
    #: it, at least one.  The count depends on ``--seconds`` only,
    #: never on how fast the program runs, so a parent and a change
    #: time the same work.
    round_s: float

    def rounds(self, seconds: float) -> int:
        return max(1, int(seconds // self.round_s))


@dataclass(frozen=True)
class Size:
    """Batches and per-replica input sizes (``full`` is the benchmark;
    ``small`` is for the benchmark's own tests)."""

    batches: dict
    swim_jobs: int
    scale_workers: int
    scale_jobs: int
    scale_input_gb: float
    chaos_workers: int
    chaos_jobs: int
    chaos_input_gb: float
    chaos_faults: int
    chaos_horizon: float
    aging_workers: int
    aging_datasets: int


SIZES = {
    "full": Size(
        batches={
            "paper-swim": Batch(replicas=30, repeated=5, round_s=7.5),
            "swim-scale": Batch(replicas=7, repeated=2, round_s=6.5),
            "shard-lifecycle": Batch(replicas=6, repeated=1, round_s=5.5),
            "chaos-soak": Batch(replicas=5, repeated=2, round_s=7.0),
        },
        swim_jobs=200,
        scale_workers=400, scale_jobs=150, scale_input_gb=1600,
        chaos_workers=64, chaos_jobs=150, chaos_input_gb=400,
        chaos_faults=12, chaos_horizon=600.0, aging_workers=32, aging_datasets=24,
    ),
    "small": Size(
        batches={
            name: Batch(replicas=2 if name != "paper-swim" else 3, repeated=2,
                        round_s=1.0)
            for name in ("paper-swim", "swim-scale", "shard-lifecycle",
                         "chaos-soak")
        },
        swim_jobs=30,
        scale_workers=40, scale_jobs=30, scale_input_gb=40,
        chaos_workers=16, chaos_jobs=30, chaos_input_gb=20,
        chaos_faults=6, chaos_horizon=150.0, aging_workers=12, aging_datasets=4,
    ),
}

PAPER_SCHEMES = ("hdfs", "ram", "ignem", "dyrs", "instant")


def _swim_setup(setup: PaperSetup, stream: str, n_jobs: int, total: float,
                max_input: float = 24 * GB):
    def make():
        system = build_system(setup)
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream(stream),
            n_jobs=n_jobs,
            total_input=total,
            max_input=max_input,
        )
        return system, materialize_swim_jobs(system, descriptors), None

    return make


def paper_swim(seed: int, replica: int, size: Size) -> list[Case]:
    """§V Table I: 7 workers, one slow node, 200-job SWIM; all five
    schemes on the repeated replicas, DYRS alone on the rest."""
    s = replica_seed(seed, replica)
    total = 170 * GB * size.swim_jobs / 200
    all_schemes = replica < size.batches["paper-swim"].repeated
    schemes = PAPER_SCHEMES if all_schemes else ("dyrs",)
    return [
        Case(
            f"paper-swim/{scheme}",
            scheme,
            _swim_setup(
                PaperSetup(scheme=scheme, seed=s, interference="persistent-1"),
                "swim", size.swim_jobs, total, max_input=min(24 * GB, total / 4),
            ),
        )
        for scheme in schemes
    ]


def swim_scale(seed: int, replica: int, size: Size) -> list[Case]:
    """SWIM at 400 workers, notify-mode idle pulls, no interference."""
    s = replica_seed(seed, replica)
    total = size.scale_input_gb * GB
    setup = PaperSetup(
        scheme="dyrs", seed=s, interference="none",
        n_workers=size.scale_workers, block_size=256 * MB,
        dyrs_overrides={"idle_pull": "notify"},
    )
    return [
        Case(
            "swim-scale/dyrs", "dyrs",
            _swim_setup(setup, "scale.swim", size.scale_jobs, total,
                        max_input=min(24 * GB, total / 4)),
        )
    ]


def _faulted_setup(setup: PaperSetup, inputs: Callable, arm: Callable):
    """Build the system, attach a failure injector, let ``arm`` plan
    its faults, then materialise the inputs."""

    def make():
        system = build_system(setup)
        injector = FailureInjector(system.cluster, master=system.master)
        arm(injector)
        return system, inputs(system), injector

    return make


def _campaign(seed: int, horizon: float, n_faults: int) -> Callable:
    """A seeded ``ChaosCampaign`` over every fault kind."""

    def arm(injector) -> None:
        ChaosCampaign(
            injector, seed=seed, horizon=horizon, n_faults=n_faults,
            kinds=list(ChaosCampaign.ALL_KINDS),
        ).arm()

    return arm


def _fixed_faults(seed: int, horizon: float, workers: int) -> Callable:
    """A fixed fault plan without master or shard crashes: a +3 s RPC
    spike on shard 2, one slave crash with restart and one control-plane
    partition, on nodes drawn from ``seed``."""

    def arm(injector) -> None:
        crashed, partitioned = np.random.default_rng(seed).choice(
            workers, size=2, replace=False
        )
        injector.delay_rpc_at(0.2 * horizon, 0, extra=3.0,
                              clear_after=0.1 * horizon, shard_id=2)
        injector.crash_slave_at(0.35 * horizon, int(crashed), restart_after=30.0)
        injector.partition_slave_at(0.5 * horizon, int(partitioned),
                                    heal_after=20.0)

    return arm


def _rpc_spike(seed: int, horizon: float, workers: int) -> Callable:
    """A +1.5 s pull-RPC spike on one node, past the 1 s RPC timeout
    of the chaos overrides, so its pulls time out and retry."""

    def arm(injector) -> None:
        node = int(np.random.default_rng(seed).integers(workers))
        injector.delay_rpc_at(0.3 * horizon, node, extra=1.5, clear_after=20.0)

    return arm


def _sharded_swim(seed: int, size: Size):
    """The 4-shard async-pull system and its SWIM inputs."""
    total = size.chaos_input_gb * GB
    setup = PaperSetup(
        scheme="dyrs-sharded-async", seed=seed, interference="none",
        n_workers=size.chaos_workers, shards=4,
        dyrs_overrides=dict(CHAOS_DYRS_OVERRIDES),
    )

    def inputs(system):
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("chaos.swim"),
            n_jobs=size.chaos_jobs,
            total_input=total,
            max_input=min(24 * GB, total / 4),
            mean_interarrival=size.chaos_horizon / size.chaos_jobs,
        )
        return materialize_swim_jobs(system, descriptors)

    return setup, inputs


def _lifecycle_aging(seed: int, size: Size, cold_gap: float):
    """The lifecycle system (compressed tier timescales) and its aging
    inputs; a ``cold_gap`` past ``archive_age`` re-heats archived data."""
    setup = PaperSetup(
        scheme="dyrs-lifecycle", seed=seed, interference="none",
        n_workers=size.aging_workers,
        dyrs_overrides=dict(CHAOS_DYRS_OVERRIDES),
        tier_overrides=dict(CHAOS_TIER_OVERRIDES),
    )

    def inputs(system):
        descriptors = generate_aging_workload(
            system.cluster.rngs.stream("chaos.aging"),
            n_datasets=size.aging_datasets,
            dataset_size=768 * MB,
            hot_reads=2,
            hot_window=15.0,
            cold_gap=cold_gap,
            reheat_fraction=0.5,
            start_spread=60.0,
        )
        return materialize_aging_jobs(system, descriptors)

    return setup, inputs


#: Simulated seconds over which the lifecycle case's faults are planned.
AGING_HORIZON = 120.0


def chaos_soak(seed: int, replica: int, size: Size) -> list[Case]:
    """(a) sharded-async SWIM and (b) lifecycle aging, under campaigns."""
    s = replica_seed(seed, replica)
    sharded, swim_inputs = _sharded_swim(s, size)
    lifecycle, aging_inputs = _lifecycle_aging(s, size, cold_gap=50.0)
    return [
        Case(
            "chaos-soak/sharded-async", "dyrs-sharded-async",
            _faulted_setup(sharded, swim_inputs,
                           _campaign(s, size.chaos_horizon, size.chaos_faults)),
            drain=drain_chaos(size.chaos_horizon), audited=True,
        ),
        Case(
            "chaos-soak/lifecycle", "dyrs-lifecycle",
            _faulted_setup(lifecycle, aging_inputs,
                           _campaign(s, AGING_HORIZON, 6)),
            drain=drain_chaos(AGING_HORIZON), audited=True,
        ),
    ]


def shard_lifecycle(seed: int, replica: int, size: Size) -> list[Case]:
    """chaos-soak's two systems without a campaign: (a) sharded-async
    SWIM under a fixed fault plan, (b) lifecycle aging under one RPC
    spike, whose cold gap outlasts ``archive_age`` so archived data is
    restored."""
    s = replica_seed(seed, replica)
    sharded, swim_inputs = _sharded_swim(s, size)
    lifecycle, aging_inputs = _lifecycle_aging(s, size, cold_gap=90.0)
    return [
        Case(
            "shard-lifecycle/sharded-async", "dyrs-sharded-async",
            _faulted_setup(sharded, swim_inputs,
                           _fixed_faults(s, size.chaos_horizon,
                                         size.chaos_workers)),
            drain=drain_chaos(size.chaos_horizon), audited=True,
        ),
        Case(
            "shard-lifecycle/lifecycle", "dyrs-lifecycle",
            _faulted_setup(lifecycle, aging_inputs,
                           _rpc_spike(s, AGING_HORIZON, size.aging_workers)),
            drain=drain_chaos(AGING_HORIZON), audited=True,
        ),
    ]


WORKLOADS: dict[str, Callable[[int, int, Size], list[Case]]] = {
    "paper-swim": paper_swim,
    "swim-scale": swim_scale,
    "chaos-soak": chaos_soak,
    "shard-lifecycle": shard_lifecycle,
}


# -- executing one replica ----------------------------------------------------


@dataclass
class ReplicaRun:
    """One execution of one replica: outcomes plus host timings."""

    replica: int
    outcomes: list[CaseOutcome]
    digest: str
    #: Per case, in case order.
    case_setup_s: list[float]
    #: Simulation plus audit, after set-up.
    wall_s: float


def run_replica(workload: str, seed: int, replica: int, size: Size,
                span=None) -> ReplicaRun:
    """Set up, simulate and audit every case of one replica.

    ``span(name)`` returns a context manager around each phase (the
    traced execution passes one that records a ``bench`` span).
    """
    span = span or (lambda name: nullcontext())
    cases = WORKLOADS[workload](seed, replica, size)
    setups: list[float] = []
    wall_s = 0.0
    outcomes: list[CaseOutcome] = []
    for case in cases:
        t0 = perf_counter()
        with span("bench.setup"):
            case.setup()
        t1 = perf_counter()
        with span("bench.run"):
            case.run()
        with span("bench.audit"):
            violations = case.audit()
        t2 = perf_counter()
        setups.append(t1 - t0)
        wall_s += t2 - t1
        outcomes.append(case.outcome(violations))
        case.release()
    return ReplicaRun(replica, outcomes, digest(outcomes), setups, wall_s)
