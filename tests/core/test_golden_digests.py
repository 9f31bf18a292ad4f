"""Golden digests: byte-identity pins for five seeded end-to-end runs.

Each case runs one scheme on a small seeded workload and hashes what
the run simulated: every migration record (status and timestamps), the
master's binding log, the tier/lifecycle move ledgers and per-edge move
counts where the scheme has them, and the final simulated time.  A
refactor that keeps behaviour keeps every digest; one that moves a
single event or float changes it.

The number of engine steps is pinned separately (``GOLDEN_STEPS``), so
a change that runs the same simulation on fewer events -- a cheaper
scheduling of the same callbacks -- moves only its step pin, while a
behaviour change moves the digest.

The cases cover the device traffic every storage rung carries: disk
reads under interference, memory pins under chaos, SSD promotions and
demotions, archive moves over the shared fabric link under
tier-move/fabric faults, and the sharded async pull protocol.

To regenerate after a change that is *meant* to alter the simulation
(or its event count), print the current digests and step counts and
paste them into ``GOLDEN``/``GOLDEN_STEPS``::

    PYTHONPATH=src python -m tests.core.test_golden_digests
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.core.failures import ChaosCampaign, FailureInjector
from repro.experiments.chaos import (
    CHAOS_DYRS_OVERRIDES,
    CHAOS_TIER_OVERRIDES,
    _submit_workload,
)
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.sort import sort_job

#: Simulated horizon the chaos campaigns sample their faults from.
HORIZON = 120.0


def _record_row(r) -> list:
    return [
        r.block_id,
        r.status.name,
        r.source_tier,
        r.dest_tier,
        r.target_node,
        r.bound_node,
        repr(r.requested_at),
        repr(r.bound_at),
        repr(r.started_at),
        repr(r.completed_at),
        repr(r.discarded_at),
        r.discard_reason,
    ]


def _digest(system) -> tuple[str, int]:
    """The run's outcome hash and its engine step count."""
    master = system.master
    blob = {
        "records": [_record_row(r) for r in master.record_log],
        "bindings": [
            [repr(b.time), b.block_id, b.node_id, b.queue_depth_after]
            for b in master.binding_log
        ],
        "tier_records": [
            _record_row(r) for r in getattr(master, "tier_record_log", ())
        ],
        "lifecycle_records": [
            _record_row(r) for r in getattr(master, "lifecycle_record_log", ())
        ],
        "tier_moves": sorted(
            [*edge, n] for edge, n in getattr(master, "tier_moves", {}).items()
        ),
        "end": repr(system.sim.now),
    }
    digest = hashlib.sha256(json.dumps(blob).encode()).hexdigest()
    return digest, system.sim.steps


def _chaos_run(scheme, workload, seed, kinds=None, shards=1) -> tuple[str, int]:
    """One chaos campaign run to quiesce, as the chaos soak runs it."""
    system = build_system(
        PaperSetup(
            scheme=scheme,
            seed=seed,
            interference="none",
            dyrs_overrides=dict(CHAOS_DYRS_OVERRIDES),
            tier_overrides=(
                dict(CHAOS_TIER_OVERRIDES) if scheme == "dyrs-lifecycle" else {}
            ),
            shards=shards,
        )
    )
    injector = FailureInjector(system.cluster, master=system.master)
    ChaosCampaign(
        injector, seed=seed, horizon=HORIZON, n_faults=6, kinds=kinds
    ).arm()
    system.runtime.run_to_completion(_submit_workload(system, workload, seed))
    system.sim.run(until=max(system.sim.now, HORIZON) + 30.0)
    return _digest(system)


def sort_alt() -> tuple[str, int]:
    system = build_system(
        PaperSetup(scheme="dyrs", seed=11, interference="alt-10s-1")
    )
    job = sort_job(system, size=4 * GB, job_id="s", extra_lead_time=20.0)
    system.runtime.run_to_completion([job])
    return _digest(system)


def swim_chaos() -> tuple[str, int]:
    return _chaos_run("dyrs", "swim", seed=3)


def tiered_swim() -> tuple[str, int]:
    system = build_system(PaperSetup(scheme="dyrs-tiered", seed=5))
    system.runtime.run_to_completion(_submit_workload(system, "swim", 5))
    system.sim.run(until=system.sim.now + 300.0)
    return _digest(system)


def lifecycle_aging() -> tuple[str, int]:
    return _chaos_run(
        "dyrs-lifecycle", "aging", seed=7, kinds=ChaosCampaign.ARCHIVE_KINDS
    )


def sharded_async_chaos() -> tuple[str, int]:
    return _chaos_run("dyrs-sharded-async", "swim", seed=2, shards=4)


CASES = {
    "dyrs-sort-alt-10s-1": sort_alt,
    "dyrs-swim-chaos": swim_chaos,
    "dyrs-tiered-swim": tiered_swim,
    "dyrs-lifecycle-aging-archive-faults": lifecycle_aging,
    "dyrs-sharded-async-4-chaos": sharded_async_chaos,
}

#: Outcome digests, generated at the commit before pull RPCs became
#: scheduled callback chains (and unchanged by it).
GOLDEN = {
    "dyrs-sort-alt-10s-1": (
        "a2d4bfce102228300b4a849b572cd97d47eb9ff78c0695615f599bbb7e1f14a0"
    ),
    "dyrs-swim-chaos": (
        "310d982ff6fc006f9e3b5dd963e724e4a4d7304ac661e2ff607c9054d2cb9277"
    ),
    "dyrs-tiered-swim": (
        "195d8d6e9619097451581b5f9f9500a6c3f589cc8ce06ea821e6cc9c4fd44926"
    ),
    "dyrs-lifecycle-aging-archive-faults": (
        "cd2993b4e8a8324661d599b60f25f2c57c92553caeb96ece3bf9a36f6a214ade"
    ),
    "dyrs-sharded-async-4-chaos": (
        "59531cddca7dd479ff44adb474e690a2e4488f8f11bcb49647014aab09be65d2"
    ),
}

#: Engine steps per case: the event budget of the same simulation.
GOLDEN_STEPS = {
    "dyrs-sort-alt-10s-1": 1722,
    "dyrs-swim-chaos": 3525,
    "dyrs-tiered-swim": 7909,
    "dyrs-lifecycle-aging-archive-faults": 3755,
    "dyrs-sharded-async-4-chaos": 5548,
}


@functools.cache
def _run(name) -> tuple[str, int]:
    """Each case runs once, shared by its digest and its step pin."""
    return CASES[name]()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert _run(name)[0] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_steps(name):
    assert _run(name)[1] == GOLDEN_STEPS[name]


if __name__ == "__main__":
    results = {case: run() for case, run in CASES.items()}
    print("GOLDEN = {")
    for case, (digest, _steps) in results.items():
        print(f'    "{case}": "{digest}",')
    print("}\nGOLDEN_STEPS = {")
    for case, (_digest, steps) in results.items():
        print(f'    "{case}": {steps},')
    print("}")
