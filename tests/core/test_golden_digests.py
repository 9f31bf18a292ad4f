"""Golden digests: byte-identity pins for five seeded end-to-end runs.

Each case runs one scheme on a small seeded workload and hashes what
the run simulated: every migration record (status and timestamps), the
master's binding log, the tier/lifecycle move ledgers and per-edge move
counts where the scheme has them, the final simulated time and the
number of engine steps.  A refactor that keeps behaviour keeps every
digest; one that moves a single event or float changes it.

The cases cover the device traffic every storage rung carries: disk
reads under interference, memory pins under chaos, SSD promotions and
demotions, archive moves over the shared fabric link under
tier-move/fabric faults, and the sharded async pull protocol.

To regenerate after a change that is *meant* to alter the simulation,
print the current digests and paste them into ``GOLDEN``::

    PYTHONPATH=src python -m tests.core.test_golden_digests
"""

from __future__ import annotations

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


def _digest(system) -> str:
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
        "steps": system.sim.steps,
    }
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()


def _chaos_run(scheme, workload, seed, kinds=None, shards=1) -> str:
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


def sort_alt() -> str:
    system = build_system(
        PaperSetup(scheme="dyrs", seed=11, interference="alt-10s-1")
    )
    job = sort_job(system, size=4 * GB, job_id="s", extra_lead_time=20.0)
    system.runtime.run_to_completion([job])
    return _digest(system)


def swim_chaos() -> str:
    return _chaos_run("dyrs", "swim", seed=3)


def tiered_swim() -> str:
    system = build_system(PaperSetup(scheme="dyrs-tiered", seed=5))
    system.runtime.run_to_completion(_submit_workload(system, "swim", 5))
    system.sim.run(until=system.sim.now + 300.0)
    return _digest(system)


def lifecycle_aging() -> str:
    return _chaos_run(
        "dyrs-lifecycle", "aging", seed=7, kinds=ChaosCampaign.ARCHIVE_KINDS
    )


def sharded_async_chaos() -> str:
    return _chaos_run("dyrs-sharded-async", "swim", seed=2, shards=4)


CASES = {
    "dyrs-sort-alt-10s-1": sort_alt,
    "dyrs-swim-chaos": swim_chaos,
    "dyrs-tiered-swim": tiered_swim,
    "dyrs-lifecycle-aging-archive-faults": lifecycle_aging,
    "dyrs-sharded-async-4-chaos": sharded_async_chaos,
}

#: Generated at the commit before the device layer became one rung type.
GOLDEN = {
    "dyrs-sort-alt-10s-1": (
        "b0db73359014673619fbacd25693d8081bdb835efd4d021d1b225e1227a72b48"
    ),
    "dyrs-swim-chaos": (
        "5303f0b4f1357510843199b0263ece25b2814e26f5d192ff952b97cff81afc63"
    ),
    "dyrs-tiered-swim": (
        "6bf74b475bbf23de3fcfb0da728c8ad4413756635414ec329aba76fa994e07c3"
    ),
    "dyrs-lifecycle-aging-archive-faults": (
        "7c8cf61f2d45cadc92a28a3acba194ec5059eb2ea08a13ad7d1867e919085dfe"
    ),
    "dyrs-sharded-async-4-chaos": (
        "4ab51eb782d32e39475076f6ad893bd1e2caa3af177aed9120e5395a00e17556"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    for case, run in CASES.items():
        print(f'    "{case}": "{run()}",')
