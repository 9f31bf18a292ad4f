"""Seeded equivalence: the 1k-node fast paths vs their slow oracles.

Every scale optimization in this repo follows the PR-2 template -- the
original implementation stays registered as an oracle, and these tests
pin the fast path *byte-identical* to it on paper-scale (8-node)
configs: every record timestamp, every binding decision, every
discard reason.

Covered here:

* ``indexed`` vs ``oracle`` ledger failure scans
  (:func:`repro.core.base.use_ledger_scan`), exercised under a chaos
  campaign so the reclaim and slave-failure paths actually fire;
* the Algorithm-1 targeting kernels
  (:func:`repro.core.targeting.use_targeting_kernel`);
* batched vs per-node heartbeat delivery
  (:func:`repro.dfs.heartbeat.use_heartbeat_mode`).
"""

import pytest

from repro.core.base import LEDGER_SCAN_MODES, use_ledger_scan
from repro.core.failures import ChaosCampaign, FailureInjector
from repro.core.targeting import (
    TARGETING_KERNEL_NAMES,
    use_targeting_kernel,
)
from repro.dfs.heartbeat import HEARTBEAT_MODES, use_heartbeat_mode
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs


def _swim_logs(seed=7, chaos=False):
    """Run a seeded 8-node SWIM mix; return the full migration ledger
    as comparable tuples plus the binding log and final sim time."""
    overrides = (
        {"rpc_timeout": 1.0, "rpc_max_retries": 2, "rpc_backoff_base": 0.1}
        if chaos
        else {}
    )
    system = build_system(
        PaperSetup(
            scheme="dyrs",
            seed=seed,
            interference="none",
            dyrs_overrides=overrides,
        )
    )
    if chaos:
        injector = FailureInjector(system.cluster, master=system.master)
        campaign = ChaosCampaign(
            injector, seed=seed, horizon=90.0, n_faults=6
        )
        campaign.arm()
    descriptors = generate_swim_workload(
        system.cluster.rngs.stream("equiv.swim"),
        n_jobs=10,
        total_input=4 * GB,
        max_input=1 * GB,
        mean_interarrival=4.0,
    )
    jobs = materialize_swim_jobs(system, descriptors)
    system.runtime.run_to_completion(jobs)
    if chaos:
        # Let scheduled recoveries and the reclaim loop drain.
        system.sim.run(until=max(system.sim.now, 90.0) + 30.0)
    records = [
        (
            r.block_id,
            r.status.name,
            r.target_node,
            r.bound_node,
            r.requested_at,
            r.bound_at,
            r.started_at,
            r.completed_at,
            r.discarded_at,
            r.discard_reason,
        )
        for r in system.master.record_log
    ]
    return records, list(system.master.binding_log), system.sim.now


class TestLedgerScanEquivalence:
    def test_modes_registered(self):
        assert LEDGER_SCAN_MODES == ("indexed", "oracle")
        with pytest.raises(ValueError):
            with use_ledger_scan("bogus"):
                pass

    def test_chaos_swim_byte_identical(self):
        """The indexed failure scan replays a faulted SWIM run exactly:
        slave crashes trigger on_slave_failed, dead/stale nodes trigger
        reclaim_unavailable, and every resulting discard/remigrate must
        land in the same order with the same timestamps."""
        with use_ledger_scan("oracle"):
            oracle = _swim_logs(chaos=True)
        with use_ledger_scan("indexed"):
            indexed = _swim_logs(chaos=True)
        assert indexed == oracle

    def test_inflight_index_matches_table(self):
        """Structural check: after a faulted run, the incremental
        in-flight index holds exactly the BOUND/ACTIVE rows of the
        record table."""
        from repro.core.records import MigrationStatus

        system = build_system(
            PaperSetup(scheme="dyrs", seed=3, interference="none")
        )
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("equiv.swim"),
            n_jobs=10,
            total_input=4 * GB,
            max_input=1 * GB,
            mean_interarrival=4.0,
        )
        jobs = materialize_swim_jobs(system, descriptors)
        system.runtime.run_to_completion(jobs)
        master = system.master
        expected = {
            r.block_id
            for r in master._records.values()
            if r.status in (MigrationStatus.BOUND, MigrationStatus.ACTIVE)
        }
        indexed = {
            block_id
            for bucket in master._inflight_by_node.values()
            for block_id in bucket
        }
        assert indexed == expected


class TestTargetingKernelEquivalence:
    def test_kernels_registered(self):
        assert set(TARGETING_KERNEL_NAMES) == {"legacy", "indexed"}
        with pytest.raises(ValueError):
            with use_targeting_kernel("bogus"):
                pass

    @pytest.mark.parametrize("kernel", ["indexed"])
    def test_swim_byte_identical(self, kernel):
        with use_targeting_kernel("legacy"):
            oracle = _swim_logs()
        with use_targeting_kernel(kernel):
            fast = _swim_logs()
        assert fast == oracle


class TestHeartbeatModeEquivalence:
    def test_modes_registered(self):
        assert HEARTBEAT_MODES == ("batched", "per-node")
        with pytest.raises(ValueError):
            with use_heartbeat_mode("bogus"):
                pass

    def test_swim_byte_identical(self):
        with use_heartbeat_mode("per-node"):
            per_node = _swim_logs()
        with use_heartbeat_mode("batched"):
            batched = _swim_logs()
        assert batched == per_node

    def test_chaos_swim_byte_identical(self):
        """Crashed and partitioned nodes must drop out of the batched
        walk at exactly the ticks they stop sending per-node."""
        with use_heartbeat_mode("per-node"):
            per_node = _swim_logs(chaos=True)
        with use_heartbeat_mode("batched"):
            batched = _swim_logs(chaos=True)
        assert batched == per_node


class TestIdlePullNotify:
    """``idle_pull="notify"`` is a *modeled protocol change* (parked
    idle slaves are woken by retarget instead of re-polling), so it is
    NOT byte-identical to the paper's poll mode -- these tests pin that
    it still completes the same work and that the default stays poll."""

    def test_default_is_poll(self):
        from repro.core.master import DyrsConfig

        assert DyrsConfig().idle_pull == "poll"
        with pytest.raises(ValueError):
            DyrsConfig(idle_pull="push")

    def test_notify_completes_same_migrations(self):
        def _final_states(mode):
            system = build_system(
                PaperSetup(
                    scheme="dyrs",
                    seed=11,
                    interference="none",
                    dyrs_overrides={"idle_pull": mode},
                )
            )
            descriptors = generate_swim_workload(
                system.cluster.rngs.stream("equiv.swim"),
                n_jobs=10,
                total_input=4 * GB,
                max_input=1 * GB,
                mean_interarrival=4.0,
            )
            jobs = materialize_swim_jobs(system, descriptors)
            system.runtime.run_to_completion(jobs)
            # Let in-flight migrations drain past job completion.
            system.sim.run(until=system.sim.now + 120.0)
            return {
                (r.block_id, r.status.name) for r in system.master.record_log
            }, system.master

        poll_states, _ = _final_states("poll")
        notify_states, master = _final_states("notify")
        assert notify_states == poll_states
        assert len(notify_states) > 0
        # Idle slaves park at steady state -- but only while nothing
        # is pending for them (a parked slave with a target would be a
        # lost wakeup).
        assert not master._pending
        for signal in master._parked.values():
            assert not signal.triggered
