"""Event budget of one pull RPC.

A pull is a chain of scheduled callbacks, not a spawned process: one
zero-delay hop where the RPC is issued, then one engine event per wait
(outbound leg, master service, inbound leg, backoff).  The systems here
are built but not started -- no heartbeats, no retarget loop, no
worker -- so every engine event the simulator processes belongs to
the pull under test.
"""

import random

import pytest

from repro.core import DyrsConfig
from repro.sim.engine import Simulator
from repro.system import System, SystemConfig


@pytest.fixture
def spawned(monkeypatch):
    """Names of every process spawned while the test runs."""
    names = []
    spawn = Simulator.process

    def process(sim, generator, name=""):
        names.append(name or getattr(generator, "__name__", ""))
        return spawn(sim, generator, name=name)

    monkeypatch.setattr(Simulator, "process", process)
    return names


def _system(scheme="dyrs", shards=1, **dyrs):
    """An unstarted system whose first slave is up but has no worker
    loop running: only explicitly issued pulls generate events."""
    system = System(
        SystemConfig(scheme=scheme, shards=shards, dyrs=DyrsConfig(**dyrs))
    )
    slave = system.slaves[0]
    slave.alive = True
    return system, slave


def _run_pull(system, slave) -> int:
    """Issue one pull from ``slave`` and drain it; engine events used."""
    before = system.sim.steps
    slave._maybe_pull()
    system.sim.run()
    return system.sim.steps - before


def _one_pending_record(system, slave):
    """One pending record, targeted at ``slave`` (the only live one)."""
    system.client.create_file("input", system.config.block_size)
    system.master.migrate(["input"], job_id="j1")
    system.master.retarget()
    (record,) = system.master.record_log
    assert record.target_node == slave.node_id
    return record


class TestSyncPull:
    def test_idle_pull_costs_hop_outbound_inbound(self, spawned):
        system, slave = _system()
        assert _run_pull(system, slave) == 3
        assert system.sim.now == pytest.approx(2 * slave.config.rpc_latency)
        assert slave._pull_in_flight is False
        assert spawned == []

    def test_granting_pull_costs_the_same(self, spawned):
        system, slave = _system()
        record = _one_pending_record(system, slave)
        assert _run_pull(system, slave) == 3
        assert list(slave._queue) == [record]
        assert slave._pull_in_flight is False
        assert spawned == []

    def test_zero_latency_pull_is_one_hop(self, spawned):
        system, slave = _system(rpc_latency=0.0)
        assert _run_pull(system, slave) == 1
        assert system.sim.now == 0.0
        assert spawned == []

    def test_timed_out_pull_with_retry(self, spawned):
        """Request leg over budget, one retry after a backoff: hop,
        timeout, backoff, timeout -- and the flag clears at the end."""
        system, slave = _system(
            rpc_timeout=0.3, rpc_max_retries=1, rpc_backoff_base=0.05
        )
        slave._rpc_extra = 1.0
        assert _run_pull(system, slave) == 4
        assert system.sim.now == pytest.approx(0.3 + 0.05 + 0.3)
        assert slave._pull_in_flight is False
        assert spawned == []


class TestAsyncLeg:
    @staticmethod
    def _system():
        system, slave = _system(
            "dyrs-sharded-async", shards=1, shard_pull_window=2, queue_depth=1
        )
        assert slave._async_pull
        return system, slave

    def test_empty_leg_costs_hop_and_outbound(self, spawned):
        system, slave = self._system()
        assert _run_pull(system, slave) == 2
        assert slave._leg_outstanding == {0: 0}
        assert spawned == []

    def test_granting_leg_costs_hop_outbound_inbound(self, spawned):
        system, slave = self._system()
        record = _one_pending_record(system, slave)
        # The delivery fills the queue (depth 1), so its re-pull opens
        # no further leg: all three events belong to the one leg.
        assert _run_pull(system, slave) == 3
        assert list(slave._queue) == [record]
        assert slave._leg_outstanding == {0: 0}
        assert slave._async_undelivered == 0
        assert spawned == []


def test_scheduled_time_matches_a_timeout():
    """``call_at(now + d)`` lands where ``timeout(d)`` did: the engine
    stores ``now + ((now + d) - now)``, which equals ``now + d`` for
    non-negative floats."""
    rng = random.Random(0)
    pairs = [
        (0.0, 0.05),
        (0.05, 0.05),
        (0.1, 1e-300),
        (2.0**53, 1.0),
        (1.0 + 2.0**-52, 2.0**53),
        (1e-300, 1e300),
    ]
    for _ in range(100_000):
        now = rng.random() * 10.0 ** rng.randint(-6, 7)
        delay = rng.random() * 10.0 ** rng.randint(-6, 3)
        pairs.append((now, delay))
    for now, delay in pairs:
        assert now + ((now + delay) - now) == now + delay
