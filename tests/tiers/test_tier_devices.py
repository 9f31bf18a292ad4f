"""Unit tests for the SSD rung and the node's tier ladder."""

import math

import pytest

from repro.cluster import NodeSpec, SsdFull, SsdSpec
from repro.cluster.node import Node
from repro.sim import Simulator
from repro.tiers import TIER_ORDER, is_promotion
from repro.units import GB, MB


@pytest.fixture
def sim():
    return Simulator()


class TestSsdSpec:
    def test_defaults_valid(self):
        spec = SsdSpec()
        assert spec.capacity > 0
        assert spec.bandwidth > 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SsdSpec(capacity=0)
        with pytest.raises(ValueError):
            SsdSpec(bandwidth=-1)
        with pytest.raises(ValueError):
            SsdSpec(min_efficiency=1.5)


class TestSsdDevice:
    def test_pin_unpin_accounting(self, sim):
        ssd = SsdSpec(capacity=128 * MB).rung(sim).store
        ssd.pin("a", 64 * MB)
        assert ssd.used == pytest.approx(64 * MB)
        assert ssd.is_pinned("a")
        assert ssd.pinned_keys() == ("a",)
        assert ssd.unpin("a") == pytest.approx(64 * MB)
        assert ssd.used == 0.0
        assert ssd.peak == pytest.approx(64 * MB)

    def test_pin_over_budget_raises(self, sim):
        ssd = SsdSpec(capacity=64 * MB).rung(sim).store
        ssd.pin("a", 64 * MB)
        assert not ssd.fits(1.0)
        with pytest.raises(SsdFull):
            ssd.pin("b", 64 * MB)

    def test_double_pin_raises(self, sim):
        ssd = SsdSpec(capacity=256 * MB).rung(sim).store
        ssd.pin("a", 64 * MB)
        with pytest.raises(KeyError):
            ssd.pin("a", 64 * MB)

    def test_unpin_is_idempotent(self, sim):
        ssd = SsdSpec().rung(sim).store
        assert ssd.unpin("never-pinned") == 0.0

    def test_transfer_charges_device_time(self, sim):
        spec = SsdSpec(bandwidth=500 * MB)
        ssd = spec.rung(sim)
        event = ssd.write(500 * MB, tag="ssd-write")
        sim.run(until=10)
        assert event.triggered
        assert ssd.channel.busy_time == pytest.approx(1.0)
        assert ssd.channel.bytes_moved == pytest.approx(500 * MB)


class TestTierFacade:
    def test_ladder_order_and_promotion(self):
        assert TIER_ORDER == ("archive", "disk", "ssd", "memory")
        assert is_promotion("disk", "ssd")
        assert is_promotion("ssd", "memory")
        assert is_promotion("archive", "disk")
        assert not is_promotion("memory", "ssd")
        assert not is_promotion("ssd", "disk")
        assert not is_promotion("disk", "archive")

    def test_node_tiers_with_ssd(self, sim):
        node = Node(sim, 0, NodeSpec().with_ssd())
        tiers = node.tiers
        assert list(tiers) == ["disk", "ssd", "memory"]
        assert tiers["disk"] is node.disk
        assert tiers["ssd"] is node.ssd
        assert tiers["memory"] is node.memory
        assert tiers["disk"].rank < tiers["ssd"].rank < tiers["memory"].rank

    def test_node_tiers_without_ssd(self, sim):
        node = Node(sim, 0, NodeSpec())
        assert set(node.tiers) == {"disk", "memory"}

    def test_disk_tier_is_bottomless(self, sim):
        tier = Node(sim, 0, NodeSpec()).tiers["disk"]
        # No store: replicas live in the DFS block map.
        assert tier.store is None
        assert math.isinf(tier.capacity)
        assert tier.used == 0.0

    def test_ssd_tier_delegates_residency(self, sim):
        node = Node(sim, 0, NodeSpec().with_ssd(SsdSpec(capacity=1 * GB)))
        tier = node.tiers["ssd"]
        tier.store.pin("blk", 64 * MB)
        assert node.ssd.store.is_pinned("blk")
        assert tier.used == pytest.approx(64 * MB)
        assert tier.capacity - tier.used == pytest.approx(1 * GB - 64 * MB)
        assert tier.store.unpin("blk") == pytest.approx(64 * MB)

    def test_memory_tier_write_is_pure_accounting(self, sim):
        tier = Node(sim, 0, NodeSpec()).tiers["memory"]
        assert tier.write(64 * MB, tag="tier-write") is None
        assert tier.channel.active_flows == 0

    def test_read_seconds_orders_the_ladder(self, sim):
        tiers = Node(sim, 0, NodeSpec().with_ssd().with_archive()).tiers
        size = 64 * MB
        assert (
            tiers["memory"].read_seconds(size)
            < tiers["ssd"].read_seconds(size)
            < tiers["disk"].read_seconds(size)
            < tiers["archive"].read_seconds(size)
        )
