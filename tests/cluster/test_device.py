"""The unified device layer: ByteStore, Channel, and the storage rung.

Verifies that every node-local device is one `Rung` type built from its
spec -- a faithful configuration of the two primitives -- that `Nic`
directions are plain channels, that each rung's store raises its own
`StoreFull` subclass, and that the retired spellings (`_resource`,
`_read_resource`, `read_channel`) stay gone.
"""

import math

import pytest

from repro.cluster import (
    ArchiveSpec,
    ByteStore,
    Channel,
    DiskSpec,
    MemorySpec,
    Nic,
    NicSpec,
    NodeSpec,
    OutOfMemory,
    Rung,
    SsdFull,
    SsdSpec,
    StoreFull,
)
from repro.cluster.node import Node
from repro.sim import Simulator
from repro.sim.bandwidth import BandwidthResource, use_kernel
from repro.sim.legacy_bandwidth import LegacyBandwidthResource


class TestByteStore:
    def test_pin_unpin_roundtrip(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0, name="s")
        store.pin("a", 60.0)
        assert store.used == 60.0
        assert store.free == 40.0
        assert store.is_pinned("a")
        assert store.pinned_keys() == ("a",)
        assert store.unpin("a") == 60.0
        assert store.used == 0.0
        assert store.peak == 60.0

    def test_unpin_unknown_key_is_noop(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0)
        assert store.unpin("ghost") == 0.0

    def test_overflow_raises_configured_error(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=10.0, name="s", full_error=SsdFull)
        with pytest.raises(SsdFull):
            store.pin("a", 11.0)
        # ...which is still a StoreFull, so tier-agnostic code can
        # catch the base.
        with pytest.raises(StoreFull):
            store.pin("a", 11.0)

    def test_double_pin_rejected(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0)
        store.pin("a", 1.0)
        with pytest.raises(KeyError):
            store.pin("a", 1.0)

    def test_usage_samples_record_changes(self):
        sim = Simulator()
        store = ByteStore(sim, capacity=100.0)
        store.pin("a", 30.0)
        store.unpin("a")
        assert store.usage_samples == [(0.0, 0.0), (0.0, 30.0), (0.0, 0.0)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ByteStore(Simulator(), capacity=0.0)


class TestChannel:
    def test_transfer_duration(self):
        sim = Simulator()
        chan = Channel(sim, capacity=100.0, name="c")
        done = chan.transfer(50.0)
        sim.run_until_processed(done)
        assert sim.now == pytest.approx(0.5)
        assert chan.bytes_moved == pytest.approx(50.0)

    def test_rate_law_matches_kernel(self):
        sim = Simulator()
        chan = Channel(
            sim, capacity=120.0, seek_penalty=0.5, min_efficiency=0.25, name="c"
        )
        assert chan.aggregate_rate(1) == pytest.approx(120.0)
        assert chan.aggregate_rate(2) == pytest.approx(80.0)
        assert chan.aggregate_rate(100) == pytest.approx(30.0)  # floored
        assert chan.rate_hint() == pytest.approx(120.0)
        assert chan.expected_duration(120.0) == pytest.approx(1.0)

    def test_kernel_selected_at_construction(self):
        sim = Simulator()
        assert isinstance(Channel(sim, capacity=1.0).kernel, BandwidthResource)
        with use_kernel("legacy"):
            chan = Channel(sim, capacity=1.0)
        assert isinstance(chan.kernel, LegacyBandwidthResource)
        # Explicit name overrides the ambient default.
        chan = Channel(sim, capacity=1.0, kernel="legacy")
        assert isinstance(chan.kernel, LegacyBandwidthResource)

    def test_cancel_via_channel(self):
        sim = Simulator()
        chan = Channel(sim, capacity=100.0)
        flow = chan.start_flow(1000.0)
        assert chan.active_flows == 1
        chan.cancel(flow)
        assert chan.active_flows == 0


class TestThinDevices:
    def test_disk_is_a_channel_of_its_spec(self):
        sim = Simulator()
        disk = DiskSpec(bandwidth=150.0, seek_penalty=0.35).rung(sim)
        assert isinstance(disk, Rung) and disk.name == "disk"
        assert disk.store is None
        assert math.isinf(disk.capacity)
        assert disk.channel.capacity == 150.0
        assert disk.channel.seek_penalty == 0.35
        done = disk.channel.transfer(75.0)
        sim.run_until_processed(done)
        assert disk.channel.bytes_moved == pytest.approx(75.0)
        assert disk.channel.busy_time == pytest.approx(0.5)

    def test_memory_store_is_bytestore_plus_read_channel(self):
        sim = Simulator()
        mem = MemorySpec(capacity=100.0, read_bandwidth=1000.0).rung(sim)
        mem.store.pin("blk", 40.0)
        assert mem.store.used == 40.0
        assert mem.used == 40.0
        with pytest.raises(OutOfMemory):
            mem.store.pin("big", 100.0)
        assert isinstance(OutOfMemory("x"), StoreFull)
        assert not mem.charges_writes
        done = mem.channel.transfer(500.0)
        sim.run_until_processed(done)
        assert mem.channel.bytes_moved == pytest.approx(500.0)

    def test_ssd_is_both_primitives(self):
        sim = Simulator()
        ssd = SsdSpec(capacity=100.0, bandwidth=500.0).rung(sim)
        ssd.store.pin("blk", 10.0)
        assert ssd.used == 10.0
        with pytest.raises(SsdFull):
            ssd.store.pin("big", 1000.0)
        done = ssd.channel.transfer(250.0)
        sim.run_until_processed(done)
        assert ssd.channel.bytes_moved == pytest.approx(250.0)

    def test_nic_directions_are_independent_channels(self):
        sim = Simulator()
        nic = Nic(sim, NicSpec(bandwidth=100.0))
        nic.send(50.0)
        nic.receive(80.0)
        sim.run()
        assert nic.egress.bytes_moved == pytest.approx(50.0)
        assert nic.ingress.bytes_moved == pytest.approx(80.0)

    def test_error_message_format_preserved(self):
        sim = Simulator()
        mem = MemorySpec(capacity=100.0).rung(sim, "mem0")
        with pytest.raises(OutOfMemory, match=r"mem0: pin of 200B exceeds budget"):
            mem.store.pin("blk", 200.0)


class TestDeprecatedAliasesRemoved:
    def test_resource_aliases_are_gone(self):
        # The `_resource`/`_read_resource` shims and the memory-only
        # `read_channel` spelling are gone: every rung exposes `channel`.
        sim = Simulator()
        node = Node(sim, 0, NodeSpec().with_ssd().with_archive())
        for rung in node.tiers.values():
            assert not hasattr(rung, "_resource")
            assert not hasattr(rung, "_read_resource")
            assert not hasattr(rung, "read_channel")

    def test_channel_spelling_is_the_public_path(self):
        sim = Simulator()
        node = Node(sim, 0, NodeSpec().with_ssd().with_archive())
        assert list(node.tiers) == ["archive", "disk", "ssd", "memory"]
        for rung in node.tiers.values():
            assert rung.channel.kernel is not None
        assert node.memory.channel.name == "node0.mem.read"
        assert node.disk.channel.name == "node0.disk"

    def test_public_constructors_and_signatures_unchanged(self):
        # Each rung is built from its spec; out-of-tree scripts
        # construct free-standing rungs the same way.
        sim = Simulator()
        disk = DiskSpec().rung(sim, "d0")
        assert disk.channel.expected_duration(150e6) > 0
        assert disk.channel.rate_hint(extra_flows=2) > 0
        assert MemorySpec().rung(sim, "m0").store.fits(1.0)
        assert SsdSpec().rung(sim, "s0").store.fits(1.0)
        link = Channel(sim, capacity=1.0)
        assert ArchiveSpec().rung(sim, "a0", link).channel is link
        nic = Nic(sim, NicSpec(), name="n0")
        assert nic.egress.expected_duration(1e6) > 0
