"""DataNode: block storage and the tier-resolved read paths.

A DataNode serves a block read from either

* its **disk** (the cold path DYRS wants to avoid),
* its **SSD cache**, when the tiered-storage extension placed a warm
  copy there (local or remote -- the SSD controller is the bottleneck
  either way, as the disk is for disk reads), or
* its **memory**, locally (the task runs on this node), or
* its **memory**, remotely (the data crosses the source NIC --
  §III: "reads will be directed to the in-memory replica whether it is
  local or remote to the task making the read").

Tier resolution always prefers the fastest resident copy:
memory > ssd > disk.  Each completed read is recorded for the Fig 8
read-distribution analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dfs.block import Block, BlockId
from repro.obs import trace as obs
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node

__all__ = ["DataNode", "ReadSource", "ReadRecord"]


class ReadSource(enum.Enum):
    """Where a block read was served from."""

    LOCAL_MEMORY = "local-memory"
    REMOTE_MEMORY = "remote-memory"
    LOCAL_SSD = "local-ssd"
    REMOTE_SSD = "remote-ssd"
    LOCAL_DISK = "local-disk"
    REMOTE_DISK = "remote-disk"
    LOCAL_ARCHIVE = "local-archive"
    REMOTE_ARCHIVE = "remote-archive"

    @property
    def is_memory(self) -> bool:
        return self in (ReadSource.LOCAL_MEMORY, ReadSource.REMOTE_MEMORY)

    @property
    def is_ssd(self) -> bool:
        return self in (ReadSource.LOCAL_SSD, ReadSource.REMOTE_SSD)

    @property
    def is_archive(self) -> bool:
        return self in (ReadSource.LOCAL_ARCHIVE, ReadSource.REMOTE_ARCHIVE)


#: (local, remote) read source of each device rung.
_DEVICE_SOURCES = {
    "ssd": (ReadSource.LOCAL_SSD, ReadSource.REMOTE_SSD),
    "disk": (ReadSource.LOCAL_DISK, ReadSource.REMOTE_DISK),
    "archive": (ReadSource.LOCAL_ARCHIVE, ReadSource.REMOTE_ARCHIVE),
}


@dataclass(frozen=True, slots=True)
class ReadRecord:
    """One completed (started) block read, for metrics."""

    time: float
    block_id: BlockId
    nbytes: float
    source: ReadSource
    reader_node: Optional[int]


class DataNode:
    """Block storage attached to one worker node."""

    def __init__(self, node: "Node", cancellers: Optional[dict] = None) -> None:
        self.node = node
        self.node_id = node.node_id
        node.datanode = self
        self._disk_blocks: set[BlockId] = set()
        #: Reads served by this DataNode (disk or memory), in order.
        self.read_log: list[ReadRecord] = []
        #: Shared event -> cancel-callable registry (owned by the
        #: NameNode) so in-flight reads can be aborted, e.g. when a
        #: speculative task attempt wins against this one.
        self._cancellers: dict = cancellers if cancellers is not None else {}

    # -- replica inventory ---------------------------------------------------

    def add_disk_replica(self, block: Block) -> None:
        """Record that this node stores a disk replica of ``block``."""
        self._disk_blocks.add(block.block_id)

    def has_disk_replica(self, block_id: BlockId) -> bool:
        return block_id in self._disk_blocks

    def _resident(self, tier: str, block_id: BlockId) -> bool:
        """Whether ``block_id`` is pinned on this node's ``tier`` rung
        (False when the node has no such rung)."""
        rung = self.node.tiers.get(tier)
        return rung is not None and rung.store.is_pinned(block_id)

    def has_memory_replica(self, block_id: BlockId) -> bool:
        return self.node.memory.store.is_pinned(block_id)

    def has_ssd_replica(self, block_id: BlockId) -> bool:
        return self._resident("ssd", block_id)

    def has_archive_replica(self, block_id: BlockId) -> bool:
        return self._resident("archive", block_id)

    def remove_disk_replica(self, block_id: BlockId) -> None:
        """Forget the disk replica of ``block_id`` (lifecycle
        demotion); idempotent -- the block map is updated separately by
        the NameNode."""
        self._disk_blocks.discard(block_id)

    def _block_ids(self, tier: str) -> tuple[BlockId, ...]:
        rung = self.node.tiers.get(tier)
        if rung is None:
            return ()
        return rung.store.pinned_keys()  # type: ignore[return-value]

    def memory_block_ids(self) -> tuple[BlockId, ...]:
        """Blocks currently pinned in this node's memory."""
        return self._block_ids("memory")

    def ssd_block_ids(self) -> tuple[BlockId, ...]:
        """Blocks currently resident on this node's SSD cache."""
        return self._block_ids("ssd")

    def archive_block_ids(self) -> tuple[BlockId, ...]:
        """Blocks archived under this node's partition."""
        return self._block_ids("archive")

    @property
    def disk_replica_count(self) -> int:
        return len(self._disk_blocks)

    def disk_block_ids(self) -> list[BlockId]:
        """Ids of all disk-resident replicas, in ascending order.

        A superset of the blocks the namespace still maps here (file
        deletion does not scrub disks); sorted so callers iterating it
        stay deterministic.
        """
        return sorted(self._disk_blocks)

    # -- migration support (used by the DYRS slave) -----------------------------

    def migrate_block_to_memory(self, block: Block, tag: str = "migration") -> Event:
        """Start the disk->memory copy; completion event returned.

        The caller pins the block *after* the copy completes --
        mirroring ``mlock`` returning only once the data is resident
        (§IV-A: "migration time [is] the time it takes the mlock
        system call to return").
        """
        return self.copy_block(block, source_tier="disk", tag=tag)

    def copy_block(
        self, block: Block, source_tier: str = "disk", tag: str = "migration"
    ) -> Event:
        """Start a tier copy reading from ``source_tier``; completion
        event returned.

        Charges the *source* device -- the bottleneck of every upward
        tier edge (disk < ssd < memory write absorption); the caller
        pins the block on the destination tier after completion.
        """
        if source_tier not in ("disk", "ssd", "archive"):
            raise ValueError(f"unknown source tier {source_tier!r}")
        held = (
            block.block_id in self._disk_blocks
            if source_tier == "disk"
            else self._resident(source_tier, block.block_id)
        )
        if not held:
            raise KeyError(
                f"node{self.node_id} has no {source_tier} replica of block "
                f"{block.block_id}"
            )
        return self.node.tiers[source_tier].channel.transfer(block.size, tag=tag)

    def _pin(self, tier: str, block: Block) -> None:
        rung = self.node.tiers.get(tier)
        if rung is None:
            raise RuntimeError(f"node{self.node_id} has no {tier} tier")
        rung.store.pin(block.block_id, block.size)

    def _unpin(self, tier: str, block_id: BlockId) -> float:
        """Release ``block_id`` from ``tier`` (idempotent), tracing the
        freed bytes: the conservation invariant audits every byte that
        leaves a store."""
        rung = self.node.tiers.get(tier)
        if rung is None:
            return 0.0
        freed = rung.store.unpin(block_id)
        if freed > 0:
            obs.emit(
                obs.BUFFER_RELEASE,
                self.node.sim.now,
                block=block_id,
                node=self.node_id,
                tier=tier,
                nbytes=freed,
            )
        return freed

    def pin_block(self, block: Block) -> None:
        """Account the migrated block in memory (post-``mlock``)."""
        self._pin("memory", block)

    def unpin_block(self, block_id: BlockId) -> float:
        """Evict a block from memory (``munmap``); idempotent."""
        return self._unpin("memory", block_id)

    def pin_block_ssd(self, block: Block) -> None:
        """Account ``block`` as resident on this node's SSD cache."""
        self._pin("ssd", block)

    def unpin_block_ssd(self, block_id: BlockId) -> float:
        """Drop a block from the SSD cache; idempotent."""
        return self._unpin("ssd", block_id)

    def pin_block_archive(self, block: Block) -> None:
        """Account ``block`` as archived under this node's partition."""
        self._pin("archive", block)

    def unpin_block_archive(self, block_id: BlockId) -> float:
        """Drop a block from the archive partition; idempotent."""
        return self._unpin("archive", block_id)

    # -- read paths ----------------------------------------------------------

    def _remote_memory_transfer(self, nbytes: float, reader_node, tag: str):
        """Charge a remote memory read: source NIC egress plus, on a
        multi-rack cluster, both racks' ToR uplinks when the reader is
        in another rack.  Returns ``(completion event, cancel fn)``.
        """
        from repro.sim.events import AllOf

        flows = [self.node.nic.start_send(nbytes, tag=tag)]
        cluster = self.node.cluster
        if (
            cluster is not None
            and cluster.fabric.rack_aware
            and reader_node is not None
            and not cluster.same_rack(self.node_id, reader_node)
        ):
            flows.extend(
                cluster.fabric.cross_rack_flows(
                    self.node.rack_id,
                    cluster.rack_of(reader_node),
                    nbytes,
                    tag=tag,
                )
            )
        if len(flows) == 1:
            event = flows[0].done
        else:
            event = AllOf(self.node.sim, [f.done for f in flows])

        def cancel() -> None:
            self.node.nic.egress.cancel(flows[0])
            if cluster is not None:
                for i, flow in enumerate(flows[1:]):
                    channel = (
                        cluster.fabric.uplinks[self.node.rack_id]
                        if i == 0
                        else cluster.fabric.downlinks[cluster.rack_of(reader_node)]
                    )
                    channel.cancel(flow)

        return event, cancel

    def _device_tier(self, block_id: BlockId) -> str:
        """The fastest non-memory rung holding ``block_id``."""
        if self.has_ssd_replica(block_id):
            return "ssd"
        if self.has_disk_replica(block_id):
            return "disk"
        if self.has_archive_replica(block_id):
            return "archive"
        raise KeyError(f"node{self.node_id} holds no replica of block {block_id}")

    def read(
        self, block: Block, reader_node: Optional[int]
    ) -> tuple[Event, ReadSource]:
        """Serve a read of ``block`` for a task on ``reader_node``.

        Chooses memory over disk; charges the bottleneck resource for
        the chosen path (see :mod:`repro.cluster.network` for the
        single-charge rationale).  Returns the completion event and
        which path was used.
        """
        tag = f"read:{block.block_id}"
        if self.has_memory_replica(block.block_id):
            if reader_node == self.node_id:
                source = ReadSource.LOCAL_MEMORY
                channel = self.node.memory.channel
                flow = channel.start_flow(block.size, tag=tag)
                cancel = lambda: channel.cancel(flow)  # noqa: E731
                event = flow.done
            else:
                source = ReadSource.REMOTE_MEMORY
                event, cancel = self._remote_memory_transfer(
                    block.size, reader_node, tag
                )
        else:
            # SSD, disk and archive reads charge the device channel
            # only: the storage device (not the 10 Gbps NIC) is the
            # bottleneck whether the reader is local or remote, and the
            # archive is fabric-attached either way.  The archive's
            # per-operation latency is folded into policy cost
            # estimates rather than each read, keeping the read path a
            # cancellable pure flow.
            tier = self._device_tier(block.block_id)
            local, remote = _DEVICE_SOURCES[tier]
            source = local if reader_node == self.node_id else remote
            channel = self.node.tiers[tier].channel
            flow = channel.start_flow(block.size, tag=tag)
            cancel = lambda: channel.cancel(flow)  # noqa: E731
            event = flow.done
        self._cancellers[event] = cancel
        event.add_callback(lambda e: self._cancellers.pop(e, None))
        if obs.enabled():
            if source.is_memory:
                etype = obs.READ_MEMORY
            elif source.is_ssd:
                etype = obs.READ_SSD
            elif source.is_archive:
                etype = obs.READ_ARCHIVE
            else:
                etype = obs.READ_DISK
            obs.emit(
                etype,
                self.node.sim.now,
                block=block.block_id,
                node=self.node_id,
                reader=reader_node,
                nbytes=block.size,
            )
            block_id, node_id = block.block_id, self.node_id

            def _emit_done(e: Event) -> None:
                if e.ok:
                    obs.emit(
                        obs.READ_DONE,
                        self.node.sim.now,
                        block=block_id,
                        node=node_id,
                    )

            event.add_callback(_emit_done)
        self.read_log.append(
            ReadRecord(
                time=self.node.sim.now,
                block_id=block.block_id,
                nbytes=block.size,
                source=source,
                reader_node=reader_node,
            )
        )
        return event, source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataNode node{self.node_id} disk_blocks={len(self._disk_blocks)} "
            f"mem_blocks={len(self.memory_block_ids())}>"
        )
