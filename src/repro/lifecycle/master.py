"""The lifecycle master: HOT/WARM/COLD management over the full ladder.

:class:`LifecycleMaster` extends the tiered master with the *cold* end
of the data lifecycle:

* an **archive pass** runs after each tier lifecycle pass and selects
  blocks that cooled past ``archive_age`` for demotion to the archive
  tier;
* every archive move is **integrity-checked**: a checksum is recorded
  when the bytes are written and verified before any copy is deleted
  (demotion drops disk replicas only after verification; restoration
  verifies before the archive copy is read back);
* the **replication scheduler** lowers an archived block's durable-copy
  target (the archive copy counts; COLD data keeps
  ``cold_replication - 1`` disk replicas) and re-replicates re-heated
  blocks back to the file's configured factor *before* they are
  promoted into the working tiers.

Archive moves are **master-driven and serialized**: one background
worker drains a FIFO of demote/restore operations, charging the source
device, the shared fabric archive link, and the destination devices
directly -- the slave migration lanes stay dedicated to the paper's
latency-critical disk->memory path.  The moves keep their own record
log (``lifecycle_record_log``) in the PENDING -> BOUND -> ACTIVE ->
DONE/DISCARDED lattice so chaos quiesce audits them, but they never
emit the migration-record trace vocabulary (``pending``/``bind``/
``mlock_*``): their trace life is the ``tier_move`` family, keeping
the §III liveness ledger exactly as the paper's schemes leave it.

Durability model (what a master crash does *not* lose): the archive
directory, the per-block replication overrides, and the checksum
registry are block-map state stored with the data.  In-flight moves
are aborted by a crash (``tier_move_abort`` with reason
``master-crash``) and re-planned by the next archive pass after
recovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.master import DyrsConfig
from repro.core.policies import MigrationPolicy
from repro.core.records import MigrationRecord
from repro.dfs.block import Block, BlockId
from repro.lifecycle.integrity import ChecksumRegistry
from repro.lifecycle.policy import LifecycleTable, TablePolicy, default_table
from repro.lifecycle.replication import ReplicationScheduler
from repro.obs import trace as obs
from repro.sim.events import AllOf
from repro.sim.process import Interrupt, Process
from repro.tiers.master import TierConfig, TieredDyrsMaster
from repro.tiers.temperature import Temperature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.device import Rung
    from repro.dfs.namenode import NameNode

__all__ = ["LifecycleConfig", "LifecycleMaster"]


@dataclass(frozen=True)
class LifecycleConfig(TierConfig):
    """Tier tunables plus the archive/replication policy knobs.

    Attributes
    ----------
    archive_age:
        Temperature score (seconds) beyond which a COLD block is
        demoted to the archive tier.  Must be at least ``cold_age``
        (only COLD blocks archive).
    cold_replication:
        Durable copies a COLD archived block keeps.  The archive copy
        counts as one, so the default of 1 means *no* disk replicas
        remain -- restoration re-replicates before promotion.
    policy:
        Adds ``"table"`` (the declarative per-temperature table) to
        the inherited choices; it is the default here.
    """

    policy: str = "table"
    archive_age: float = 900.0
    cold_replication: int = 1

    _POLICIES = ("threshold", "cost-benefit", "table")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.archive_age < self.cold_age:
            raise ValueError(
                f"archive_age ({self.archive_age}) must be at least "
                f"cold_age ({self.cold_age}): only COLD blocks archive"
            )
        if self.cold_replication < 1:
            raise ValueError(
                f"cold_replication must be >= 1, got {self.cold_replication}"
            )

    def build_table(self) -> LifecycleTable:
        return default_table(cold_replication=self.cold_replication)

    def build_policy(self):
        if self.policy == "table":
            return TablePolicy(self.build_table())
        return super().build_policy()


class LifecycleMaster(TieredDyrsMaster):
    """Tiered DYRS master with archive demotion and re-heat restore."""

    def __init__(
        self,
        namenode: "NameNode",
        config: Optional[DyrsConfig] = None,
        policy: Optional[MigrationPolicy] = None,
        tier_config: Optional[LifecycleConfig] = None,
    ) -> None:
        lifecycle_config = tier_config or LifecycleConfig()
        if not isinstance(lifecycle_config, LifecycleConfig):
            raise TypeError(
                "LifecycleMaster needs a LifecycleConfig, got "
                f"{type(lifecycle_config).__name__}"
            )
        super().__init__(namenode, config, policy, lifecycle_config)
        self.lifecycle_config = lifecycle_config
        self.table = lifecycle_config.build_table()
        #: Checksum metadata, stored durably with the archived data.
        self.integrity = ChecksumRegistry()
        self.replication_scheduler = ReplicationScheduler(self.table, namenode)
        #: Live archive move per block, kept apart from both ``_records``
        #: (job migrations) and ``_tier_records`` (working-tier fills).
        self._lifecycle_moves: dict[BlockId, MigrationRecord] = {}
        #: Append-only log of every archive move (chaos quiesce audits
        #: that each entry reaches a terminal state).
        self.lifecycle_record_log: list[MigrationRecord] = []
        self._move_queue: deque[tuple[str, MigrationRecord]] = deque()
        self._mover_proc: Optional[Process] = None
        #: First re-access time of each still-archived block; closed
        #: into :attr:`reheat_latencies` when its restore completes.
        self._reheat_started: dict[BlockId, float] = {}
        #: Seconds from first re-access to restored-on-disk, per block.
        self.reheat_latencies: list[float] = []
        self.archived_blocks = 0
        self.restored_blocks = 0
        self.corrupt_moves = 0
        self._cluster_has_archive = any(
            dn.node.archive is not None for dn in namenode.datanodes.values()
        )

    # -- wiring --------------------------------------------------------------

    def stop(self) -> None:
        super().stop()
        if self._mover_proc is not None and self._mover_proc.is_alive:
            self._mover_proc.interrupt(cause="stop")
        self._mover_proc = None

    def shutdown(self, reason: str) -> None:
        """Teardown (crash *or* failover): in-flight archive moves die
        with the process; the archive directory, replication overrides,
        and checksum registry are durable block-map state and survive.

        Hooking :meth:`~repro.core.master.DyrsMaster.shutdown` (not
        ``crash``) means standby failover also aborts the dead
        primary's moves -- without this, a ``TIER_MOVE`` record would
        stay non-terminal forever after a promotion.
        """
        super().shutdown(reason)
        for record in list(self._lifecycle_moves.values()):
            if not record.status.is_terminal:
                self._abort_move(record, reason)
        self._move_queue.clear()
        self._reheat_started.clear()

    # -- re-heat detection ---------------------------------------------------

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        pool: list[MigrationRecord] = []
        for record in records:
            block = record.block
            if block.block_id in self.namenode.archive_directory:
                # The restore owns this block's disk traffic; reads are
                # served from the archive meanwhile, and the restore
                # re-migrates once disk replicas exist if the block is
                # still referenced.
                self._note_reheat(block)
                self.discard(record, reason="archived")
                continue
            live = self._lifecycle_moves.get(block.block_id)
            if live is not None and not live.status.is_terminal:
                # A demote is mid-flight.  Starting a pull against the
                # same disk replica would violate per-disk
                # serialization; the demote re-checks the reference
                # after its archive write and aborts, leaving the block
                # on disk for the next promotion pass.
                self.discard(record, reason="lifecycle-move")
                continue
            pool.append(record)
        if pool:
            super()._on_new_records(pool)

    def on_block_read(self, block, job_id, read_event) -> None:
        if block.block_id in self.namenode.archive_directory:
            self._note_reheat(block)
        super().on_block_read(block, job_id, read_event)

    def _note_reheat(self, block: Block) -> None:
        """An archived block is wanted again: stamp the re-heat clock
        and plan its restoration."""
        self._reheat_started.setdefault(block.block_id, self.sim.now)
        live = self._lifecycle_moves.get(block.block_id)
        if live is not None and not live.status.is_terminal:
            return
        self._enqueue_move("restore", block)

    # -- the archive pass ----------------------------------------------------

    def lifecycle_pass(self) -> dict[str, int]:
        actions = super().lifecycle_pass()
        actions["archived"] = self.archive_pass()
        return actions

    def archive_pass(self) -> int:
        """Select blocks cold past ``archive_age`` for demotion;
        returns the number of moves initiated."""
        if not self.alive or not self._cluster_has_archive:
            return 0
        now = self.sim.now
        blocks = self._block_index()
        started = 0
        for block_id, temp in self.temperature.classify_all(now).items():
            if temp is not Temperature.COLD:
                continue
            if self.temperature.score(block_id, now) < (
                self.lifecycle_config.archive_age
            ):
                continue
            block = blocks.get(block_id)
            if block is None or self._archive_blocked(block):
                continue
            self._enqueue_move("demote", block)
            started += 1
        return started

    def _pass_blocked(self, block_id) -> bool:
        if super()._pass_blocked(block_id):
            return True
        live = self._lifecycle_moves.get(block_id)
        return live is not None and not live.status.is_terminal

    def _archive_blocked(self, block: Block) -> bool:
        """Reasons *not* to archive right now (re-examined next pass)."""
        block_id = block.block_id
        if block_id in self.namenode.archive_directory:
            return True
        if self.tracker.is_referenced(block_id):
            return True
        for live in (
            self._records.get(block_id),
            self._tier_records.get(block_id),
            self._lifecycle_moves.get(block_id),
        ):
            if live is not None and not live.status.is_terminal:
                return True
        # Working-tier copies must drain first (the tier lifecycle
        # expires them); archiving under a fast copy would let a read
        # bypass the move.
        if self.namenode.memory_directory.get(block_id) is not None:
            return True
        if self._verified_ssd_holder(block_id) is not None:
            return True
        if not self.namenode.healthy_replicas(block):
            return True
        return False

    # -- the serialized mover ------------------------------------------------

    def _enqueue_move(self, kind: str, block: Block) -> None:
        if not self.alive:
            return
        record = MigrationRecord(
            block=block,
            requested_at=self.sim.now,
            source_tier="disk" if kind == "demote" else "archive",
            dest_tier="archive" if kind == "demote" else "disk",
        )
        self._lifecycle_moves[block.block_id] = record
        self.lifecycle_record_log.append(record)
        self._move_queue.append((kind, record))
        self._kick_mover()

    def _kick_mover(self) -> None:
        if self._mover_proc is None or not self._mover_proc.is_alive:
            self._mover_proc = self.sim.process(
                self._drain_moves(), name="lifecycle-mover"
            )

    def _drain_moves(self):
        """One worker, strictly serialized: archival media serve one
        operation at a time (and determinism wants one interleaving)."""
        try:
            while self._move_queue:
                kind, record = self._move_queue.popleft()
                if record.status.is_terminal:
                    continue
                if kind == "demote":
                    yield from self._demote(record)
                else:
                    yield from self._restore(record)
        except Interrupt:
            return

    def _abort_move(self, record: MigrationRecord, reason: str) -> None:
        prior = record.status
        record.mark_discarded(self.sim.now, reason)
        obs.emit(
            obs.TIER_MOVE_ABORT,
            self.sim.now,
            block=record.block_id,
            source=record.source_tier,
            dest=record.dest_tier,
            reason=reason,
            status=prior.value,
        )
        current = self._lifecycle_moves.get(record.block_id)
        if current is record:
            del self._lifecycle_moves[record.block_id]

    def _finish_move(self, record: MigrationRecord) -> None:
        record.mark_done(self.sim.now)
        current = self._lifecycle_moves.get(record.block_id)
        if current is record:
            del self._lifecycle_moves[record.block_id]

    # -- demotion: disk -> archive -------------------------------------------

    def _archive_owner(self, preferred: Optional[int], block: Block) -> Optional[int]:
        """The node whose archive partition will account the block:
        the source node when possible, else the lowest-id fitting one
        (ownership is bookkeeping -- the media is fabric-attached)."""

        def fits(node_id: int) -> bool:
            dn = self.namenode.datanodes.get(node_id)
            return (
                dn is not None
                and dn.node.archive is not None
                and dn.node.archive.store.fits(block.size)
            )

        if preferred is not None and fits(preferred):
            return preferred
        for node_id in sorted(self.namenode.datanodes):
            if fits(node_id):
                return node_id
        return None

    def _demote(self, record: MigrationRecord):
        block = record.block
        block_id = block.block_id
        namenode = self.namenode
        sources = [
            n
            for n in sorted(namenode.healthy_replicas(block))
            if namenode.datanodes[n].has_disk_replica(block_id)
        ]
        source = sources[0] if sources else None
        owner = self._archive_owner(source, block)
        if source is None or owner is None:
            self._abort_move(record, "no-source")
            return
        archive: "Rung" = namenode.datanodes[owner].node.archive
        record.target_node = source
        record.mark_bound(owner, self.sim.now)
        record.mark_active(self.sim.now)
        # Fixed per-operation archival setup cost (media mount / object
        # store round trip), then the disk read and the fabric write.
        yield self.sim.timeout(archive.latency)
        if record.status.is_terminal:
            return
        yield namenode.datanodes[source].copy_block(
            block, source_tier="disk", tag=f"archive:{block_id}"
        )
        if record.status.is_terminal:
            return
        # Digest of the source bytes, recorded before the media write;
        # verification below models the post-write read-back.
        checksum = self.integrity.record(block)
        yield archive.write(block.size, tag=f"archive:{block_id}")
        if record.status.is_terminal:
            return
        # The block may have re-heated while the bytes were in flight:
        # archiving it now would immediately bounce back.
        if self.tracker.is_referenced(block_id) or (
            self.temperature.classify(block_id, self.sim.now)
            is not Temperature.COLD
        ):
            self.integrity.forget(block_id)
            self._abort_move(record, "reheated")
            return
        if not self.integrity.verify(block):
            # Read-back mismatch: discard the bad archive copy and keep
            # every disk replica -- verify-before-delete is the point.
            self.corrupt_moves += 1
            if obs.enabled():
                obs.emit(
                    obs.TIER_MOVE_CORRUPT,
                    self.sim.now,
                    block=block_id,
                    source="disk",
                    dest="archive",
                    node=owner,
                    nbytes=block.size,
                    resident=self._resident_tiers(block),
                )
            self.integrity.forget(block_id)
            self._abort_move(record, "corrupt")
            return
        if not archive.store.fits(block.size):
            self.integrity.forget(block_id)
            self._abort_move(record, "archive-full")
            return
        replicas_before = len(block.replica_nodes)
        namenode.datanodes[owner].pin_block_archive(block)
        namenode.record_archive_replica(block_id, owner)
        keep = self.replication_scheduler.lower_for_archive(block)
        kept = sources[:keep]
        for node_id in block.replica_nodes:
            if node_id not in kept:
                namenode.datanodes[node_id].remove_disk_replica(block_id)
        block.replica_nodes = tuple(kept)
        self._finish_move(record)
        self.archived_blocks += 1
        self._count_move("disk", "archive", block.size)
        self._emit_tier_move(
            block,
            source="disk",
            dest="archive",
            node=owner,
            checksum=checksum,
            replicas_before=replicas_before,
            replicas_after=len(kept) + 1,
            target_replicas=keep + 1,
        )

    # -- restoration: archive -> disk ----------------------------------------

    def _restore(self, record: MigrationRecord):
        block = record.block
        block_id = block.block_id
        namenode = self.namenode
        owner = namenode.archive_directory.get(block_id)
        owner_dn = namenode.datanodes.get(owner) if owner is not None else None
        if owner_dn is None or not owner_dn.has_archive_replica(block_id):
            self._abort_move(record, "lost")
            return
        # Verify *before* reading back or deleting anything; a corrupt
        # archive copy is kept (the surviving disk replicas, if any,
        # stay authoritative) and flagged for the operator.
        if not self.integrity.verify(block):
            self.corrupt_moves += 1
            if obs.enabled():
                obs.emit(
                    obs.TIER_MOVE_CORRUPT,
                    self.sim.now,
                    block=block_id,
                    source="archive",
                    dest="disk",
                    node=owner,
                    nbytes=block.size,
                    resident=self._resident_tiers(block),
                )
            self._abort_move(record, "corrupt")
            return
        targets = self.replication_scheduler.restore_targets(block)
        new_targets = [
            n
            for n in targets
            if not namenode.datanodes[n].has_disk_replica(block_id)
        ]
        if not targets:
            self._abort_move(record, "no-target")
            return
        archive: "Rung" = owner_dn.node.archive
        replicas_before = len(block.replica_nodes) + 1
        record.target_node = owner
        record.mark_bound(targets[0], self.sim.now)
        record.mark_active(self.sim.now)
        yield self.sim.timeout(archive.latency)
        if record.status.is_terminal:
            return
        if new_targets:
            transfers = [
                owner_dn.copy_block(
                    block, source_tier="archive", tag=f"restore:{block_id}"
                )
            ]
            for node_id in new_targets:
                node = namenode.cluster.node(node_id)
                transfers.append(
                    node.nic.receive(block.size, tag=f"restore:{block_id}")
                )
                transfers.append(
                    node.disk.write(block.size, tag=f"restore:{block_id}")
                )
            yield AllOf(self.sim, transfers)
            if record.status.is_terminal:
                return
        for node_id in new_targets:
            namenode.datanodes[node_id].add_disk_replica(block)
        block.replica_nodes = tuple(
            sorted(set(block.replica_nodes) | set(new_targets))
        )
        self.replication_scheduler.restore_factor(block)
        checksum = self.integrity.get(block_id)
        owner_dn.unpin_block_archive(block_id)
        namenode.drop_archive_replica(block_id)
        self.integrity.forget(block_id)
        self._finish_move(record)
        self.restored_blocks += 1
        self._count_move("archive", "disk", block.size)
        self._emit_tier_move(
            block,
            source="archive",
            dest="disk",
            node=owner,
            checksum=checksum,
            replicas_before=replicas_before,
            replicas_after=len(block.replica_nodes),
            target_replicas=namenode.replication_target(block),
        )
        started = self._reheat_started.pop(block_id, None)
        if started is not None:
            self.reheat_latencies.append(self.sim.now - started)
        if self.tracker.is_referenced(block_id):
            # Re-replicated and wanted: promote through the normal
            # bandwidth-aware machinery.
            self._remigrate(block)

    # -- failure handling ----------------------------------------------------

    def on_slave_failed(self, node_id: int) -> None:
        """Also abort in-flight archive moves touching the dead node.

        The archive *media* survives (fabric-attached), but a move
        reading the node's disk or writing through its accounting
        partition loses its driver; demotions are re-planned by the
        next archive pass, restores re-queued immediately (the block is
        still archived and still wanted).
        """
        for record in list(self._lifecycle_moves.values()):
            if record.status.is_terminal:
                continue
            if node_id not in (record.bound_node, record.target_node):
                continue
            restore = record.dest_tier == "disk"
            self._abort_move(record, "slave-failure")
            if restore and record.block_id in self.namenode.archive_directory:
                self._enqueue_move("restore", record.block)
        super().on_slave_failed(node_id)

    # -- trace plumbing ------------------------------------------------------

    def _resident_tiers(self, block: Block) -> list[str]:
        """Authoritative post-move residency, from NameNode state."""
        block_id = block.block_id
        namenode = self.namenode
        resident = set()
        if block.replica_nodes:
            resident.add("disk")
        mem = namenode.memory_directory.get(block_id)
        if mem is not None and namenode.datanodes[mem].has_memory_replica(
            block_id
        ):
            resident.add("memory")
        ssd = namenode.ssd_directory.get(block_id)
        if ssd is not None and namenode.datanodes[ssd].has_ssd_replica(block_id):
            resident.add("ssd")
        arc = namenode.archive_directory.get(block_id)
        if arc is not None and namenode.datanodes[arc].has_archive_replica(
            block_id
        ):
            resident.add("archive")
        return sorted(resident)

    def _emit_tier_move(
        self,
        block: Block,
        source: str,
        dest: str,
        node: int,
        checksum: Optional[int],
        replicas_before: int,
        replicas_after: int,
        target_replicas: int,
    ) -> None:
        if obs.enabled():
            obs.emit(
                obs.TIER_MOVE,
                self.sim.now,
                block=block.block_id,
                source=source,
                dest=dest,
                node=node,
                nbytes=block.size,
                checksum=f"{checksum:08x}" if checksum is not None else None,
                replicas_before=replicas_before,
                replicas_after=replicas_after,
                target_replicas=target_replicas,
                resident=self._resident_tiers(block),
            )
