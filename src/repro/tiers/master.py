"""The tiered migration master: DYRS generalized to a storage ladder.

:class:`TieredDyrsMaster` keeps every mechanism of the paper's master
-- delayed binding, Algorithm 1 targeting, the pull protocol, reference
-list eviction -- and layers three tier-lifecycle behaviours on top:

* **temperature tracking** -- every block read (and every migration
  request, which announces an imminent read) feeds the
  :class:`~repro.tiers.temperature.TemperatureTracker`;
* **background promotion** -- a periodic lifecycle pass asks the
  configured :class:`~repro.tiers.policy.TierPolicy` where each tracked
  block belongs and enqueues disk->ssd promotions *through the same
  pending pool Algorithm 1 targets*, so SSD fills are bandwidth-aware
  exactly like the paper's disk->memory migrations.  Memory residency
  stays reference-driven (§III-C3): the lifecycle never promotes into
  RAM on its own, and a block already cached on SSD is promoted
  ssd->memory when a job requests it -- bound directly to the cache
  holder, the only node with the bytes;
* **demotion** -- evicted-but-still-warm blocks drop one rung to the
  SSD instead of all the way to disk, and the lifecycle pass expires
  COLD blocks out of the SSD cache.

Promotions and demotions are counted per ladder edge and mirrored into
the run's :class:`~repro.compute.metrics.MetricsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.device import is_promotion
from repro.core.master import DyrsConfig, DyrsMaster
from repro.core.policies import MigrationPolicy
from repro.core.records import BindingEvent, MigrationRecord, MigrationStatus
from repro.dfs.block import Block, BlockId
from repro.dfs.client import EvictionMode
from repro.obs import trace as obs
from repro.sim.process import Interrupt, Process
from repro.tiers.policy import (
    CostBenefitPolicy,
    PlacementContext,
    ThresholdPolicy,
    TierPolicy,
)
from repro.tiers.temperature import Temperature, TemperatureTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compute.metrics import MetricsCollector
    from repro.core.slave import DyrsSlave
    from repro.dfs.namenode import NameNode

__all__ = ["TierConfig", "TieredDyrsMaster"]


@dataclass(frozen=True)
class TierConfig:
    """Tunables of the tier lifecycle.

    Attributes
    ----------
    lifecycle_interval:
        Seconds between lifecycle passes (promotion/expiry scans).
    temperature_alpha:
        EWMA weight of the temperature tracker.
    hot_age / cold_age:
        The tracker's classification thresholds (seconds).
    policy:
        ``"threshold"`` (temperature ladder) or ``"cost-benefit"``
        (read-savings vs. move-cost arithmetic).
    horizon:
        Decision horizon of the cost-benefit policy (seconds).
    promote_warm_to_ssd:
        Whether the lifecycle pass enqueues background disk->ssd
        promotions.
    demote_to_ssd:
        Whether eviction demotes warm blocks memory->ssd instead of
        dropping them to disk.
    """

    lifecycle_interval: float = 10.0
    temperature_alpha: float = 0.3
    hot_age: float = 60.0
    cold_age: float = 300.0
    policy: str = "threshold"
    horizon: float = 120.0
    promote_warm_to_ssd: bool = True
    demote_to_ssd: bool = True

    #: Accepted ``policy`` values; subclasses (the lifecycle extension)
    #: widen this.  Plain class attribute, not a dataclass field.
    _POLICIES = ("threshold", "cost-benefit")

    def __post_init__(self) -> None:
        if self.lifecycle_interval <= 0:
            raise ValueError(
                f"lifecycle_interval must be positive, got {self.lifecycle_interval}"
            )
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        # Same rules as TemperatureTracker, enforced eagerly so a bad
        # config fails at construction like every other spec dataclass.
        if not 0 < self.temperature_alpha <= 1:
            raise ValueError(
                f"temperature_alpha must be in (0, 1], got {self.temperature_alpha}"
            )
        if self.hot_age <= 0:
            raise ValueError(f"hot_age must be positive, got {self.hot_age}")
        if self.cold_age <= self.hot_age:
            raise ValueError(
                f"cold_age ({self.cold_age}) must exceed hot_age ({self.hot_age})"
            )

    def build_policy(self) -> TierPolicy:
        if self.policy == "cost-benefit":
            return CostBenefitPolicy(horizon=self.horizon)
        return ThresholdPolicy()


class TieredDyrsMaster(DyrsMaster):
    """DYRS master with SSD-tier lifecycle management."""

    def __init__(
        self,
        namenode: "NameNode",
        config: Optional[DyrsConfig] = None,
        policy: Optional[MigrationPolicy] = None,
        tier_config: Optional[TierConfig] = None,
    ) -> None:
        super().__init__(namenode, config, policy)
        self.tier_config = tier_config or TierConfig()
        self.tier_policy: TierPolicy = self.tier_config.build_policy()
        self.temperature = TemperatureTracker(
            alpha=self.tier_config.temperature_alpha,
            hot_age=self.tier_config.hot_age,
            cold_age=self.tier_config.cold_age,
        )
        #: Live background promotion per block (disk->ssd records).
        #: Kept apart from ``_records`` so a cache fill never blocks a
        #: job's memory migration of the same block.
        self._tier_records: dict[BlockId, MigrationRecord] = {}
        #: Append-only log of every lifecycle record (metrics).
        self.tier_record_log: list[MigrationRecord] = []
        #: Completed moves per ladder edge: (source, dest) -> count.
        self.tier_moves: dict[tuple[str, str], int] = {}
        #: Bytes moved per ladder edge: (source, dest) -> bytes.
        self.tier_bytes: dict[tuple[str, str], float] = {}
        self.lifecycle_passes = 0
        self._lifecycle_proc: Optional[Process] = None
        self._metrics: Optional["MetricsCollector"] = None

    # -- wiring ------------------------------------------------------------------

    def attach_metrics(self, metrics: "MetricsCollector") -> None:
        """Mirror tier-move counts into the run's metrics collector."""
        self._metrics = metrics

    def start(self) -> None:
        super().start()
        if self._lifecycle_proc is None or not self._lifecycle_proc.is_alive:
            self._lifecycle_proc = self.sim.process(
                self._lifecycle_loop(), name="tier-lifecycle"
            )

    def stop(self) -> None:
        super().stop()
        if self._lifecycle_proc is not None and self._lifecycle_proc.is_alive:
            self._lifecycle_proc.interrupt(cause="stop")
        self._lifecycle_proc = None

    def crash(self) -> None:
        """Master failure also loses the tier soft state (§III-C1)."""
        super().crash()
        self._tier_records.clear()
        self.namenode.ssd_directory.clear()

    def recover(self) -> None:
        """Rebuild both fast-tier directories from slave pin state.

        Registration goes through :meth:`_register_ssd_copy`: the outage
        can leave two nodes physically holding one block (a duplicate
        fill raced the crash), and the single-slot directory must not
        silently orphan the loser's pin.
        """
        super().recover()
        for slave in self.slaves.values():
            for block_id in list(slave.datanode.ssd_block_ids()):
                self._register_ssd_copy(block_id, slave.node_id)

    # -- counters ----------------------------------------------------------------

    def _count_move(self, source: str, dest: str, nbytes: float = 0.0) -> None:
        key = (source, dest)
        self.tier_moves[key] = self.tier_moves.get(key, 0) + 1
        self.tier_bytes[key] = self.tier_bytes.get(key, 0.0) + nbytes
        if self._metrics is not None:
            self._metrics.record_tier_move(source, dest)

    @property
    def promotion_count(self) -> int:
        """Completed moves that climbed the ladder."""
        return sum(
            n for (s, d), n in self.tier_moves.items() if is_promotion(s, d)
        )

    @property
    def demotion_count(self) -> int:
        """Completed moves that descended the ladder."""
        return sum(
            n for (s, d), n in self.tier_moves.items() if not is_promotion(s, d)
        )

    # -- temperature observation ---------------------------------------------------

    def on_block_read(self, block, job_id, read_event) -> None:
        self.temperature.record_access(block.block_id, self.sim.now)
        super().on_block_read(block, job_id, read_event)

    def migrate(self, files, job_id, eviction=EvictionMode.IMPLICIT):
        # A migration request announces imminent reads; warm the blocks
        # so the lifecycle sees them even before the first read lands.
        for block in self.namenode.blocks_of(files):
            self.temperature.record_access(block.block_id, self.sim.now)
        return super().migrate(files, job_id, eviction)

    # -- record routing ------------------------------------------------------------

    def _verified_ssd_holder(self, block_id: BlockId) -> Optional[int]:
        """The node whose SSD really holds ``block_id`` and whose slave
        can serve a copy from it -- None otherwise (soft state verified
        on use, like the memory directory)."""
        node_id = self.namenode.ssd_directory.get(block_id)
        if node_id is None or not self.namenode.is_available(node_id):
            return None
        dn = self.namenode.datanodes.get(node_id)
        if dn is None or not dn.has_ssd_replica(block_id):
            return None
        slave = self.slaves.get(node_id)
        if slave is None or not slave.alive:
            return None
        return node_id

    def _new_record(self, block: Block) -> MigrationRecord:
        """Route a job's migration along the right ladder edge: a block
        already cached on SSD is copied ssd->memory from its holder."""
        ssd_node = self._verified_ssd_holder(block.block_id)
        if ssd_node is not None:
            return MigrationRecord(
                block=block,
                requested_at=self.sim.now,
                source_tier="ssd",
                dest_tier="memory",
                target_node=ssd_node,
            )
        return super()._new_record(block)

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        pool: list[MigrationRecord] = []
        for record in records:
            # A job asking for memory supersedes any background cache
            # fill of the same block still in flight.
            tier_rec = self._tier_records.get(record.block_id)
            if tier_rec is not None and tier_rec.status in (
                MigrationStatus.PENDING,
                MigrationStatus.BOUND,
            ):
                self.discard(tier_rec, reason="superseded")
            if record.source_tier == "ssd":
                self._push_bind(record)
            else:
                pool.append(record)
        if pool:
            super()._on_new_records(pool)

    def _push_bind(self, record: MigrationRecord) -> None:
        """Bind an ssd-sourced promotion directly to the cache holder.

        Delayed binding buys nothing here: only one node has the SSD
        copy, so the targeting choice is forced, and the copy runs on
        the slave's separate SSD lane without disturbing disk work.
        """
        node_id = record.target_node
        assert node_id is not None
        record.mark_bound(node_id, self.sim.now)
        slave = self.slaves[node_id]
        slave.enqueue(record)
        self.binding_log.append(
            BindingEvent(
                time=self.sim.now,
                block_id=record.block_id,
                node_id=node_id,
                queue_depth_after=slave.ssd_queued_blocks,
            )
        )
        obs.emit(
            obs.BIND,
            self.sim.now,
            block=record.block_id,
            node=node_id,
            queue_depth=slave.ssd_queued_blocks,
        )

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        super()._on_record_discarded(record)
        current = self._tier_records.get(record.block_id)
        if current is record:
            del self._tier_records[record.block_id]

    # -- completion and eviction ---------------------------------------------------

    def _register_ssd_copy(self, block_id: BlockId, node_id: int) -> None:
        """Register the block's (single) SSD copy.

        The directory holds one entry per block, but physical copies
        can outlive their entry: a demotion on another node overwrites
        the entry while the old holder still pins the bytes.  Dropping
        the previous holder's pin here keeps pin state and directory in
        lockstep -- an orphaned pin is both a leaked SSD budget and a
        future double-pin crash when a fill lands on that node again.
        """
        prev = self.namenode.ssd_directory.get(block_id)
        if prev is not None and prev != node_id:
            dn = self.namenode.datanodes.get(prev)
            if dn is not None:
                dn.unpin_block_ssd(block_id)
        self.namenode.record_ssd_replica(block_id, node_id)

    def on_migration_complete(
        self, record: MigrationRecord, node_id: int, duration: float
    ) -> None:
        if record.dest_tier == "ssd":
            self._tier_records.pop(record.block_id, None)
            self._register_ssd_copy(record.block_id, node_id)
            self._count_move(record.source_tier, "ssd", record.block.size)
            return
        super().on_migration_complete(record, node_id, duration)
        self._count_move(record.source_tier, "memory", record.block.size)

    def _evict_done_record(self, record: MigrationRecord) -> None:
        """Eviction with a middle rung: still-warm blocks step down to
        the SSD (write-back: the pin is immediate, the flash write is
        charged in the background); COLD blocks and blocks that already
        have an SSD copy fall through to the plain drop."""
        node_id = self.namenode.memory_directory.get(record.block_id)
        slave = self.slaves.get(node_id) if node_id is not None else None
        if (
            self.tier_config.demote_to_ssd
            and node_id is not None
            and self.namenode.is_available(node_id)
            # The demotion is work the node's slave performs; a slave
            # that crashed but is not yet flagged stale cannot write the
            # SSD copy -- pinning to its node would strand bytes that
            # staleness detection later orphans (directory dropped,
            # physical pin already past its crash-time cleanup).
            and slave is not None
            and slave.alive
        ):
            dn = self.namenode.datanodes[node_id]
            node = dn.node
            if (
                node.ssd is not None
                and not dn.has_ssd_replica(record.block_id)
                and self._verified_ssd_holder(record.block_id) is None
                and node.ssd.store.fits(record.block.size)
                and self.temperature.classify(record.block_id, self.sim.now)
                is not Temperature.COLD
            ):
                dn.unpin_block(record.block_id)
                self.namenode.drop_memory_replica(record.block_id)
                dn.pin_block_ssd(record.block)
                node.ssd.write(record.block.size, tag=f"demote:{record.block_id}")
                self._register_ssd_copy(record.block_id, node_id)
                self._count_move("memory", "ssd", record.block.size)
                slave.notify_memory_freed()
                record.mark_evicted()
                obs.emit(
                    obs.DEMOTE,
                    self.sim.now,
                    block=record.block_id,
                    node=node_id,
                    source="memory",
                    dest="ssd",
                )
                obs.emit(
                    obs.EVICTED, self.sim.now, block=record.block_id, node=node_id
                )
                return
        super()._evict_done_record(record)

    def on_slave_failed(self, node_id: int) -> None:
        """Also reap lifecycle records bound to the dead slave; the
        directory entries for its SSD cache die with the base cleanup
        (``drop_node_memory_state`` covers both fast tiers)."""
        for record in list(self._tier_records.values()):
            if (
                record.status in (MigrationStatus.BOUND, MigrationStatus.ACTIVE)
                and record.bound_node == node_id
            ):
                self.discard(record, reason="slave-failure")
        super().on_slave_failed(node_id)

    # -- the lifecycle pass ----------------------------------------------------------

    def _block_index(self) -> dict[BlockId, Block]:
        return {
            block.block_id: block
            for entry in self.namenode.namespace.files()
            for block in entry.blocks
        }

    def _promotion_candidate(
        self, block: Block
    ) -> Optional[tuple[int, "DyrsSlave"]]:
        """A representative replica holder for policy evaluation:
        Algorithm 1 still picks the actual target among all holders."""
        for nid in sorted(block.replica_nodes):
            if not self.namenode.accepts_new_replicas(nid):
                continue
            slave = self.slaves.get(nid)
            if slave is None or not slave.alive or slave.node.ssd is None:
                continue
            return nid, slave
        return None

    def _placement_context(
        self, block: Block, resident: str, slave: "DyrsSlave"
    ) -> PlacementContext:
        return PlacementContext(
            block_size=block.size,
            temperature=self.temperature.classify(block.block_id, self.sim.now),
            access_rate=self.temperature.access_rate(block.block_id),
            resident_tier=resident,
            tiers=slave.node.tiers,
            move_seconds_per_byte=slave.estimator.seconds_per_byte,
        )

    def _pass_blocked(self, block_id: BlockId) -> bool:
        """A live move already owns this block's disk traffic; the
        lifecycle pass must not start another (subclasses add their own
        move kinds)."""
        for live in (self._records.get(block_id), self._tier_records.get(block_id)):
            if live is not None and not live.status.is_terminal:
                return True
        return False

    def lifecycle_pass(self) -> dict[str, int]:
        """One promotion/expiry scan over the tracked blocks.

        Blocks with a live migration (job-driven or lifecycle) are left
        alone; memory residency is governed by reference lists, not by
        this pass.  Returns ``{"promoted": n, "demoted": n}`` counts of
        *initiated* actions.
        """
        self.lifecycle_passes += 1
        now = self.sim.now
        blocks = self._block_index()
        actions = {"promoted": 0, "demoted": 0}
        for block_id, temp in self.temperature.classify_all(now).items():
            block = blocks.get(block_id)
            if block is None:
                continue
            if self._pass_blocked(block_id):
                continue
            mem_node = self.namenode.memory_directory.get(block_id)
            if mem_node is not None and self.namenode.datanodes[
                mem_node
            ].has_memory_replica(block_id):
                continue
            ssd_node = self._verified_ssd_holder(block_id)
            if ssd_node is not None:
                slave = self.slaves[ssd_node]
                target = self.tier_policy.target_tier(
                    self._placement_context(block, "ssd", slave)
                )
                if target == "disk":
                    # Expired: the disk replicas are the ground truth,
                    # so dropping the cache entry is free.
                    self.namenode.datanodes[ssd_node].unpin_block_ssd(block_id)
                    self.namenode.drop_ssd_replica(block_id)
                    self._count_move("ssd", "disk", block.size)
                    obs.emit(
                        obs.DEMOTE,
                        now,
                        block=block_id,
                        node=ssd_node,
                        source="ssd",
                        dest="disk",
                    )
                    actions["demoted"] += 1
                # target "memory" is reference-driven; "ssd" is a keep.
                continue
            if not self.tier_config.promote_warm_to_ssd:
                continue
            candidate = self._promotion_candidate(block)
            if candidate is None:
                continue
            _, slave = candidate
            target = self.tier_policy.target_tier(
                self._placement_context(block, "disk", slave)
            )
            if target == "disk":
                continue
            # Cap background promotions at the SSD rung: RAM placement
            # without references would be evicted on arrival (§III-C3).
            record = MigrationRecord(
                block=block,
                requested_at=now,
                source_tier="disk",
                dest_tier="ssd",
            )
            self._tier_records[block_id] = record
            self.tier_record_log.append(record)
            self._pending[block_id] = record
            obs.emit(obs.PENDING, now, block=block_id)
            actions["promoted"] += 1
        if actions["promoted"]:
            self.retarget()
        return actions

    def _lifecycle_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.tier_config.lifecycle_interval)
                self.lifecycle_pass()
        except Interrupt:
            return
