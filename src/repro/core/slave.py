"""The DYRS slave: serialized migration worker on each DataNode.

Responsibilities (§III, §IV):

* keep a shallow **local queue** of bound migrations -- deep enough
  that the disk never idles while the next pull is in flight, shallow
  enough that binding stays late (§III-A1/§III-B);
* **serialize** migrations *per source device* -- one disk-sourced
  copy at a time to avoid seek thrashing (§III-B), and, in the tiered
  extension, one SSD-sourced copy at a time on a separate lane so a
  fast ssd->memory promotion never waits behind a slow disk read;
* maintain the **EWMA migration-time estimator**, including the
  every-heartbeat in-progress refresh (§IV-A);
* piggyback ``(estimate, queue depth)`` on heartbeats (§III-D);
* respect the **memory hard limit**: when space is short, hold
  migrations until eviction frees memory or the migration is
  discarded by a missed read (§IV-A1);
* trigger the memory-pressure **GC sweep** when usage crosses a
  threshold (§III-C3).

The slave is shared by every master implementation (DYRS, Ignem,
naive): masters only differ in *when and where* records land in local
queues.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.estimator import MigrationTimeEstimator
from repro.core.records import MigrationRecord, MigrationStatus
from repro.obs import trace as obs
from repro.sim.events import AnyOf, Event
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MigrationMaster
    from repro.core.master import DyrsConfig
    from repro.dfs.datanode import DataNode

__all__ = ["DyrsSlave"]


class DyrsSlave:
    """Per-node migration worker."""

    def __init__(
        self,
        datanode: "DataNode",
        master: "MigrationMaster",
        config: "DyrsConfig",
    ) -> None:
        self.datanode = datanode
        self.node = datanode.node
        self.node_id = datanode.node_id
        self.master = master
        self.config = config
        self.sim = datanode.node.sim
        #: Disk-lane estimator -- the ``estMigrationTime`` of §IV-A and
        #: the load signal Algorithm 1 consumes.  Seeded from the
        #: migration lane's channel capacity (the unloaded rate).
        self.estimator = MigrationTimeEstimator(
            initial_rate=self.node.disk.channel.capacity,
            alpha=config.ewma_alpha,
        )
        #: SSD-lane estimator (tiered extension); None on SSD-less
        #: nodes so the paper's configurations build nothing extra.
        self.ssd_estimator: Optional[MigrationTimeEstimator] = (
            MigrationTimeEstimator(
                initial_rate=self.node.ssd.channel.capacity,
                alpha=config.ewma_alpha,
            )
            if self.node.ssd is not None
            else None
        )
        self._queue: deque[MigrationRecord] = deque()
        self._active: Optional[MigrationRecord] = None
        self._worker: Optional[Process] = None
        self._work_signal: Optional[Event] = None
        self._space_signal: Optional[Event] = None
        #: SSD-sourced lane: queue, serialized worker (spawned lazily
        #: on first use), and its own memory-space signal.
        self._ssd_queue: deque[MigrationRecord] = deque()
        self._ssd_active: Optional[MigrationRecord] = None
        self._ssd_worker: Optional[Process] = None
        self._ssd_space_signal: Optional[Event] = None
        self._pull_in_flight = False
        #: Process generation.  Bumped on every crash so RPC responses
        #: addressed to a dead incarnation cannot feed (or unwedge) a
        #: restarted one -- the sim equivalent of an epoch number in the
        #: RPC header.
        self._epoch = 0
        #: Master<->slave link state (chaos fault): a partitioned slave
        #: keeps running but its pulls and heartbeats are blackholed.
        self._partitioned = False
        #: Extra one-way RPC delay (chaos fault: delayed-RPC spike).
        self._rpc_extra = 0.0
        #: Async cross-shard pull (``shard_pull_window > 1`` against a
        #: master exposing the per-shard leg API).  At window 1 -- every
        #: flat scheme and stock ``dyrs-sharded`` -- the flag is False
        #: and the synchronous combined-RPC path below runs verbatim.
        self._pull_window = config.shard_pull_window or 1
        self._async_pull = self._pull_window > 1 and hasattr(
            master, "bind_from_shard"
        )
        #: Open RPC legs per shard (the window the invariant checker
        #: proves is never exceeded) and records bound at the master but
        #: still riding an inbound leg -- space already spoken for, so
        #: concurrent legs cannot overshoot the queue-depth target.
        self._leg_outstanding: dict[int, int] = {}
        self._async_undelivered = 0
        self.alive = False
        #: Completed migrations: (record, duration), for metrics.
        self.completed: list[tuple[MigrationRecord, float]] = []
        master.register_slave(self)

    # -- sizing ------------------------------------------------------------------

    @property
    def queue_depth_target(self) -> int:
        """Ideal local queue length (§III-B): the heartbeat interval
        divided by the best-case per-block migration time."""
        if self.config.queue_depth is not None:
            return self.config.queue_depth
        best_block_time = (
            self.config.reference_block_size / self.node.disk.channel.capacity
        )
        return max(1, math.ceil(self.config.heartbeat_interval / best_block_time))

    @property
    def queued_blocks(self) -> int:
        """Disk-lane queue length including the active migration --
        the ``numQueued`` the master sees (Algorithm 1)."""
        return len(self._queue) + (1 if self._active is not None else 0)

    @property
    def ssd_queued_blocks(self) -> int:
        """SSD-lane queue length including its active copy."""
        return len(self._ssd_queue) + (1 if self._ssd_active is not None else 0)

    @property
    def memory_limit(self) -> float:
        """Hard cap on migrated bytes held on this node (§IV-A1)."""
        if self.config.memory_limit is not None:
            return min(self.config.memory_limit, self.node.memory.spec.capacity)
        return self.node.memory.spec.capacity

    def _memory_fits(self, nbytes: float) -> bool:
        return self.node.memory.store.used + nbytes <= self.memory_limit + 1e-9

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Launch the worker loop (idempotent)."""
        if self.alive:
            return
        self.alive = True
        self._worker = self.sim.process(self._run(), name=f"dyrs-slave:{self.node_id}")

    def crash(self) -> None:
        """Kill the slave *process*: local queue and buffered data are
        lost; the OS reclaims the buffer space (§III-C2).

        Record-status bookkeeping is deliberately left to the master's
        :meth:`~repro.core.base.MigrationMaster.on_slave_failed` -- a
        dead process cannot tell anyone anything; the master learns of
        the failure from the replacement's registration or from missed
        heartbeats.
        """
        if not self.alive:
            return
        self.alive = False
        # Invalidate any in-flight pull: its response now addresses a
        # dead epoch and must not be delivered to (or clear flags of)
        # whatever process runs here next.
        self._epoch += 1
        self._pull_in_flight = False
        # Stale async legs are fenced by the epoch bump; their counters
        # belong to the dead incarnation and must not leak into (or be
        # decremented by) the next one.
        self._leg_outstanding.clear()
        self._async_undelivered = 0
        obs.emit(obs.SLAVE_CRASH, self.sim.now, node=self.node_id)
        for record in (self._active, self._ssd_active):
            # Close the copy interval of any migration the dead process
            # had in flight (the copy's bytes are lost with the buffer).
            if record is not None and record.status is MigrationStatus.ACTIVE:
                obs.emit(
                    obs.MLOCK_ABORT,
                    self.sim.now,
                    block=record.block_id,
                    node=self.node_id,
                    source=record.source_tier,
                )
        if self._worker is not None and self._worker.is_alive:
            self._worker.interrupt(cause="crash")
        self._worker = None
        self._active = None
        self._queue.clear()
        if self._ssd_worker is not None and self._ssd_worker.is_alive:
            self._ssd_worker.interrupt(cause="crash")
        self._ssd_worker = None
        self._ssd_active = None
        self._ssd_queue.clear()
        for block_id in self.datanode.memory_block_ids():
            self.datanode.unpin_block(block_id)
        # The SSD cache is slave-managed soft state (like the memory
        # directory); the replacement process starts it cold.
        for block_id in self.datanode.ssd_block_ids():
            self.datanode.unpin_block_ssd(block_id)

    def restart(self) -> None:
        """Start a fresh slave process after a crash.

        "The new slave process should direct the master to drop state
        about blocks that were previously buffered on that server"
        (§III-C2).
        """
        if self.alive:
            raise RuntimeError(f"slave {self.node_id} is already running")
        obs.emit(obs.SLAVE_RESTART, self.sim.now, node=self.node_id)
        self.master.on_slave_failed(self.node_id)
        # _pull_in_flight was reset by crash(); a pre-crash pull still
        # in flight belongs to the old epoch and can no longer touch it.
        self.start()

    # -- master-facing API ------------------------------------------------------------

    def enqueue(self, record: MigrationRecord) -> None:
        """Add a bound record to its source device's lane.

        Used both by the pull path (the worker's own fetches) and by
        push-style masters (Ignem binds at submission, §VI; the tiered
        master push-binds ssd-sourced promotions the same way).
        """
        if record.source_tier == "ssd":
            self._ssd_queue.append(record)
            if self.alive and self._ssd_worker is None:
                self._ssd_worker = self.sim.process(
                    self._run_ssd(), name=f"dyrs-slave-ssd:{self.node_id}"
                )
            return
        self._queue.append(record)
        if self._work_signal is not None and not self._work_signal.triggered:
            self._work_signal.succeed()

    def notify_memory_freed(self) -> None:
        """Eviction freed memory; wake any lane stalled on space."""
        if self._space_signal is not None and not self._space_signal.triggered:
            self._space_signal.succeed()
        if (
            self._ssd_space_signal is not None
            and not self._ssd_space_signal.triggered
        ):
            self._ssd_space_signal.succeed()

    def heartbeat_payload(self) -> dict:
        """Heartbeat contributor: refresh the estimator against the
        active migration (§IV-A) and report load (§III-D)."""
        if not self.alive:
            # The node's DataNode keeps heartbeating, but a dead slave
            # process contributes nothing; the master notices the
            # missing dyrs.* keys as report staleness and reclaims the
            # process's bound work.
            return {}
        # An idle slave (no active migration) has nothing to refresh,
        # so test that before the config flag.
        active = self._active
        if (
            active is not None
            and active.started_at is not None
            and self.config.estimator_refresh
        ):
            now = self.sim.now
            self.estimator.refresh(now - active.started_at, active.block.size, now=now)
        payload = {
            "dyrs.seconds_per_byte": self.estimator.seconds_per_byte,
            "dyrs.queued_blocks": self.queued_blocks,
        }
        if self.ssd_estimator is not None:
            if (
                self.config.estimator_refresh
                and self._ssd_active is not None
                and self._ssd_active.started_at is not None
            ):
                elapsed = self.sim.now - self._ssd_active.started_at
                self.ssd_estimator.refresh(
                    elapsed, self._ssd_active.block.size, now=self.sim.now
                )
            payload["dyrs.ssd_seconds_per_byte"] = self.ssd_estimator.seconds_per_byte
            payload["dyrs.ssd_queued_blocks"] = self.ssd_queued_blocks
        return payload

    def shard_heartbeat_payload(self) -> dict:
        """Shard-addressed heartbeat fields (sharded masters only).

        The :class:`~repro.shard.ShardCoordinator` registers this as an
        extra contributor under the ``dyrs.`` prefix, so the wire key is
        ``dyrs.shard``: the home shard this node's pull rotation starts
        from.  Flat masters never register it, which keeps their
        heartbeat payloads byte-identical to the paper's.
        """
        return {"shard": self.master.home_shard_of(self.node_id)}

    # -- worker internals --------------------------------------------------------------

    def _space_available(self) -> int:
        return self.queue_depth_target - self.queued_blocks

    def _maybe_pull(self):
        """Fetch more work if there is queue space and no pull racing.

        Models the master round trip with ``rpc_latency``; during the
        round trip the worker keeps draining the local queue -- that is
        precisely why the queue exists (§III-B).  With an async pull
        window the single combined RPC is replaced by detached
        per-shard legs (:meth:`_maybe_pull_async`).
        """
        if not self.alive:
            return
        if self._async_pull:
            self._maybe_pull_async()
            return
        if self._pull_in_flight:
            return
        space = self._space_available()
        if space <= 0:
            return
        self._pull_in_flight = True
        self._pull_later(0.0, self._pull_start, space)

    def _rpc_leg_delay(self) -> float:
        """One-way RPC delay including any injected spike."""
        return self.config.rpc_latency + self._rpc_extra

    # -- pull RPCs as scheduled callback chains -----------------------------------
    #
    # A pull is a chain of ``_pull*`` callbacks, one engine event per
    # wait: a zero-delay hop where the RPC is issued, then one scheduled
    # call per leg, service time or backoff.  A zero wait runs the next
    # step inline.  A callback re-checks the slave's alive/epoch fence
    # only where the protocol does -- after service time, after the
    # inbound leg and after a backoff -- and every exit runs the pull's
    # close step.

    def _pull_later(self, delay: float, fn: Callable[..., object], *args) -> None:
        """Call ``fn(*args)`` ``delay`` simulated seconds from now."""
        sim = self.sim
        sim.call_at(sim.now + delay, lambda: fn(*args))

    def _pull_then(self, delay: float, fn: Callable[..., object], *args) -> None:
        """Call ``fn(*args)`` after ``delay``, or inline if there is none."""
        if delay > 0:
            self._pull_later(delay, fn, *args)
        else:
            fn(*args)

    # -- the async cross-shard pull (shard_pull_window > 1) -------------------------

    def _async_space(self) -> int:
        """Queue space not yet spoken for by an in-flight grant.

        Recomputed at *bind* time inside each leg (the simulation is
        single-threaded, so the value is exact there): legs never carve
        up a stale launch-time budget, so a slow shard cannot strand
        space and concurrent fast legs cannot overshoot the target.
        """
        return self.queue_depth_target - self.queued_blocks - self._async_undelivered

    def _maybe_pull_async(self) -> None:
        """Open one RPC leg per live shard, bounded per shard by the
        pull window.

        Legs are detached: a shard whose leg is delayed (chaos) or
        whose map is deep cannot stall binding from the others -- the
        failure isolation the synchronous rotation lacks.  Rotation
        order (home shard first) is preserved so concurrent nodes still
        start on different shards.
        """
        if self._async_space() <= 0:
            return
        window = self._pull_window
        sim = self.sim
        for shard_id, generation in self.master.pull_plan(self.node_id):
            outstanding = self._leg_outstanding.get(shard_id, 0)
            if outstanding >= window:
                continue
            self._leg_outstanding[shard_id] = outstanding + 1
            if obs.enabled():
                obs.emit(
                    obs.PULL_LEG_OPEN,
                    sim.now,
                    node=self.node_id,
                    shard=shard_id,
                    window=window,
                    outstanding=outstanding + 1,
                )
            self._pull_later(0.0, self._pull_leg, shard_id, generation, self._epoch)

    def _pull_leg(self, shard_id: int, generation: int, epoch: int) -> None:
        """One detached per-shard pull leg: the outbound RPC.

        Timing mirrors the synchronous pull's legs -- outbound delay
        (plus any shard-targeted chaos extra), shard-local service,
        bind, inbound delay -- but scoped to one shard and fenced by
        both the slave epoch (taken when the leg opened) and the shard
        generation (inside ``bind_from_shard``).  The window itself is
        the flow-control mechanism, so ``rpc_timeout`` does not apply:
        a slow leg holds only its own window slot, never the whole pull.
        """
        outbound = self._rpc_leg_delay() + self.master.shard_rpc_extra(shard_id)
        self._pull_then(outbound, self._pull_leg_serve, shard_id, generation, epoch)

    def _pull_leg_serve(self, shard_id: int, generation: int, epoch: int) -> None:
        master = self.master
        if self._partitioned or not master.alive:
            # Blackholed request: nothing was bound, the leg just
            # burns its window slot for the round trip.
            self._pull_leg_close(shard_id, epoch, False)
            return
        service = master.shard_pull_service_seconds(shard_id)
        if service > 0:
            self._pull_later(
                service, self._pull_leg_serviced, shard_id, generation, epoch
            )
        else:
            self._pull_leg_bind(shard_id, generation, epoch)

    def _pull_leg_serviced(self, shard_id: int, generation: int, epoch: int) -> None:
        if not self.alive or self._epoch != epoch:
            self._pull_leg_close(shard_id, epoch, False)
            return
        self._pull_leg_bind(shard_id, generation, epoch)

    def _pull_leg_bind(self, shard_id: int, generation: int, epoch: int) -> None:
        granted = self.master.bind_from_shard(
            shard_id, generation, self.node_id, self._async_space()
        )
        if not granted:
            self._pull_leg_close(shard_id, epoch, False)
            return
        self._async_undelivered += len(granted)
        self._pull_then(
            self._rpc_leg_delay(), self._pull_leg_deliver, shard_id, epoch, granted
        )

    def _pull_leg_deliver(
        self, shard_id: int, epoch: int, granted: list[MigrationRecord]
    ) -> None:
        delivered = False
        if not self.alive or self._epoch != epoch:
            # Crashed while the response was in flight: the crash
            # already zeroed the undelivered counter for the old
            # epoch, so only the master-side records need rescue.
            self.master.requeue_undelivered(granted)
        else:
            self._async_undelivered -= len(granted)
            for record in granted:
                if not record.status.is_terminal:
                    self.enqueue(record)
                    delivered = True
        self._pull_leg_close(shard_id, epoch, delivered)

    def _pull_leg_close(self, shard_id: int, epoch: int, delivered: bool) -> None:
        """Every leg exit: free the window slot, trace the close, and
        chase remaining space after a delivery."""
        if self._epoch == epoch:
            count = self._leg_outstanding.get(shard_id, 0)
            if count > 0:
                self._leg_outstanding[shard_id] = count - 1
        if obs.enabled():
            obs.emit(
                obs.PULL_LEG_CLOSE, self.sim.now, node=self.node_id, shard=shard_id
            )
        if delivered:
            # More space may remain (partial fill): chase it now.
            # An empty leg deliberately does NOT re-trigger -- idle
            # re-polls come from the worker loop at heartbeat
            # cadence, exactly like the synchronous path, so an
            # idle slave never busy-polls at RTT cadence.
            self._maybe_pull()

    # -- the synchronous pull, with optional timeout/retry (the hardened path) ------

    def _pull_start(self, space: int) -> None:
        """The pull's first step.  The epoch is read here: if the slave
        crashes while the RPC is in flight, every later delivery or
        flag update is fenced off by the epoch mismatch."""
        self._pull_attempt(space, self._epoch, 0)

    def _pull_attempt(self, space: int, epoch: int, attempt: int) -> None:
        """One pull RPC round trip: the outbound leg.

        With ``rpc_timeout`` unset (the paper's configuration) the
        timing is the original unbounded pull: wait the outbound leg,
        ask the master, wait the inbound leg, deliver.
        """
        budget = self.config.rpc_timeout
        outbound = self._rpc_leg_delay()
        if budget is not None and outbound >= budget:
            # The request itself exceeds the budget; nothing was ever
            # bound at the master, so timing out is side-effect free.
            self._pull_later(
                budget, self._pull_timeout, space, epoch, attempt, "request"
            )
            return
        self._pull_then(outbound, self._pull_serve, space, epoch, attempt, outbound)

    def _pull_serve(
        self, space: int, epoch: int, attempt: int, outbound: float
    ) -> None:
        budget = self.config.rpc_timeout
        if self._partitioned or not self.master.alive:
            # The request is blackholed (partition) or the master is
            # down: no response will ever come.
            if budget is None:
                # Unbounded RPC: model the round trip the original code
                # took (an empty grant after both legs) and give up
                # until the worker's next periodic poll.
                self._pull_then(self._rpc_leg_delay(), self._pull_close, epoch)
                return
            self._pull_then(
                budget - outbound, self._pull_timeout, space, epoch, attempt, "response"
            )
            return
        # Master-side service: the time the master spends scanning its
        # pending state before it can answer (0 under the paper's
        # configuration: no wait).  A sharded
        # master services the pull from one shard-local map, which is
        # exactly what the shard sweep measures.
        service = self.master.pull_service_seconds(self.node_id)
        if service > 0:
            self._pull_later(
                service, self._pull_serviced, space, epoch, attempt, outbound
            )
        else:
            self._pull_grant(space, epoch, attempt, outbound)

    def _pull_serviced(
        self, space: int, epoch: int, attempt: int, outbound: float
    ) -> None:
        if not self.alive or self._epoch != epoch:
            # Crashed while the master was servicing the call; nothing
            # was bound yet, so walking away is safe.
            self._pull_close(epoch)
            return
        self._pull_grant(space, epoch, attempt, outbound)

    def _pull_grant(
        self, space: int, epoch: int, attempt: int, outbound: float
    ) -> None:
        master = self.master
        granted = master.request_work(self.node_id, space)
        budget = self.config.rpc_timeout
        inbound = self._rpc_leg_delay()
        if budget is not None and outbound + inbound > budget:
            # The response (carrying bound records!) will land after the
            # deadline; we abandon the call, but the grants are already
            # bound at the master.  Requeue them at the moment the lost
            # response would have arrived -- exactly when a real slave's
            # delivery-failure path would fire.
            if granted:
                self._pull_later(inbound, master.requeue_undelivered, granted)
            self._pull_then(
                budget - outbound, self._pull_timeout, space, epoch, attempt, "response"
            )
            return
        self._pull_then(inbound, self._pull_deliver, epoch, granted)

    def _pull_deliver(self, epoch: int, granted: list[MigrationRecord]) -> None:
        if not self.alive or self._epoch != epoch:
            # Crashed (or crashed-and-restarted: new epoch) while the
            # response was in flight.  The bound records were never
            # delivered; without this requeue they would stay BOUND
            # forever -- the node keeps heartbeating, so no failure
            # detector ever reclaims them.
            if granted:
                self.master.requeue_undelivered(granted)
        else:
            for record in granted:
                if not record.status.is_terminal:
                    self.enqueue(record)
        self._pull_close(epoch)

    def _pull_timeout(self, space: int, epoch: int, attempt: int, leg: str) -> None:
        """The attempt ran out of budget: retry after a backoff, or give up."""
        obs.emit(obs.RPC_TIMEOUT, self.sim.now, node=self.node_id, leg=leg)
        if (
            attempt >= self.config.rpc_max_retries
            or not self.alive
            or self._epoch != epoch
        ):
            self._pull_close(epoch)
            return
        attempt += 1
        obs.emit(obs.RPC_RETRY, self.sim.now, node=self.node_id, attempt=attempt)
        backoff = self.config.rpc_backoff_base * (
            self.config.rpc_backoff_factor ** (attempt - 1)
        )
        self._pull_then(backoff, self._pull_retry, space, epoch, attempt)

    def _pull_retry(self, space: int, epoch: int, attempt: int) -> None:
        if not self.alive or self._epoch != epoch:
            self._pull_close(epoch)
            return
        self._pull_attempt(space, epoch, attempt)

    def _pull_close(self, epoch: int) -> None:
        """Every pull exit: clear the in-flight flag -- unless a crash
        already reset it and a newer incarnation may own it now."""
        if self._epoch == epoch:
            self._pull_in_flight = False

    def _run(self):
        sim = self.sim
        try:
            while True:
                self._maybe_pull()
                if not self._queue:
                    self._work_signal = Event(sim, name=f"work:{self.node_id}")
                    if self.config.idle_pull == "notify":
                        # Notify mode: park at the master and wait to be
                        # woken by a retarget pass that aims work here.
                        # The backstop keeps liveness if a wake is lost
                        # (master failover, shard crash); it is long --
                        # 50 heartbeat intervals -- because on an idle
                        # 1k-node cluster these periodic re-polls are
                        # the dominant event-heap load, and correctness
                        # never depends on them.
                        self.master.park_idle_slave(self.node_id, self._work_signal)
                        backstop = sim.timeout(self.config.heartbeat_interval * 50.0)
                        yield AnyOf(sim, [self._work_signal, backstop])
                        self.master.unpark_idle_slave(self.node_id, self._work_signal)
                        if not backstop.processed:
                            sim.discard(backstop)
                    else:
                        # Idle: wait for work, re-polling the master at
                        # heartbeat cadence (periodic query, §III-A1).
                        yield AnyOf(
                            sim,
                            [
                                self._work_signal,
                                sim.timeout(self.config.heartbeat_interval),
                            ],
                        )
                    self._work_signal = None
                    continue
                record = self._queue.popleft()
                if record.status.is_terminal:
                    continue  # discarded while queued (missed read etc.)
                # Claim the slot *before* pulling, so the in-flight
                # record counts against the queue-depth target and a
                # racing pull cannot overshoot it.
                self._active = record
                self._maybe_pull()  # space just opened
                try:
                    done = yield from self._migrate_one(record)
                finally:
                    self._active = None
                if done and self._space_available() > 0:
                    self._maybe_pull()
        except Interrupt:
            return

    def _run_ssd(self):
        """The SSD-sourced lane: serialized like the disk lane, but
        push-fed (no pulls) and spawned lazily, so configurations
        without tiering run zero extra processes.  Exits when the
        queue drains; :meth:`enqueue` respawns it."""
        try:
            while self.alive and self._ssd_queue:
                record = self._ssd_queue.popleft()
                if record.status.is_terminal:
                    continue
                self._ssd_active = record
                try:
                    yield from self._migrate_one(record)
                finally:
                    self._ssd_active = None
        except Interrupt:
            return
        finally:
            self._ssd_worker = None

    def _ssd_dest_fits(self, nbytes: float) -> bool:
        return self.node.ssd is not None and self.node.ssd.store.fits(nbytes)

    def _migrate_one(self, record: MigrationRecord):
        """Execute one serialized migration; returns True if completed.

        ``record.source_tier`` selects the lane's device and estimator;
        ``record.dest_tier`` selects the space discipline: memory
        destinations wait for eviction under the hard limit (§IV-A1),
        while a full SSD discards the promotion immediately -- stalling
        a lane for optional cache fill would starve real work.
        """
        sim = self.sim
        block = record.block
        lane = record.source_tier
        if record.dest_tier == "memory":
            # Memory-pressure GC, then wait for space (§IV-A1, §III-C3).
            if (
                self.node.memory.store.used
                >= self.config.gc_threshold * self.memory_limit
            ):
                self.master.gc_sweep()
            while not self._memory_fits(block.size):
                signal = Event(sim, name=f"space:{lane}:{self.node_id}")
                if lane == "ssd":
                    self._ssd_space_signal = signal
                else:
                    self._space_signal = signal
                yield AnyOf(
                    sim,
                    [signal, sim.timeout(self.config.heartbeat_interval)],
                )
                if lane == "ssd":
                    self._ssd_space_signal = None
                else:
                    self._space_signal = None
                if record.status.is_terminal:
                    return False  # discarded while waiting (missed read)
        elif not self._ssd_dest_fits(block.size):
            self.master.discard(record, reason="ssd-full")
            return False
        if record.status.is_terminal:
            # The GC sweep above may have discarded this very record
            # (its job went inactive while it sat in our queue).
            return False
        record.mark_active(sim.now)
        obs.emit(
            obs.MLOCK_START,
            sim.now,
            block=block.block_id,
            node=self.node_id,
            source=lane,
            dest=record.dest_tier,
        )
        started = sim.now
        copy_done = self.datanode.copy_block(
            block, source_tier=lane, tag=f"migrate:{block.block_id}"
        )
        yield copy_done
        duration = sim.now - started
        if record.status.is_terminal:
            # Discarded mid-copy (e.g. the master reclaimed work from a
            # presumed-dead slave); the bytes were read for nothing.
            obs.emit(
                obs.MLOCK_ABORT,
                sim.now,
                block=block.block_id,
                node=self.node_id,
                source=lane,
            )
            return False
        estimator = self.ssd_estimator if lane == "ssd" else self.estimator
        estimator.observe(duration, block.size, now=sim.now)
        if record.dest_tier == "ssd":
            if not self._ssd_dest_fits(block.size):
                # The cache filled up while the copy ran.
                obs.emit(
                    obs.MLOCK_ABORT,
                    sim.now,
                    block=block.block_id,
                    node=self.node_id,
                    source=lane,
                )
                self.master.discard(record, reason="ssd-full")
                return False
            if not self.datanode.has_ssd_replica(block.block_id):
                # A copy may already be physically present when a stale
                # fill lands on a node whose earlier copy lost its
                # directory entry (e.g. overwritten by a demotion
                # elsewhere); re-pinning would raise and kill the lane.
                self.datanode.pin_block_ssd(block)
        else:
            self.datanode.pin_block(block)
        record.mark_done(sim.now)
        obs.emit(
            obs.MLOCK_DONE,
            sim.now,
            block=block.block_id,
            node=self.node_id,
            source=lane,
            dest=record.dest_tier,
            duration=duration,
            nbytes=block.size,
        )
        self.completed.append((record, duration))
        self.master.on_migration_complete(record, self.node_id, duration)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return (
            f"<DyrsSlave node{self.node_id} {state} queued={len(self._queue)} "
            f"active={self._active is not None}>"
        )
