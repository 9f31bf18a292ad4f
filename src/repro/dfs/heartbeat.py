"""Heartbeat service: periodic DataNode -> NameNode reports.

Each DataNode heartbeats every ``heartbeat_interval`` seconds.  The
payload is assembled from *contributors* -- callables returning dicts
-- so the DYRS slave can piggyback its migration-time estimate and
queue depth without the DFS layer knowing about migration at all
(§III-D: "During heartbeats, the master stores each slave's estimate of
migration time and the number of blocks currently queued").

A dead node (``node.alive == False``) simply stops heartbeating, which
is how the NameNode's miss-counting failure detector notices it.

Batched vs per-node delivery
----------------------------

Every node heartbeats at the same instants, so the service runs
**one** simulation process that walks all nodes per
interval (``mode="batched"``, the default) instead of scheduling one
event per node per interval.  At 1,000 nodes that removes ~500 engine
events per simulated second.  Delivery order and timestamps are
identical to the per-node loops: those are created in ``datanodes``
order at the same instant, so their tick events pop from the heap in
creation order -- exactly the order the batched walk visits nodes.
``mode="per-node"`` keeps the original loops as the equivalence
oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.dfs.namenode import HeartbeatReport, NameNode
from repro.sim.process import Interrupt, Process

__all__ = [
    "HEARTBEAT_MODES",
    "HeartbeatService",
    "default_heartbeat_mode",
    "use_heartbeat_mode",
]

#: Delivery strategies: one walk per interval vs one loop per node.
HEARTBEAT_MODES = ("batched", "per-node")

_DEFAULT_HEARTBEAT_MODE = "batched"


def default_heartbeat_mode() -> str:
    """The delivery mode new services use when none is passed."""
    return _DEFAULT_HEARTBEAT_MODE


@contextmanager
def use_heartbeat_mode(mode: str) -> Iterator[None]:
    """Temporarily switch the module-default delivery mode.

    Lets the equivalence tests stand up otherwise-identical systems
    under batched and per-node delivery (the service is constructed
    deep inside ``System.__init__``).
    """
    global _DEFAULT_HEARTBEAT_MODE
    if mode not in HEARTBEAT_MODES:
        raise ValueError(
            f"unknown heartbeat mode {mode!r}; choose from {HEARTBEAT_MODES}"
        )
    previous = _DEFAULT_HEARTBEAT_MODE
    _DEFAULT_HEARTBEAT_MODE = mode
    try:
        yield
    finally:
        _DEFAULT_HEARTBEAT_MODE = previous


class HeartbeatService:
    """Delivers periodic heartbeats for every DataNode."""

    def __init__(
        self,
        namenode: NameNode,
        mode: Optional[str] = None,
    ) -> None:
        if mode is None:
            mode = _DEFAULT_HEARTBEAT_MODE
        elif mode not in HEARTBEAT_MODES:
            raise ValueError(
                f"unknown heartbeat mode {mode!r}; choose from {HEARTBEAT_MODES}"
            )
        self.namenode = namenode
        self.sim = namenode.sim
        #: Delivery strategy: one batched walk or one loop per node.
        self.mode = mode
        self._processes: list[Process] = []
        #: node -> payload contributors.  Lazily defaulted: a node may
        #: register with the NameNode *after* this service is built
        #: (late-joining DataNodes), so the map must not be a frozen
        #: snapshot of ``namenode.datanodes`` at construction time.
        self._contributors: dict[int, list[Callable[[], dict]]] = {}
        self._started = False

    def add_contributor(
        self,
        node_id: int,
        contributor: Callable[[], dict],
        prefix: Optional[str] = None,
    ) -> None:
        """Merge ``contributor()`` into node ``node_id``'s payloads.

        ``prefix`` namespaces the contributor's keys on the wire
        (``prefix + key``) without the contributor knowing its mount
        point -- how shard-addressed payloads ride an ordinary
        heartbeat: the coordinator mounts each slave's shard fields
        under ``dyrs.`` so observers see e.g. ``dyrs.shard``.
        """
        if prefix:
            inner = contributor

            def contributor() -> dict:
                return {prefix + key: value for key, value in inner().items()}

        self._contributors.setdefault(node_id, []).append(contributor)

    def start(self) -> None:
        """Launch the heartbeat machinery (idempotent)."""
        if self._started:
            return
        self._started = True
        if self.mode == "batched":
            self._processes.append(
                self.sim.process(self._loop_all(), name="hb:all")
            )
            return
        for node_id in self.namenode.datanodes:
            self._processes.append(
                self.sim.process(self._loop(node_id), name=f"hb:{node_id}")
            )

    def stop(self) -> None:
        """Stop every heartbeat loop."""
        for proc in self._processes:
            if proc.is_alive:
                proc.interrupt(cause="stop")
        self._processes = []
        self._started = False

    def _loop(self, node_id: int):
        sim = self.sim
        interval = self.namenode.heartbeat_interval
        node = self.namenode.cluster.node(node_id)
        try:
            while True:
                # A partitioned node still *sends* (it cannot know the
                # link is down), but the report is lost in transit; we
                # skip assembling the payload since nobody receives it.
                if node.alive and node_id not in self.namenode.partitioned:
                    payload: dict = {}
                    for contributor in self._contributors.get(node_id, ()):
                        payload.update(contributor())
                    self.namenode.receive_heartbeat(
                        HeartbeatReport(node_id=node_id, time=sim.now, payload=payload)
                    )
                yield sim.timeout(interval)
        except Interrupt:
            return

    def _loop_all(self):
        """Batched delivery: one pass over all nodes per interval.

        Visits nodes in ``datanodes`` order -- the order the per-node
        loops' same-time tick events would pop from the event heap --
        so observers see byte-identical report sequences.
        """
        sim = self.sim
        namenode = self.namenode
        interval = namenode.heartbeat_interval
        cluster = namenode.cluster
        contributors = self._contributors
        receive = namenode.receive_heartbeat
        report_cls = HeartbeatReport
        try:
            while True:
                partitioned = namenode.partitioned
                nodes = cluster.nodes  # indexed by node id
                now = sim.now
                for node_id in namenode.datanodes:
                    if not nodes[node_id].alive or node_id in partitioned:
                        continue
                    contribs = contributors.get(node_id, ())
                    if len(contribs) == 1:
                        # Contributors return a fresh dict per call and
                        # observers only read it during dispatch, so the
                        # common one-contributor node can skip the merge
                        # copy entirely.
                        payload = contribs[0]()
                    else:
                        payload = {}
                        for contributor in contribs:
                            payload.update(contributor())
                    receive(report_cls(node_id, now, payload))
                yield sim.timeout(interval)
        except Interrupt:
            return
