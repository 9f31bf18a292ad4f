"""Algorithm 1: greedy min-finish-time replica targeting (§III-A2).

Reproduced from the paper::

    // initialize estimated finish times for each node
    // assuming next pending block is assigned to this node
    foreach node in DATANODES do
        finishTime[node] = migTime[node] x (numQueued[node]+1)
    end
    // set target for each block
    foreach block in PENDING do
        locations = block.getReplicaLocations();
        target = locWithMinFinishTime(locations, finishTimes);
        block.migrationTarget = target;
        finishTime[target] = finishTime[target] + migTime[target]
    end

``migTime`` and ``numQueued`` come from slave heartbeats; we represent
them as :class:`SlaveLoad`.  The pass is pure (no simulation side
effects) so it can run "off the critical path" and be unit-tested /
benchmarked in isolation -- the paper's prototype retargets 50 GB of
pending migrations in under a millisecond (§III-D); our scalability
bench measures the Python equivalent.

Kernel registry
---------------

Two interchangeable implementations sit behind
:func:`compute_targets`, following the bandwidth-kernel template:

``legacy``
    The original straight-line transcription of Algorithm 1, kept as
    the equivalence oracle.
``indexed``
    The default: same Python algorithm with the per-record inner loop
    devirtualized (no closure allocation, no ``min(key=...)`` call per
    record).  Bit-identical float arithmetic by construction.

:func:`use_targeting_kernel` swaps the module default, exactly like
``repro.sim.bandwidth.use_kernel``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.records import MigrationRecord

__all__ = [
    "SlaveLoad",
    "TARGETING_KERNEL_NAMES",
    "compute_targets",
    "default_targeting_kernel",
    "use_targeting_kernel",
]


@dataclass(frozen=True, slots=True)
class SlaveLoad:
    """One slave's state as last reported via heartbeat.

    Attributes
    ----------
    seconds_per_byte:
        The slave's migration-cost estimate (§IV-A).
    queued_blocks:
        Blocks in the slave's local queue, *including* the active one.
    """

    seconds_per_byte: float
    queued_blocks: int

    def __post_init__(self) -> None:
        if self.seconds_per_byte <= 0:
            raise ValueError(
                f"seconds_per_byte must be positive, got {self.seconds_per_byte}"
            )
        if self.queued_blocks < 0:
            raise ValueError(
                f"queued_blocks must be >= 0, got {self.queued_blocks}"
            )


def _initial_finish_times(
    loads: Mapping[int, SlaveLoad], reference_block_size: float
) -> dict[int, float]:
    """``finishTime[node] = migTime[node] * (numQueued[node] + 1)``."""
    if reference_block_size <= 0:
        raise ValueError(
            f"reference_block_size must be positive, got {reference_block_size}"
        )
    return {
        node_id: load.seconds_per_byte
        * reference_block_size
        * (load.queued_blocks + 1)
        for node_id, load in loads.items()
    }


def _compute_targets_legacy(
    pending: Iterable[MigrationRecord],
    loads: Mapping[int, SlaveLoad],
    reference_block_size: float,
) -> dict[int, int]:
    """The oracle: Algorithm 1 transcribed line by line."""
    finish_time = _initial_finish_times(loads, reference_block_size)
    targets: dict[int, int] = {}
    for record in pending:
        locations: Sequence[int] = [
            n for n in record.block.get_replica_locations() if n in finish_time
        ]
        if not locations:
            record.target_node = None
            continue
        # locWithMinFinishTime -- ties broken by node id for determinism.
        target: Optional[int] = min(
            locations, key=lambda n: (finish_time[n], n)
        )
        record.target_node = target
        targets[record.block_id] = target
        finish_time[target] += loads[target].seconds_per_byte * record.block.size
    return targets


def _compute_targets_indexed(
    pending: Iterable[MigrationRecord],
    loads: Mapping[int, SlaveLoad],
    reference_block_size: float,
) -> dict[int, int]:
    """Fast pure-Python kernel: manual min over replica candidates.

    The ``(finish_time, node_id)`` tuple-min of the oracle is unrolled
    into two scalar comparisons; replicas are at most a handful per
    block, so the win is avoiding per-record tuple/closure allocation.
    The float arithmetic is token-identical to the oracle's.
    """
    finish_time = _initial_finish_times(loads, reference_block_size)
    spb = {node_id: load.seconds_per_byte for node_id, load in loads.items()}
    targets: dict[int, int] = {}
    ft_get = finish_time.get
    for record in pending:
        best = -1
        best_ft = 0.0
        for node_id in record.block.replica_nodes:
            ft = ft_get(node_id)
            if ft is None:
                continue
            if best < 0 or ft < best_ft or (ft == best_ft and node_id < best):
                best = node_id
                best_ft = ft
        if best < 0:
            record.target_node = None
            continue
        record.target_node = best
        targets[record.block_id] = best
        finish_time[best] = best_ft + spb[best] * record.block.size
    return targets


_TARGETING_KERNELS = {
    "legacy": _compute_targets_legacy,
    "indexed": _compute_targets_indexed,
}

#: Registered Algorithm-1 kernels, fastest-default first.
TARGETING_KERNEL_NAMES = ("indexed", "legacy")

_DEFAULT_TARGETING_KERNEL = "indexed"


def default_targeting_kernel() -> str:
    """The kernel :func:`compute_targets` dispatches to by default."""
    return _DEFAULT_TARGETING_KERNEL


@contextmanager
def use_targeting_kernel(name: str) -> Iterator[None]:
    """Temporarily switch the module-default Algorithm-1 kernel.

    Mirrors ``repro.sim.bandwidth.use_kernel``; the equivalence tests
    run full workloads under each kernel and diff the logs.
    """
    global _DEFAULT_TARGETING_KERNEL
    if name not in _TARGETING_KERNELS:
        raise ValueError(
            f"unknown targeting kernel {name!r}; "
            f"choose from {TARGETING_KERNEL_NAMES}"
        )
    previous = _DEFAULT_TARGETING_KERNEL
    _DEFAULT_TARGETING_KERNEL = name
    try:
        yield
    finally:
        _DEFAULT_TARGETING_KERNEL = previous


def compute_targets(
    pending: Iterable[MigrationRecord],
    loads: Mapping[int, SlaveLoad],
    reference_block_size: float,
    kernel: Optional[str] = None,
) -> dict[int, int]:
    """Run Algorithm 1; returns ``{block_id: target_node}``.

    Parameters
    ----------
    pending:
        Unbound migrations in queue (FIFO) order.  Each record's
        ``target_node`` field is updated in place, mirroring
        ``block.migrationTarget = target``.
    loads:
        Per-node :class:`SlaveLoad` for every node eligible to migrate.
        Nodes absent from ``loads`` (dead or unregistered) are never
        targeted.
    reference_block_size:
        Size used to convert per-byte estimates into the paper's
        per-block ``migTime`` for the queue-backlog initialization.
    kernel:
        Kernel override; ``None`` uses the module default (see
        :func:`use_targeting_kernel`).

    Notes
    -----
    Blocks whose replicas are all on ineligible nodes keep
    ``target_node = None`` and are skipped by the binding step until a
    replica node recovers.
    """
    return _TARGETING_KERNELS[kernel or _DEFAULT_TARGETING_KERNEL](
        pending, loads, reference_block_size
    )
