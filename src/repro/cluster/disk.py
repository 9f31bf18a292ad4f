"""Hard-disk model.

A disk rung is a :class:`~repro.cluster.device.Channel` with a nonzero
seek penalty: concurrent streams cost aggregate throughput, which is
why DYRS slaves serialize their migrations (§III-B) and why ``dd``
interference readers (§V-C) slow everything else down.

Reads and writes share the single actuator, so both kinds of transfer
are flows on the same channel.  The rung has no byte store: disk
residency is the DFS block map's business.  The per-stream rate a
*new* stream would get (``channel.rate_hint()``) is oracle knowledge
DYRS deliberately *estimates from observed migration durations*
instead (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.device import Rung, spec_channel
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["DiskSpec"]


@dataclass(frozen=True)
class DiskSpec:
    """Static description of a disk.

    Attributes
    ----------
    bandwidth:
        Peak sequential throughput, bytes/second.  The paper's servers
        use a 1 TB HDD; ~150 MB/s sequential is typical.
    seek_penalty:
        Aggregate-efficiency loss per extra concurrent stream
        (see :mod:`repro.sim.bandwidth`).
    min_efficiency:
        Floor on aggregate throughput as a fraction of ``bandwidth``:
        the I/O scheduler batches each stream's sequential run, so
        heavy concurrency saturates aggregate throughput rather than
        collapsing it.
    """

    bandwidth: float = 150 * MB
    seek_penalty: float = 0.35
    min_efficiency: float = 0.10

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.seek_penalty < 0:
            raise ValueError(f"seek_penalty must be >= 0, got {self.seek_penalty}")
        if not 0 <= self.min_efficiency <= 1:
            raise ValueError(
                f"min_efficiency must be in [0, 1], got {self.min_efficiency}"
            )

    def rung(self, sim: "Simulator", name: str = "disk") -> Rung:
        """The disk rung this spec describes."""
        return Rung("disk", spec_channel(sim, self, name), spec=self)
