"""The declarative per-temperature lifecycle policy table.

DLM-style storage policies are tables, not formulas: operators say
"hot data lives on fast media with full replication, cold data moves
to ARCHIVE with one durable copy" and the system executes it.  This
module expresses that table as data -- one :class:`LifecycleRule` per
:class:`~repro.tiers.temperature.Temperature` -- and adapts it to the
two consumers:

* the **upward machinery** of
  :class:`~repro.tiers.master.TieredDyrsMaster` (background disk->ssd
  promotion, SSD expiry) via :class:`TablePolicy`, a
  :class:`~repro.tiers.policy.TierPolicy`;
* the **downward machinery** of
  :class:`~repro.lifecycle.master.LifecycleMaster` (archival and the
  replication scheduler) via :meth:`LifecycleTable.rule` directly.

:class:`TablePolicy` maps an ``archive`` placement to ``disk`` on
purpose: the shared tier ladder only drives moves between the working
tiers, while archive moves are integrity-checked, replication-aware
operations the lifecycle master serializes itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.device import TIER_ORDER
from repro.tiers.policy import PlacementContext, _best_available
from repro.tiers.temperature import Temperature

__all__ = ["LifecycleRule", "LifecycleTable", "TablePolicy", "default_table"]


@dataclass(frozen=True)
class LifecycleRule:
    """What one temperature class is entitled to.

    Attributes
    ----------
    placement:
        The tier the block should occupy (a :data:`TIER_ORDER` name).
        Placements above the rungs a node actually has degrade to the
        best available one.
    replication:
        Durable-copy target while the rule applies, or None to keep the
        file's configured factor.  An archived copy counts as one
        durable copy.
    """

    placement: str
    replication: Optional[int] = None

    def __post_init__(self) -> None:
        if self.placement not in TIER_ORDER:
            raise ValueError(
                f"placement must be one of {TIER_ORDER}, got {self.placement!r}"
            )
        if self.replication is not None and self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )


@dataclass(frozen=True)
class LifecycleTable:
    """The full policy: one rule per temperature class."""

    hot: LifecycleRule = field(
        default_factory=lambda: LifecycleRule("memory")
    )
    warm: LifecycleRule = field(
        default_factory=lambda: LifecycleRule("disk")
    )
    cold: LifecycleRule = field(
        default_factory=lambda: LifecycleRule("archive", replication=1)
    )

    def __post_init__(self) -> None:
        ranks = [TIER_ORDER.index(r.placement) for r in (self.hot, self.warm, self.cold)]
        if not ranks[0] >= ranks[1] >= ranks[2]:
            raise ValueError(
                "table must be monotone: hot placement >= warm >= cold, got "
                f"{self.hot.placement!r}/{self.warm.placement!r}/"
                f"{self.cold.placement!r}"
            )

    def rule(self, temperature: Temperature) -> LifecycleRule:
        if temperature is Temperature.HOT:
            return self.hot
        if temperature is Temperature.WARM:
            return self.warm
        return self.cold

    def replication(self, temperature: Temperature, default: int) -> int:
        """Durable-copy target under ``temperature`` (``default`` when
        the rule does not override it)."""
        override = self.rule(temperature).replication
        return default if override is None else override


def default_table(cold_replication: int = 1) -> LifecycleTable:
    """The canonical HOT->memory, WARM->disk, COLD->archive table."""
    return LifecycleTable(
        cold=LifecycleRule("archive", replication=cold_replication)
    )


class TablePolicy:
    """Adapter presenting a :class:`LifecycleTable` as a
    :class:`~repro.tiers.policy.TierPolicy` for the shared tier
    machinery."""

    def __init__(self, table: Optional[LifecycleTable] = None) -> None:
        self.table = table if table is not None else default_table()

    def target_tier(self, ctx: PlacementContext) -> str:
        placement = self.table.rule(ctx.temperature).placement
        if placement == "archive":
            # The working-tier machinery bottoms out at disk; the
            # lifecycle master's archive pass owns the last step down.
            placement = "disk"
        return _best_available(placement, ctx.tiers)
