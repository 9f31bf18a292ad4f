"""Tiered-storage extension: an SSD rung between disk and memory.

This package generalizes DYRS's two-level disk->memory migration into
a three-rung storage ladder (disk < ssd < memory).  The rungs
themselves are the cluster's :class:`~repro.cluster.device.Rung` s
(``Node.tiers``); this package holds the policy around them:

* :mod:`repro.tiers.temperature` -- per-block EWMA access tracking and
  the hot/warm/cold classification;
* :mod:`repro.tiers.policy` -- pure placement policies (temperature
  ladder, cost-benefit);
* :mod:`repro.tiers.master` -- the lifecycle engine, a
  :class:`~repro.core.master.DyrsMaster` subclass that routes every
  tier edge through the paper's bandwidth-aware machinery.

The package is an *extension*, not part of the reproduction: no scheme
the paper evaluates touches it, and building a system without the
``"dyrs-tiered"`` scheme creates none of its objects.
"""

from repro.cluster.device import TIER_ORDER, is_promotion
from repro.tiers.master import TierConfig, TieredDyrsMaster
from repro.tiers.policy import (
    CostBenefitPolicy,
    PlacementContext,
    ThresholdPolicy,
    TierPolicy,
)
from repro.tiers.temperature import Temperature, TemperatureTracker

__all__ = [
    "TIER_ORDER",
    "CostBenefitPolicy",
    "PlacementContext",
    "Temperature",
    "TemperatureTracker",
    "ThresholdPolicy",
    "TierConfig",
    "TierPolicy",
    "TieredDyrsMaster",
    "is_promotion",
]
