"""Physical cluster model: nodes, storage rungs, network, interference.

This subpackage models the hardware substrate the paper's testbed
provides (§V-A): worker nodes with one HDD each, large RAM, and a
10 Gbps network.  Every node-local storage device -- disk, memory and
the optional SSD and archive partitions -- is one
:class:`~repro.cluster.device.Rung` type built from its spec (a
:class:`Channel` plus an optional :class:`ByteStore`).  Heterogeneity
is introduced exactly as in §V-C -- background reader streams stealing
disk bandwidth, either persistently or in alternating on/off patterns.
"""

from repro.cluster.archive import ArchiveFull, ArchiveSpec
from repro.cluster.device import (
    TIER_ORDER,
    ByteStore,
    Channel,
    Rung,
    StoreFull,
    is_promotion,
)
from repro.cluster.disk import DiskSpec
from repro.cluster.memory import MemorySpec, OutOfMemory
from repro.cluster.network import Fabric, Nic, NicSpec
from repro.cluster.node import Node, NodeSpec
from repro.cluster.ssd import SsdFull, SsdSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.cluster.interference import (
    AlternatingInterference,
    InterferenceSchedule,
    PersistentInterference,
    TraceInterference,
)

__all__ = [
    "TIER_ORDER",
    "AlternatingInterference",
    "ArchiveFull",
    "ArchiveSpec",
    "ByteStore",
    "Channel",
    "Cluster",
    "ClusterSpec",
    "DiskSpec",
    "Fabric",
    "InterferenceSchedule",
    "MemorySpec",
    "Nic",
    "NicSpec",
    "Node",
    "NodeSpec",
    "OutOfMemory",
    "PersistentInterference",
    "Rung",
    "StoreFull",
    "SsdFull",
    "SsdSpec",
    "TraceInterference",
    "is_promotion",
]
