"""The SWIM workload experiment: Table I, Fig 5, Fig 6, Fig 7.

200 trace-derived jobs run concurrently on each scheme with the slow
node active.  Paper results:

* Table I -- average job duration 31.5 s under HDFS; speedups +46 %
  (inputs-in-RAM), +33 % (DYRS), -111 % (Ignem);
* Fig 5 -- DYRS speedups by input-size bin: small 34 %, medium 47 %,
  large 26 %; DYRS achieves >= 75 % of RAM's speedup for small/medium;
* Fig 6 -- mapper tasks run 1.8x faster under DYRS;
* Fig 7 -- DYRS migrates only ~45 % as much data as the instant
  hypothetical yet delivers ~72 % of the RAM speedup, with a small
  per-server memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis import format_table, speedup, summarize
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB, MB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

__all__ = ["SwimResult", "run", "report", "DEFAULT_SCHEMES"]

DEFAULT_SCHEMES = ("hdfs", "ram", "ignem", "dyrs", "instant")

BINS = ("small", "medium", "large")


@dataclass(frozen=True)
class SwimResult:
    """Per-scheme aggregates over the workload."""

    schemes: tuple[str, ...]
    #: scheme -> job_id -> end-to-end duration.
    durations: dict[str, dict[str, float]]
    #: job_id -> size bin.
    bins: dict[str, str]
    #: scheme -> all mapper durations.
    map_durations: dict[str, list[float]]
    #: scheme -> per-server mean resident migrated bytes (Fig 7).
    mean_memory_per_server: dict[str, list[float]]
    #: scheme -> per-server peak resident migrated bytes.
    peak_memory_per_server: dict[str, list[float]]
    #: scheme -> total bytes actually migrated.
    migrated_bytes: dict[str, float]

    def mean_duration(self, scheme: str) -> float:
        values = list(self.durations[scheme].values())
        return sum(values) / len(values)

    def speedup_vs_hdfs(self, scheme: str) -> float:
        return speedup(self.mean_duration("hdfs"), self.mean_duration(scheme))

    def bin_speedup(self, scheme: str, size_bin: str) -> float:
        base = [
            d for j, d in self.durations["hdfs"].items() if self.bins[j] == size_bin
        ]
        other = [
            d for j, d in self.durations[scheme].items() if self.bins[j] == size_bin
        ]
        return speedup(sum(base) / len(base), sum(other) / len(other))

    def mapper_speedup_factor(self, scheme: str) -> float:
        """Mean mapper duration ratio HDFS / scheme (paper: 1.8x)."""
        base = np.mean(self.map_durations["hdfs"])
        other = np.mean(self.map_durations[scheme])
        return float(base / other)


def _mean_memory_series(node) -> float:
    """Time-weighted mean of a node's migrated-memory occupancy."""
    samples = node.memory.store.usage_samples
    if len(samples) < 2:
        return 0.0
    total = 0.0
    for (t0, used), (t1, _) in zip(samples, samples[1:]):
        total += used * (t1 - t0)
    horizon = samples[-1][0] - samples[0][0]
    return total / horizon if horizon > 0 else 0.0


def run(
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    n_jobs: int = 200,
    seed: int = 0,
    interference: str = "persistent-1",
    mean_interarrival: float = 6.0,
    total_input: Optional[float] = None,
) -> SwimResult:
    """Run the workload under each scheme (identical job mix)."""
    if "hdfs" not in schemes:
        raise ValueError("the HDFS baseline is required")
    durations: dict[str, dict[str, float]] = {}
    map_durations: dict[str, list[float]] = {}
    mean_mem: dict[str, list[float]] = {}
    peak_mem: dict[str, list[float]] = {}
    migrated: dict[str, float] = {}
    bins: dict[str, str] = {}
    for scheme in schemes:
        system = build_system(
            PaperSetup(scheme=scheme, seed=seed, interference=interference)
        )
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("swim"),
            n_jobs=n_jobs,
            total_input=total_input or 170 * GB,
            mean_interarrival=mean_interarrival,
        )
        bins = {d.job_id: d.bin for d in descriptors}
        jobs = materialize_swim_jobs(system, descriptors)
        metrics = system.runtime.run_to_completion(jobs)
        durations[scheme] = {
            j.job_id: j.duration for j in metrics.finished_jobs()
        }
        map_durations[scheme] = metrics.all_map_durations()
        mean_mem[scheme] = [
            _mean_memory_series(node) for node in system.cluster.nodes
        ]
        peak_mem[scheme] = [node.memory.peak for node in system.cluster.nodes]
        master = system.master
        migrated[scheme] = master.migrated_bytes() if master is not None else 0.0
    return SwimResult(
        schemes=tuple(schemes),
        durations=durations,
        bins=bins,
        map_durations=map_durations,
        mean_memory_per_server=mean_mem,
        peak_memory_per_server=peak_mem,
        migrated_bytes=migrated,
    )


def report(result: SwimResult) -> str:
    lines = ["== Table I: average job duration and speedup w.r.t. HDFS =="]
    rows = []
    for scheme in result.schemes:
        rows.append(
            [
                scheme,
                result.mean_duration(scheme),
                f"{result.speedup_vs_hdfs(scheme):+.0%}",
            ]
        )
    lines.append(format_table(["scheme", "avg duration (s)", "speedup"], rows))
    lines.append("paper: HDFS 31.5s; RAM +46%; Ignem -111%; DYRS +33%")

    if "dyrs" in result.schemes:
        lines.append("")
        lines.append("== Fig 5: DYRS speedup by job input-size bin ==")
        rows = [
            [b, f"{result.bin_speedup('dyrs', b):+.0%}"]
            for b in BINS
            if any(v == b for v in result.bins.values())
        ]
        lines.append(format_table(["bin", "speedup"], rows))
        lines.append("paper: small +34%, medium +47%, large +26%")

        lines.append("")
        lines.append("== Fig 6: mapper task durations ==")
        rows = []
        for scheme in result.schemes:
            stats = summarize(result.map_durations[scheme])
            rows.append(
                [scheme, stats["mean"], stats["median"], stats["p90"], stats["max"]]
            )
        lines.append(
            format_table(["scheme", "mean (s)", "median", "p90", "max"], rows)
        )
        lines.append(
            f"mapper speedup factor (DYRS vs HDFS): "
            f"{result.mapper_speedup_factor('dyrs'):.2f}x   (paper: 1.8x)"
        )

    if "instant" in result.schemes and "dyrs" in result.schemes:
        lines.append("")
        lines.append("== Fig 7: per-server memory footprint (migrated bytes) ==")
        rows = []
        for scheme in ("dyrs", "instant"):
            rows.append(
                [
                    scheme,
                    np.mean(result.mean_memory_per_server[scheme]) / MB,
                    np.max(result.peak_memory_per_server[scheme]) / MB,
                    result.migrated_bytes[scheme] / GB,
                ]
            )
        lines.append(
            format_table(
                ["scheme", "mean resident (MB/server)", "peak (MB)", "migrated (GB)"],
                rows,
            )
        )
        ratio = result.migrated_bytes["dyrs"] / max(result.migrated_bytes["instant"], 1)
        if "ram" in result.schemes:
            frac = result.speedup_vs_hdfs("dyrs") / max(
                result.speedup_vs_hdfs("ram"), 1e-9
            )
            lines.append(
                f"DYRS migrates {ratio:.0%} of the hypothetical's data yet delivers "
                f"{frac:.0%} of the RAM speedup (paper: 45% and 72%)"
            )
    return "\n".join(lines)
