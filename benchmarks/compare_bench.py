"""Compare a benchmark run against its committed baseline.

Usage::

    python benchmarks/compare_bench.py BENCH_kernel.json \\
        benchmarks/baselines/BENCH_kernel.json [--threshold 0.30]

Both files are pytest-benchmark JSON exports holding the
machine-independent headline numbers in ``benchmarks[].extra_info``.
For the kernel benchmark those are speedup *ratios*
(``churn_speedup``, ``swim_speedup``: virtual-time kernel events/sec
over the legacy kernel's, measured on the same machine in the same
process, so runner speed cancels out) plus the deterministic
``churn_events_per_completion`` (engine events scheduled per completed
flow, lower is better).  For the lifecycle benchmark
they are simulated quantities (``archive_hit_ratio``,
``reheat_latency_s``), deterministic per seed.  Absolute wall-clock
numbers like ``churn_events_per_sec`` vary with the runner and are
reported but never gated.

Exits 1 when any gated number regressed by more than ``--threshold``
(default 30%) relative to the baseline -- a *drop* for higher-is-better
keys, a *rise* for lower-is-better ones -- and 2, with a one-line
message naming the file, when either JSON is missing or unreadable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: extra_info keys that gate, higher is better (runner-independent).
GATED = (
    "churn_speedup",
    "swim_speedup",
    "archive_hit_ratio",
    "shard_p99_ratio",
    "shard_async_p99_ratio",
    "idle_notify_event_ratio",
)
#: extra_info keys that gate, lower is better (latencies, overheads).
GATED_LOWER = (
    "reheat_latency_s",
    "makespan_overhead_ratio",
    "events_per_task_1k",
    "churn_events_per_completion",
)
#: extra_info keys shown for context only (absolute; runner-dependent).
INFORMATIONAL = (
    "churn_events_per_sec",
    "archived_blocks",
    "restored_blocks",
    "pull_index_speedup_1k",
    "scale_events_per_sec_1000n",
    "scale_wall_s_1000n",
    "scale_peak_rss_mb_400n",
    "idle_notify_wall_ratio",
)


class BenchFileError(Exception):
    """A benchmark JSON that is missing or not a pytest-benchmark export."""


def load_extra_info(path: Path) -> dict[str, dict[str, float]]:
    """name -> extra_info for every benchmark in a pytest-benchmark JSON.

    Raises :class:`BenchFileError` naming ``path`` when the file is
    missing, unreadable, or not shaped like a pytest-benchmark export.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
        return {
            bench["name"]: bench.get("extra_info", {})
            for bench in payload["benchmarks"]
        }
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else repr(exc)
        raise BenchFileError(f"cannot read benchmark file {path}: {reason}")


def compare(
    current: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
    threshold: float,
) -> list[str]:
    """Regression messages for every gated ratio past ``threshold``."""
    failures: list[str] = []
    for name, base_info in sorted(baseline.items()):
        cur_info = current.get(name)
        if cur_info is None:
            failures.append(f"{name}: present in baseline but not in this run")
            continue
        for keys, lower_is_better in ((GATED, False), (GATED_LOWER, True)):
            for key in keys:
                if key not in base_info:
                    continue
                base = base_info[key]
                cur = cur_info.get(key)
                if cur is None:
                    failures.append(f"{name}.{key}: missing from this run")
                    continue
                change = (cur - base) / base
                regressed = change > threshold if lower_is_better else (
                    change < -threshold
                )
                status = "REGRESSED" if regressed else "ok"
                arrow = "lower=better" if lower_is_better else "higher=better"
                print(
                    f"{name}.{key}: {cur:.3f} vs baseline {base:.3f} "
                    f"({change:+.1%}, {arrow}) [{status}]"
                )
                if regressed:
                    failures.append(
                        f"{name}.{key} regressed {abs(change):.1%} "
                        f"(> {threshold:.0%} allowed): "
                        f"{cur:.3f} vs baseline {base:.3f}"
                    )
        for key in INFORMATIONAL:
            if key in base_info and key in cur_info:
                print(
                    f"{name}.{key}: {cur_info[key]:,.0f} vs baseline "
                    f"{base_info[key]:,.0f} (informational, not gated)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="this run's benchmark JSON")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="max allowed relative drop in a gated ratio (default 0.30)",
    )
    args = parser.parse_args(argv)

    try:
        current = load_extra_info(args.current)
        baseline = load_extra_info(args.baseline)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = compare(current, baseline, args.threshold)
    if failures:
        print("\nBenchmark regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nAll gated benchmark ratios within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
