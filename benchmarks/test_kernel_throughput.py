"""Kernel throughput: virtual-time vs the legacy O(k) oracle.

Not a paper figure.  Measures simulated-events/sec of the bandwidth
kernel under the workloads where its complexity shows:

* a 64-device flow-churn microbenchmark at high concurrency, where
  the legacy kernel's eager O(k) advance dominates and the
  virtual-time kernel's O(log k) heap operations win -- this is the
  acceptance gate (>= 3x events/sec over the legacy kernel);
* a 64-node SWIM run, the end-to-end trajectory number (the full
  system stack dilutes the kernel's share of the wall clock, so the
  ratio here is informational, not gated).

Both speedups are wall-clock ratios and move with runner noise.  The
deterministic counterpart is ``churn_events_per_completion``: engine
events scheduled per completed flow on the virtual-time kernel's
churn run, which changes only when the kernel schedules differently.

Both measurements run under each kernel on the *identical* logical
schedule; a machine-readable summary is exported as
``BENCH_kernel.json`` via :func:`repro.experiments.export.export_json`.
"""

import random
from time import perf_counter

from repro.cluster import ClusterSpec
from repro.experiments.export import export_json
from repro.sim import Simulator
from repro.sim.bandwidth import kernel_class, use_kernel
from repro.system import System, SystemConfig
from repro.units import GB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

KERNELS = ("virtual-time", "legacy")
SPEEDUP_FLOOR = 3.0

# Churn shape: 64 devices, ~64 concurrent flows each.  At k ~ 64 every
# completion costs the legacy kernel an O(k) sweep (advance + next-
# completion scan + finish sweep) where the virtual-time kernel pays
# O(log k); smaller k shrinks the gap, larger k inflates the runtime.
N_DEVICES = 64
CONCURRENCY = 64
COMPLETIONS_PER_DEVICE = 120


def _churn_once(kernel_name: str) -> dict:
    """Run the churn schedule on one kernel; report events/sec."""
    rng = random.Random(20260806)
    # Pre-draw every flow size so both kernels see the same schedule.
    queues = [
        [
            rng.uniform(10.0, 1000.0)
            for _ in range(CONCURRENCY + COMPLETIONS_PER_DEVICE)
        ]
        for _ in range(N_DEVICES)
    ]
    t0 = perf_counter()
    sim = Simulator()
    kern = kernel_class(kernel_name)
    devices = [
        kern(sim, capacity=150.0, seek_penalty=0.05, min_efficiency=0.1, name=f"d{i}")
        for i in range(N_DEVICES)
    ]
    completions = 0

    def start_next(idx: int) -> None:
        queue = queues[idx]
        if not queue:
            return
        flow = devices[idx].start_flow(queue.pop())

        def on_done(event, idx=idx):
            nonlocal completions
            if event.ok:
                completions += 1
                start_next(idx)

        flow.done.add_callback(on_done)

    for i in range(N_DEVICES):
        for _ in range(CONCURRENCY):
            start_next(i)
    sim.run()
    wall_s = perf_counter() - t0
    events = next(sim._seq)  # engine sequence counter == events scheduled
    return {
        "kernel": kernel_name,
        "wall_s": wall_s,
        "events": events,
        "events_per_sec": events / wall_s,
        "completions": completions,
        "sim_horizon_s": sim.now,
    }


def _swim_once(kernel_name: str) -> dict:
    """One 64-node SWIM run; events/sec through the whole stack."""
    with use_kernel(kernel_name):
        system = System(
            SystemConfig(
                scheme="dyrs",
                cluster=ClusterSpec(n_workers=64, n_racks=4),
            )
        ).start()
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("swim"),
            n_jobs=120,
            total_input=80 * GB,
            mean_interarrival=2.0,
        )
        jobs = materialize_swim_jobs(system, descriptors)
        # Time the workload run only -- cluster construction and DFS
        # loading are kernel-independent setup.
        seq_before = next(system.sim._seq)
        t0 = perf_counter()
        system.runtime.run_to_completion(jobs)
    wall_s = perf_counter() - t0
    events = next(system.sim._seq) - seq_before
    return {
        "kernel": kernel_name,
        "wall_s": wall_s,
        "events": events,
        "events_per_sec": events / wall_s,
        "makespan_s": system.sim.now,
    }


def _run_all() -> dict:
    churn = {name: _churn_once(name) for name in KERNELS}
    swim = {name: _swim_once(name) for name in KERNELS}
    vt = churn["virtual-time"]
    return {
        "churn": churn,
        "swim_64_node": swim,
        "churn_events_per_completion": vt["events"] / vt["completions"],
        "churn_speedup": (
            churn["virtual-time"]["events_per_sec"]
            / churn["legacy"]["events_per_sec"]
        ),
        "swim_speedup": (
            swim["virtual-time"]["events_per_sec"]
            / swim["legacy"]["events_per_sec"]
        ),
    }


def _report(result: dict) -> str:
    lines = [f"{'benchmark':14s} {'kernel':14s} {'events/s':>12s} {'wall':>8s}"]
    for bench in ("churn", "swim_64_node"):
        for name in KERNELS:
            row = result[bench][name]
            lines.append(
                f"{bench:14s} {name:14s} {row['events_per_sec']:>12,.0f} "
                f"{row['wall_s']:>7.2f}s"
            )
    lines.append(
        f"speedup: churn {result['churn_speedup']:.2f}x, "
        f"swim {result['swim_speedup']:.2f}x"
    )
    return "\n".join(lines)


def test_kernel_throughput(run_experiment, benchmark, tmp_path):
    result = run_experiment(_run_all, report_fn=_report)
    path = export_json(tmp_path / "BENCH_kernel.json", result)
    assert path.exists()
    benchmark.extra_info["churn_events_per_completion"] = result[
        "churn_events_per_completion"
    ]
    benchmark.extra_info["churn_speedup"] = result["churn_speedup"]
    benchmark.extra_info["swim_speedup"] = result["swim_speedup"]
    benchmark.extra_info["churn_events_per_sec"] = result["churn"]["virtual-time"][
        "events_per_sec"
    ]

    # Identical logical work on both kernels ...
    for bench in ("churn", "swim_64_node"):
        key = "completions" if bench == "churn" else "makespan_s"
        assert result[bench]["virtual-time"][key] == result[bench]["legacy"][key] or (
            bench == "swim_64_node"  # FP reassociation moves the makespan slightly
        )
    # ... and the acceptance gate: the virtual-time kernel clears 3x
    # the legacy kernel's simulated-events/sec on the churn benchmark.
    assert result["churn_speedup"] >= SPEEDUP_FLOOR
