"""DYRS benchmark: paper-swim, swim-scale, shard-lifecycle and chaos-soak.

Run from the repository root::

    python3 perfbench/run.py --workload paper-swim --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with span tracing off;
``--trace 1`` runs replica 0 untraced, then once with spans on, and
reports the per-layer metrics; ``--profile`` prints cProfile self time
by ``repro`` package beside the span self times (informational only).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output check passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("paper-swim", "swim-scale", "shard-lifecycle", "chaos-soak")

DEFAULT_SEED = 0
#: Never run while tuning the benchmark or a change; kept for
#: confirming a claim on data the claim was not fitted to.
HELD_OUT_SEED = 104729

#: Untraced executions of replica 0 in a traced run: the digest
#: reference and the denominator of ``bench.trace_overhead``.
UNTRACED_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sets the number of repeat rounds (see cases.Batch)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="per-replica input size (small is for the tests)")
    return parser.parse_args(argv)


def problems(executions, traced=None, reference=None) -> list[str]:
    """Everything that makes the run's output wrong.

    Repeated untraced executions of one replica must share a digest
    (with each other and with ``reference``, replica -> digest), the
    traced execution must reproduce it, no submitted job may be missing
    or short of input, and no audit may report a violation.
    """
    found: list[str] = []
    reference = dict(reference or {})
    for ex in executions:
        digest = reference.setdefault(ex.replica, ex.digest)
        if ex.digest != digest:
            found.append(
                f"replica {ex.replica}: untraced executions disagree "
                f"({digest[:16]} vs {ex.digest[:16]})"
            )
        for o in ex.outcomes:
            failed = o.failed_jobs()
            if failed:
                found.append(
                    f"replica {ex.replica} {o.name}: {failed} of {o.submitted} "
                    "jobs failed"
                )
            for violation in o.violations:
                found.append(f"replica {ex.replica} {o.name}: {violation}")
    if traced is not None and traced.digest != reference.get(traced.replica):
        found.append(
            f"replica {traced.replica}: traced execution differs from untraced "
            f"({traced.digest[:16]} vs {reference.get(traced.replica, '')[:16]})"
        )
    return found


def describe(run) -> list[str]:
    """The digest line and its inputs, per case, for one replica."""
    lines = [f"  replica {run.replica}: digest {run.digest}"]
    for o in run.outcomes:
        status = ", ".join(f"{k}={v}" for k, v in sorted(o.record_status.items()))
        done = sum(1 for j in o.jobs.values() if j.duration is not None)
        lines.append(
            f"    {o.name:26s} end={o.end_time:.6f}s events={o.events} "
            f"jobs={done}/{o.submitted} {status}"
        )
    return lines


def finish(found: list[str], attempted: int, failed: int, values: dict,
           units: dict) -> int:
    """Print the problems and the result line; return the exit code."""
    for problem in found:
        print(f"CHECK FAILED: {problem}")
    if found:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


def counts(executions) -> tuple[int, int]:
    attempted = sum(o.submitted for ex in executions for o in ex.outcomes)
    failed = sum(o.failed_jobs() for ex in executions for o in ex.outcomes)
    return attempted, failed


def measure(args, size) -> int:
    """Every replica once, then a fixed number of rounds of the
    repeated replicas in turn (``Batch.rounds``: set by ``--seconds``
    alone)."""
    from cases import run_replica
    from metrics import END_TO_END, PAPER, accuracy, end_to_end

    batch = size.batches[args.workload]
    replicas, repeated = batch.replicas, min(batch.repeated, batch.replicas)
    order = list(range(replicas)) + list(range(repeated)) * batch.rounds(args.seconds)
    executions, found = [], []
    attempted = failed = 0
    for n, replica in enumerate(order):
        ex = run_replica(args.workload, args.seed, replica, size)
        jobs, bad = counts([ex])
        attempted, failed = attempted + jobs, failed + bad
        if n >= replicas:
            # A repeat: check it against the first execution, then keep
            # only its timings so memory does not grow with the run.
            found += problems([ex], reference={replica: executions[replica].digest})
            ex.outcomes = []
        executions.append(ex)
    first = executions[:replicas]
    found = problems(first) + found

    print(f"== {args.workload} seed={args.seed} replicas={replicas} "
          f"executions={len(executions)} ==")
    for run in first:
        print("\n".join(describe(run)))
    print(f"failed_frac = {failed / attempted:.6f} ratio "
          f"({failed} of {attempted} submitted jobs)")
    values = end_to_end(first, executions) if not found else {}
    if args.workload == "paper-swim" and not found:
        acc = accuracy(first)
        print("accuracy vs the paper (median over the five-scheme replicas):")
        for key in ("ram", "dyrs", "ignem"):
            print(f"  Table I {key:5s} speedup over HDFS: {acc[key]:+.1%}   "
                  f"(paper {PAPER[key]:+.0%})")
        print(f"  Fig 6 mapper factor (HDFS/DYRS): {acc['mapper_factor']:.2f}x"
              f"   (paper {PAPER['mapper_factor']}x)")
        print(f"paper_err_pp = {acc['paper_err_pp']:.4f} pp")
    elif args.workload != "paper-swim":
        print("accuracy: no reference measurement exists for this workload; "
              "its simulated figures are unvalidated")
    for name, unit in END_TO_END.items():
        if name in values:
            print(f"{name} = {values[name]:.6g} {unit}")
    return finish(found, attempted, failed, values, END_TO_END)


def traced_run(args, size) -> int:
    """Replica 0 untraced, three times, then once with spans on."""
    from cases import run_replica
    from metrics import MOVES, PER_LAYER_UNITS, per_layer
    from spans import Instrumentation

    untraced = [run_replica(args.workload, args.seed, 0, size)
                for _ in range(UNTRACED_REPEATS)]
    run_id = f"{args.workload}-seed{args.seed}-{uuid.uuid4().hex[:8]}"
    with Instrumentation(run_id) as inst:
        traced = run_replica(args.workload, args.seed, 0, size, span=inst.span)
    found = problems(untraced, traced)
    attempted, failed = counts(untraced + [traced])
    path = inst.log.write(OUT / f"{args.workload}.spans.npz")

    print(f"== {args.workload} seed={args.seed} traced replica 0 "
          f"(run {run_id}, {len(inst.log)} spans -> {path.relative_to(ROOT)}) ==")
    print("\n".join(describe(traced)))
    untraced_wall = statistics.median(ex.wall_s for ex in untraced)
    values = per_layer(traced, inst, untraced_wall) if not found else {}
    print(f"{'per-layer metric':32s} {'value':>14s} {'unit':6s}  should move -> on")
    for name, unit in PER_LAYER_UNITS.items():
        if name in values:
            print(f"{name:32s} {values[name]:14.6g} {unit:6s}  {MOVES[name]}")
    return finish(found, attempted, failed, values, PER_LAYER_UNITS)


def profile_run(args, size) -> int:
    """cProfile self time by package beside span self time (replica 0)."""
    import cProfile
    import pstats

    from cases import run_replica
    from spans import Instrumentation, layer_of_file

    profiler = cProfile.Profile()
    profiler.enable()
    plain = run_replica(args.workload, args.seed, 0, size)
    profiler.disable()
    by_package: dict[str, float] = {}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        package = "builtins" if filename == "~" else layer_of_file(filename)
        by_package[package] = by_package.get(package, 0.0) + row[2]
    with Instrumentation("profile") as inst:
        traced = run_replica(args.workload, args.seed, 0, size, span=inst.span)
    span_self = inst.log.layer_self_s()
    found = problems([plain], traced)

    total_prof = sum(by_package.values()) or 1.0
    total_span = sum(span_self.values()) or 1.0
    print(f"== {args.workload} seed={args.seed}: self time by package "
          "(informational; never feeds end-to-end numbers) ==")
    print(f"{'package':12s} {'cProfile s':>11s} {'share':>7s} {'spans s':>9s} "
          f"{'share':>7s}")
    for package in sorted(set(by_package) | set(span_self),
                          key=lambda p: -by_package.get(p, 0.0)):
        prof, span = by_package.get(package, 0.0), span_self.get(package, 0.0)
        print(f"{package:12s} {prof:11.3f} {prof / total_prof:7.1%} "
              f"{span:9.3f} {span / total_span:7.1%}")
    for problem in found:
        print(f"CHECK FAILED: {problem}")
    return 1 if found else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from cases import SIZES

    size = SIZES[args.size]
    if args.profile:
        return profile_run(args, size)
    if args.trace:
        return traced_run(args, size)
    return measure(args, size)


if __name__ == "__main__":
    sys.exit(main())
