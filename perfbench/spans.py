"""Span tracing of one benchmark pass, recorded from outside ``src/``.

The traced pass patches the public entry points of each simulator
layer (class methods and module functions, looked up by name) with
thin wrappers that open and close a span around the call, and wraps
every generator handed to ``Simulator.process`` so each resume of a
process body is a span attributed to the package that defined it.
Patches are undone when the pass ends, so untraced passes in the same
process run the original code.

Spans live in flat in-memory arrays (name id, parent index, start and
end in ``perf_counter_ns``) and are written out once, when the run
ends.  A span's self time is its duration minus the time its direct
children cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional

LAYERS = (
    "sim",
    "cluster",
    "dfs",
    "core",
    "compute",
    "shard",
    "tiers",
    "lifecycle",
    "obs",
    "workloads",
)


def layer_of_file(filename: str) -> str:
    """The ``repro`` package a source file belongs to (``bench`` if none)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "bench"
    rest = path[at + len(marker):]
    package = rest.split("/", 1)[0] if "/" in rest else "system"
    return package if package in LAYERS else "system"


class SpanLog:
    """Spans of one traced pass, stored column-wise."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = [-1]

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    # -- analysis --------------------------------------------------------

    def durations_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus direct children's."""
        selfs = self.durations_ns()
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                selfs[parent] -= self.end[idx] - self.start[idx]
        return selfs

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total duration and self time (s)."""
        out: dict[str, dict[str, float]] = {
            n: {"count": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names
        }
        durations = self.durations_ns()
        selfs = self.self_ns()
        names = self.names
        for idx, nid in enumerate(self.name):
            row = out[names[nid]]
            row["count"] += 1
            row["total_s"] += durations[idx] * 1e-9
            row["self_s"] += selfs[idx] * 1e-9
        return out

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, row in self.totals().items():
            layer = self.layers[self._ids[name]]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def write(self, path: Path) -> Path:
        """Write every span to ``path`` (numpy ``.npz``, one column per
        field; ``name`` indexes the ``names``/``layers`` tables)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            layers=np.array(self.layers),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
        return path


@dataclass
class Counters:
    """Counts taken at the same boundaries as the spans."""

    values: dict[str, float] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, key: str, n: float = 1) -> None:
        self.values[key] = self.values.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


class TracedGenerator:
    """A process body whose every resume is a span.

    ``Process`` drives its generator only through ``send``/``throw``/
    ``close``, so this object stands in for the generator exactly.
    """

    __slots__ = ("_gen", "_nid", "_log")

    def __init__(self, gen, nid: int, log: SpanLog) -> None:
        self._gen = gen
        self._nid = nid
        self._log = log

    def send(self, value):
        log = self._log
        idx = log.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            log.close(idx)

    def throw(self, *exc):
        log = self._log
        idx = log.open(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            log.close(idx)

    def close(self):
        return self._gen.close()


#: ``hook(counters, args, result)``, run after a wrapped call.
Hook = Optional[Callable[["Counters", tuple, object], None]]


def _count(key: str) -> Hook:
    def hook(counters, args, result):
        counters.add(key)

    return hook


def _nonempty(key: str) -> Hook:
    def hook(counters, args, result):
        counters.add(key)
        if result:
            counters.add(key + ".useful")

    return hook


def _pending_at_retarget(counters, args):
    counters.sample("core.pending_at_retarget", args[0].pending_count)


_retarget_hook = _count("core.retarget_calls")

#: What the traced pass wraps: (module, ``Class.method`` or function,
#: span name, layer, hook after the call, hook before the call).
TARGETS: tuple = (
    # sim: engine, process, events, bandwidth, resources
    ("repro.sim.engine", "Simulator.run", "Simulator.run", "sim", None, None),
    ("repro.sim.engine", "Simulator.process", "Simulator.process", "sim",
     _count("sim.processes_started"), None),
    ("repro.sim.engine", "Simulator.timeout", "Simulator.timeout", "sim",
     _count("sim.timeouts"), None),
    ("repro.sim.engine", "Simulator.call_at", "Simulator.call_at", "sim", None, None),
    ("repro.sim.bandwidth", "BandwidthResource.start_flow", "flow.start_flow", "sim",
     _count("sim.flows_started"), None),
    ("repro.sim.bandwidth", "BandwidthResource.cancel", "flow.cancel", "sim", None, None),
    ("repro.sim.bandwidth", "BandwidthResource.set_capacity", "flow.set_capacity",
     "sim", None, None),
    ("repro.sim.bandwidth", "BandwidthResource._on_wakeup", "flow.wakeup", "sim",
     None, None),
    ("repro.sim.resources", "Resource.request", "Resource.request", "sim", None, None),
    # cluster: devices
    ("repro.cluster.device", "Channel.start_flow", "Channel.start_flow", "cluster",
     None, None),
    ("repro.cluster.device", "Channel.transfer", "Channel.transfer", "cluster", None,
     None),
    ("repro.cluster.device", "ByteStore.pin", "ByteStore.pin", "cluster", None, None),
    ("repro.cluster.device", "ByteStore.unpin", "ByteStore.unpin", "cluster", None,
     None),
    # dfs
    ("repro.dfs.namenode", "NameNode.receive_heartbeat", "NameNode.receive_heartbeat",
     "dfs", _count("dfs.heartbeats"), None),
    ("repro.dfs.namenode", "NameNode.resolve_read", "NameNode.resolve_read", "dfs",
     None, None),
    ("repro.dfs.client", "DFSClient.read_block", "DFSClient.read_block", "dfs",
     _count("dfs.reads"), None),
    ("repro.dfs.datanode", "DataNode.read", "DataNode.read", "dfs", None, None),
    # core: the migration master and its kernels
    ("repro.core.master", "DyrsMaster.retarget", "DyrsMaster.retarget", "core",
     _retarget_hook, _pending_at_retarget),
    ("repro.core.master", "DyrsMaster.request_work", "DyrsMaster.request_work",
     "core", _nonempty("core.pulls"), None),
    ("repro.core.master", "DyrsMaster.on_heartbeat", "DyrsMaster.on_heartbeat",
     "core", None, None),
    ("repro.core.master", "DyrsMaster.reclaim_unavailable",
     "DyrsMaster.reclaim_unavailable", "core", None, None),
    ("repro.core.targeting", "compute_targets", "compute_targets", "core", None, None),
    ("repro.core.pending", "bind_from_pool", "bind_from_pool", "core", None, None),
    ("repro.core.base", "MigrationMaster.migrate", "MigrationMaster.migrate", "core",
     None, None),
    ("repro.core.base", "MigrationMaster.on_block_read",
     "MigrationMaster.on_block_read", "core", None, None),
    # compute
    ("repro.compute.scheduler", "TaskScheduler.acquire", "TaskScheduler.acquire",
     "compute", _count("compute.acquires"), None),
    # shard: the coordinator and its partitions
    ("repro.shard.coordinator", "ShardCoordinator.retarget",
     "ShardCoordinator.retarget", "shard", _retarget_hook, _pending_at_retarget),
    ("repro.shard.coordinator", "ShardCoordinator.request_work",
     "ShardCoordinator.request_work", "shard", _nonempty("core.pulls"), None),
    ("repro.shard.coordinator", "ShardCoordinator.on_heartbeat",
     "ShardCoordinator.on_heartbeat", "shard", None, None),
    ("repro.shard.coordinator", "ShardCoordinator.pull_plan",
     "ShardCoordinator.pull_plan", "shard", None, None),
    ("repro.shard.coordinator", "ShardCoordinator.bind_from_shard",
     "ShardCoordinator.bind_from_shard", "shard", _nonempty("shard.binds"), None),
    ("repro.shard.shard", "MasterShard.retarget", "MasterShard.retarget", "shard",
     None, None),
    ("repro.shard.shard", "MasterShard.take", "MasterShard.take", "shard", None, None),
    # tiers
    ("repro.tiers.master", "TieredDyrsMaster.lifecycle_pass",
     "TieredDyrsMaster.lifecycle_pass", "tiers", None, None),
    ("repro.tiers.master", "TieredDyrsMaster.migrate", "TieredDyrsMaster.migrate",
     "tiers", None, None),
    ("repro.tiers.master", "TieredDyrsMaster.on_migration_complete",
     "TieredDyrsMaster.on_migration_complete", "tiers", None, None),
    ("repro.tiers.master", "TieredDyrsMaster.on_block_read",
     "TieredDyrsMaster.on_block_read", "tiers", None, None),
    # lifecycle
    ("repro.lifecycle.master", "LifecycleMaster.lifecycle_pass",
     "LifecycleMaster.lifecycle_pass", "lifecycle", None, None),
    ("repro.lifecycle.master", "LifecycleMaster.archive_pass",
     "LifecycleMaster.archive_pass", "lifecycle", None, None),
    ("repro.lifecycle.master", "LifecycleMaster.on_block_read",
     "LifecycleMaster.on_block_read", "lifecycle", None, None),
    # obs: the invariant audit (emits are patched separately)
    ("repro.obs.invariants", "TraceInvariants.violations", "audit.violations", "obs",
     None, None),
    ("repro.obs.invariants", "TraceInvariants.shard_violations",
     "audit.shard_violations", "obs", None, None),
    ("repro.obs.invariants", "TraceInvariants.liveness_violations",
     "audit.liveness_violations", "obs", None, None),
    ("repro.core.failures", "quiesce_violations", "audit.quiesce", "obs", None, None),
    # workloads: input generation and materialisation
    ("repro.workloads.swim", "generate_swim_workload", "workloads.generate",
     "workloads", None, None),
    ("repro.workloads.swim", "materialize_swim_jobs", "workloads.materialize",
     "workloads", None, None),
    ("repro.workloads.aging", "generate_aging_workload", "workloads.generate",
     "workloads", None, None),
    ("repro.workloads.aging", "materialize_aging_jobs", "workloads.materialize",
     "workloads", None, None),
)


class Instrumentation:
    """Installs the span wrappers for one traced pass and removes them."""

    def __init__(self, run_id: str) -> None:
        self.log = SpanLog(run_id)
        self.counters = Counters()
        self._undo: list[tuple[object, str, object]] = []
        self._code_ids: dict[object, int] = {}

    # -- wrapper factories -------------------------------------------------

    def _wrap(self, fn, nid: int, after: Hook, before) -> Callable:
        log, counters = self.log, self.counters

        if after is None and before is None:
            def wrapper(*args, **kwargs):
                idx = log.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.close(idx)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(counters, args)
                idx = log.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    log.close(idx)
                if after is not None:
                    after(counters, args, result)
                return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _code_nid(self, code) -> int:
        nid = self._code_ids.get(code)
        if nid is None:
            layer = layer_of_file(code.co_filename)
            name = f"{layer}:{getattr(code, 'co_qualname', code.co_name)}"
            nid = self._code_ids[code] = self.log.name_id(name, layer)
        return nid

    def _set(self, owner, attr: str, value) -> None:
        """Patch ``owner.attr`` (a class or module), remembering the old value."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        import repro.obs.trace as trace_mod
        from repro.sim.engine import Simulator

        for module_name, attr_path, span, layer, after, before in TARGETS:
            module = importlib.import_module(module_name)
            nid = self.log.name_id(span, layer)
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, nid, after, before))
            else:
                original = getattr(module, attr_path)
                wrapped = self._wrap(original, nid, after, before)
                self._rebind_everywhere(original, wrapped)

        self._wrap_step(Simulator)
        self._wrap_process_bodies(Simulator)
        self._wrap_call_at_callbacks(Simulator)
        self._wrap_emit(trace_mod)

    def _rebind_everywhere(self, original, wrapped) -> None:
        """Point every imported alias of a module function at ``wrapped``."""
        for module in list(sys.modules.values()):
            names = getattr(module, "__dict__", None)
            if not names:
                continue
            for attr, value in list(names.items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def _wrap_step(self, Simulator) -> None:
        step = Simulator.__dict__["step"]
        log, counters = self.log, self.counters
        nid = log.name_id("Simulator.step", "sim")
        peaks = counters.peaks

        def traced_step(sim):
            pending = len(sim._heap) - sim._n_discarded
            if pending > peaks.get("sim.pending_peak", 0):
                peaks["sim.pending_peak"] = pending
            idx = log.open(nid)
            try:
                return step(sim)
            finally:
                log.close(idx)

        self._set(Simulator, "step", traced_step)

    def _wrap_process_bodies(self, Simulator) -> None:
        """Replace ``Simulator.process`` so each body resume is a span."""
        spawn = Simulator.process  # already the span wrapper from TARGETS
        log = self.log

        def process(sim, generator, name=""):
            name = name or getattr(generator, "__name__", "")
            code = getattr(generator, "gi_code", None)
            if code is not None:
                generator = TracedGenerator(generator, self._code_nid(code), log)
            return spawn(sim, generator, name=name)

        self._set(Simulator, "process", process)

    def _wrap_call_at_callbacks(self, Simulator) -> None:
        """Attribute ``call_at`` callbacks to the package that defined them."""
        call_at = Simulator.call_at
        log = self.log

        def traced_call_at(sim, when, callback, *args, **kwargs):
            target = getattr(callback, "__func__", callback)
            code = getattr(target, "__code__", None)
            if code is None:
                return call_at(sim, when, callback, *args, **kwargs)
            nid = self._code_nid(code)

            def fire():
                idx = log.open(nid)
                try:
                    callback()
                finally:
                    log.close(idx)

            return call_at(sim, when, fire, *args, **kwargs)

        self._set(Simulator, "call_at", traced_call_at)

    def _wrap_emit(self, trace_mod) -> None:
        """Span every trace emit made while in-program tracing is on."""
        emit = trace_mod.emit
        log = self.log
        nid = log.name_id("obs.emit", "obs")

        def traced_emit(etype, time, **fields):
            if not trace_mod._active.enabled:
                return emit(etype, time, **fields)
            idx = log.open(nid)
            try:
                emit(etype, time, **fields)
            finally:
                log.close(idx)

        self._rebind_everywhere(emit, traced_emit)

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span around a block of benchmark code."""
        log = self.log
        idx = log.open(log.name_id(name, layer))
        try:
            yield
        finally:
            log.close(idx)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
