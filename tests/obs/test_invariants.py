"""TraceInvariants: each §III check convicts its synthetic violation."""

import pytest

from repro.obs import trace as T
from repro.obs.invariants import InvariantViolation, TraceInvariants
from repro.obs.trace import Tracer


def _check(*specs):
    t = Tracer()
    for etype, time, fields in specs:
        t.emit(etype, time, **fields)
    return TraceInvariants(t.events).violations()


GOOD_LIFECYCLE = (
    (T.REQUEST, 0.0, {"block": 1, "job": "j"}),
    (T.PENDING, 0.0, {"block": 1}),
    (T.BIND, 1.0, {"block": 1, "node": 0}),
    (T.MLOCK_START, 2.0, {"block": 1, "node": 0, "source": "disk"}),
    (T.MLOCK_DONE, 5.0, {"block": 1, "node": 0, "source": "disk"}),
    (T.READ_MEMORY, 6.0, {"block": 1, "node": 0}),
    (T.BUFFER_RELEASE, 7.0, {"block": 1, "node": 0, "tier": "memory"}),
    (T.EVICTED, 7.0, {"block": 1, "node": 0}),
)


class TestCleanStream:
    def test_full_lifecycle_passes(self):
        assert _check(*GOOD_LIFECYCLE) == []

    def test_check_all_quiet(self):
        t = Tracer()
        for etype, time, fields in GOOD_LIFECYCLE:
            t.emit(etype, time, **fields)
        TraceInvariants(t.events).check_all()  # must not raise

    def test_empty_trace_passes(self):
        assert _check() == []


class TestReadBeforeMlock:
    def test_memory_read_without_mlock_done_flagged(self):
        v = _check((T.READ_MEMORY, 1.0, {"block": 1, "node": 0}))
        assert len(v) == 1
        assert "before its mlock_done" in v[0]

    def test_read_after_release_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
            (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0}),
            (T.BUFFER_RELEASE, 3.0, {"block": 1, "node": 0, "tier": "memory"}),
            (T.READ_MEMORY, 4.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1

    def test_preload_counts_as_residency(self):
        assert (
            _check(
                (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
                (T.READ_MEMORY, 1.0, {"block": 1, "node": 0}),
            )
            == []
        )

    def test_residency_is_per_node(self):
        v = _check(
            (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
            (T.READ_MEMORY, 1.0, {"block": 1, "node": 2}),
        )
        assert len(v) == 1

    def test_ssd_dest_mlock_done_grants_no_memory_residency(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0, "dest": "ssd"}),
            (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0, "dest": "ssd"}),
            (T.READ_MEMORY, 3.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1


class TestSerialization:
    def test_overlapping_disk_copies_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.PENDING, 0.0, {"block": 2}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.BIND, 0.5, {"block": 2, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0, "source": "disk"}),
            (T.MLOCK_START, 2.0, {"block": 2, "node": 0, "source": "disk"}),
        )
        assert len(v) == 1
        assert "serialization" in v[0]

    def test_different_nodes_may_overlap(self):
        assert (
            _check(
                (T.PENDING, 0.0, {"block": 1}),
                (T.PENDING, 0.0, {"block": 2}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.BIND, 0.5, {"block": 2, "node": 1}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.MLOCK_START, 2.0, {"block": 2, "node": 1}),
            )
            == []
        )

    def test_ssd_lane_is_separate(self):
        assert (
            _check(
                (T.PENDING, 0.0, {"block": 1}),
                (T.PENDING, 0.0, {"block": 2}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.BIND, 0.5, {"block": 2, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0, "source": "disk"}),
                (T.MLOCK_START, 2.0, {"block": 2, "node": 0, "source": "ssd"}),
            )
            == []
        )

    def test_abort_closes_the_interval(self):
        assert (
            _check(
                (T.PENDING, 0.0, {"block": 1}),
                (T.PENDING, 0.0, {"block": 2}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.BIND, 0.5, {"block": 2, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.MLOCK_ABORT, 2.0, {"block": 1, "node": 0}),
                (T.MLOCK_START, 2.0, {"block": 2, "node": 0}),
            )
            == []
        )


class TestDelayedBinding:
    def test_bind_without_pending_flagged(self):
        v = _check((T.BIND, 1.0, {"block": 1, "node": 0}))
        assert len(v) == 1
        assert "delayed binding" in v[0]

    def test_double_bind_of_one_pending_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 1.0, {"block": 1, "node": 0}),
            (T.BIND, 2.0, {"block": 1, "node": 1}),
        )
        assert len(v) == 1

    def test_pending_drop_then_bind_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.DROPPED, 1.0, {"block": 1, "status": "pending", "reason": "x"}),
            (T.BIND, 2.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1

    def test_bound_drop_keeps_counter(self):
        # Dropping an already-bound record must not free up a phantom
        # pending slot.
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 1.0, {"block": 1, "node": 0}),
            (T.DROPPED, 2.0, {"block": 1, "status": "bound", "reason": "x"}),
            (T.BIND, 3.0, {"block": 1, "node": 1}),
        )
        assert len(v) == 1


class TestEvictedBufferReleased:
    def test_evicted_while_resident_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
            (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0}),
            (T.EVICTED, 3.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1
        assert "still memory-resident" in v[0]

    def test_ssd_release_does_not_clear_memory_residency(self):
        v = _check(
            (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
            (T.BUFFER_RELEASE, 1.0, {"block": 1, "node": 0, "tier": "ssd"}),
            (T.EVICTED, 2.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1


class TestRunSegmentation:
    def test_state_resets_at_run_start(self):
        # Run 1 ends with block 1 mid-copy and memory-resident block 2;
        # run 2 reuses both identifiers and must start from nothing.
        assert (
            _check(
                (T.RUN_START, 0.0, {"scheme": "dyrs"}),
                (T.PENDING, 0.0, {"block": 1}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.PRELOAD, 1.0, {"block": 2, "node": 0}),
                (T.RUN_START, 0.0, {"scheme": "ignem"}),
                (T.PENDING, 0.0, {"block": 1}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0}),
                (T.BUFFER_RELEASE, 3.0, {"block": 2, "node": 0}),
                (T.EVICTED, 3.0, {"block": 2, "node": 0}),
            )
            == []
        )

    def test_residency_does_not_survive_boundary(self):
        v = _check(
            (T.RUN_START, 0.0, {"scheme": "ram"}),
            (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
            (T.RUN_START, 0.0, {"scheme": "dyrs"}),
            (T.READ_MEMORY, 1.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1


class TestCheckAll:
    def test_raises_with_every_violation_listed(self):
        t = Tracer()
        t.emit(T.READ_MEMORY, 1.0, block=1, node=0)
        t.emit(T.BIND, 2.0, block=2, node=0)
        with pytest.raises(InvariantViolation) as err:
            TraceInvariants(t.events).check_all()
        message = str(err.value)
        assert "2 trace invariant violation(s)" in message
        assert "mlock_done" in message
        assert "delayed binding" in message

    def test_from_jsonl(self, tmp_path):
        t = Tracer()
        t.emit(T.BIND, 1.0, block=1, node=0)
        path = t.dump_jsonl(tmp_path / "t.jsonl")
        assert len(TraceInvariants.from_jsonl(path).violations()) == 1


def _shard_check(*specs):
    t = Tracer()
    for etype, time, fields in specs:
        t.emit(etype, time, **fields)
    return TraceInvariants(t.events).shard_violations()


class TestPullWindowInvariant:
    """Check 14: per-(node, shard) open legs never exceed the window."""

    def test_legs_within_window_pass(self):
        assert (
            _shard_check(
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 2, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.1,
                 {"node": 0, "shard": 1, "window": 2, "outstanding": 2}),
                (T.PULL_LEG_CLOSE, 0.5, {"node": 0, "shard": 1}),
                (T.PULL_LEG_OPEN, 0.6,
                 {"node": 0, "shard": 1, "window": 2, "outstanding": 2}),
                (T.PULL_LEG_CLOSE, 0.9, {"node": 0, "shard": 1}),
                (T.PULL_LEG_CLOSE, 1.0, {"node": 0, "shard": 1}),
            )
            == []
        )

    def test_overflow_convicted(self):
        v = _shard_check(
            (T.PULL_LEG_OPEN, 0.0,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
            (T.PULL_LEG_OPEN, 0.1,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 2}),
        )
        assert len(v) == 1
        assert "outstanding budget violated" in v[0]

    def test_budget_is_per_node_and_shard(self):
        # One leg each to two shards, and to the same shard from two
        # nodes: four distinct counters, none over a window of 1.
        assert (
            _shard_check(
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.1,
                 {"node": 0, "shard": 2, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.2,
                 {"node": 3, "shard": 1, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.3,
                 {"node": 3, "shard": 2, "window": 1, "outstanding": 1}),
            )
            == []
        )

    def test_slave_crash_zeroes_the_node_counters(self):
        # The crashed incarnation's leg never closes; the new epoch's
        # open must count against a fresh budget, not the stale one.
        assert (
            _shard_check(
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
                (T.SLAVE_CRASH, 0.5, {"node": 0}),
                (T.PULL_LEG_OPEN, 1.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
            )
            == []
        )

    def test_crash_of_another_node_does_not_reset(self):
        v = _shard_check(
            (T.PULL_LEG_OPEN, 0.0,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
            (T.SLAVE_CRASH, 0.5, {"node": 3}),
            (T.PULL_LEG_OPEN, 1.0,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 2}),
        )
        assert len(v) == 1


class TestDeadShardAssignInvariant:
    """Check 15: no shard_assign to a declared-dead shard."""

    def test_assign_after_declaration_convicted(self):
        v = _shard_check(
            (T.PENDING, 0.0, {"block": 7}),
            (T.SHARD_DEAD, 1.0, {"shard": 2, "n_shards": 4, "dead_after": 5.0}),
            (T.SHARD_ASSIGN, 2.0, {"block": 7, "shard": 2, "n_shards": 4}),
        )
        assert len(v) == 1
        assert "after it was declared dead" in v[0]

    def test_assign_to_survivor_passes(self):
        assert (
            _shard_check(
                (T.PENDING, 0.0, {"block": 7}),
                (T.SHARD_DEAD, 1.0,
                 {"shard": 2, "n_shards": 4, "dead_after": 5.0}),
                (T.SHARD_ASSIGN, 2.0, {"block": 7, "shard": 3, "n_shards": 4}),
            )
            == []
        )

    def test_recover_lifts_the_conviction(self):
        assert (
            _shard_check(
                (T.PENDING, 0.0, {"block": 7}),
                (T.SHARD_DEAD, 1.0,
                 {"shard": 2, "n_shards": 4, "dead_after": 5.0}),
                (T.SHARD_RECOVER, 3.0,
                 {"shard": 2, "n_shards": 4, "generation": 1}),
                (T.SHARD_ASSIGN, 4.0, {"block": 7, "shard": 2, "n_shards": 4}),
            )
            == []
        )


def _violations(method, specs):
    t = Tracer()
    for etype, time, fields in specs:
        t.emit(etype, time, **fields)
    return getattr(TraceInvariants(t.events), method)()


class TestViolationMessagesExact:
    """Every message the three stream audits can produce, byte for byte.

    The location prefix (``event #i t=...``) is formatted only when a
    violation is recorded; the expected texts were captured from the
    audit that formatted it for every event, so a lazy formatter that
    drifted by a character fails here.
    """

    def test_protocol_messages(self):
        assert _violations(
            "violations",
            (
                (T.RUN_START, 0.0, {}),
                (T.BIND, 0.5, {"block": "b1", "node": 2}),
                (T.PENDING, 1.0, {"block": "b2"}),
                (T.DROPPED, 1.25, {"block": "b2", "status": "done"}),
                (T.MLOCK_START, 2.0, {"block": "b3", "node": 1, "source": "disk"}),
                (T.MLOCK_START, 2.5, {"block": "b4", "node": 1, "source": "disk"}),
                (T.READ_MEMORY, 3.0, {"block": "b5", "node": 0}),
                (T.PRELOAD, 3.5, {"block": "b6", "node": 0}),
                (T.EVICTED, 4.0, {"block": "b6", "node": 0}),
            ),
        ) == [
            "event #1 t=0.5: bind of b1 on 2 with no outstanding pending "
            "(delayed binding violated, §III-A1)",
            "event #3 t=1.25: drop of b2 from status 'done' is not a legal "
            "transition (record lattice violated, §III-A)",
            "event #5 t=2.5: mlock_start of b4 on 1 lane=disk while b3 still "
            "copying (per-disk serialization violated, §III-B)",
            "event #6 t=3.0: read_memory of b5 on 0 before its mlock_done "
            "(read served from an unlocked buffer)",
            "event #8 t=4.0: block b6 evicted on 0 while still "
            "memory-resident (buffer not released, §III-C3)",
        ]

    def test_lifecycle_messages(self):
        assert _violations(
            "lifecycle_violations",
            (
                (T.TIER_MOVE, 1.0,
                 {"block": "b1", "resident": [], "replicas_after": 0}),
                (T.TIER_MOVE_CORRUPT, 2.0, {"block": "b2", "resident": []}),
                (T.TIER_MOVE, 3.0,
                 {"block": "b3", "resident": ["archive"], "dest": "archive",
                  "replicas_after": 2, "target_replicas": 1}),
            ),
        ) == [
            "event #0 t=1.0: move left block b1 resident in zero tiers "
            "(source deleted before the copy was safe)",
            "event #0 t=1.0: move of block b1 left 0 durable copies "
            "(conservation violated)",
            "event #1 t=2.0: corrupt move left block b2 resident in zero "
            "tiers (source deleted before the copy was safe)",
            "event #2 t=3.0: block b3 archive-resident without a recorded "
            "checksum (integrity model violated)",
            "event #2 t=3.0: archive demotion of block b3 left 2 durable "
            "copies, target 1 (replication scheduler violated)",
        ]

    def test_shard_messages(self):
        assert _violations(
            "shard_violations",
            (
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.1,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 2}),
                (T.SHARD_ASSIGN, 0.5, {"block": "b1", "shard": 0, "n_shards": 2}),
                (T.PENDING, 0.75, {"block": "b2"}),
                (T.SHARD_ASSIGN, 1.0, {"block": "b2", "shard": 5, "n_shards": 3}),
                (T.SHARD_DEAD, 1.5, {"shard": 1, "n_shards": 2}),
                (T.SHARD_ASSIGN, 2.0, {"block": "b2", "shard": 1, "n_shards": 2}),
                (T.SHARD_RECOVER, 3.0,
                 {"shard": 0, "generation": 2, "n_shards": 2}),
            ),
        ) == [
            "event #1 t=0.1: node 0 has 2 open pull legs to shard 1, "
            "window 1 (outstanding budget violated)",
            "event #2 t=0.5: shard_assign of b1 with no outstanding pending "
            "record",
            "event #4 t=1.0: segment 0 shard count changed 2 -> 3 "
            "(resharding mid-run re-homes records)",
            "event #4 t=1.0: shard id 5 outside range(3)",
            "event #6 t=2.0: block b2 assigned to shard 1 after it was "
            "declared dead (rebalance single-ownership violated)",
            "event #6 t=2.0: block b2 assigned to shard 1 while shard 5 "
            "still owns it (single ownership violated)",
            "event #7 t=3.0: shard 0 recovered at generation 2, expected 1",
        ]
