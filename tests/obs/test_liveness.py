"""Liveness + conservation invariants: the chaos-campaign checks."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.obs import trace as T
from repro.obs.invariants import InvariantViolation, TraceInvariants
from repro.obs.trace import Tracer


def _liveness(*specs, final_memory_bytes=None):
    t = Tracer()
    for etype, time, fields in specs:
        t.emit(etype, time, **fields)
    return TraceInvariants(t.events).liveness_violations(
        final_memory_bytes=final_memory_bytes
    )


COMPLETED = (
    (T.PENDING, 0.0, {"block": 1}),
    (T.BIND, 1.0, {"block": 1, "node": 0}),
    (T.MLOCK_START, 2.0, {"block": 1, "node": 0}),
    (T.MLOCK_DONE, 5.0, {"block": 1, "node": 0, "nbytes": 64.0}),
)


class TestRecordTermination:
    def test_completed_record_passes(self):
        assert _liveness(*COMPLETED) == []

    def test_dropped_record_passes(self):
        assert (
            _liveness(
                (T.PENDING, 0.0, {"block": 1}),
                (T.DROPPED, 1.0, {"block": 1, "status": "pending", "reason": "x"}),
            )
            == []
        )

    def test_open_record_flagged(self):
        v = _liveness((T.PENDING, 0.0, {"block": 1}))
        assert len(v) == 1
        assert "never reached a terminal state" in v[0]

    def test_stranded_bound_record_flagged(self):
        # Bound but never dropped nor completed: the stranded-binding
        # leak's exact trace signature.
        v = _liveness(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 1.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1

    def test_drop_of_bound_record_closes_it(self):
        assert (
            _liveness(
                (T.PENDING, 0.0, {"block": 1}),
                (T.BIND, 1.0, {"block": 1, "node": 0}),
                (T.DROPPED, 2.0, {"block": 1, "status": "bound", "reason": "x"}),
            )
            == []
        )

    def test_each_pending_needs_its_own_close(self):
        # Two generations of records for one block; only one terminates.
        v = _liveness(
            (T.PENDING, 0.0, {"block": 1}),
            (T.DROPPED, 1.0, {"block": 1, "status": "pending", "reason": "x"}),
            (T.PENDING, 2.0, {"block": 1}),
        )
        assert len(v) == 1

    def test_open_records_reset_per_segment(self):
        assert (
            _liveness(
                (T.RUN_START, 0.0, {"scheme": "a"}),
                *COMPLETED,
                (T.RUN_START, 0.0, {"scheme": "b"}),
                *COMPLETED,
            )
            == []
        )

    def test_open_record_in_earlier_segment_flagged(self):
        v = _liveness(
            (T.RUN_START, 0.0, {"scheme": "a"}),
            (T.PENDING, 0.0, {"block": 1}),
            (T.RUN_START, 0.0, {"scheme": "b"}),
            *COMPLETED,
        )
        assert len(v) == 1
        assert "segment 1" in v[0]


class TestBytesConservation:
    def test_matched_release_passes(self):
        assert (
            _liveness(
                *COMPLETED,
                (T.BUFFER_RELEASE, 6.0, {"block": 1, "node": 0, "tier": "memory",
                                         "nbytes": 64.0}),
                final_memory_bytes=0.0,
            )
            == []
        )

    def test_resident_bytes_must_match_actual(self):
        assert _liveness(*COMPLETED, final_memory_bytes=64.0) == []
        v = _liveness(*COMPLETED, final_memory_bytes=0.0)
        assert len(v) == 1
        assert "conservation" in v[0]

    def test_mismatched_release_size_flagged(self):
        v = _liveness(
            *COMPLETED,
            (T.BUFFER_RELEASE, 6.0, {"block": 1, "node": 0, "tier": "memory",
                                     "nbytes": 32.0}),
        )
        assert len(v) == 1
        assert "conservation" in v[0]

    def test_preload_enters_the_ledger(self):
        assert (
            _liveness(
                (T.PRELOAD, 0.0, {"block": 1, "node": 0, "nbytes": 10.0}),
                final_memory_bytes=10.0,
            )
            == []
        )

    def test_ssd_release_does_not_touch_memory_ledger(self):
        assert (
            _liveness(
                *COMPLETED,
                (T.BUFFER_RELEASE, 6.0, {"block": 1, "node": 0, "tier": "ssd",
                                         "nbytes": 999.0}),
                final_memory_bytes=64.0,
            )
            == []
        )

    def test_ledger_resets_per_segment(self):
        # Segment a's resident bytes must not count against segment b's
        # final total.
        assert (
            _liveness(
                (T.RUN_START, 0.0, {"scheme": "a"}),
                *COMPLETED,
                (T.RUN_START, 0.0, {"scheme": "b"}),
                *COMPLETED,
                final_memory_bytes=64.0,
            )
            == []
        )


def _fractional_pins(skip_last=False):
    """Four nodes pinning ten jittered ~256 MiB blocks each (~10 GiB in
    all), traced in round-robin order; returns (violations, naive
    ledger sum, naive per-node sum)."""
    rng = np.random.default_rng(1)
    cluster = Cluster(ClusterSpec(n_workers=4, seed=0))
    t = Tracer()
    ledger_order = []
    for i in range(10):
        for node in cluster.nodes:
            nbytes = float(256 * 2**20 * rng.uniform(0.75, 1.25))
            block = f"{node.node_id}-{i}"
            t.emit(T.PENDING, 0.0, block=block)
            t.emit(T.MLOCK_DONE, 1.0, block=block, node=node.node_id, nbytes=nbytes)
            ledger_order.append(nbytes)
            if not (skip_last and i == 9 and node is cluster.nodes[-1]):
                node.memory.store.pin(block, nbytes)
    violations = TraceInvariants(t.events).liveness_violations(
        final_memory_bytes=cluster.total_memory_used()
    )
    per_node = sum(node.memory.used for node in cluster.nodes)
    return violations, sum(ledger_order), per_node


class TestExactConservation:
    def test_fractional_blocks_above_8gib_are_not_convicted(self):
        violations, ledger_sum, per_node_sum = _fractional_pins()
        # Precondition: summed in trace order vs node by node, the
        # running float totals differ by more than the old 1e-6 slack
        # (one ulp at 8 GiB is 1.9e-6) although every byte matches.
        assert abs(ledger_sum - per_node_sum) > 1e-6
        assert violations == []

    def test_one_block_discrepancy_is_still_convicted(self):
        violations, _, _ = _fractional_pins(skip_last=True)
        assert len(violations) == 1
        assert "conservation" in violations[0]


class TestCheckLiveness:
    def test_raises_on_violation(self):
        t = Tracer()
        t.emit(T.PENDING, 0.0, block=1)
        with pytest.raises(InvariantViolation) as err:
            TraceInvariants(t.events).check_liveness()
        assert "liveness invariant violation" in str(err.value)

    def test_quiet_on_clean_trace(self):
        t = Tracer()
        for etype, time, fields in COMPLETED:
            t.emit(etype, time, **fields)
        TraceInvariants(t.events).check_liveness(final_memory_bytes=64.0)
