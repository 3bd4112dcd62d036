"""Stream buffers: LaneFifo, the indexed-stream ReorderBuffer, and the
SRF completion ring that fills them."""

import pytest
from hypothesis import given, strategies as st

from repro.config import isrf4_config
from repro.core.srf import StreamRegisterFile
from repro.core.stream_buffer import LaneFifo, ReorderBuffer
from repro.errors import SrfError


class TestLaneFifo:
    def test_block_fill_then_simd_pops(self):
        fifo = LaneFifo(lanes=2, capacity_words=8)
        fifo.push_block([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert fifo.occupancy == 4
        assert fifo.pop_simd() == [1, 5]
        assert fifo.pop_simd() == [2, 6]
        assert fifo.occupancy == 2

    def test_simd_pushes_then_block_drain(self):
        fifo = LaneFifo(lanes=2, capacity_words=8)
        fifo.push_simd([1, 10])
        fifo.push_simd([2, 20])
        assert fifo.pop_block(2) == [[1, 2], [10, 20]]

    def test_overflow_raises(self):
        fifo = LaneFifo(lanes=1, capacity_words=2)
        fifo.push_simd([1])
        fifo.push_simd([2])
        with pytest.raises(SrfError):
            fifo.push_simd([3])

    def test_underflow_raises(self):
        fifo = LaneFifo(lanes=1, capacity_words=2)
        with pytest.raises(SrfError):
            fifo.pop_simd()

    def test_nonuniform_block_rejected(self):
        fifo = LaneFifo(lanes=2, capacity_words=8)
        with pytest.raises(SrfError):
            fifo.push_block([[1, 2], [3]])

    def test_wrong_lane_count_rejected(self):
        fifo = LaneFifo(lanes=2, capacity_words=8)
        with pytest.raises(SrfError):
            fifo.push_simd([1])

    @given(st.lists(st.integers(), min_size=1, max_size=32))
    def test_fifo_order_preserved(self, values):
        fifo = LaneFifo(lanes=1, capacity_words=len(values))
        for v in values:
            fifo.push_simd([v])
        popped = [fifo.pop_simd()[0] for _ in values]
        assert popped == values


class TestReorderBuffer:
    def test_in_order_fill_and_pop(self):
        rob = ReorderBuffer(4)
        t0, t1 = rob.reserve(), rob.reserve()
        rob.fill(t0, "a")
        rob.fill(t1, "b")
        assert rob.pop() == "a"
        assert rob.pop() == "b"

    def test_out_of_order_fill_blocks_head(self):
        # Figure 9: a younger completed access must not unblock the head.
        rob = ReorderBuffer(4)
        t0 = rob.reserve()
        t1 = rob.reserve()
        rob.fill(t1, "late")
        assert not rob.head_ready()
        with pytest.raises(SrfError):
            rob.pop()
        rob.fill(t0, "early")
        assert rob.head_ready()
        assert rob.pop() == "early"
        assert rob.pop() == "late"

    def test_capacity_enforced(self):
        rob = ReorderBuffer(2)
        rob.reserve()
        rob.reserve()
        assert not rob.can_reserve()
        with pytest.raises(SrfError):
            rob.reserve()

    def test_pop_frees_capacity(self):
        rob = ReorderBuffer(1)
        t = rob.reserve()
        rob.fill(t, 1)
        rob.pop()
        assert rob.can_reserve()

    def test_double_fill_rejected(self):
        rob = ReorderBuffer(2)
        t = rob.reserve()
        rob.fill(t, 1)
        with pytest.raises(SrfError):
            rob.fill(t, 2)

    def test_unknown_ticket_rejected(self):
        rob = ReorderBuffer(2)
        with pytest.raises(SrfError):
            rob.fill(99, 1)

    def test_double_fill_of_a_younger_slot_rejected(self):
        rob = ReorderBuffer(3)
        rob.reserve()
        t1 = rob.reserve()
        rob.fill(t1, "late")
        with pytest.raises(SrfError, match="already-filled"):
            rob.fill(t1, "again")
        assert not rob.head_ready()

    def test_popped_and_future_tickets_are_unknown(self):
        rob = ReorderBuffer(2)
        t0 = rob.reserve()
        rob.fill(t0, "a")
        assert rob.pop() == "a"
        with pytest.raises(SrfError, match="unknown"):
            rob.fill(t0, "stale")  # already retired
        t1 = rob.reserve()
        with pytest.raises(SrfError, match="unknown"):
            rob.fill(t1 + 1, "early")  # never reserved
        with pytest.raises(SrfError, match="unknown"):
            rob.fill(-1, "negative")

    def test_none_is_a_value_not_an_empty_slot(self):
        rob = ReorderBuffer(1)
        t = rob.reserve()
        assert not rob.head_ready()
        rob.fill(t, None)
        assert rob.head_ready()
        assert rob.pop() is None

    def test_head_ready_n_needs_every_head_slot(self):
        rob = ReorderBuffer(4)
        t0, t1, t2 = rob.reserve(), rob.reserve(), rob.reserve()
        assert not rob.head_ready_n(4)  # more than reserved
        rob.fill(t1, "b")
        rob.fill(t2, "c")
        assert not rob.head_ready_n(2)
        rob.fill(t0, "a")
        assert rob.head_ready_n(1)
        assert rob.head_ready_n(3)

    @given(st.permutations(list(range(6))))
    def test_any_fill_order_pops_in_issue_order(self, fill_order):
        rob = ReorderBuffer(6)
        tickets = [rob.reserve() for _ in range(6)]
        for position in fill_order:
            rob.fill(tickets[position], position)
        assert [rob.pop() for _ in range(6)] == list(range(6))


class _Recorder:
    """A stand-in sequential port that logs the fills delivered to it."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def deliver_fill(self, per_lane):
        self.log.append((self.name, per_lane))


class TestCompletionRing:
    def test_same_due_completions_drain_in_push_order(self):
        srf = StreamRegisterFile(isrf4_config())
        log = []
        srf.schedule_fill(3, _Recorder(log, "a"), 1)
        srf.schedule_fill(2, _Recorder(log, "b"), 2)
        srf.schedule_fill(3, _Recorder(log, "c"), 3)
        srf.schedule_fill(3, _Recorder(log, "a"), 4)
        assert srf.next_event_cycle(0) == 2
        srf.tick(0)
        srf.tick(1)
        assert log == []
        srf.tick(2)
        assert log == [("b", 2)]
        srf.tick(3)
        assert log == [("b", 2), ("a", 1), ("c", 3), ("a", 4)]
        assert srf.idle
        assert srf.next_event_cycle(4) is None

    def test_skipped_window_still_drains_in_due_order(self):
        # A tick that lands past several dues (a window skipped without
        # fast_forward's no-event guarantee) drains them oldest first.
        srf = StreamRegisterFile(isrf4_config())
        log = []
        srf.schedule_fill(4, _Recorder(log, "late"), 0)
        srf.schedule_fill(1, _Recorder(log, "early"), 0)
        srf.tick(50)
        assert [name for name, _ in log] == ["early", "late"]

    def test_due_outside_the_ring_rejected(self):
        srf = StreamRegisterFile(isrf4_config())
        srf.tick(0)  # completions for cycle 0 have drained
        with pytest.raises(SrfError, match="outside the completion ring"):
            srf.schedule_fill(0, _Recorder([], "past"), 0)
        with pytest.raises(SrfError, match="outside the completion ring"):
            srf.schedule_fill(1000, _Recorder([], "far"), 0)
