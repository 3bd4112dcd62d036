"""Lane-vector indexed stream ops: all active lanes act, or none does.

Clusters run in SIMD lockstep, so ``try_issue``, ``try_write`` and
``try_pop`` take one entry per lane (None or 0 for a lane predicated
off). A lane that cannot act stalls the whole op and must leave every
lane exactly as it was; a successful op must equal the per-lane calls
it replaces.
"""

import pytest

from repro.config import isrf4_config
from repro.core.arrays import SrfArray
from repro.core.srf import StreamRegisterFile
from repro.errors import SrfError

LANES = 8


def make_srf(**overrides) -> StreamRegisterFile:
    return StreamRegisterFile(isrf4_config(**overrides))


def inlane_stream(srf, kind="read", records=16, record_words=1):
    """An in-lane stream over a table holding lane*1000 + word."""
    array = SrfArray(srf, records * record_words * LANES, f"t{kind}")
    array.fill_per_lane([
        [lane * 1000 + word for word in range(records * record_words)]
        for lane in range(LANES)
    ])
    factory = {"read": array.inlane_read, "write": array.inlane_write}[kind]
    return factory(record_words=record_words), array


def open_inlane(srf, kind="read", records=16, record_words=1):
    descriptor, array = inlane_stream(srf, kind, records, record_words)
    return srf.open_indexed(descriptor), array


def open_crosslane(srf, records=64, record_words=1):
    array = SrfArray(srf, records * record_words, "nodes")
    array.fill_stream_order(range(records * record_words))
    return srf.open_indexed(array.crosslane_read(record_words=record_words))


def snapshot(stream):
    """Every piece of per-lane state a stream op may touch."""
    state = [stream.pending_words, stream.outstanding_writes]
    for fifo in stream.fifos:
        state.append((tuple(fifo._entries), fifo._cursor))
    for rob in stream.robs or ():
        state.append((tuple(rob._slots), rob._next_ticket, rob._head_ticket,
                      rob.space))
    return state


def tick_until(srf, predicate, start=0, limit=64):
    cycle = start
    while not predicate():
        if cycle - start > limit:
            raise AssertionError("condition never held")
        srf.tick(cycle)
        cycle += 1
    return cycle


class TestTryIssue:
    def test_issues_every_lane_and_data_returns(self):
        srf = make_srf()
        stream, _ = open_inlane(srf)
        assert stream.try_issue([lane + 1 for lane in range(LANES)])
        assert stream.pending_words == LANES
        tick_until(srf, lambda: stream.try_pop([1] * LANES))
        assert srf.stats.inlane_grants == LANES

    def test_equals_per_lane_issue(self):
        vector_srf, serial_srf = make_srf(), make_srf()
        vector, _ = open_inlane(vector_srf)
        serial, _ = open_inlane(serial_srf)
        indices = [3, None, 0, 15, None, 7, 7, 1]
        assert vector.try_issue(indices)
        for lane, index in enumerate(indices):
            if index is not None:
                serial.issue_read(lane, index)
        assert snapshot(vector) == snapshot(serial)

    def test_one_full_fifo_issues_nothing(self):
        srf = make_srf(address_fifo_words=2)
        stream, _ = open_inlane(srf)
        stream.issue_read(5, 0)
        stream.issue_read(5, 1)  # lane 5's FIFO is now full
        before = snapshot(stream)
        assert not stream.try_issue(list(range(LANES)))
        assert snapshot(stream) == before

    def test_one_full_reorder_buffer_issues_nothing(self):
        srf = make_srf(address_fifo_words=8, stream_buffer_words=4)
        stream, _ = open_inlane(srf)
        for index in range(4):
            stream.issue_read(0, index)  # fills lane 0's reorder buffer
        before = snapshot(stream)
        assert not stream.try_issue([2] * LANES)
        assert snapshot(stream) == before

    def test_predicated_off_lanes_are_skipped(self):
        srf = make_srf(address_fifo_words=1)
        stream, _ = open_inlane(srf)
        stream.issue_read(2, 0)  # lane 2 is full, but predicated off below
        indices = [4] * LANES
        indices[2] = None
        assert stream.try_issue(indices)
        assert stream.fifos[2].occupancy == 1
        assert stream.robs[2].occupancy == 1
        assert all(stream.fifos[lane].occupancy == 1 for lane in range(LANES))
        assert stream.pending_words == LANES

    def test_all_lanes_off_is_a_no_op(self):
        srf = make_srf()
        stream, _ = open_inlane(srf)
        before = snapshot(stream)
        assert stream.try_issue([None] * LANES)
        assert snapshot(stream) == before

    @pytest.mark.parametrize("bad", [16, -1])
    def test_out_of_range_index_raises_like_issue_read(self, bad):
        srf = make_srf()
        stream, _ = open_inlane(srf)
        with pytest.raises(SrfError) as per_lane:
            stream.issue_read(6, bad)
        before = snapshot(stream)
        indices = [0] * LANES
        indices[6] = bad
        with pytest.raises(SrfError) as vector:
            stream.try_issue(indices)
        assert str(vector.value) == str(per_lane.value)
        assert snapshot(stream) == before

    def test_write_stream_rejects_reads(self):
        srf = make_srf()
        stream, _ = open_inlane(srf, "write")
        with pytest.raises(SrfError, match="not a read stream"):
            stream.try_issue([0] * LANES)

    def test_can_issue_all_matches_per_lane_checks(self):
        srf = make_srf(address_fifo_words=1)
        stream, _ = open_inlane(srf)
        assert stream.can_issue_all()
        stream.issue_read(7, 0)
        assert not stream.can_issue_all()
        assert not stream.try_issue([0] * LANES)


class TestMultiWordAndCrossLane:
    def test_multi_word_records_take_one_ticket_per_word(self):
        vector_srf, serial_srf = make_srf(), make_srf()
        vector, _ = open_inlane(vector_srf, record_words=2)
        serial, _ = open_inlane(serial_srf, record_words=2)
        indices = [lane % 3 for lane in range(LANES)]
        assert vector.try_issue(indices)
        for lane, index in enumerate(indices):
            serial.issue_read(lane, index)
        assert snapshot(vector) == snapshot(serial)
        assert vector.pending_words == 2 * LANES
        assert all(rob.occupancy == 2 for rob in vector.robs)

    def test_multi_word_pop_waits_for_the_whole_record(self):
        srf = make_srf(subarrays_per_bank=1, inlane_indexed_bandwidth=1)
        stream, _ = open_inlane(srf, record_words=2)
        assert stream.try_issue([1] * LANES)
        # One sub-array per bank grants one word per cycle: after the
        # first word lands the record is still incomplete.
        tick_until(srf, lambda: stream.data_ready(0))
        before = snapshot(stream)
        assert not stream.try_pop([2] * LANES)
        assert snapshot(stream) == before
        tick_until(srf, lambda: stream.robs[0].head_ready_n(2), start=10)
        assert stream.try_pop([2] * LANES)
        assert all(rob.occupancy == 0 for rob in stream.robs)

    def test_crosslane_records_issue_from_every_lane(self):
        vector_srf, serial_srf = make_srf(), make_srf()
        vector = open_crosslane(vector_srf, record_words=2)
        serial = open_crosslane(serial_srf, record_words=2)
        indices = [(5 * lane) % 32 for lane in range(LANES)]
        assert vector.try_issue(indices)
        for lane, index in enumerate(indices):
            serial.issue_read(lane, index)
        assert snapshot(vector) == snapshot(serial)
        for cycle in range(64):
            vector_srf.tick(cycle)
            serial_srf.tick(cycle)
        assert vector_srf.stats == serial_srf.stats
        assert vector.try_pop([2] * LANES)
        assert all(rob.occupancy == 0 for rob in vector.robs)

    def test_crosslane_out_of_range_index_raises(self):
        srf = make_srf()
        stream = open_crosslane(srf)
        with pytest.raises(SrfError, match="out of range"):
            stream.try_issue([64] + [0] * (LANES - 1))
        assert stream.pending_words == 0


class TestTryPop:
    def test_waits_for_every_active_lane(self):
        srf = make_srf()
        stream, _ = open_inlane(srf)
        assert stream.try_issue([0] * LANES)
        before = snapshot(stream)
        assert not stream.try_pop([1] * LANES)  # nothing granted yet
        assert snapshot(stream) == before
        tick_until(srf, lambda: stream.data_ready(LANES - 1))
        assert stream.try_pop([1] * LANES)

    def test_predicated_off_lanes_keep_their_data(self):
        srf = make_srf()
        stream, _ = open_inlane(srf)
        assert stream.try_issue(list(range(LANES)))
        tick_until(srf, lambda: all(
            stream.data_ready(lane) for lane in range(LANES)))
        counts = [1] * LANES
        counts[4] = 0
        assert stream.try_pop(counts)
        assert stream.robs[4].occupancy == 1
        assert stream.pop_data(4) == 4004

    def test_write_stream_has_no_data(self):
        srf = make_srf()
        stream, _ = open_inlane(srf, "write")
        with pytest.raises(SrfError, match="no data"):
            stream.try_pop([1] * LANES)


class TestTryWrite:
    def test_writes_land_in_every_active_lane(self):
        srf = make_srf()
        stream, array = open_inlane(srf, "write")
        entries = [(lane, [f"v{lane}"]) for lane in range(LANES)]
        entries[1] = None
        assert stream.try_write(entries)
        assert stream.outstanding_writes == LANES - 1
        tick_until(srf, lambda: stream.quiescent)
        for lane in range(LANES):
            expected = 1000 + 1 if lane == 1 else f"v{lane}"
            assert array.read_per_lane(lane, LANES)[lane] == expected

    def test_equals_per_lane_issue_write(self):
        vector_srf, serial_srf = make_srf(), make_srf()
        vector, _ = open_inlane(vector_srf, "write", record_words=2)
        serial, _ = open_inlane(serial_srf, "write", record_words=2)
        entries = [(lane, [lane, -lane]) for lane in range(LANES)]
        entries[3] = None
        assert vector.try_write(entries)
        for lane, entry in enumerate(entries):
            if entry is not None:
                serial.issue_write(lane, *entry)
        assert snapshot(vector) == snapshot(serial)

    def test_one_full_fifo_writes_nothing(self):
        srf = make_srf(address_fifo_words=1)
        stream, _ = open_inlane(srf, "write")
        stream.issue_write(0, 0, ["x"])
        before = snapshot(stream)
        assert not stream.try_write([(1, ["y"])] * LANES)
        assert snapshot(stream) == before

    def test_read_write_stream_waits_for_reorder_room(self):
        # Like can_issue, a read-write stream's write needs reorder room.
        srf = make_srf(stream_buffer_words=4)
        array = SrfArray(srf, 16 * LANES, "rw")
        stream = srf.open_indexed(array.inlane_readwrite())
        for index in range(4):
            assert stream.try_issue([index] * LANES)
        before = snapshot(stream)
        assert not stream.can_issue(0)
        assert not stream.try_write([(0, ["w"])] * LANES)
        assert snapshot(stream) == before
        tick_until(srf, lambda: stream.try_pop([1] * LANES))
        assert stream.try_write([(0, ["w"])] * LANES)

    def test_bad_record_changes_nothing(self):
        srf = make_srf()
        stream, _ = open_inlane(srf, "write")
        before = snapshot(stream)
        entries = [(0, ["a"])] * LANES
        entries[5] = (0, ["a", "b"])
        with pytest.raises(SrfError, match="record needs 1 words"):
            stream.try_write(entries)
        entries[5] = (99, ["a"])
        with pytest.raises(SrfError, match="out of range"):
            stream.try_write(entries)
        assert snapshot(stream) == before
