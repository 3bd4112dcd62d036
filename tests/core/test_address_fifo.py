"""Address FIFOs: record->word expansion and head-of-line order."""

import pytest

from repro.config import isrf4_config
from repro.core.address_fifo import AddressFifo
from repro.core.arrays import SrfArray
from repro.core.srf import StreamRegisterFile
from repro.errors import SrfError


#: Decoded fields of a hand-built word: the FIFO never reads them.
DECODED = (1, 0)


def read_record(words, tickets):
    """A read entry: per-word ``(target_lane, addr, ticket, None, bit,
    index)``."""
    return tuple(
        (target, addr, ticket, None) + DECODED
        for (target, addr), ticket in zip(words, tickets)
    )


def write_record(words, values):
    """A write entry: per-word ``(target_lane, addr, None, value, bit,
    index)``."""
    return tuple(
        (target, addr, None, value) + DECODED
        for (target, addr), value in zip(words, values)
    )


def open_stream(kind):
    """An ISRF4 SRF and one in-lane indexed stream of ``kind``."""
    srf = StreamRegisterFile(isrf4_config())
    array = SrfArray(srf, 16 * srf.geometry.lanes, "table")
    descriptor = {
        "read": array.inlane_read,
        "write": array.inlane_write,
        "pairs": lambda: array.inlane_read(record_words=2),
    }[kind]()
    return srf, srf.open_indexed(descriptor)


class TestRecordAccess:
    """What a FIFO entry carries is fixed where the stream builds it."""

    def test_read_xor_write_payload(self):
        # A read entry carries tickets and no values, a write entry the
        # reverse; a stream only builds the kind it supports.
        _, reads = open_stream("read")
        with pytest.raises(SrfError):
            reads.issue_write(0, 0, [1])
        _, writes = open_stream("write")
        with pytest.raises(SrfError):
            writes.issue_read(0, 0)
        reads.issue_read(0, 3)
        _, _, ticket, value, _, _ = reads.fifos[0].peek_word()
        assert ticket == 0 and value is None
        writes.issue_write(0, 3, ["v"])
        _, _, ticket, value, _, _ = writes.fifos[0].peek_word()
        assert ticket is None and value == "v"

    def test_payload_length_must_match(self):
        _, writes = open_stream("write")
        with pytest.raises(SrfError):
            writes.issue_write(0, 0, [1, 2])
        assert writes.fifos[0].is_empty
        assert writes.pending_words == 0


class TestAddressFifo:
    def test_single_word_records(self):
        fifo = AddressFifo(capacity_entries=2, stream_id=7, lane=3)
        fifo.push(read_record([(3, 10)], [0]))
        target_lane, addr, ticket, value, _, _ = fifo.peek_word()
        assert addr == 10
        assert target_lane == 3
        assert fifo.lane == 3
        assert fifo.stream_id == 7
        assert ticket == 0
        assert value is None  # a read
        fifo.advance()
        assert fifo.is_empty

    def test_record_expands_to_word_sequence(self):
        # Head counters break a 3-word record into 3 single-word accesses
        # (paper Section 4.4).
        fifo = AddressFifo(capacity_entries=2, stream_id=0, lane=0)
        fifo.push(read_record([(0, 4), (0, 5), (1, 6)], [10, 11, 12]))
        seen = []
        while not fifo.is_empty:
            target_lane, addr, ticket, _, _, _ = fifo.peek_word()
            seen.append((target_lane, addr, ticket))
            fifo.advance()
        assert seen == [(0, 4, 10), (0, 5, 11), (1, 6, 12)]

    def test_capacity_counts_records_not_words(self):
        fifo = AddressFifo(capacity_entries=2, stream_id=0, lane=0)
        fifo.push(read_record([(0, 0), (0, 1)], [0, 1]))
        fifo.push(read_record([(0, 2), (0, 3)], [2, 3]))
        assert fifo.is_full
        with pytest.raises(SrfError):
            fifo.push(read_record([(0, 4)], [4]))

    def test_head_of_line_order_preserved(self):
        fifo = AddressFifo(capacity_entries=4, stream_id=0, lane=0)
        fifo.push(read_record([(0, 1)], [0]))
        fifo.push(read_record([(0, 2)], [1]))
        assert fifo.peek_word()[1] == 1
        # Peeking repeatedly without advance returns the same head.
        assert fifo.peek_word()[1] == 1
        fifo.advance()
        assert fifo.peek_word()[1] == 2

    def test_write_records_carry_values(self):
        fifo = AddressFifo(capacity_entries=2, stream_id=0, lane=0)
        fifo.push(write_record([(0, 8), (0, 9)], ["a", "b"]))
        _, _, ticket, value, _, _ = fifo.peek_word()
        assert ticket is None  # a write
        assert value == "a"
        fifo.advance()
        assert fifo.peek_word()[3] == "b"

    def test_advance_on_empty_raises(self):
        fifo = AddressFifo(capacity_entries=1, stream_id=0, lane=0)
        with pytest.raises(SrfError):
            fifo.advance()

    def test_peek_on_empty_returns_none(self):
        fifo = AddressFifo(capacity_entries=1, stream_id=0, lane=0)
        assert fifo.peek_word() is None

    def test_empty_record_rejected(self):
        fifo = AddressFifo(capacity_entries=1, stream_id=0, lane=0)
        with pytest.raises(SrfError):
            fifo.push(())

    def test_cursor_resets_between_records(self):
        fifo = AddressFifo(capacity_entries=2, stream_id=0, lane=0)
        fifo.push(read_record([(0, 1), (0, 2)], [0, 1]))
        fifo.push(read_record([(0, 3), (0, 4)], [2, 3]))
        fifo.advance()
        fifo.advance()
        assert fifo.occupancy == 1
        assert fifo.peek_word()[1] == 3
        fifo.advance()
        assert fifo.peek_word()[1] == 4
        fifo.advance()
        assert fifo.is_empty
        fifo.push(read_record([(0, 5)], [4]))
        assert fifo.peek_word()[1] == 5


class TestIssuePaths:
    """The stream-side builders of FIFO entries and ROB tickets."""

    def test_single_word_read_is_one_tuple_with_a_ticket(self):
        _, stream = open_stream("read")
        stream.issue_read(2, 5)
        stream.issue_read(2, 6)
        fifo = stream.fifos[2]
        assert fifo.occupancy == 2
        first = fifo.peek_word()
        assert first[0] == 2 and first[2] == 0
        assert stream.pending_words == 2
        assert stream.robs[2].occupancy == 2

    def test_out_of_range_read_reserves_nothing(self):
        _, stream = open_stream("read")
        with pytest.raises(SrfError, match="out of range"):
            stream.issue_read(0, 16)
        with pytest.raises(SrfError, match="out of range"):
            stream.issue_read(0, -1)
        assert stream.robs[0].occupancy == 0
        assert stream.pending_words == 0

    def test_multi_word_read_takes_one_ticket_per_word(self):
        _, stream = open_stream("pairs")
        stream.issue_read(1, 3)
        fifo = stream.fifos[1]
        words = []
        while not fifo.is_empty:
            words.append(fifo.peek_word())
            fifo.advance()
        assert [w[2] for w in words] == [0, 1]
        assert words[1][1] == words[0][1] + 1
        assert stream.pending_words == 2

    def test_words_are_decoded_at_issue(self):
        # Every queued word carries its sub-array bit and storage index,
        # so arbitration never re-derives them (per-lane and cross-lane).
        srf, reads = open_stream("pairs")
        geometry = srf.geometry
        reads.issue_read(3, 7)
        array = SrfArray(srf, 16 * geometry.lanes, "nodes")
        nodes = srf.open_indexed(array.crosslane_read(record_words=2))
        nodes.issue_read(0, 13)
        for stream, lane in ((reads, 3), (nodes, 0)):
            fifo = stream.fifos[lane]
            while not fifo.is_empty:
                target, addr, _, _, bit, index = fifo.peek_word()
                assert bit == 1 << geometry.subarray_of(addr)
                assert index == geometry.join(target, addr)
                fifo.advance()
        first = nodes.resolve(0, 13)[0]
        assert first[3] == nodes.descriptor.base + 13 * 2
