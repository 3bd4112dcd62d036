"""Per-lane address FIFOs for indexed SRF streams (paper Section 4.4).

Clusters compute *record* addresses with their ALUs and push them into a
dedicated FIFO per indexed stream per lane. A counter at the head of the
FIFO breaks each record access into a sequence of single-word accesses,
"significantly reducing the address generation overhead imposed on the
compute clusters". The SRF's local arbitration only ever consumes the
head word access of each FIFO, which is what produces the head-of-line
blocking studied in Figure 17.

An entry is a record: a tuple of per-word tuples
``(target_lane, bank_local_addr, ticket, value, subarray_bit,
storage_index)``, in word order. Reads carry their reorder-buffer
``ticket`` and a ``None`` value; writes carry a ``None`` ticket and the
word to store. The last two fields are the word's address decoded once,
when the record issued: the one-hot mask of its sub-array in the target
bank, which local arbitration tests for conflicts, and its index in
:class:`~repro.core.storage.SrfStorage` (its global address), at which a
grant reads or writes the word. For in-lane streams every target lane
equals the issuing lane; a cross-lane record striped across banks may
straddle lanes. The head counter is a cursor into the head entry, so no
per-word object is built when a word is peeked or granted. The FIFO
itself never looks inside a word.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SrfError


class AddressFifo:
    """FIFO of pending record accesses for one indexed stream in one lane.

    Capacity is counted in *record entries*, matching Table 3's
    "Address FIFO size (per lane per stream)" parameter; the head counter
    that expands records into words is free.
    """

    def __init__(self, capacity_entries: int, stream_id: int, lane: int):
        if capacity_entries <= 0:
            raise SrfError("AddressFifo needs positive capacity")
        self.capacity = capacity_entries
        self.stream_id = stream_id
        self.lane = lane
        self._entries = deque()  # of tuples of per-word tuples
        self._cursor = 0  # next word of the head entry

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def push(self, entry: tuple) -> None:
        """Enqueue a record access (cluster-side)."""
        if len(self._entries) >= self.capacity:
            raise SrfError("address FIFO overflow")
        if not entry:
            raise SrfError("empty record access")
        self._entries.append(entry)

    def peek_word(self) -> "tuple | None":
        """The head word (the six-field tuple above), or None when the
        FIFO is empty."""
        entries = self._entries
        if not entries:
            return None
        return entries[0][self._cursor]

    def advance(self) -> None:
        """Consume the head word access (it was granted this cycle)."""
        entries = self._entries
        if not entries:
            raise SrfError("advance on empty address FIFO")
        cursor = self._cursor + 1
        if cursor == len(entries[0]):
            entries.popleft()
            cursor = 0
        self._cursor = cursor
