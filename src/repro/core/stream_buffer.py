"""Stream buffers: the rate-matching FIFOs between SRF and clusters.

The SRF port moves ``N x m`` words per access while compute clusters
consume/produce one word per lane per stream access, so every stream is
fronted by a buffer (paper Section 4.3, Figure 8).

Two buffer flavours are provided:

* :class:`LaneFifo` — the classic sequential stream buffer: one FIFO per
  lane, filled/drained ``m`` words per lane by SRF block accesses and
  popped/pushed one word per lane by the (SIMD lock-stepped) clusters.
* :class:`ReorderBuffer` — the data-side buffer of an *indexed* stream
  (Section 4.4). Slots are reserved in program order when addresses
  issue, filled out of order as bank/sub-array arbitration completes
  accesses, and popped strictly in order so the cluster sees the same
  interface as a sequential stream.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SrfError


class LaneFifo:
    """Per-lane word FIFOs with a shared capacity, for sequential streams.

    All lanes fill and drain at the same rate because clusters execute in
    SIMD lockstep, so occupancy is tracked once and asserted uniform.

    ``occupancy_probe``, when given, is called with the per-lane
    occupancy after every push; the observability layer points it at a
    histogram so buffer-depth distributions cost one call only when
    metrics are enabled.
    """

    def __init__(self, lanes: int, capacity_words: int, occupancy_probe=None):
        if lanes <= 0 or capacity_words <= 0:
            raise SrfError("LaneFifo needs positive lanes and capacity")
        self.lanes = lanes
        self.capacity = capacity_words
        self._fifos = [deque() for _ in range(lanes)]
        self._occupancy_probe = occupancy_probe

    @property
    def occupancy(self) -> int:
        """Words currently buffered per lane."""
        return len(self._fifos[0])

    @property
    def space(self) -> int:
        """Free word slots per lane."""
        return self.capacity - self.occupancy

    def can_push(self, words: int = 1) -> bool:
        return self.space >= words

    def can_pop(self, words: int = 1) -> bool:
        return self.occupancy >= words

    def push_block(self, per_lane_words) -> None:
        """Push ``m`` words into every lane (an SRF-side fill).

        ``per_lane_words`` is a sequence of ``lanes`` sequences, each the
        same length.
        """
        if len(per_lane_words) != self.lanes:
            raise SrfError("push_block needs one word list per lane")
        width = len(per_lane_words[0])
        if any(len(ws) != width for ws in per_lane_words):
            raise SrfError("push_block requires uniform lane widths")
        if not self.can_push(width):
            raise SrfError("stream buffer overflow")
        for fifo, words in zip(self._fifos, per_lane_words):
            fifo.extend(words)
        if self._occupancy_probe is not None:
            self._occupancy_probe(self.occupancy)

    def pop_block(self, words: int) -> list:
        """Pop ``words`` words from every lane (an SRF-side drain)."""
        if not self.can_pop(words):
            raise SrfError("stream buffer underflow")
        return [
            [fifo.popleft() for _ in range(words)] for fifo in self._fifos
        ]

    def push_simd(self, lane_values) -> None:
        """Push one word per lane (a cluster-side write)."""
        if len(lane_values) != self.lanes:
            raise SrfError("push_simd needs one value per lane")
        if not self.can_push(1):
            raise SrfError("stream buffer overflow")
        for fifo, value in zip(self._fifos, lane_values):
            fifo.append(value)
        if self._occupancy_probe is not None:
            self._occupancy_probe(self.occupancy)

    def pop_simd(self) -> list:
        """Pop one word per lane (a cluster-side read)."""
        if not self.can_pop(1):
            raise SrfError("stream buffer underflow")
        return [fifo.popleft() for fifo in self._fifos]

    def clear(self) -> None:
        for fifo in self._fifos:
            fifo.clear()


#: Contents of a reserved reorder-buffer slot whose data has not landed
#: (word values are arbitrary objects, so None cannot mark it).
_EMPTY = object()


class ReorderBuffer:
    """In-order delivery buffer for one indexed stream in one lane.

    ``reserve`` claims the next slot at address-issue time and returns a
    ticket; ``fill`` deposits data into that ticket's slot whenever the
    SRF access completes; ``pop`` succeeds only when the *oldest*
    reserved slot has been filled. This reproduces the stall behaviour of
    Figure 9: a cluster trying to read data whose access was delayed by a
    sub-array conflict stalls even if younger accesses completed.

    Tickets are dense and ascending, so the slot of ticket ``t`` sits at
    position ``t - _head_ticket`` of the slot deque (oldest first); a
    slot holds ``_EMPTY`` until its fill lands. ``_next_ticket`` is kept
    as its own counter so the sanitizer can check that the slots match
    the tickets handed out.
    """

    #: Fill due cycles of in-lane grants, indexed by
    #: ``ticket % capacity``, or None. Only timing engines that bound
    #: stalls by due cycles keep one (see :mod:`repro.machine.columnar`);
    #: the SRF records into it at grant.
    fill_dues = None

    def __init__(self, capacity_words: int):
        if capacity_words <= 0:
            raise SrfError("ReorderBuffer needs positive capacity")
        self.capacity = capacity_words
        self._slots = deque()  # of values or _EMPTY, oldest first
        self._next_ticket = 0
        self._head_ticket = 0
        #: Free slots, kept as a plain attribute so the per-record
        #: ``can_issue`` poll costs no call.
        self.space = capacity_words

    @property
    def occupancy(self) -> int:
        """Slots currently reserved (filled or not)."""
        return len(self._slots)

    def can_reserve(self, words: int = 1) -> bool:
        return self.space >= words

    def reserve(self) -> int:
        """Reserve the next in-order slot; returns a fill ticket."""
        if self.space <= 0:
            raise SrfError("reorder buffer full")
        self._slots.append(_EMPTY)
        self.space -= 1
        ticket = self._next_ticket
        self._next_ticket = ticket + 1
        return ticket

    def fill(self, ticket: int, value) -> None:
        """Deposit data for a previously reserved ticket."""
        slots = self._slots
        position = ticket - self._head_ticket
        if not 0 <= position < len(slots) or slots[position] is not _EMPTY:
            raise SrfError(f"unknown or already-filled ticket {ticket}")
        slots[position] = value

    def head_ready(self) -> bool:
        """True when the oldest reserved slot has been filled."""
        slots = self._slots
        return bool(slots) and slots[0] is not _EMPTY

    def head_ready_n(self, count: int) -> bool:
        """True when the ``count`` oldest reserved slots are all filled.

        Used for multi-word records: the cluster reads a record only once
        every one of its words has returned.
        """
        slots = self._slots
        if count > len(slots):
            return False
        for position in range(count):
            if slots[position] is _EMPTY:
                return False
        return True

    def pop(self):
        """Pop the oldest slot's value; raises if it is not filled yet."""
        slots = self._slots
        if not slots or slots[0] is _EMPTY:
            raise SrfError("reorder buffer head not ready")
        self._head_ticket += 1
        self.space += 1
        return slots.popleft()
