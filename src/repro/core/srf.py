"""The stream register file with indexed access — the paper's contribution.

:class:`StreamRegisterFile` assembles the pieces of Sections 4.1–4.5 into
one cycle-steppable device:

* a single time-multiplexed port that each cycle serves *either* one
  sequential ``N x m``-word block access *or* all indexed streams
  (two-stage arbitration, §4.4);
* per-lane sequential stream buffers (:class:`SequentialPort`);
* per-lane, per-stream address FIFOs and reorder buffers for indexed
  streams (:class:`IndexedStream`);
* per-bank local arbitration with sub-array conflict detection and
  head-of-line blocking (§4.2, Figure 17);
* cross-lane access through dedicated address and data-return crossbars
  (§4.5, Figure 18).

Clients (the kernel executor, the microbenchmarks and the memory
controller) interact through small, explicit protocols:

* sequential ports expose ``wants_grant`` / ``on_grant``;
* indexed streams expose lane-vector ops for clusters in SIMD lockstep:
  ``try_issue(indices)``, ``try_write(entries)`` and ``try_pop(counts)``
  take one entry per lane (None or 0 for a lane predicated off) and act
  on every active lane or, when one cannot, on none; ``can_issue_all``
  asks the same question without acting;
* indexed streams also expose per-lane ops for clients whose lanes act
  independently: ``can_issue`` / ``issue_read`` / ``issue_write`` /
  ``data_ready`` / ``pop_data``.

Each record address is decoded once, when it issues, into its word's
sub-array bit and storage index; arbitration reads the decoded words.
Everything functional (actual word values) lives in
:class:`~repro.core.storage.SrfStorage`, so the timing model and the
data model can never diverge.
"""

from __future__ import annotations

import enum
import itertools
from bisect import insort
from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.core.address_fifo import AddressFifo
from repro.core.arbiter import RoundRobinArbiter
from repro.core.descriptors import IndexSpace, StreamDescriptor
from repro.core.geometry import SrfGeometry
from repro.core.storage import SrfAllocator, SrfStorage
from repro.core.stream_buffer import LaneFifo, ReorderBuffer
from repro.errors import SrfError
from repro.interconnect.crossbar import (
    AddressNetwork,
    ReturnNetwork,
    RingAddressNetwork,
)


class PortDirection(enum.Enum):
    """Direction of a sequential port relative to its client."""

    #: SRF -> client (the client pops words the port fetched).
    READ = "read"
    #: client -> SRF (the client pushes words the port drains).
    WRITE = "write"


@dataclass
class SrfStats:
    """Per-run SRF traffic and arbitration counters."""

    cycles: int = 0
    sequential_grants: int = 0
    sequential_words: int = 0
    inlane_grants: int = 0
    crosslane_grants: int = 0
    indexed_write_grants: int = 0
    indexed_cycles: int = 0
    #: Indexed-group cycles in which zero accesses were granted.
    empty_indexed_cycles: int = 0
    #: Head word accesses present but not granted in an indexed cycle
    #: (sub-array conflicts, port limits, network backpressure).
    blocked_heads: int = 0

    @property
    def indexed_words(self) -> int:
        return self.inlane_grants + self.crosslane_grants + self.indexed_write_grants


class SequentialPort:
    """One sequential stream's connection to the SRF port.

    The port fetches (reads) or drains (writes) whole ``N x m`` blocks
    between :class:`~repro.core.storage.SrfStorage` and a per-lane stream
    buffer; the client moves one word per lane per access on the other
    side. Streams whose length is not a whole number of blocks are padded
    with zeros on the final block, as the block-aligned allocator
    guarantees the space exists.
    """

    _ids = itertools.count()

    def __init__(self, srf: "StreamRegisterFile", descriptor: StreamDescriptor,
                 direction: PortDirection, buffer_words: "int | None" = None):
        self.port_id = next(SequentialPort._ids)
        self.srf = srf
        self.descriptor = descriptor
        self.direction = direction
        geometry = srf.geometry
        self.block_words = geometry.block_words
        self.words_per_lane = geometry.words_per_lane_access
        self.total_blocks = geometry.blocks_spanned(
            descriptor.base, descriptor.length_words
        )
        self.fifo = LaneFifo(
            geometry.lanes, buffer_words or srf.config.stream_buffer_words,
            occupancy_probe=srf._stream_buffer_probe,
        )
        self._blocks_done = 0
        #: Words per lane granted but not yet delivered (pipelined reads
        #: must reserve buffer space at grant time or back-to-back grants
        #: would overflow the stream buffer when they land).
        self._inflight_words = 0
        self._flush_requested = direction is PortDirection.READ

    # -- client side ------------------------------------------------------
    def can_pop(self) -> bool:
        return self.direction is PortDirection.READ and self.fifo.can_pop(1)

    def pop_simd(self) -> list:
        """Pop one word per lane (cluster-side sequential read)."""
        return self.fifo.pop_simd()

    def can_push(self) -> bool:
        return self.direction is PortDirection.WRITE and self.fifo.can_push(1)

    def push_simd(self, lane_values) -> None:
        """Push one word per lane (cluster-side sequential write)."""
        self.fifo.push_simd(lane_values)

    def flush(self) -> None:
        """Request that buffered write data be drained even if partial."""
        self._flush_requested = True

    @property
    def drained(self) -> bool:
        """True when all stream data has moved through the port."""
        if self.direction is PortDirection.READ:
            return self._blocks_done >= self.total_blocks
        return self._blocks_done >= self.total_blocks or (
            self._flush_requested and self.fifo.occupancy == 0
            and not self._partial_pending()
        )

    # -- arbiter side ------------------------------------------------------
    def wants_grant(self) -> bool:
        if self._blocks_done >= self.total_blocks:
            return False
        if self.direction is PortDirection.READ:
            return (
                self.fifo.space - self._inflight_words >= self.words_per_lane
            )
        occupancy = self.fifo.occupancy
        if occupancy >= self.words_per_lane:
            return True
        return self._flush_requested and occupancy > 0

    def on_grant(self, cycle: int) -> int:
        """Perform one block transfer; returns words moved."""
        base = self.descriptor.base + self._blocks_done * self.block_words
        if self.direction is PortDirection.READ:
            per_lane = self.srf.filter_block([
                self.srf.storage.read_range(
                    base + lane * self.words_per_lane, self.words_per_lane
                )
                for lane in range(self.fifo.lanes)
            ])
            self.srf.schedule_fill(
                cycle + self.srf.config.srf_sequential_latency, self, per_lane
            )
            self._blocks_done += 1
            self._inflight_words += self.words_per_lane
            return self.block_words
        width = min(self.words_per_lane, self.fifo.occupancy)
        per_lane = self.fifo.pop_block(width)
        for lane, words in enumerate(per_lane):
            self.srf.storage.write_range(
                base + lane * self.words_per_lane, words
            )
        if width == self.words_per_lane or self._flush_requested:
            self._blocks_done += 1
        return width * self.fifo.lanes

    def deliver_fill(self, per_lane) -> None:
        """Complete a pipelined read block (called by the SRF)."""
        self._inflight_words -= len(per_lane[0])
        self.fifo.push_block(per_lane)

    def _partial_pending(self) -> bool:
        return self._blocks_done < self.total_blocks and self.fifo.occupancy > 0


class IndexedStream:
    """Timing and data state for one indexed stream (Table 1 kinds).

    A read stream owns, per lane, an address FIFO and a reorder buffer;
    issuing a record reserves reorder slots so data returns in issue
    order (Figure 9's stall semantics). A write stream's FIFO entries
    carry the data words; ``outstanding_writes`` lets the executor
    barrier on write drain at kernel end. FIFO entries are tuples of
    per-word tuples ``(target_lane, bank_local_addr, ticket, value,
    subarray_bit, storage_index)``, decoded once when the record issues
    (see :mod:`repro.core.address_fifo`).

    Clusters run in SIMD lockstep (§4.4: each indexed stream op pushes
    one record address per lane), so the kernel executor moves a lane
    vector per stream op: :meth:`try_issue`, :meth:`try_write` and
    :meth:`try_pop` take one entry per lane, None or 0 for a lane that
    is predicated off, and act on every active lane or on none.
    """

    #: Reorder-buffer class hook: timing-engine subclasses (see
    #: :mod:`repro.machine.columnar`) substitute a due-tracking variant.
    ROB_CLS = ReorderBuffer

    def __init__(self, srf: "StreamRegisterFile", descriptor: StreamDescriptor):
        if descriptor.kind.is_sequential:
            raise SrfError(f"{descriptor.name}: not an indexed stream kind")
        self.srf = srf
        self.descriptor = descriptor
        geometry = srf.geometry
        lanes = geometry.lanes
        cfg = srf.config
        self.fifos = [
            AddressFifo(cfg.address_fifo_words, descriptor.stream_id, lane)
            for lane in range(lanes)
        ]
        if descriptor.kind.is_read:
            self.robs = [
                self.ROB_CLS(cfg.stream_buffer_words) for _ in range(lanes)
            ]
        else:
            self.robs = None
        self.outstanding_writes = 0
        #: Word accesses queued across all lane FIFOs (kept as a counter
        #: so per-cycle arbitration polls are O(1), not O(lanes)).
        self.pending_words = 0
        # Immutable per-stream facts, cached off the hot arbitration path.
        self.stream_id = descriptor.stream_id
        self.is_crosslane = descriptor.kind.is_crosslane
        self.is_read = descriptor.kind.is_read
        self.is_write = descriptor.kind.is_write
        self._record_words = descriptor.record_words
        self._length_records = descriptor.length_records
        self._local_base = self._compute_local_base()
        self._per_lane = descriptor.index_space is IndexSpace.PER_LANE
        self._per_lane_single = self._per_lane and descriptor.record_words == 1
        # Address-decode factors (see repro.core.geometry).
        self._m = geometry.words_per_lane_access
        self._block_words = geometry.block_words
        self._subarrays = geometry.subarrays_per_bank
        self._bank_words = geometry.bank_words
        # Records below this index lie inside the stream and the SRF, so
        # issue decodes them without a further range check.
        if self._per_lane:
            room = geometry.bank_words - self._local_base
        else:
            room = geometry.total_words - descriptor.base
        self._issue_limit = max(
            0, min(self._length_records, room // self._record_words)
        )

    def _compute_local_base(self) -> int:
        geometry = self.srf.geometry
        base = self.descriptor.base
        if base % geometry.block_words:
            raise SrfError(
                f"{self.descriptor.name}: indexed streams need block-aligned "
                f"bases (got {base})"
            )
        return (base // geometry.block_words) * geometry.words_per_lane_access

    # -- address resolution ------------------------------------------------
    def _check_index(self, record_index: int) -> None:
        if not 0 <= record_index < self._length_records:
            raise SrfError(
                f"{self.descriptor.name}: record index {record_index} out of "
                f"range [0,{self._length_records})"
            )

    def _decode(self, lane: int, addr: int) -> tuple:
        """``(lane, addr, subarray_bit, storage_index)`` of the word at
        bank-local ``addr`` of bank ``lane``.

        The sub-array bit is the one-hot conflict mask local arbitration
        tests; the storage index is the word's global address, the index
        :class:`~repro.core.storage.SrfStorage` keeps it at.
        """
        if not 0 <= addr < self._bank_words:
            self.srf.geometry.join(lane, addr)  # raises the precise error
        m = self._m
        super_block, offset = divmod(addr, m)
        return (
            lane, addr, 1 << (super_block % self._subarrays),
            super_block * self._block_words + lane * m + offset,
        )

    def resolve(self, lane: int, record_index: int) -> list:
        """Decoded word targets of a record, in word order: ``(target_lane,
        bank_local_addr, subarray_bit, storage_index)`` per word."""
        self._check_index(record_index)
        rw = self._record_words
        if self._per_lane:
            start = self._local_base + record_index * rw
            return [self._decode(lane, start + j) for j in range(rw)]
        split = self.srf.geometry.split
        start = self.descriptor.base + record_index * rw
        return [self._decode(*split(start + j)) for j in range(rw)]

    def _read_entry(self, lane: int, record_index: int) -> tuple:
        """Reserve reorder slots for one record read; its FIFO entry."""
        rob = self.robs[lane]
        if self._per_lane_single:
            words = (self._decode(lane, self._local_base + record_index),)
        else:
            words = self.resolve(lane, record_index)
        return tuple(
            (target, addr, rob.reserve(), None, bit, index)
            for target, addr, bit, index in words
        )

    def _write_entry(self, lane: int, record_index: int, values) -> tuple:
        """The FIFO entry of one record write carrying ``values``."""
        if self._per_lane_single and 0 <= record_index < self._issue_limit:
            words = (self._decode(lane, self._local_base + record_index),)
        else:
            words = self.resolve(lane, record_index)
        values = list(values)
        if len(values) != len(words):
            raise SrfError(
                f"{self.descriptor.name}: record needs "
                f"{self._record_words} words"
            )
        return tuple(
            (target, addr, None, value, bit, index)
            for (target, addr, bit, index), value in zip(words, values)
        )

    # -- client (cluster) side: one lane ---------------------------------
    def can_issue(self, lane: int) -> bool:
        """Whether ``lane`` may enqueue another record access now."""
        if self.fifos[lane].is_full:
            return False
        if self.robs is not None:
            return self.robs[lane].space >= self._record_words
        return True

    def issue_read(self, lane: int, record_index: int) -> None:
        """Enqueue a record read; reserves in-order reorder slots."""
        if not self.is_read:
            raise SrfError(f"{self.descriptor.name}: not a read stream")
        if not 0 <= record_index < self._issue_limit:
            self.resolve(lane, record_index)  # raises the precise error
        fifo = self.fifos[lane]
        entry = self._read_entry(lane, record_index)
        fifo.push(entry)
        self.pending_words += len(entry)
        hist = self.srf._addr_fifo_hist
        if hist is not None:
            hist.record(fifo.occupancy)

    def issue_write(self, lane: int, record_index: int, values) -> None:
        """Enqueue a record write carrying its data words."""
        if not self.is_write:
            raise SrfError(f"{self.descriptor.name}: not a write stream")
        entry = self._write_entry(lane, record_index, values)
        fifo = self.fifos[lane]
        fifo.push(entry)
        self.pending_words += len(entry)
        self.outstanding_writes += len(entry)
        hist = self.srf._addr_fifo_hist
        if hist is not None:
            hist.record(fifo.occupancy)

    def data_ready(self, lane: int) -> bool:
        """Whether the oldest issued record's next word is readable."""
        return self.robs is not None and self.robs[lane].head_ready()

    def pop_data(self, lane: int):
        """Pop the next in-order data word for ``lane``."""
        if self.robs is None:
            raise SrfError(f"{self.descriptor.name}: write streams have no data")
        return self.robs[lane].pop()

    # -- client (cluster) side: every lane in lockstep ---------------------
    def can_issue_all(self) -> bool:
        """Whether every lane may enqueue another record access now."""
        robs = self.robs
        need = self._record_words
        lane = 0
        for fifo in self.fifos:
            if fifo.is_full or (robs is not None and robs[lane].space < need):
                return False
            lane += 1
        return True

    def try_issue(self, indices) -> bool:
        """Issue one record read per active lane, or none at all.

        ``indices`` holds each lane's record index, or None for a lane
        that is predicated off. Returns False, changing nothing, when
        an active lane's address FIFO is full or its reorder buffer
        lacks room for a record (the lockstep stall); an out-of-range
        index raises :class:`SrfError`, also changing nothing.
        """
        if not self.is_read:
            raise SrfError(f"{self.descriptor.name}: not a read stream")
        fifos = self.fifos
        robs = self.robs
        need = self._record_words
        limit = self._issue_limit
        lane = 0
        for index in indices:
            if index is not None:
                if fifos[lane].is_full or robs[lane].space < need:
                    return False
                if not 0 <= index < limit:
                    self.resolve(lane, index)  # raises the precise error
            lane += 1
        hist = self.srf._addr_fifo_hist
        pushed = 0
        lane = 0
        if self._per_lane_single:
            # One word per record: _read_entry with _decode inlined.
            base = self._local_base
            m = self._m
            block_words = self._block_words
            subarrays = self._subarrays
            for index in indices:
                if index is not None:
                    addr = base + index
                    super_block, offset = divmod(addr, m)
                    fifo = fifos[lane]
                    fifo.push(((
                        lane, addr, robs[lane].reserve(), None,
                        1 << (super_block % subarrays),
                        super_block * block_words + lane * m + offset,
                    ),))
                    pushed += 1
                    if hist is not None:
                        hist.record(fifo.occupancy)
                lane += 1
        else:
            for index in indices:
                if index is not None:
                    entry = self._read_entry(lane, index)
                    fifo = fifos[lane]
                    fifo.push(entry)
                    pushed += len(entry)
                    if hist is not None:
                        hist.record(fifo.occupancy)
                lane += 1
        self.pending_words += pushed
        return True

    def try_write(self, entries) -> bool:
        """Issue one record write per active lane, or none at all.

        ``entries`` holds each lane's ``(record_index, words)``, or None
        for a lane that is predicated off. Returns False, changing
        nothing, when an active lane cannot issue (see :meth:`can_issue`:
        a read-write stream's writes also wait for reorder-buffer room);
        a bad index or record length raises :class:`SrfError`, also
        changing nothing.
        """
        if not self.is_write:
            raise SrfError(f"{self.descriptor.name}: not a write stream")
        fifos = self.fifos
        robs = self.robs
        need = self._record_words
        lane = 0
        for entry in entries:
            if entry is not None and (
                fifos[lane].is_full
                or (robs is not None and robs[lane].space < need)
            ):
                return False
            lane += 1
        records = [
            None if entry is None
            else self._write_entry(lane, entry[0], entry[1])
            for lane, entry in enumerate(entries)
        ]
        hist = self.srf._addr_fifo_hist
        pushed = 0
        lane = 0
        for record in records:
            if record is not None:
                fifo = fifos[lane]
                fifo.push(record)
                pushed += len(record)
                if hist is not None:
                    hist.record(fifo.occupancy)
            lane += 1
        self.pending_words += pushed
        self.outstanding_writes += pushed
        return True

    def try_pop(self, counts) -> bool:
        """Pop one whole record from every active lane, or none at all.

        ``counts`` holds each lane's expected word count, 0 for a lane
        that is predicated off. Returns False, changing nothing, while
        any active lane's oldest record has a word still in flight.
        """
        robs = self.robs
        if robs is None:
            raise SrfError(f"{self.descriptor.name}: write streams have no data")
        need = self._record_words
        lane = 0
        for count in counts:
            if count and not robs[lane].head_ready_n(need):
                return False
            lane += 1
        lane = 0
        for count in counts:
            if count:
                rob = robs[lane]
                for _ in range(need):
                    rob.pop()
            lane += 1
        return True

    @property
    def quiescent(self) -> bool:
        """True when no addresses or writes remain in flight."""
        return self.pending_words == 0 and self.outstanding_writes == 0


#: Completion kinds on the SRF's calendar ring; each event is a plain
#: tuple led by its kind, so scheduling a completion builds no closure.
#: ``(_FILL, rob, ticket, value)``: an in-lane read lands in its
#: reorder buffer.
_FILL = 0
#: ``(_RETURN, bank, source_lane, ticket, value, stream_id, rob)``: a
#: cross-lane read joins its bank's return-network queue.
_RETURN = 1
#: ``(_RETIRE, stream)``: an indexed write retires.
_RETIRE = 2
#: ``(_DELIVER, port, per_lane)``: a sequential block fill lands in its
#: stream buffer.
_DELIVER = 3

#: Grant order when a bank sees exactly one head: the rotation and the
#: occupancy sort both reduce to serving position 0.
_SINGLE = (0,)


class StreamRegisterFile:
    """Cycle-steppable SRF with sequential and indexed access.

    Construct one per simulated machine; register sequential ports and
    indexed streams, then call :meth:`tick` once per cycle. ``comm_busy``
    tells the SRF whether the inter-cluster network carries an explicit
    (statically scheduled) communication this cycle, which takes priority
    over cross-lane data returns (§4.5).
    """

    #: Indexed-stream class hook: timing-engine subclasses (see
    #: :mod:`repro.machine.columnar`) substitute a variant whose reorder
    #: buffers track fill due cycles.
    INDEXED_STREAM_CLS = IndexedStream

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.geometry = SrfGeometry(
            lanes=config.lanes,
            bank_words=config.bank_words,
            words_per_lane_access=config.words_per_lane_access,
            subarrays_per_bank=config.subarrays_per_bank,
        )
        self.storage = SrfStorage(self.geometry)
        self.allocator = SrfAllocator(self.geometry)
        self.stats = SrfStats()
        self._seq_ports = []
        self._indexed = {}  # stream_id -> IndexedStream
        self._indexed_list = []  # same streams, in registration order
        self._global_arbiter = RoundRobinArbiter()
        self._seq_arbiter = RoundRobinArbiter()
        #: Per-bank round-robin pointers of local indexed arbitration.
        self._bank_pointers = [0] * config.lanes
        network_cls = (
            RingAddressNetwork if config.crosslane_network == "ring"
            else AddressNetwork
        )
        self.address_network = network_cls(
            lanes=config.lanes,
            ports_per_bank=config.crosslane_ports_per_bank,
            source_bandwidth=max(1, config.crosslane_indexed_bandwidth or 1),
        )
        self.return_network = ReturnNetwork(lanes=config.lanes)
        # Calendar ring of pipelined completions, one bucket per due
        # cycle. Every due lies 1..max(latency) cycles after the cycle
        # that scheduled it, so each live due owns its bucket alone and
        # draining buckets in due order, each in push order, replays
        # completions in (due, schedule order).
        self._ring_size = max(
            config.srf_sequential_latency,
            config.inlane_indexed_latency,
            config.crosslane_indexed_latency,
        ) + 2
        self._ring = [[] for _ in range(self._ring_size)]
        self._ring_count = 0  # events on the ring
        self._ring_floor = 0  # first due cycle not yet drained
        self._comm_busy = False
        # Fault injection (repro.faults); all None/False when disabled so
        # the hot paths pay a single predicated check at most.
        self._fault_injector = None
        self._drop_schedule = None
        self._faults_enabled = False
        self._drops_active = False
        # Observability (repro.observe); same inertness contract.
        self._tracer = None
        self._bank_conflicts = None
        self._addr_fifo_hist = None
        self._stream_buffer_probe = None
        self._occupancy_policy = config.indexed_arbitration == "occupancy"
        self._shared_network = config.shared_interlane_network
        #: Per-bank grant cap for indexed word accesses per cycle.
        self._bank_cap = (
            min(config.inlane_indexed_bandwidth, config.subarrays_per_bank)
            if config.supports_indexing
            else 0
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def open_sequential(
        self,
        descriptor: StreamDescriptor,
        direction: "PortDirection | None" = None,
        buffer_words: "int | None" = None,
    ) -> SequentialPort:
        """Attach a sequential stream to the SRF port."""
        if direction is None:
            direction = (
                PortDirection.READ
                if descriptor.kind.is_read
                else PortDirection.WRITE
            )
        port = SequentialPort(self, descriptor, direction, buffer_words)
        self._seq_ports.append(port)
        if self._tracer is not None:
            self._tracer.instant(
                "srf", f"open:{descriptor.name}", self.stats.cycles,
                direction=direction.value,
                length_words=descriptor.length_words,
            )
        return port

    def close_sequential(self, port: SequentialPort) -> None:
        """Detach a sequential port (its stream finished)."""
        self._seq_ports.remove(port)

    def attach_port(self, port) -> None:
        """Register a duck-typed sequential requester (memory-system port).

        ``port`` must expose ``wants_grant() -> bool`` and
        ``on_grant(cycle) -> int`` (words moved), like
        :class:`SequentialPort`.
        """
        self._seq_ports.append(port)

    def detach_port(self, port) -> None:
        """Unregister a port attached with :meth:`attach_port`."""
        self._seq_ports.remove(port)

    def open_indexed(self, descriptor: StreamDescriptor) -> IndexedStream:
        """Attach an indexed stream (requires an ISRF machine)."""
        if not self.config.supports_indexing:
            raise SrfError(
                f"machine '{self.config.name}' has a sequential-only SRF; "
                f"cannot open indexed stream {descriptor.name}"
            )
        stream = self.INDEXED_STREAM_CLS(self, descriptor)
        self._indexed[descriptor.stream_id] = stream
        self._indexed_list.append(stream)
        if self._tracer is not None:
            self._tracer.instant(
                "srf", f"open:{descriptor.name}", self.stats.cycles,
                kind=descriptor.kind.name,
                length_records=descriptor.length_records,
            )
        return stream

    def close_indexed(self, stream: IndexedStream) -> None:
        if not stream.quiescent:
            raise SrfError(
                f"{stream.descriptor.name}: closing with accesses in flight"
            )
        del self._indexed[stream.descriptor.stream_id]
        self._indexed_list.remove(stream)

    # ------------------------------------------------------------------
    # Observability (repro.observe)
    # ------------------------------------------------------------------
    def install_observer(self, observer) -> None:
        """Attach an :class:`repro.observe.Observer`; None is a no-op.

        Observation never alters SRF behaviour: the tracer records
        stream open/close events, the metrics registry reads the
        existing :class:`SrfStats` through a provider, and metrics level
        2 additionally counts per-bank arbitration conflicts and samples
        address-FIFO / stream-buffer occupancy on issue paths.
        """
        if observer is None:
            return
        self._tracer = observer.tracer
        metrics = observer.metrics
        if metrics is None:
            return
        metrics.add_provider(self._metrics_provider)
        if metrics.level >= 2:
            self._bank_conflicts = [
                metrics.counter(f"srf.bank{bank}.blocked_heads")
                for bank in range(self.geometry.lanes)
            ]
            self._addr_fifo_hist = metrics.histogram("srf.addr_fifo.depth")
            hist = metrics.histogram("srf.stream_buffer.occupancy")
            self._stream_buffer_probe = hist.record

    def _metrics_provider(self) -> dict:
        s = self.stats
        return {
            "srf.cycles": s.cycles,
            "srf.sequential_grants": s.sequential_grants,
            "srf.sequential_words": s.sequential_words,
            "srf.inlane_grants": s.inlane_grants,
            "srf.crosslane_grants": s.crosslane_grants,
            "srf.indexed_write_grants": s.indexed_write_grants,
            "srf.indexed_cycles": s.indexed_cycles,
            "srf.empty_indexed_cycles": s.empty_indexed_cycles,
            "srf.blocked_heads": s.blocked_heads,
        }

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, injector=None, drop_schedule=None) -> None:
        """Attach a bit-flip injector and/or a crossbar drop schedule.

        ``injector`` is a :class:`repro.faults.BitFlipInjector` applied
        to words read out of the SRF banks; ``drop_schedule`` a
        :class:`repro.faults.DropSchedule` whose active windows take the
        cross-lane address network down.
        """
        self._fault_injector = injector
        self._drop_schedule = drop_schedule
        self._faults_enabled = injector is not None or drop_schedule is not None

    def _advance_faults(self, cycle: int) -> None:
        injector = self._fault_injector
        if injector is not None:
            injector.advance(cycle)
        drops = self._drop_schedule
        if drops is not None:
            active = drops.active(cycle)
            if active != self._drops_active:
                self._drops_active = active
                self.address_network.set_fault_drop(active)

    def filter_words(self, values):
        """Route a flat list of read words through any armed strikes."""
        injector = self._fault_injector
        if injector is None or not injector.armed:
            return values
        return [injector.filter(v) for v in values]

    def filter_block(self, per_lane):
        """Route a per-lane block read through any armed strikes."""
        injector = self._fault_injector
        if injector is None or not injector.armed:
            return per_lane
        return [[injector.filter(v) for v in words] for words in per_lane]

    # ------------------------------------------------------------------
    # Cycle stepping
    # ------------------------------------------------------------------
    def tick(self, cycle: int, comm_busy: bool = False) -> None:
        """Advance the SRF by one cycle.

        ``comm_busy`` marks a cycle carrying an explicit (statically
        scheduled) inter-cluster communication: it pre-empts cross-lane
        data returns and, on machines with a shared inter-lane network
        (§4.5's preferred option), cross-lane index injection as well.
        """
        self.stats.cycles += 1
        self._comm_busy = comm_busy
        if self._faults_enabled:
            self._advance_faults(cycle)
        if self._ring_count:
            self._complete_due(cycle)
        else:
            self._ring_floor = cycle + 1
        return_network = self.return_network
        if comm_busy or return_network.queued:
            return_network.tick(comm_busy)
        self._arbitrate(cycle)

    def next_event_cycle(self, cycle: int) -> "int | None":
        """Earliest cycle at which :meth:`tick` could change state.

        ``cycle`` itself when the next tick may arbitrate an access (a
        port wants a grant, indexed addresses are queued, or return data
        is waiting), the due cycle of the oldest pipelined completion
        otherwise, and ``None`` when the SRF is fully quiescent. Cycles
        before the returned value may be skipped via :meth:`fast_forward`
        with results bit-identical to per-cycle ticking.
        """
        for port in self._seq_ports:
            if port.wants_grant():
                return cycle
        for stream in self._indexed_list:
            if stream.pending_words:
                return cycle
        if self.return_network.queued:
            return cycle
        if self._ring_count:
            return self._next_due()
        return None

    def _next_due(self) -> int:
        """Due cycle of the oldest completion on the (non-empty) ring."""
        ring = self._ring
        size = self._ring_size
        floor = self._ring_floor
        for offset in range(size):
            if ring[(floor + offset) % size]:
                return floor + offset
        raise SrfError("completion ring count out of step with its buckets")

    def fast_forward(self, cycles: int) -> None:
        """Account ``cycles`` ticks in bulk across a quiescent window.

        Only valid when :meth:`next_event_cycle` reported no possible
        state change for the whole window (so arbitration, pipelined
        completions, and the return network would all have been no-ops).
        """
        self.stats.cycles += cycles
        self._comm_busy = False

    def schedule_fill(self, due: int, port: SequentialPort, per_lane) -> None:
        """Register a pipelined sequential read completion."""
        if not self._ring_floor <= due < self._ring_floor + self._ring_size:
            raise SrfError(
                f"fill due at cycle {due} is outside the completion ring "
                f"[{self._ring_floor}, {self._ring_floor + self._ring_size})"
            )
        self._ring[due % self._ring_size].append((_DELIVER, port, per_lane))
        self._ring_count += 1

    def _complete_due(self, cycle: int) -> None:
        """Apply every completion due at or before ``cycle``, in order
        (the ring holds at least one event)."""
        ring = self._ring
        size = self._ring_size
        due = self._ring_floor
        # Live dues all lie in [floor, floor + size), so after a skipped
        # window one lap of the ring still visits each in due order.
        last = min(cycle, due + size - 1)
        enqueue = self.return_network.enqueue
        while due <= last:
            slot = due % size
            bucket = ring[slot]
            if bucket:
                # Completions schedule nothing, so the bucket is final.
                ring[slot] = []
                for event in bucket:
                    kind = event[0]
                    if kind == _FILL:
                        event[1].fill(event[2], event[3])
                    elif kind == _RETURN:
                        enqueue(event[1], event[2], event[3], event[4],
                                event[5], event[6].fill)
                    elif kind == _RETIRE:
                        event[1].outstanding_writes -= 1
                    else:
                        event[1].deliver_fill(event[2])
                self._ring_count -= len(bucket)
                if not self._ring_count:
                    break
            due += 1
        self._ring_floor = cycle + 1

    # ------------------------------------------------------------------
    # Arbitration (two-stage, §4.4)
    # ------------------------------------------------------------------
    _INDEXED_GROUP = "indexed"

    def _arbitrate(self, cycle: int) -> None:
        """Two-stage arbitration (§4.4): the global stage selects either
        ONE sequential stream or ALL indexed streams, alternating fairly
        between the two classes; a second round-robin picks which
        sequential stream when that class wins."""
        sequential = []
        for port in self._seq_ports:
            if port.wants_grant():
                sequential.append(port)
        indexed_wanted = False
        for s in self._indexed_list:
            if s.pending_words:
                indexed_wanted = True
                break
        if not sequential and not indexed_wanted:
            return
        if sequential and indexed_wanted:
            classes = ["sequential", self._INDEXED_GROUP]
            winner_class = self._global_arbiter.pick(classes, lambda _c: True)
        elif sequential:
            winner_class = "sequential"
        else:
            winner_class = self._INDEXED_GROUP
        if winner_class is self._INDEXED_GROUP:
            self._grant_indexed(cycle)
        else:
            port = self._seq_arbiter.pick(sequential, lambda _p: True)
            self.stats.sequential_grants += 1
            self.stats.sequential_words += port.on_grant(cycle)

    def _grant_indexed(self, cycle: int) -> None:
        """Local arbitration in every bank for one indexed cycle.

        One pass files each stream's address-FIFO heads into per-bank
        buckets: an in-lane head at its own bank, a cross-lane head at
        the bank of its target word. Buckets list heads in (stream
        registration, lane) order, and each bank grants up to
        ``_bank_cap`` of them in round-robin (or FIFO-occupancy) order,
        one per sub-array, cross-lane heads subject to the address and
        return networks (§4.2, §4.4, §4.5). Words were decoded when they
        issued, so a grant tests the word's sub-array bit and moves data
        at its storage index; the address network's per-cycle budgets
        are reset at the cycle's first cross-lane route attempt.

        Banks are arbitrated in index order and a grant moves only its
        own FIFO's head. An in-lane grant at bank ``b`` moves lane
        ``b``'s FIFO, which no other bank reads. A cross-lane grant can
        uncover a head that targets a later bank; it is filed into that
        bank's bucket at its (stream, lane) position, while one that
        targets this or an earlier bank waits for the next cycle.
        """
        stats = self.stats
        stats.indexed_cycles += 1
        address_network = self.address_network
        routing = False  # address-network budgets reset this cycle
        lanes = self.geometry.lanes
        buckets = [[] for _ in range(lanes)]
        position = 0
        for stream in self._indexed_list:
            if stream.pending_words:
                lane = 0
                if stream.is_crosslane:
                    for fifo in stream.fifos:
                        word = fifo.peek_word()
                        if word is not None:
                            buckets[word[0]].append(
                                (position, lane, stream, word)
                            )
                        lane += 1
                else:
                    for fifo in stream.fifos:
                        word = fifo.peek_word()
                        if word is not None:
                            buckets[lane].append(
                                (position, lane, stream, word)
                            )
                        lane += 1
            position += 1
        cfg = self.config
        bank_cap = self._bank_cap
        multi_cap = bank_cap > 1
        occupancy_policy = self._occupancy_policy
        shared_comm = self._shared_network and self._comm_busy
        return_network = self.return_network
        pointers = self._bank_pointers
        conflicts = self._bank_conflicts
        storage_words = self.storage._words
        injector = self._fault_injector
        ring = self._ring
        size = self._ring_size
        inlane_due = cycle + cfg.inlane_indexed_latency
        inlane_bucket = ring[inlane_due % size]
        crosslane_bucket = ring[
            (cycle + max(1, cfg.crosslane_indexed_latency - 1)) % size
        ]
        launched = 0
        inlane_reads = 0
        crosslane_reads = 0
        blocked_total = 0
        for bank in range(lanes):
            heads = buckets[bank]
            if not heads:
                continue
            count = len(heads)
            if count == 1:
                order = _SINGLE
            elif occupancy_policy:
                # Stall-aware policy (§5.4): serve the fullest address
                # FIFOs first — the streams most likely to stall.
                order = sorted(
                    range(count),
                    key=lambda p: -heads[p][2].fifos[heads[p][1]].occupancy,
                )
            else:
                # Round robin: scan from the pointer, wrapping around.
                start = pointers[bank] % count
                order = itertools.chain(range(start, count), range(start))
            used_subarrays = 0
            granted = 0
            for index in order:
                if granted >= bank_cap:
                    break
                head = heads[index]
                word = head[3]
                subarray = word[4]
                if multi_cap and used_subarrays & subarray:
                    continue
                stream = head[2]
                lane = head[1]
                crosslane = stream.is_crosslane
                if crosslane:
                    if shared_comm:
                        continue  # the shared network carries the comm
                    if not return_network.bank_has_space(bank):
                        continue
                    if not routing:
                        address_network.begin_cycle()
                        routing = True
                    if not address_network.try_route(lane, bank):
                        continue
                    return_network.reserve(bank)
                used_subarrays |= subarray
                granted += 1
                fifo = stream.fifos[lane]
                fifo.advance()
                stream.pending_words -= 1
                if crosslane:
                    uncovered = fifo.peek_word()
                    if uncovered is not None and uncovered[0] > bank:
                        insort(buckets[uncovered[0]],
                               (head[0], lane, stream, uncovered))
                ticket = word[2]
                if ticket is None:
                    storage_words[word[5]] = word[3]
                    inlane_bucket.append((_RETIRE, stream))
                    continue
                value = storage_words[word[5]]
                if injector is not None:
                    value = injector.filter(value)
                rob = stream.robs[lane]
                if crosslane:
                    crosslane_reads += 1
                    crosslane_bucket.append(
                        (_RETURN, bank, lane, ticket, value,
                         stream.stream_id, rob)
                    )
                else:
                    inlane_reads += 1
                    dues = rob.fill_dues
                    if dues is not None:
                        dues[ticket % rob.capacity] = inlane_due
                    inlane_bucket.append((_FILL, rob, ticket, value))
            pointers[bank] = (pointers[bank] + 1) % count
            launched += granted
            blocked = count - granted
            if blocked:
                blocked_total += blocked
                if conflicts is not None:
                    conflicts[bank].add(blocked)
        self._ring_count += launched
        stats.inlane_grants += inlane_reads
        stats.crosslane_grants += crosslane_reads
        stats.indexed_write_grants += launched - inlane_reads - crosslane_reads
        if launched == 0:
            stats.empty_indexed_cycles += 1
        stats.blocked_heads += blocked_total

    # ------------------------------------------------------------------
    def occupancy_report(self) -> list:
        """Human-readable lines describing current SRF occupancy.

        Used by deadlock forensics: which ports/streams hold state and
        how much is still in flight.
        """
        lines = []
        for port in self._seq_ports:
            fifo = getattr(port, "fifo", None)
            if fifo is not None:
                lines.append(
                    f"sequential port {port.descriptor.name}: "
                    f"{port._blocks_done}/{port.total_blocks} blocks, "
                    f"buffer {fifo.occupancy}/{fifo.capacity} words/lane"
                )
            else:
                op = getattr(port, "_op", None)
                if op is not None:
                    lines.append(
                        f"memory-stream port {op.op.describe()}: "
                        f"{port._blocks_done}/{port._total_blocks} blocks"
                    )
        for stream in self._indexed_list:
            lines.append(
                f"indexed stream {stream.descriptor.name}: "
                f"{stream.pending_words} queued words, "
                f"{stream.outstanding_writes} outstanding writes"
            )
        lines.extend(self._inflight_lines())
        if self.return_network.queued:
            lines.append(
                f"{self.return_network.queued} words waiting in "
                f"return-network queues"
            )
        return lines

    def _inflight_lines(self) -> list:
        """Forensic lines about pipelined completions still in flight."""
        if not self._ring_count:
            return []
        return [
            f"{self._ring_count} pipelined accesses in flight "
            f"(next due cycle {self._next_due()})"
        ]

    @property
    def idle(self) -> bool:
        """True when nothing is in flight anywhere in the SRF."""
        if self._ring_count or self.return_network.queued:
            return False
        if any(p.wants_grant() for p in self._seq_ports):
            return False
        return all(s.quiescent for s in self._indexed_list)
