"""Cycle-accurate execution of a scheduled kernel on the machine.

The executor replays a kernel's modulo schedule against the SRF timing
model. Iterations are evaluated functionally (on real data) the moment
they are *issued* into the software pipeline; their stream accesses then
fire as timed events at ``issue_cycle + slot(op)``. Clusters run in SIMD
lockstep, so any event that cannot complete — an empty stream buffer, a
full address FIFO, indexed data still in flight (Figure 9) — stalls the
whole machine for a cycle and is retried; those cycles are the
"SRF stall" component of Figure 12.

Functional evaluation at issue is exact because kernel streams are
read-only or write-only for the duration of a kernel (paper §7), and
issue order equals program order.
"""

from __future__ import annotations

import heapq
import itertools

from repro.config.machine import MachineConfig
from repro.core.descriptors import IndexSpace, StreamDescriptor
from repro.core.srf import PortDirection, StreamRegisterFile
from repro.errors import ExecutionError, ReplayError
from repro.kernel.interpreter import ExecutionContext, KernelInterpreter
from repro.kernel.ir import KernelStream
from repro.kernel.ops import OpKind
from repro.kernel.schedule import StaticSchedule
from repro.machine.program import KernelInvocation
from repro.machine.replay import REPLAY_DATA_KINDS, copy_detail
from repro.machine.stats import KernelRunStats
from repro.machine.vector import VectorKernelInterpreter, vector_supported

#: Fixed per-invocation cost of loading kernel microcode and priming the
#: stream units (part of Figure 12's "kernel overheads").
KERNEL_STARTUP_CYCLES = 32


class _SrfBackedContext(ExecutionContext):
    """Functional stream data wired straight to SRF storage.

    Sequential writes and indexed writes are *not* performed here — the
    timed events push the real values through the SRF port machinery, so
    the architectural state is only updated by the timing model.
    """

    def __init__(self, executor: "KernelExecutor"):
        self._executor = executor

    def seq_read(self, stream: KernelStream) -> list:
        return self._executor.functional_seq_read(stream)

    def seq_write(self, stream: KernelStream, lane_values) -> None:
        pass  # flows through the timed SeqWrite event

    def idx_read(self, stream: KernelStream, lane: int, record_index: int):
        return self._executor.functional_idx_read(stream, lane, record_index)

    def idx_read_lanes(self, stream: KernelStream, indices) -> list:
        return self._executor.functional_idx_read_lanes(stream, indices)

    def idx_write(self, stream, lane, record_index, value) -> None:
        # The architectural write flows through the timed IdxWrite event;
        # the overlay keeps later functional reads of a read-write
        # stream coherent with program order.
        self._executor.functional_idx_write(stream, lane, record_index, value)


class _Event:
    """A timed stream access; ``fire`` returns True when it completed.

    Each event is built as ``cls(target, detail)``: the port or indexed
    stream the op accesses (None for a comm) and the op's detail in the
    iteration trace (see :class:`~repro.kernel.interpreter.IterationTrace`).
    Indexed events hand their whole lane vector to the stream in one
    call, which applies it to every active lane or to none.
    """

    __slots__ = ()
    #: Whether the event is an explicit inter-cluster communication.
    is_comm = False

    def fire(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class _SeqRead(_Event):
    __slots__ = ("port",)

    def __init__(self, port, _detail):
        self.port = port

    def fire(self) -> bool:
        if not self.port.can_pop():
            return False
        self.port.pop_simd()
        return True


class _SeqWrite(_Event):
    __slots__ = ("port", "values")

    def __init__(self, port, values):
        self.port = port
        self.values = values

    def fire(self) -> bool:
        if not self.port.can_push():
            return False
        self.port.push_simd(self.values)
        return True


class _IdxIssue(_Event):
    __slots__ = ("stream", "indices")

    def __init__(self, stream, indices):
        self.stream = stream
        self.indices = indices  # per-lane record index or None

    def fire(self) -> bool:
        return self.stream.try_issue(self.indices)


class _IdxData(_Event):
    __slots__ = ("stream", "counts")

    def __init__(self, stream, counts):
        self.stream = stream
        self.counts = counts  # per-lane words expected (0 = predicated off)

    def fire(self) -> bool:
        return self.stream.try_pop(self.counts)


class _IdxWrite(_Event):
    __slots__ = ("stream", "entries")

    def __init__(self, stream, entries):
        self.stream = stream
        self.entries = entries  # per-lane (index, [words]) or None

    def fire(self) -> bool:
        return self.stream.try_write(self.entries)


class _Comm(_Event):
    __slots__ = ()
    is_comm = True

    def __init__(self, _target, _detail):
        pass

    def fire(self) -> bool:
        return True  # statically scheduled comms always have priority


#: Event class of each timed op kind.
_EVENT_CLASSES = {
    OpKind.SEQ_READ: _SeqRead,
    OpKind.SEQ_WRITE: _SeqWrite,
    OpKind.IDX_ISSUE: _IdxIssue,
    OpKind.IDX_DATA: _IdxData,
    OpKind.IDX_WRITE: _IdxWrite,
    OpKind.COMM: _Comm,
}


class KernelExecutor:
    """Drives one :class:`KernelInvocation` to completion on the SRF."""

    def __init__(self, config: MachineConfig, srf: StreamRegisterFile,
                 invocation: KernelInvocation, schedule: StaticSchedule,
                 observer=None, record_to=None, replay_from=None):
        self.config = config
        self.srf = srf
        self.invocation = invocation
        self.schedule = schedule
        # Observability (repro.observe); None when disabled.
        self._stall_counter = None
        if observer is not None and observer.metrics is not None:
            metrics = observer.metrics
            self._stall_counter = metrics.counter(
                f"kernel.{invocation.name}.srf_stall_cycles"
            )
            # Static VLIW slot utilisation of the modulo schedule: ops
            # issued per iteration over the ii * ALU slot capacity.
            capacity = schedule.ii * config.alus_per_cluster
            metrics.gauge(
                f"kernel.{invocation.name}.slot_utilization"
            ).set(len(invocation.kernel.ops) / capacity if capacity else 0.0)
        self._geometry = srf.geometry
        self._bind_streams()
        if invocation.on_start is not None:
            invocation.on_start()
        #: Replay integration (repro.machine.replay). ``replay_from``
        #: supplies recorded per-iteration stream details in place of
        #: functional execution; ``record_to`` captures them during a
        #: functional run. Both are :class:`InvocationTrace` objects.
        self._record_rows = None
        self._replay_rows = None
        self._data_ops = None
        #: Whether this invocation is re-timed from a recorded trace
        #: (no interpreter at all; the timing model runs unchanged).
        self.replay_active = replay_from is not None
        #: Whether this invocation runs on the lane-batched vector
        #: engine. Faulted runs and kernels with read-write indexed
        #: streams always fall back to the scalar reference engine.
        self.vector_active = (
            not self.replay_active
            and config.backend == "vector"
            and not config.faults_enabled
            and vector_supported(invocation.kernel)
        )
        if self.replay_active:
            if len(replay_from.rows) != invocation.iterations:
                raise ReplayError(
                    f"{invocation.name}: trace has "
                    f"{len(replay_from.rows)} rows for "
                    f"{invocation.iterations} iterations"
                )
            self._replay_rows = replay_from.rows
            self._data_ops = invocation.kernel.stream_ops(
                *REPLAY_DATA_KINDS
            )
            self._interpreter = None
        elif self.vector_active:
            self._interpreter = VectorKernelInterpreter(
                invocation.kernel, config.lanes, _SrfBackedContext(self),
                invocation.iterations,
            )
        else:
            self._interpreter = KernelInterpreter(
                invocation.kernel, config.lanes, _SrfBackedContext(self)
            )
        if record_to is not None and not self.replay_active:
            self._record_rows = record_to.rows
            self._data_ops = invocation.kernel.stream_ops(
                *REPLAY_DATA_KINDS
            )
        self._event_plan = self._build_event_plan()
        self._heap = []
        self._sequence = itertools.count()
        self._vt = 0
        self._issued = 0
        self._startup_remaining = KERNEL_STARTUP_CYCLES
        self._flushed = False
        self.finished = False
        self.stats = KernelRunStats(
            kernel_name=invocation.name,
            ii=schedule.ii,
            depth=schedule.depth,
            iterations=invocation.iterations,
            useful_iterations=invocation.mean_useful_iterations,
            startup_cycles=KERNEL_STARTUP_CYCLES,
            lanes=config.lanes,
        )
        self._seq_cursors = {name: 0 for name in invocation.kernel.streams}
        #: Program-order shadow of indexed writes, so functional reads of
        #: a read-write stream observe writes that the timed SRF path has
        #: not retired yet: stream name -> {(lane, record_index): value}.
        #: The timing path needs no equivalent: reads and writes of one
        #: stream share an address FIFO, which keeps their SRF-side order
        #: equal to program order.
        self._write_overlay = {}

    # ------------------------------------------------------------------
    # Stream binding
    # ------------------------------------------------------------------
    def _bind_streams(self) -> None:
        self._ports = {}  # stream name -> SequentialPort
        self._indexed = {}  # stream name -> IndexedStream
        self._descriptors = {}
        #: Per-lane indexed stream name -> (bank-local base, record
        #: words, records whose words all lie inside the bank).
        self._lane_layouts = {}
        geometry = self._geometry
        for name, formal in self.invocation.kernel.streams.items():
            descriptor = self.invocation.bindings[name]
            if not isinstance(descriptor, StreamDescriptor):
                raise ExecutionError(
                    f"{self.invocation.name}: binding for {name!r} is not a "
                    "StreamDescriptor"
                )
            if descriptor.kind is not formal.kind:
                raise ExecutionError(
                    f"{self.invocation.name}: stream {name!r} is "
                    f"{formal.kind.value} but bound to a "
                    f"{descriptor.kind.value} descriptor"
                )
            if descriptor.record_words != formal.record_words:
                raise ExecutionError(
                    f"{self.invocation.name}: stream {name!r} has "
                    f"{formal.record_words}-word records but is bound to a "
                    f"descriptor with {descriptor.record_words}-word records"
                )
            self._descriptors[name] = descriptor
            if formal.kind.is_sequential:
                direction = (
                    PortDirection.READ if formal.kind.is_read
                    else PortDirection.WRITE
                )
                self._ports[name] = self.srf.open_sequential(
                    descriptor, direction
                )
            else:
                self._indexed[name] = self.srf.open_indexed(descriptor)
                if descriptor.index_space is IndexSpace.PER_LANE:
                    local_base = (
                        descriptor.base // geometry.block_words
                    ) * geometry.words_per_lane_access
                    rw = descriptor.record_words
                    self._lane_layouts[name] = (
                        local_base, rw,
                        max(0, (geometry.bank_words - local_base) // rw),
                    )

    def _build_event_plan(self) -> list:
        """``(slot, event_cls, target, op_id)`` of every timed op, in slot
        order: what issuing an iteration turns into timed events."""
        plan = []
        for op in self.schedule.timed_stream_ops():
            event_cls = _EVENT_CLASSES.get(op.kind)
            if event_cls is None:
                raise ExecutionError(f"unexpected timed op {op.name}")
            target = None
            if op.stream is not None:
                name = op.stream.name
                target = (
                    self._ports[name] if name in self._ports
                    else self._indexed[name]
                )
            plan.append(
                (self.schedule.slots[op.op_id], event_cls, target, op.op_id)
            )
        return plan

    def _release_streams(self) -> None:
        for port in self._ports.values():
            self.srf.close_sequential(port)
        for stream in self._indexed.values():
            self.srf.close_indexed(stream)

    # ------------------------------------------------------------------
    # Functional data access (used by the interpreter's context)
    # ------------------------------------------------------------------
    def functional_seq_read(self, stream: KernelStream) -> list:
        descriptor = self._descriptors[stream.name]
        geometry = self._geometry
        m = geometry.words_per_lane_access
        cursor = self._seq_cursors[stream.name]
        block_base = descriptor.base + (cursor // m) * geometry.block_words
        offset = cursor % m
        storage = self.srf.storage
        values = [
            storage.read(block_base + lane * m + offset)
            for lane in range(geometry.lanes)
        ]
        self._seq_cursors[stream.name] = cursor + 1
        return values

    def functional_idx_write(self, stream: KernelStream, lane: int,
                             record_index: int, value) -> None:
        self._write_overlay.setdefault(stream.name, {})[
            (lane, record_index)
        ] = value

    def functional_idx_read(self, stream: KernelStream, lane: int,
                            record_index: int):
        overlay = self._write_overlay.get(stream.name)
        if overlay is not None and (lane, record_index) in overlay:
            return overlay[(lane, record_index)]
        descriptor = self._descriptors[stream.name]
        rw = descriptor.record_words
        storage = self.srf.storage
        layout = self._lane_layouts.get(stream.name)
        if layout is not None:
            start = layout[0] + record_index * rw
            words = [storage.read_lane(lane, start + j) for j in range(rw)]
        else:
            base = descriptor.base + record_index * rw
            words = [storage.read(base + j) for j in range(rw)]
        return words[0] if rw == 1 else tuple(words)

    def functional_idx_read_lanes(self, stream: KernelStream,
                                  indices) -> list:
        """:meth:`functional_idx_read` of every lane at once.

        ``indices`` holds each lane's record index, or None for a lane
        that is predicated off, which reads 0. A per-lane stream is read
        straight from SRF storage in one pass over the lanes; a
        cross-lane stream, a stream with overlaid writes, and an index
        outside the lane's bank take the per-lane path.
        """
        layout = self._lane_layouts.get(stream.name)
        if layout is None or stream.name in self._write_overlay:
            read = self.functional_idx_read
            return [
                0 if index is None else read(stream, lane, index)
                for lane, index in enumerate(indices)
            ]
        local_base, rw, limit = layout
        geometry = self._geometry
        m = geometry.words_per_lane_access
        block_words = geometry.block_words
        storage_words = self.srf.storage._words
        values = []
        lane = 0
        for index in indices:
            if index is None:
                values.append(0)
            elif not 0 <= index < limit:
                values.append(self.functional_idx_read(stream, lane, index))
            elif rw == 1:
                super_block, offset = divmod(local_base + index, m)
                values.append(
                    storage_words[super_block * block_words + lane * m + offset]
                )
            else:
                record = []
                start = local_base + index * rw
                for addr in range(start, start + rw):
                    super_block, offset = divmod(addr, m)
                    record.append(storage_words[
                        super_block * block_words + lane * m + offset
                    ])
                values.append(tuple(record))
            lane += 1
        return values

    # ------------------------------------------------------------------
    # Cycle stepping
    # ------------------------------------------------------------------
    @property
    def startup_remaining(self) -> int:
        """Microcode-load cycles left before the first loop iteration."""
        return self._startup_remaining

    @property
    def steady_skippable(self) -> bool:
        """Whether the processor may bulk-skip this kernel's quiet cycles.

        Quiet-cycle accounting itself is engine-independent (see
        :meth:`next_quiet_cycles`); this flag records which executors
        the steady-state skip has been enabled for. The columnar timing
        engine (:mod:`repro.machine.columnar`) turns it on always.
        """
        return self.vector_active or self.replay_active

    def fast_forward(self, cycles: int) -> None:
        """Consume ``cycles`` of the fixed startup delay in bulk.

        Equivalent to ``cycles`` calls to :meth:`step` while the startup
        countdown is running (each would only bump the cycle counter).
        """
        if cycles > self._startup_remaining:
            raise ExecutionError(
                f"{self.invocation.name}: cannot fast-forward {cycles} "
                f"cycles with {self._startup_remaining} startup cycles left"
            )
        self.stats.total_cycles += cycles
        self._startup_remaining -= cycles

    def next_quiet_cycles(self) -> int:
        """Cycles until this executor next does anything but wait.

        A *quiet* cycle is one where :meth:`step` would issue no
        iteration, fire no event and finish nothing — it only advances
        ``total_cycles`` and virtual time. The next non-quiet cycle is
        the earlier of the next iteration issue (``issued * ii``) and
        the earliest pending event; 0 means the very next step may do
        real work (or the kernel is starting up, draining, or done,
        where per-cycle stepping is required).
        """
        if self.finished or self._startup_remaining > 0:
            return 0
        candidates = []
        if self._issued < self.invocation.iterations:
            candidates.append(self._issued * self.schedule.ii)
        if self._heap:
            candidates.append(self._heap[0][0])
        if not candidates:
            return 0  # draining: flush/quiescence checks run per cycle
        return max(0, min(candidates) - self._vt)

    def fast_forward_steady(self, cycles: int) -> None:
        """Consume ``cycles`` quiet steady-state cycles in bulk.

        Only valid for ``cycles <= next_quiet_cycles()``: each skipped
        step would have bumped ``total_cycles`` and virtual time and
        done nothing else, so this is bit-identical to stepping.
        """
        self.stats.total_cycles += cycles
        self._vt += cycles

    def step(self) -> bool:
        """Advance one machine cycle; returns comm_busy for this cycle.

        Sets :attr:`finished` when the kernel (including output drain)
        has completed.
        """
        if self.finished:
            return False
        self.stats.total_cycles += 1
        if self._startup_remaining > 0:
            self._startup_remaining -= 1
            return False
        self._issue_ready_iterations()
        comm_busy = self._fire_events()
        self._maybe_finish()
        return comm_busy

    def _issue_ready_iterations(self) -> None:
        ii = self.schedule.ii
        iterations = self.invocation.iterations
        heap = self._heap
        sequence = self._sequence
        while self._issued < iterations and self._issued * ii <= self._vt:
            details = self._iteration_details()
            base_vt = self._issued * ii
            for slot, event_cls, target, op_id in self._event_plan:
                heapq.heappush(heap, (
                    base_vt + slot, next(sequence),
                    event_cls(target, details.get(op_id)),
                ))
            self._issued += 1

    def _iteration_details(self) -> dict:
        """Stream-access details of the next iteration, by op id.

        Execute mode runs the interpreter on real data (and optionally
        records the data-bearing details); replay mode rehydrates them
        from the recorded trace without touching an interpreter. Details
        are copied at the recording/replaying boundary so SRF-side
        mutation can never corrupt a stored row.
        """
        if self._replay_rows is not None:
            row = self._replay_rows[self._issued]
            if len(row) != len(self._data_ops):
                raise ReplayError(
                    f"{self.invocation.name}: iteration {self._issued} "
                    f"row has {len(row)} details for "
                    f"{len(self._data_ops)} data ops"
                )
            return {
                op.op_id: copy_detail(op.kind, detail)
                for op, detail in zip(self._data_ops, row)
            }
        trace = self._interpreter.run_iteration()
        details = {op.op_id: detail for op, detail in trace.entries}
        if self._record_rows is not None:
            self._record_rows.append([
                copy_detail(op.kind, details[op.op_id])
                for op in self._data_ops
            ])
        return details

    def _fire_events(self) -> bool:
        """Fire all events due at the current virtual time.

        Returns whether an explicit comm occupied the network this cycle.
        On the first event that cannot fire the machine stalls: virtual
        time freezes and the cycle is charged to SRF stall.
        """
        heap = self._heap
        vt = self._vt
        comm_busy = False
        while heap and heap[0][0] <= vt:
            event = heap[0][2]
            if not event.fire():
                self.stats.srf_stall_cycles += 1
                if self._stall_counter is not None:
                    self._stall_counter.add()
                return comm_busy
            heapq.heappop(heap)
            if event.is_comm:
                comm_busy = True
        self._vt = vt + 1
        return comm_busy

    def _maybe_finish(self) -> None:
        if self._issued < self.invocation.iterations or self._heap:
            return
        if not self._flushed:
            for port in self._ports.values():
                if port.direction is PortDirection.WRITE:
                    port.flush()
            self._flushed = True
        write_ports_done = all(
            port.drained for port in self._ports.values()
            if port.direction is PortDirection.WRITE
        )
        indexed_done = all(s.quiescent for s in self._indexed.values())
        if write_ports_done and indexed_done:
            self.finished = True
            self._release_streams()
            if self.invocation.on_finish is not None:
                self.invocation.on_finish()
