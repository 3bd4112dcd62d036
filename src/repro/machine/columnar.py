"""Columnar timing engine: batch-stepped cycle simulation of the SRF.

A second way of stepping the cycle-driven timing model
(:attr:`MachineConfig.timing_engine` = ``"columnar"``), bit-identical to
the object engine by construction and enforced by
``tests/machine/test_timing_equivalence.py``. The SRF itself is the
object engine's — the calendar ring of completions and the bucketed
per-bank grant loop live in :class:`~repro.core.srf.StreamRegisterFile`
— so what remains here is one idea:

* **Event-horizon drain windows.** The object engine's quiet-window
  fast-forward only skips cycles in which *nothing* can change state.
  The columnar engine generalizes it: when the executor provably only
  counts cycles — startup countdown, quiet software-pipeline gaps, or a
  head data event stalled on reorder-buffer fills whose due cycles are
  all known — the processor ticks just the memory controller and SRF in
  a tight loop and charges the executor in bulk
  (:meth:`ColumnarExecutor.stall_window`,
  ``StreamProcessor._drain_windows``). The fill dues come from
  :class:`ColumnarReorderBuffer`, into which the SRF's grant loop
  records each in-lane read's due cycle. Steady-state quiet skipping is
  also enabled for the scalar functional backend
  (:attr:`ColumnarExecutor.steady_skippable`), which the object engine
  reserves for vector/replay runs.

DESIGN.md §4j records the measurements, including why per-cycle NumPy
state lost to flat Python lists at the paper's 8 lanes.

Fallback: configurations the engine does not model exactly — fault
injection, the sanitizer, per-event tracing/metrics/profiling, and
``fast_forward=False`` cross-check runs — silently build the object
engine instead (:func:`build_processor`); constructing
:class:`ColumnarProcessor` directly for such a config raises, so a
fallback can never masquerade as a columnar run.
"""

from __future__ import annotations

from repro.config.machine import MachineConfig
from repro.core.srf import IndexedStream, StreamRegisterFile
from repro.core.stream_buffer import _EMPTY, ReorderBuffer
from repro.errors import ConfigurationError
from repro.machine.executor import KernelExecutor, _IdxData
from repro.machine.processor import StreamProcessor

__all__ = [
    "COLUMNAR_MODELED_FIELDS",
    "ColumnarExecutor",
    "ColumnarProcessor",
    "ColumnarSrf",
    "build_processor",
    "columnar_eligible",
    "engine_for",
]

#: Config knobs the object engine consults that the columnar engine
#: models *exactly* — no fallback needed. Every simulation/
#: observability/fault knob the object-engine modules read must appear
#: either here or in a :func:`columnar_eligible` check; the
#: ``repro.selfcheck`` fallback pass (code ``SC501``) enforces that
#: exhaustively, so a new special-cased knob cannot silently produce
#: wrong columnar timings. Each entry carries its justification:
COLUMNAR_MODELED_FIELDS = frozenset({
    # Functional-evaluation backend: both engines drive the identical
    # kernel interpreters; the engine only re-times completion events.
    "backend",
    # Execute-vs-replay only changes where iteration details come
    # from; the equivalence suite runs both engines in both modes.
    "timing_source",
    # The watchdog threshold: ColumnarProcessor inherits the object
    # engine's deadlock accounting unchanged (event-horizon jumps
    # count the skipped cycles).
    "deadlock_cycles",
    # Word protection is timing/data-inert without fault strikes, and
    # any config that can strike (faults_enabled) already falls back.
    "srf_protection", "memory_protection",
})


def columnar_eligible(config: MachineConfig) -> tuple:
    """Whether the columnar engine models ``config`` exactly.

    Returns ``(eligible, reason)`` with ``reason`` naming the first
    blocking feature (empty when eligible). The listed features hook the
    per-cycle object path (fault arming, sanitizer probes, per-cycle
    trace/metrics/profile samples) or explicitly request per-cycle
    stepping, so batch-stepped windows cannot reproduce them.
    """
    if config.faults_enabled:
        return False, "fault injection"
    if config.sanitize:
        return False, "sanitizer"
    if config.trace:
        return False, "per-event tracing"
    if config.metrics_level > 0:
        return False, "metrics collection"
    if config.profile_sample_period > 0:
        return False, "sampling profiler"
    if not config.fast_forward:
        return False, "fast_forward disabled (per-cycle cross-check mode)"
    return True, ""


def engine_for(config: MachineConfig) -> str:
    """The timing engine :func:`build_processor` would select."""
    if config.timing_engine == "columnar" and columnar_eligible(config)[0]:
        return "columnar"
    return "object"


def build_processor(config: MachineConfig) -> StreamProcessor:
    """Build the processor for ``config``'s timing engine.

    ``timing_engine="columnar"`` yields a :class:`ColumnarProcessor`
    when the config is :func:`columnar_eligible`, else the object-engine
    :class:`StreamProcessor` (the documented fallback matrix). The
    chosen engine is readable as ``processor.engine``.
    """
    if engine_for(config) == "columnar":
        return ColumnarProcessor(config)
    return StreamProcessor(config)


class ColumnarReorderBuffer(ReorderBuffer):
    """Reorder buffer that remembers each pending fill's due cycle.

    In-lane indexed fills complete at a deterministic
    ``grant_cycle + inlane_indexed_latency``; the SRF's grant loop
    records that due in :attr:`fill_dues` at ``ticket % capacity``,
    which lets :meth:`ColumnarExecutor.stall_window` bound how long a
    stalled data event must keep stalling. Cross-lane fills arrive via
    the return network (slot- and comm-dependent), so they never get a
    due — and their absence blocks the window, never the correctness.

    Entries are never cleared: live tickets span less than ``capacity``,
    so an entry is either the due of the ticket asked about or that of a
    ticket ``capacity`` older, which has been filled and popped and so
    was due before the SRF's last drained cycle.
    """

    def __init__(self, capacity_words: int):
        super().__init__(capacity_words)
        self.fill_dues = [-1] * capacity_words

    def unblock_due(self, count: int, cycle: int):
        """Last fill due among the ``count`` oldest slots, if knowable.

        ``cycle`` is the first cycle whose completions the SRF has not
        drained yet. Returns ``None`` when the head record cannot be
        due-bounded: fewer than ``count`` slots reserved, or some
        unfilled slot has no recorded due (not yet granted, or a
        cross-lane return). Returns ``-1`` when all ``count`` head slots
        are already filled (the event can fire now). Slot ``k`` holds
        ticket ``_head_ticket + k``.
        """
        slots = self._slots
        if count > len(slots):
            return None
        dues = self.fill_dues
        capacity = self.capacity
        head = self._head_ticket
        latest = -1
        for k in range(count):
            if slots[k] is _EMPTY:
                due = dues[(head + k) % capacity]
                if due < cycle:
                    return None  # an older ticket's due: not granted yet
                if due > latest:
                    latest = due
        return latest


class ColumnarIndexedStream(IndexedStream):
    """Indexed stream whose reorder buffers track fill dues."""

    ROB_CLS = ColumnarReorderBuffer


class ColumnarSrf(StreamRegisterFile):
    """The object engine's SRF with due-tracking reorder buffers."""

    INDEXED_STREAM_CLS = ColumnarIndexedStream


class ColumnarExecutor(KernelExecutor):
    """Executor with due-bounded stall windows and universal steady skip."""

    @property
    def steady_skippable(self) -> bool:
        # Quiet-cycle accounting is backend-independent (a quiet step
        # only bumps total_cycles and virtual time), so the columnar
        # engine enables the steady-state skip for scalar runs too.
        return True

    def stall_window(self, cycle: int) -> int:
        """Cycles the head event provably keeps stalling, from ``cycle``.

        Non-zero only when a step right now would do *nothing* but
        charge an SRF stall: the heap head is a due indexed-data event
        that cannot fire, no iteration issue is pending at the frozen
        virtual time, and every unfilled word the event waits for has a
        recorded fill due. A fill at SRF tick ``d`` lands after the
        executor step of cycle ``d``, so the event first fires on cycle
        ``last_due + 1`` and every earlier step stalls.
        """
        heap = self._heap
        if not heap:
            return 0
        vt0, _seq, event = heap[0]
        if vt0 > self._vt:
            return 0  # not due: these are quiet cycles, not stalls
        if type(event) is not _IdxData:
            return 0
        if (
            self._issued < self.invocation.iterations
            and self._issued * self.schedule.ii <= self._vt
        ):
            return 0  # a step would issue an iteration first
        stream = event.stream
        robs = stream.robs
        need = stream.descriptor.record_words
        last_due = -1
        for lane, n in enumerate(event.counts):
            if not n:
                continue
            d = robs[lane].unblock_due(need, cycle)
            if d is None:
                return 0  # some word not yet granted / not due-bounded
            if d > last_due:
                last_due = d
        if last_due < 0:
            return 0  # every needed word already landed: event can fire
        return last_due + 1 - cycle

    def fast_forward_stalled(self, cycles: int) -> None:
        """Charge ``cycles`` provably-stalled steps in bulk.

        Each skipped step would have bumped ``total_cycles``, charged
        one SRF stall cycle, and frozen virtual time — nothing else
        (see :meth:`stall_window`).
        """
        self.stats.total_cycles += cycles
        self.stats.srf_stall_cycles += cycles
        if self._stall_counter is not None:  # metrics-off under eligibility
            for _ in range(cycles):
                self._stall_counter.add()


class ColumnarProcessor(StreamProcessor):
    """Stream processor driven by the columnar timing engine."""

    SRF_CLS = ColumnarSrf
    EXECUTOR_CLS = ColumnarExecutor
    engine = "columnar"
    _drain_windows = True

    def __init__(self, config: MachineConfig):
        eligible, reason = columnar_eligible(config)
        if not eligible:
            # Engagement honesty: an ineligible config must fall back
            # via build_processor, never run half-modelled here.
            raise ConfigurationError(
                f"columnar timing engine cannot model this config: {reason}"
            )
        super().__init__(config)
