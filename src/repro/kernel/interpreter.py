"""Functional execution of kernel graphs.

The interpreter evaluates ONE iteration of a kernel across all lanes in
SIMD lockstep, producing both the real data values (so benchmark outputs
can be verified against references) and an :class:`IterationTrace` — the
exact stream accesses the iteration performs, which the machine-level
executor replays against the cycle-accurate SRF model.

Stream contents are mediated by an :class:`ExecutionContext`, so the
same kernel runs standalone (tests, golden references) or inside the
full processor simulation without modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.kernel.ir import Kernel, KernelStream
from repro.kernel.ops import OpKind


class ExecutionContext:
    """Data supply/sink for a kernel run.

    Subclasses provide the four stream accessors. The default
    implementations raise, so a context only implements what its kernel
    uses.
    """

    def seq_read(self, stream: KernelStream) -> list:
        """Next word of ``stream`` for every lane (list of ``lanes``)."""
        raise ExecutionError(f"context cannot read stream {stream.name}")

    def seq_write(self, stream: KernelStream, lane_values: list) -> None:
        """Accept one word per lane for ``stream``."""
        raise ExecutionError(f"context cannot write stream {stream.name}")

    def idx_read(self, stream: KernelStream, lane: int, record_index: int):
        """Value of ``stream[record_index]`` as seen from ``lane``.

        Multi-word records return a tuple of ``record_words`` words.
        """
        raise ExecutionError(f"context cannot index stream {stream.name}")

    def idx_read_lanes(self, stream: KernelStream, indices) -> list:
        """:meth:`idx_read` of every lane at once, one value per lane.

        ``indices`` holds each lane's record index, or None for a lane
        that is predicated off, which reads 0. Contexts that can read
        all lanes in one pass override this.
        """
        return [
            0 if index is None else self.idx_read(stream, lane, index)
            for lane, index in enumerate(indices)
        ]

    def idx_write(self, stream: KernelStream, lane: int, record_index: int,
                  value) -> None:
        """Store ``value`` at ``stream[record_index]`` from ``lane``."""
        raise ExecutionError(f"context cannot index-write {stream.name}")


@dataclass
class IterationTrace:
    """Stream/communication activity of one kernel iteration.

    Entries are ``(op, detail)`` in program order, where detail depends
    on the op kind:

    * SEQ_READ — None (always one word per lane);
    * SEQ_WRITE — per-lane list of values to push;
    * IDX_ISSUE — per-lane record index, or None for predicated-off lanes;
    * IDX_DATA — per-lane word count to pop (0 for predicated-off lanes);
    * IDX_WRITE — per-lane ``(record_index, [words])`` or None;
    * COMM — None.
    """

    iteration: int
    entries: list = field(default_factory=list)

    def by_kind(self, kind: OpKind) -> list:
        return [(op, detail) for op, detail in self.entries if op.kind is kind]


class KernelInterpreter:
    """Evaluates a kernel iteration-by-iteration over ``lanes`` lanes."""

    def __init__(self, kernel: Kernel, lanes: int, context: ExecutionContext):
        kernel.validate()
        self.kernel = kernel
        self.lanes = lanes
        self.context = context
        self.iterations_run = 0
        self._carry_state = {
            carry.name: [carry.init_value] * lanes for carry in kernel.carries
        }
        # CONST/LANEID values never change between iterations (and no op
        # mutates a value list in place), so evaluate them once and seed
        # each iteration's value map with the result.
        self._static_values = {}
        self._dynamic_ops = []
        for op in kernel.ops:
            if op.kind is OpKind.CONST:
                self._static_values[op.op_id] = [op.value] * lanes
            elif op.kind is OpKind.LANEID:
                self._static_values[op.op_id] = list(range(lanes))
            else:
                self._dynamic_ops.append(op)

    def carry_values(self, name: str) -> list:
        """Current per-lane values of a named carry (for app inspection)."""
        try:
            return list(self._carry_state[name])
        except KeyError:
            raise ExecutionError(f"no carry named {name!r}") from None

    # ------------------------------------------------------------------
    def run_iteration(self) -> IterationTrace:
        """Execute one iteration across all lanes; returns its trace."""
        lanes = self.lanes
        trace = IterationTrace(self.iterations_run)
        values = dict(self._static_values)  # op_id -> per-lane list

        for op in self._dynamic_ops:
            kind = op.kind
            if kind in (OpKind.ARITH, OpKind.LOGIC, OpKind.MUL, OpKind.DIV):
                values[op.op_id] = self._apply(op, values)
            elif kind is OpKind.CARRY:
                values[op.op_id] = list(self._carry_state[op.carry.name])
            elif kind is OpKind.SEQ_READ:
                lane_values = self.context.seq_read(op.stream)
                self._expect_width(op, lane_values)
                values[op.op_id] = list(lane_values)
                trace.entries.append((op, None))
            elif kind is OpKind.SEQ_WRITE:
                lane_values = values[op.operands[0].op_id]
                self.context.seq_write(op.stream, list(lane_values))
                values[op.op_id] = lane_values
                trace.entries.append((op, list(lane_values)))
            elif kind is OpKind.IDX_ISSUE:
                indices = self._indices(op, values)
                values[op.op_id] = indices
                trace.entries.append((op, indices))
            elif kind is OpKind.IDX_DATA:
                indices = values[op.operands[0].op_id]
                values[op.op_id] = self.context.idx_read_lanes(
                    op.stream, indices
                )
                record_words = op.stream.record_words
                trace.entries.append((op, [
                    0 if index is None else record_words
                    for index in indices
                ]))
            elif kind is OpKind.IDX_WRITE:
                detail = self._do_idx_write(op, values)
                values[op.op_id] = [None] * lanes
                trace.entries.append((op, detail))
            elif kind is OpKind.COMM:
                payload = values[op.operands[0].op_id]
                sources = values[op.operands[1].op_id]
                values[op.op_id] = [
                    payload[int(sources[lane]) % lanes] for lane in range(lanes)
                ]
                trace.entries.append((op, None))
            else:  # pragma: no cover - exhaustive over OpKind
                raise ExecutionError(f"unhandled op kind {kind}")

        for carry in self.kernel.carries:
            self._carry_state[carry.name] = list(
                values[carry.update_op.op_id]
            )
        self.iterations_run += 1
        return trace

    def run(self, iterations: int) -> list:
        """Run several iterations; returns their traces."""
        return [self.run_iteration() for _ in range(iterations)]

    # ------------------------------------------------------------------
    def _apply(self, op, values) -> list:
        operands = op.operands
        payload = op.payload
        # Payloads are pure, so the error path below can re-run lane by
        # lane to identify the failing lane for the report.
        try:
            if len(operands) == 2:
                return [
                    payload(x, y)
                    for x, y in zip(values[operands[0].op_id],
                                    values[operands[1].op_id])
                ]
            if len(operands) == 1:
                return [payload(x) for x in values[operands[0].op_id]]
        except Exception:
            pass
        operand_values = [values[operand.op_id] for operand in operands]
        result = []
        for lane in range(self.lanes):
            try:
                result.append(payload(*[v[lane] for v in operand_values]))
            except Exception as exc:
                raise ExecutionError(
                    f"{self.kernel.name}: payload of {op.name} failed on "
                    f"lane {lane}: {exc}"
                ) from exc
        return result

    def _indices(self, op, values) -> list:
        indices = values[op.operands[0].op_id]
        if len(op.operands) > 1:
            predicates = values[op.operands[1].op_id]
        else:
            predicates = [True] * self.lanes
        return [
            int(indices[lane]) if predicates[lane] else None
            for lane in range(self.lanes)
        ]

    def _do_idx_write(self, op, values) -> list:
        indices = values[op.operands[0].op_id]
        data = values[op.operands[1].op_id]
        if len(op.operands) > 2:
            predicates = values[op.operands[2].op_id]
        else:
            predicates = [True] * self.lanes
        detail = []
        for lane in range(self.lanes):
            if not predicates[lane]:
                detail.append(None)
                continue
            record_index = int(indices[lane])
            value = data[lane]
            words = list(value) if isinstance(value, tuple) else [value]
            if len(words) != op.stream.record_words:
                raise ExecutionError(
                    f"{op.name}: record needs {op.stream.record_words} words"
                )
            self.context.idx_write(op.stream, lane, record_index, value)
            detail.append((record_index, words))
        return detail

    def _expect_width(self, op, lane_values) -> None:
        if len(lane_values) != self.lanes:
            raise ExecutionError(
                f"{op.name}: context returned {len(lane_values)} values for "
                f"{self.lanes} lanes"
            )
