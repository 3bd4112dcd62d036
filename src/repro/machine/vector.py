"""Lane-batched (vectorized) functional evaluation of kernels.

:class:`VectorKernelInterpreter` is a drop-in replacement for
:class:`repro.kernel.interpreter.KernelInterpreter`, selected by
``MachineConfig.backend = "vector"``. It produces *bit-identical*
iteration traces and values — same Python types, same object shapes —
but evaluates the kernel graph in blocks of iterations at a time, so a
tagged ALU op (see :data:`repro.kernel.ir.ALGEBRA_UFUNCS`) becomes ONE
NumPy ufunc call over a ``(block, lanes)`` matrix instead of
``block * lanes`` Python-level payload calls, and predication/selects
become boolean masks (``np.where``).

The equivalence argument, enforced empirically by ``tests/fuzz`` and
``tests/machine/test_backend_equivalence.py``:

* functional payloads are pure (a documented interpreter contract), so
  evaluating iteration ``k+1``'s ops before iteration ``k``'s *later*
  ops cannot change any value;
* loop-carried state serializes iterations only through the *carry
  cone* — the transitive ancestors of the carry update ops — which is
  evaluated iteration-by-iteration exactly like the scalar engine; ops
  outside the cone never feed it, so they batch freely;
* sequential-read prefetch consumes the execution context in scalar
  order (iteration-major, program order within an iteration), and
  sequential/indexed *writes* are replayed to the context in the same
  scalar order at block completion;
* NumPy evaluation is used only where it is bit-exact: homogeneous
  ``int``/``float`` columns (never ``bool``), ``int64`` magnitude
  bounds tracked conservatively so arbitrary-precision Python results
  can never differ, ``mod`` restricted to integer columns with
  non-zero divisors, float add/sub/mul relying on IEEE-754 double
  semantics shared by CPython and NumPy. Everything else — opaque
  payloads, divides, mixed-type columns — is evaluated by calling the
  payload, exactly like the scalar engine.

Kernels using in-lane read-write streams interleave functional reads
with program-order writes of the same stream, which block evaluation
would reorder — :func:`vector_supported` reports those kernels (and
nothing else) as unsupported, and the executor silently falls back to
the scalar engine.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.descriptors import StreamKind
from repro.errors import ExecutionError
from repro.kernel.interpreter import ExecutionContext, IterationTrace
from repro.kernel.ir import ALGEBRA_UFUNCS, Kernel
from repro.kernel.ops import OpKind

#: Iterations evaluated per batch. Large enough to amortize NumPy call
#: overhead on 8-lane machines, small enough to keep per-block state
#: (a few columns of ``block x lanes`` values) cache-resident.
BLOCK_ITERATIONS = 64

#: Magnitude ceiling for int64 NumPy evaluation. A column whose result
#: bound reaches this falls back to Python big-int evaluation, so
#: arbitrary-precision results can never be silently truncated. One
#: spare bit below 2**63 keeps every tracked bound itself addable.
_INT64_SAFE_BOUND = 1 << 62

#: Compiled per-kernel plans, shared across invocations of the same
#: kernel object (kernels hash by identity and live as long as their
#: app). Weak keys keep discarded kernels collectable.
_plan_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def vector_supported(kernel: Kernel) -> bool:
    """Whether the vector engine covers ``kernel`` exactly.

    The only exclusion is in-lane read-write streams (paper §7): their
    reads must observe same-stream writes of *earlier* ops in program
    order, which block evaluation would reorder.
    """
    return not any(
        stream.kind is StreamKind.INLANE_INDEXED_READWRITE
        for stream in kernel.streams.values()
    )


class _Plan:
    """Static evaluation plan for one kernel (shared across runs)."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        # Ops whose value can feed a carry update (the "carry cone")
        # must be evaluated iteration-by-iteration; everything else
        # batches. Ancestor closure over operands, seeded with the
        # update ops themselves.
        cone_ids = set()
        worklist = [c.update_op for c in kernel.carries]
        # CARRY reads serialize on per-iteration state even when they do
        # not feed an update, so they (and their closure) join the cone.
        worklist.extend(
            op for op in kernel.ops if op.kind is OpKind.CARRY
        )
        while worklist:
            op = worklist.pop()
            if op.op_id in cone_ids:
                continue
            cone_ids.add(op.op_id)
            worklist.extend(op.operands)
        self.cone_ids = cone_ids
        self.static_ops = [
            op for op in kernel.ops
            if op.kind in (OpKind.CONST, OpKind.LANEID)
        ]
        self.cone_ops = [
            op for op in kernel.ops
            if op.op_id in cone_ids
            and op.kind not in (OpKind.CONST, OpKind.LANEID)
        ]
        self.batch_ops = [
            op for op in kernel.ops
            if op.op_id not in cone_ids
            and op.kind not in (OpKind.CONST, OpKind.LANEID)
        ]
        self.seq_read_ops = kernel.stream_ops(OpKind.SEQ_READ)
        #: Ops that contribute IterationTrace entries, in program order.
        self.trace_ops = kernel.stream_ops(
            OpKind.SEQ_READ, OpKind.SEQ_WRITE, OpKind.IDX_ISSUE,
            OpKind.IDX_DATA, OpKind.IDX_WRITE, OpKind.COMM,
        )
        #: Context writes replayed in scalar order at block completion.
        self.write_ops = kernel.stream_ops(
            OpKind.SEQ_WRITE, OpKind.IDX_WRITE
        )


def _plan_for(kernel: Kernel) -> _Plan:
    plan = _plan_cache.get(kernel)
    if plan is None:
        plan = _Plan(kernel)
        _plan_cache[kernel] = plan
    return plan


class _Column:
    """One op's values over a block: ``rows[k][lane]`` and/or an
    ``(iterations, lanes)`` ndarray, converted lazily and cached.

    The array form exists only for columns that are homogeneous
    ``int``/``float`` (exact type check — ``bool`` stays Python);
    ``bound`` tracks a conservative ``|value|`` ceiling for int64
    columns so overflow can be excluded before every ufunc call.
    """

    __slots__ = ("_rows", "_array", "bound", "_array_known")

    def __init__(self, rows=None, array=None, bound=None):
        self._rows = rows
        self._array = array
        self.bound = bound
        self._array_known = array is not None

    def rows(self) -> list:
        if self._rows is None:
            self._rows = self._array.tolist()
        return self._rows

    def array(self) -> "np.ndarray | None":
        if self._array_known:
            return self._array
        self._array_known = True
        rows = self._rows
        first = rows[0][0] if rows and rows[0] else None
        kind = type(first)
        if kind is int:
            if all(type(v) is int for row in rows for v in row):
                try:
                    self._array = np.array(rows, dtype=np.int64)
                except OverflowError:
                    return None
                self.bound = max(
                    abs(int(self._array.max(initial=0))),
                    abs(int(self._array.min(initial=0))),
                )
        elif kind is float:
            if all(type(v) is float for row in rows for v in row):
                self._array = np.array(rows, dtype=np.float64)
        return self._array


class VectorKernelInterpreter:
    """Evaluates kernel iterations in lane-batched blocks.

    Drop-in for :class:`KernelInterpreter`: :meth:`run_iteration`
    returns the same :class:`IterationTrace` (same entries, details,
    and Python value types) the scalar engine would produce, and
    :meth:`carry_values` reflects the state after the last iteration
    returned so far. Internally, traces are computed
    :data:`BLOCK_ITERATIONS` at a time and handed out one per call.
    """

    def __init__(self, kernel: Kernel, lanes: int,
                 context: ExecutionContext, iterations: int,
                 block: int = BLOCK_ITERATIONS):
        kernel.validate()
        if not vector_supported(kernel):
            raise ExecutionError(
                f"{kernel.name}: read-write streams need the scalar engine"
            )
        self.kernel = kernel
        self.lanes = lanes
        self.context = context
        self.iterations = iterations
        self.iterations_run = 0
        self._block = max(1, block)
        self._plan = _plan_for(kernel)
        self._carry_state = {
            carry.name: [carry.init_value] * lanes
            for carry in kernel.carries
        }
        self._static_values = {}
        for op in self._plan.static_ops:
            if op.kind is OpKind.CONST:
                self._static_values[op.op_id] = [op.value] * lanes
            else:
                self._static_values[op.op_id] = list(range(lanes))
        self._pending = []  # traces computed but not yet handed out
        self._carry_after = []  # post-iteration carry snapshots, aligned

    # ------------------------------------------------------------------
    def carry_values(self, name: str) -> list:
        """Per-lane values of a carry after the last iteration returned."""
        try:
            return list(self._carry_state[name])
        except KeyError:
            raise ExecutionError(f"no carry named {name!r}") from None

    def run_iteration(self) -> IterationTrace:
        """Next iteration's trace, computing a fresh block if needed."""
        if not self._pending:
            if self.iterations_run >= self.iterations:
                raise ExecutionError(
                    f"{self.kernel.name}: all {self.iterations} iterations "
                    "already run"
                )
            self._evaluate_block(
                min(self._block, self.iterations - self.iterations_run)
            )
        trace = self._pending.pop(0)
        if self._carry_after:
            self._carry_state = self._carry_after.pop(0)
        self.iterations_run += 1
        return trace

    def run(self, iterations: int) -> list:
        """Run several iterations; returns their traces."""
        return [self.run_iteration() for _ in range(iterations)]

    # ------------------------------------------------------------------
    # Block evaluation
    # ------------------------------------------------------------------
    def _evaluate_block(self, count: int) -> None:
        plan = self._plan
        lanes = self.lanes
        base_iteration = self.iterations_run

        # 1. Prefetch sequential reads in scalar order (iteration-major,
        # program order within an iteration) so context cursors advance
        # exactly as the scalar engine would advance them.
        prefetched = {op.op_id: [] for op in plan.seq_read_ops}
        for _ in range(count):
            for op in plan.seq_read_ops:
                lane_values = self.context.seq_read(op.stream)
                if len(lane_values) != lanes:
                    raise ExecutionError(
                        f"{op.name}: context returned {len(lane_values)} "
                        f"values for {lanes} lanes"
                    )
                prefetched[op.op_id].append(list(lane_values))

        columns = {
            op_id: _Column(rows=[values] * count)
            for op_id, values in self._static_values.items()
        }
        for op_id, rows in prefetched.items():
            columns[op_id] = _Column(rows=rows)

        # 2. Carry cone, iteration by iteration (scalar semantics).
        carry_rows = {c.name: [] for c in self.kernel.carries}
        if plan.cone_ops or self.kernel.carries:
            self._evaluate_cone(count, columns, carry_rows)

        # 3. Everything else, op-major over the whole block.
        for op in plan.batch_ops:
            columns[op.op_id] = self._evaluate_batch_op(op, count, columns)

        # 4. Replay context writes in scalar order.
        for k in range(count):
            for op in plan.write_ops:
                if op.kind is OpKind.SEQ_WRITE:
                    self.context.seq_write(
                        op.stream, list(columns[op.op_id].rows()[k])
                    )
                else:
                    data = columns[op.operands[1].op_id].rows()[k]
                    for lane, entry in enumerate(
                        columns[op.op_id].rows()[k]
                    ):
                        if entry is not None:
                            self.context.idx_write(
                                op.stream, lane, entry[0], data[lane]
                            )

        # 5. Assemble per-iteration traces in program order.
        for k in range(count):
            trace = IterationTrace(base_iteration + k)
            for op in plan.trace_ops:
                kind = op.kind
                if kind in (OpKind.SEQ_READ, OpKind.COMM):
                    detail = None
                elif kind is OpKind.SEQ_WRITE:
                    detail = list(columns[op.op_id].rows()[k])
                else:  # IDX_ISSUE indices / IDX_DATA counts / IDX_WRITE
                    detail = columns[_detail_key(op)].rows()[k]
                trace.entries.append((op, detail))
            self._pending.append(trace)
        self._carry_after = [
            {name: rows[k] for name, rows in carry_rows.items()}
            for k in range(count)
        ]

    # ------------------------------------------------------------------
    def _evaluate_cone(self, count, columns, carry_rows) -> None:
        """Scalar-order evaluation of the carry cone over the block."""
        plan = self._plan
        lanes = self.lanes
        carry_state = self._carry_state
        cone_columns = {
            op.op_id: [] for op in plan.cone_ops
        }
        for k in range(count):
            values = {}
            for op in plan.cone_ops:
                kind = op.kind
                if kind in (OpKind.ARITH, OpKind.LOGIC, OpKind.MUL,
                            OpKind.DIV):
                    result = self._apply_scalar(op, values, columns, k)
                elif kind is OpKind.CARRY:
                    result = list(carry_state[op.carry.name])
                elif kind is OpKind.SEQ_READ:
                    result = columns[op.op_id].rows()[k]
                elif kind is OpKind.SEQ_WRITE:
                    result = self._operand_row(
                        op.operands[0], values, columns, k
                    )
                elif kind is OpKind.IDX_ISSUE:
                    result = self._issue_indices(op, values, columns, k)
                elif kind is OpKind.IDX_DATA:
                    issue = self._operand_row(
                        op.operands[0], values, columns, k
                    )
                    record_words = op.stream.record_words
                    result, counts = [], []
                    for lane in range(lanes):
                        if issue[lane] is None:
                            result.append(0)
                            counts.append(0)
                        else:
                            result.append(self.context.idx_read(
                                op.stream, lane, issue[lane]))
                            counts.append(record_words)
                    cone_columns.setdefault(
                        (op.op_id, "counts"), []
                    ).append(counts)
                elif kind is OpKind.IDX_WRITE:
                    result = self._idx_write_detail(op, values, columns, k)
                elif kind is OpKind.COMM:
                    payload = self._operand_row(
                        op.operands[0], values, columns, k
                    )
                    sources = self._operand_row(
                        op.operands[1], values, columns, k
                    )
                    result = [
                        payload[int(sources[lane]) % lanes]
                        for lane in range(lanes)
                    ]
                else:  # pragma: no cover - exhaustive over cone kinds
                    raise ExecutionError(f"unhandled cone op kind {kind}")
                values[op.op_id] = result
                cone_columns[op.op_id].append(result)
            carry_state = {
                carry.name: list(values[carry.update_op.op_id])
                for carry in self.kernel.carries
            }
            for name, state in carry_state.items():
                carry_rows[name].append(state)
        for op_id, rows in cone_columns.items():
            columns[op_id] = _Column(rows=rows)

    def _operand_row(self, operand, values, columns, k) -> list:
        if operand.op_id in values:
            return values[operand.op_id]
        return columns[operand.op_id].rows()[k]

    def _apply_scalar(self, op, values, columns, k) -> list:
        """Per-lane payload evaluation, identical to the scalar engine."""
        rows = [
            self._operand_row(operand, values, columns, k)
            for operand in op.operands
        ]
        payload = op.payload
        try:
            if len(rows) == 2:
                return [payload(x, y) for x, y in zip(rows[0], rows[1])]
            if len(rows) == 1:
                return [payload(x) for x in rows[0]]
        except Exception:
            pass
        result = []
        for lane in range(self.lanes):
            try:
                result.append(payload(*[r[lane] for r in rows]))
            except Exception as exc:
                raise ExecutionError(
                    f"{self.kernel.name}: payload of {op.name} failed on "
                    f"lane {lane}: {exc}"
                ) from exc
        return result

    def _issue_indices(self, op, values, columns, k) -> list:
        indices = self._operand_row(op.operands[0], values, columns, k)
        if len(op.operands) > 1:
            predicates = self._operand_row(
                op.operands[1], values, columns, k
            )
        else:
            predicates = None
        return [
            int(indices[lane])
            if predicates is None or predicates[lane] else None
            for lane in range(self.lanes)
        ]

    def _idx_write_detail(self, op, values, columns, k) -> list:
        indices = self._operand_row(op.operands[0], values, columns, k)
        data = self._operand_row(op.operands[1], values, columns, k)
        if len(op.operands) > 2:
            predicates = self._operand_row(
                op.operands[2], values, columns, k
            )
        else:
            predicates = None
        detail = []
        for lane in range(self.lanes):
            if predicates is not None and not predicates[lane]:
                detail.append(None)
                continue
            record_index = int(indices[lane])
            value = data[lane]
            words = list(value) if isinstance(value, tuple) else [value]
            if len(words) != op.stream.record_words:
                raise ExecutionError(
                    f"{op.name}: record needs {op.stream.record_words} words"
                )
            detail.append((record_index, words))
        return detail

    # ------------------------------------------------------------------
    def _evaluate_batch_op(self, op, count, columns) -> _Column:
        kind = op.kind
        if kind in (OpKind.ARITH, OpKind.LOGIC, OpKind.MUL):
            column = self._try_ufunc(op, columns)
            if column is not None:
                return column
            return self._apply_batch(op, count, columns)
        if kind is OpKind.DIV:
            return self._apply_batch(op, count, columns)
        if kind is OpKind.SEQ_READ:
            return columns[op.op_id]  # prefetched
        if kind is OpKind.SEQ_WRITE:
            return _Column(rows=[
                list(columns[op.operands[0].op_id].rows()[k])
                for k in range(count)
            ])
        if kind is OpKind.IDX_ISSUE:
            return self._batch_issue(op, count, columns)
        if kind is OpKind.IDX_DATA:
            return self._batch_idx_data(op, count, columns)
        if kind is OpKind.IDX_WRITE:
            return _Column(rows=[
                self._idx_write_detail(op, {}, columns, k)
                for k in range(count)
            ])
        if kind is OpKind.COMM:
            return self._batch_comm(op, count, columns)
        raise ExecutionError(  # pragma: no cover - exhaustive over kinds
            f"unhandled batch op kind {kind}"
        )

    def _apply_batch(self, op, count, columns) -> _Column:
        rows = [columns[operand.op_id].rows() for operand in op.operands]
        payload = op.payload
        out = []
        try:
            if len(rows) == 2:
                for k in range(count):
                    out.append([
                        payload(x, y)
                        for x, y in zip(rows[0][k], rows[1][k])
                    ])
                return _Column(rows=out)
            if len(rows) == 1:
                for k in range(count):
                    out.append([payload(x) for x in rows[0][k]])
                return _Column(rows=out)
        except Exception:
            pass
        out = []
        for k in range(count):
            lane_values = []
            for lane in range(self.lanes):
                try:
                    lane_values.append(
                        payload(*[r[k][lane] for r in rows])
                    )
                except Exception as exc:
                    raise ExecutionError(
                        f"{self.kernel.name}: payload of {op.name} failed "
                        f"on lane {lane}: {exc}"
                    ) from exc
            out.append(lane_values)
        return _Column(rows=out)

    def _try_ufunc(self, op, columns) -> "_Column | None":
        """NumPy evaluation when (and only when) it is bit-exact."""
        algebra = op.algebra
        if algebra is None:
            return None
        if algebra == "select":
            return self._try_select(op, columns)
        ufunc = ALGEBRA_UFUNCS.get(algebra)
        if ufunc is None or len(op.operands) != 2:
            return None
        a = columns[op.operands[0].op_id].array()
        b = columns[op.operands[1].op_id].array()
        if a is None or b is None:
            return None
        a_int = a.dtype == np.int64
        b_int = b.dtype == np.int64
        if algebra in ("xor", "mod"):
            if not (a_int and b_int):
                return None  # Python semantics for non-int bit ops / mod
            if algebra == "mod":
                if np.any(b == 0):
                    return None  # preserve ZeroDivisionError behaviour
                bound = int(
                    max(abs(int(b.max(initial=0))),
                        abs(int(b.min(initial=0))))
                )
            else:
                bound = 2 * max(columns[op.operands[0].op_id].bound,
                                columns[op.operands[1].op_id].bound) + 1
                if bound >= _INT64_SAFE_BOUND:
                    return None
        elif a_int and b_int:
            ba = columns[op.operands[0].op_id].bound
            bb = columns[op.operands[1].op_id].bound
            bound = ba * bb if algebra == "mul" else ba + bb
            if bound >= _INT64_SAFE_BOUND:
                return None
        else:
            bound = None  # float64 result: IEEE-exact, no overflow
        return _Column(array=ufunc(a, b), bound=bound)

    def _try_select(self, op, columns) -> "_Column | None":
        cond = columns[op.operands[0].op_id].array()
        if_true = columns[op.operands[1].op_id].array()
        if_false = columns[op.operands[2].op_id].array()
        if cond is None or if_true is None or if_false is None:
            return None
        if if_true.dtype != if_false.dtype:
            return None  # scalar select would mix Python types per lane
        bound = None
        if if_true.dtype == np.int64:
            bound = max(columns[op.operands[1].op_id].bound,
                        columns[op.operands[2].op_id].bound)
        return _Column(
            array=np.where(cond.astype(bool), if_true, if_false),
            bound=bound,
        )

    def _batch_issue(self, op, count, columns) -> _Column:
        index_rows = columns[op.operands[0].op_id].rows()
        if len(op.operands) > 1:
            predicate_rows = columns[op.operands[1].op_id].rows()
            rows = [
                [
                    int(index_rows[k][lane])
                    if predicate_rows[k][lane] else None
                    for lane in range(self.lanes)
                ]
                for k in range(count)
            ]
        else:
            rows = [
                [int(v) for v in index_rows[k]] for k in range(count)
            ]
        return _Column(rows=rows)

    def _batch_idx_data(self, op, count, columns) -> _Column:
        """Indexed reads: data column, plus a counts column for the trace.

        The counts column is registered under the synthetic key
        ``(op_id, "counts")`` so trace assembly can find it.
        """
        issue_rows = columns[op.operands[0].op_id].rows()
        record_words = op.stream.record_words
        idx_read_lanes = self.context.idx_read_lanes
        stream = op.stream
        data_rows = []
        count_rows = []
        for k in range(count):
            issue = issue_rows[k]
            data_rows.append(idx_read_lanes(stream, issue))
            count_rows.append([
                0 if index is None else record_words for index in issue
            ])
        columns[(op.op_id, "counts")] = _Column(rows=count_rows)
        return _Column(rows=data_rows)

    def _batch_comm(self, op, count, columns) -> _Column:
        lanes = self.lanes
        payload_column = columns[op.operands[0].op_id]
        source_column = columns[op.operands[1].op_id]
        sources = source_column.array()
        payload = payload_column.array()
        if sources is not None and sources.dtype == np.int64 \
                and payload is not None:
            gathered = np.take_along_axis(
                payload, np.remainder(sources, lanes), axis=1
            )
            return _Column(array=gathered, bound=payload_column.bound)
        payload_rows = payload_column.rows()
        source_rows = source_column.rows()
        return _Column(rows=[
            [
                payload_rows[k][int(source_rows[k][lane]) % lanes]
                for lane in range(lanes)
            ]
            for k in range(count)
        ])


def _detail_key(op):
    """Column key holding an op's trace detail (IDX_DATA uses counts)."""
    if op.kind is OpKind.IDX_DATA:
        return (op.op_id, "counts")
    return op.op_id
