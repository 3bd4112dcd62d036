"""Iterative modulo scheduler.

Stand-in for the Imagine communication scheduler ([19] Mattson) used by
the paper (§5.1). The algorithm is classic modulo scheduling:

1. **ResMII** — resource-constrained lower bound: for each functional
   unit class, reserved cycles per iteration divided by unit count.
2. **RecMII** — recurrence-constrained lower bound: the smallest II such
   that every dependence cycle satisfies ``latency_sum <= II *
   distance_sum``. Found by cycle-ratio iteration: starting from
   ``max(1, ResMII)``, Bellman–Ford over edges weighted ``latency - II *
   distance`` either proves no cycle is violated, or yields one violated
   cycle, whose ``ceil(latency_sum / distance_sum)`` is a lower bound the
   II jumps to. The first II with no violated cycle is exactly
   ``max(ResMII, RecMII)``.
3. Starting at ``max(ResMII, RecMII)``, ops are placed in topological
   (program) order at their earliest feasible slot, searching one full
   II window in the modulo reservation table; loop-carried (back-edge)
   constraints are verified after placement, and the II is increased on
   failure.

Because indexed reads contribute their address-data *separation* as the
issue->data edge latency, kernels with loop-carried dependences through
index computation (Rijndael, Sort) see their II — the static loop
length of Figure 14 — grow with separation, while software-pipelinable
kernels (FFT, Filter, IGraph) keep a flat II and only grow in pipeline
depth. That is precisely the behaviour Section 5.4 measures.
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.kernel.ir import Kernel
from repro.kernel.ops import OpKind  # noqa: F401 (used in _stream_group)
from repro.kernel.resources import (
    ClusterResources,
    min_ii_resources,
    resource_key,
)
from repro.kernel.schedule import StaticSchedule

#: Hard cap on the II search to guarantee termination.
MAX_II = 4096


def min_ii_recurrence(kernel: Kernel, inlane_separation: int,
                      crosslane_separation: int,
                      stream_capacity_words: int = 8) -> int:
    """RecMII: smallest II compatible with every dependence cycle."""
    edges = kernel.dependence_edges(
        inlane_separation, crosslane_separation, stream_capacity_words
    )
    return _recurrence_ii(kernel.name, edges, 1)


def _recurrence_ii(name: str, edges, start: int) -> int:
    """Smallest II >= ``start`` satisfying every dependence cycle.

    That is ``max(start, RecMII)``, found by cycle-ratio iteration:
    while some cycle has ``latency > II * distance``, no II below
    ``ceil(latency / distance)`` can satisfy it, so the II jumps there.
    Every jump lands on a lower bound and the loop stops at the first II
    with no violated cycle, so the result is exact.
    """
    ii = max(1, start)
    if not any(e.distance > 0 for e in edges):
        return ii
    # Dependence cycles live entirely within strongly connected
    # components, so the Bellman–Ford checks only need the intra-SCC
    # subgraph — usually a small fraction of a mostly-acyclic kernel.
    node_count, compact = _cycle_subgraph(edges)
    if node_count == 0:
        return ii  # distance>0 edges exist but close no cycle
    while True:
        cycle = _positive_cycle(node_count, compact, ii)
        if cycle is None:
            return ii
        latency, distance = cycle
        # A violated cycle of zero distance is violated at every II.
        if distance > 0:
            ii = max(ii + 1, -(-latency // distance))
        if distance <= 0 or ii > MAX_II:
            raise ScheduleError(
                f"{name}: recurrence cannot be satisfied below II={MAX_II}"
            )


def _cycle_subgraph(edges) -> tuple:
    """Intra-SCC subgraph of the dependence graph, densely renumbered.

    Returns ``(node_count, [(source, sink, latency, distance), ...])``
    keeping only edges whose endpoints share a strongly connected
    component (including self-loops) — exactly the edges that can lie on
    a dependence cycle.
    """
    adjacency = {}
    for edge in edges:
        adjacency.setdefault(edge.source.op_id, []).append(edge.sink.op_id)
        adjacency.setdefault(edge.sink.op_id, [])
    scc_of = _strongly_connected(adjacency)
    kept = [
        e for e in edges
        if scc_of[e.source.op_id] == scc_of[e.sink.op_id]
    ]
    nodes = sorted(
        {e.source.op_id for e in kept} | {e.sink.op_id for e in kept}
    )
    renumber = {op_id: i for i, op_id in enumerate(nodes)}
    compact = [
        (renumber[e.source.op_id], renumber[e.sink.op_id],
         e.latency, e.distance)
        for e in kept
    ]
    return len(nodes), compact


def _strongly_connected(adjacency: dict) -> dict:
    """Iterative Tarjan SCC; returns node -> component id."""
    index = {}
    lowlink = {}
    on_stack = {}
    stack = []
    scc_of = {}
    next_index = 0
    next_scc = 0
    for root in adjacency:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pointer = work.pop()
            if pointer == 0:
                index[node] = lowlink[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack[node] = True
            descended = False
            neighbors = adjacency[node]
            while pointer < len(neighbors):
                succ = neighbors[pointer]
                pointer += 1
                if succ not in index:
                    work.append((node, pointer))
                    work.append((succ, 0))
                    descended = True
                    break
                if on_stack.get(succ) and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            if descended:
                continue
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc_of[member] = next_scc
                    if member == node:
                        break
                next_scc += 1
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return scc_of


def _positive_cycle(node_count: int, compact, ii: int) -> "tuple | None":
    """A cycle with latency > II * distance, as (latency, distance).

    Bellman–Ford longest paths from a virtual source (every distance
    starts at 0) over edges weighted ``latency - II * distance``,
    remembering the edge that last raised each node. Relaxation settles
    within ``node_count`` rounds when no cycle is positive, and then
    returns None. Otherwise relaxation never settles, and a cycle in the
    predecessor graph — which always has positive weight — appears within
    a few laps of the positive cycle's length; each round that changed
    something looks for one.
    """
    weighted = [
        (source, sink, latency - ii * distance, index)
        for index, (source, sink, latency, distance) in enumerate(compact)
    ]
    distance = [0] * node_count
    predecessor = [-1] * node_count  # edge index that last raised a node
    while True:
        changed = False
        for source, sink, weight, index in weighted:
            candidate = distance[source] + weight
            if candidate > distance[sink]:
                distance[sink] = candidate
                predecessor[sink] = index
                changed = True
        if not changed:
            return None
        cycle = _predecessor_cycle(predecessor, compact)
        if cycle is not None:
            return cycle


def _predecessor_cycle(predecessor, compact) -> "tuple | None":
    """(latency, distance) of a cycle of the predecessor graph, or None.

    Every node has at most one predecessor edge, so walking back from
    each node in turn, marking the nodes of the walk, finds a cycle
    exactly when a walk runs into one of its own marks.
    """
    walk_of = [0] * len(predecessor)
    for start in range(len(predecessor)):
        node = start
        walk = start + 1
        while node >= 0 and not walk_of[node]:
            walk_of[node] = walk
            edge = predecessor[node]
            node = compact[edge][0] if edge >= 0 else -1
        if node >= 0 and walk_of[node] == walk:
            latency = distance = 0
            member = node
            while True:
                source, _, edge_latency, edge_distance = (
                    compact[predecessor[member]]
                )
                latency += edge_latency
                distance += edge_distance
                member = source
                if member == node:
                    return latency, distance
    return None


class ModuloScheduler:
    """Schedules kernels onto one cluster's resources."""

    def __init__(self, resources: "ClusterResources | None" = None):
        self.resources = resources or ClusterResources()

    def schedule(self, kernel: Kernel, inlane_separation: int = 6,
                 crosslane_separation: int = 20,
                 stream_capacity_words: int = 8) -> StaticSchedule:
        """Produce a legal modulo schedule for ``kernel``."""
        kernel.validate()
        edges = kernel.dependence_edges(
            inlane_separation, crosslane_separation, stream_capacity_words
        )
        ii = _recurrence_ii(
            kernel.name, edges, min_ii_resources(kernel, self.resources)
        )
        plan = self._placement_plan(kernel, edges)
        while ii <= MAX_II:
            slots = self._try_place(plan, edges, ii)
            if slots is not None:
                return self._finish(
                    kernel, ii, slots, inlane_separation, crosslane_separation
                )
            ii += 1
        raise ScheduleError(
            f"{kernel.name}: no schedule found up to II={MAX_II}"
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _stream_group(op) -> "tuple | None":
        """Ordering-group key for per-stream FIFO semantics.

        Sequential stream buffers and address FIFOs deliver strictly in
        access order, so all ops of a group must be placed monotonically
        and span at most one II: otherwise a software-pipelined
        iteration's late access would interleave with the next
        iteration's early access and scramble the stream. IDX_ISSUE and
        IDX_WRITE share a group because they share the address FIFO.
        """
        if op.kind in (OpKind.SEQ_READ, OpKind.SEQ_WRITE, OpKind.IDX_DATA):
            return (op.kind, op.stream.name)
        if op.kind in (OpKind.IDX_ISSUE, OpKind.IDX_WRITE):
            return ("fifo", op.stream.name)
        return None

    def _placement_plan(self, kernel: Kernel, edges) -> list:
        """What every placement attempt needs to know of each op, in
        program (topological) order; none of it depends on the II.

        One ``(op_id, deps, group, key, units, hold)`` per op: ``deps``
        lists ``(source_id, latency, distance)`` of the op's incoming
        edges, ``group`` numbers its stream-ordering group, and ``key``,
        ``units`` and ``hold`` are its reservation-table row (None for
        ops that need no slot), unit count and reserved cycles. Groups
        and rows are small integers, which hash faster than the enum
        tuples they stand for.
        """
        forward = {}  # sink_id -> list of (source_id, latency, distance)
        for edge in edges:
            forward.setdefault(edge.sink.op_id, []).append(
                (edge.source.op_id, edge.latency, edge.distance)
            )
        groups = {}
        rows = {}
        plan = []
        for op in kernel.ops:
            group = self._stream_group(op)
            if group is not None:
                group = groups.setdefault(group, len(groups))
            key = resource_key(op)
            units = 0
            if key is not None:
                units = self.resources.count(key)
                key = rows.setdefault(key, len(rows))
            plan.append((
                op.op_id,
                tuple(forward.get(op.op_id, ())),
                group,
                key,
                units,
                op.spec.reserved_cycles,
            ))
        return plan

    def _try_place(self, plan: list, edges, ii: int) -> "dict | None":
        """One placement attempt at a fixed II; None on failure."""

        def earliest_from_deps(deps, placed_slots):
            earliest = 0
            for source_id, latency, distance in deps:
                if source_id in placed_slots:
                    earliest = max(
                        earliest,
                        placed_slots[source_id] + latency - ii * distance,
                    )
            return earliest

        # ASAP pre-pass (no resources): group floors ensure a stream
        # group's last member can still be within II of its first.
        asap = {}
        group_floor = {}
        for op_id, deps, group, _, _, _ in plan:
            asap[op_id] = earliest = earliest_from_deps(deps, asap)
            if group is not None:
                floor = max(0, earliest - ii)
                group_floor[group] = max(group_floor.get(group, 0), floor)

        reservations = {}  # key -> occupied slots mod ii
        slots = {}
        group_first = {}
        group_last = {}
        for op_id, deps, group, key, units, hold in plan:
            earliest = earliest_from_deps(deps, slots)
            if group is not None:
                earliest = max(earliest, group_floor.get(group, 0))
                if group in group_last:
                    earliest = max(earliest, group_last[group])
            placed = self._place_in_window(
                key, units, hold, earliest, ii, reservations
            )
            if placed is None:
                return None
            if group is not None:
                first = group_first.setdefault(group, placed)
                if placed - first > ii:
                    return None  # stream span exceeds one iteration
                group_last[group] = placed
            slots[op_id] = placed
        # Verify loop-carried constraints (sources placed after sinks).
        for edge in edges:
            lhs = slots[edge.sink.op_id] - slots[edge.source.op_id]
            if lhs < edge.latency - ii * edge.distance:
                return None
        return slots

    @staticmethod
    def _place_in_window(key, units: int, hold: int, earliest: int,
                         ii: int, reservations: dict) -> "int | None":
        if key is None:
            return max(earliest, 0)
        if hold > ii:
            return None  # unpipelined op cannot fit this II
        occupied = reservations.setdefault(key, {})
        start = max(earliest, 0)
        if hold == 1:
            # Nearly every op holds its unit one cycle: one modulo-cell
            # probe per candidate slot.
            for slot in range(start, start + ii):
                cell = slot % ii
                used = occupied.get(cell, 0)
                if used < units:
                    occupied[cell] = used + 1
                    return slot
            return None
        for slot in range(start, start + ii):
            cells = [(slot + k) % ii for k in range(hold)]
            if all(occupied.get(cell, 0) < units for cell in cells):
                for cell in cells:
                    occupied[cell] = occupied.get(cell, 0) + 1
                return slot
        return None

    @staticmethod
    def _finish(kernel, ii, slots, inlane_separation, crosslane_separation):
        depth = 0
        comm_slots = set()
        for op in kernel.ops:
            slot = slots[op.op_id]
            depth = max(depth, slot + max(op.spec.latency, 1))
            if op.kind is OpKind.COMM:
                comm_slots.add(slot % ii)
        return StaticSchedule(
            kernel=kernel,
            ii=ii,
            slots=slots,
            depth=depth,
            inlane_separation=inlane_separation,
            crosslane_separation=crosslane_separation,
            comm_slots=frozenset(comm_slots),
        )
