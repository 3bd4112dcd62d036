"""Cycle-level machine-state sanitizer (``MachineConfig.sanitize``).

The static passes prove what they can before a single cycle runs; this
module guards the rest *while* cycles run. With ``sanitize=True`` the
processor attaches a :class:`MachineSanitizer` to its SRF and calls
:meth:`MachineSanitizer.check` once per simulated cycle, after the SRF
tick. Every check is a read-only probe of existing state — the
sanitizer allocates nothing on the machine, mutates nothing, and a
machine built without it carries no sanitizer state at all, so stats
fingerprints are bit-identical either way (the same inertness contract
as the trace and fault layers).

Checked invariants, mirroring the machine's conservation laws:

* **allocator** — allocations are disjoint, ordered, block-aligned and
  inside the SRF;
* **sequential ports** — block progress within bounds, in-flight word
  credit non-negative, per-lane stream-buffer occupancy uniform (SIMD
  lockstep) and within capacity, and reads never over-commit buffer
  space (occupancy + in-flight ≤ capacity);
* **indexed streams** — the O(1) ``pending_words`` counter equals the
  words actually queued across lane FIFOs, write credits are
  non-negative, each address FIFO's head cursor lies inside its head
  record (and is zero on an empty FIFO), every queued word's cached
  sub-array bit and storage index equal a fresh decode of its target
  lane and bank-local address, reorder buffers conserve
  tickets (slots == tickets issued − tickets popped), and each reorder
  buffer's free-slot counter matches its contents;
* **crossbars** — address-network port budgets within configured
  bounds, return-network queues plus reservations within queue depth,
  and the return network's queued-word counter equal to its queues;
* **completion pipeline** — the calendar ring's event count matches
  its buckets, and no completion due at or before the cycle is left on
  the ring after the cycle's completions drained.

On the first violated invariant a :class:`~repro.errors.SanitizerError`
carrying a :class:`SanitizerReport` (every violation found that cycle,
not just the first) aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SanitizerError, SrfAccessError


@dataclass
class SanitizerReport:
    """Forensics attached to a :class:`~repro.errors.SanitizerError`."""

    cycle: int
    violations: list = field(default_factory=list)  # of str

    def describe(self) -> str:
        lines = [
            f"sanitizer: {len(self.violations)} invariant violation(s) "
            f"at cycle {self.cycle}:"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class MachineSanitizer:
    """Per-cycle invariant checker over one machine's SRF complex."""

    def __init__(self, srf):
        self.srf = srf
        self.checks_run = 0

    # ------------------------------------------------------------------
    def check(self, cycle: int) -> None:
        """Assert every invariant; raises SanitizerError on violation."""
        self.checks_run += 1
        violations = list(self._scan(cycle))
        if violations:
            report = SanitizerReport(cycle=cycle, violations=violations)
            raise SanitizerError(
                "machine invariant violated", report=report
            )

    def _scan(self, cycle: int):
        yield from self._check_allocator()
        yield from self._check_sequential_ports()
        yield from self._check_indexed_streams()
        yield from self._check_networks()
        yield from self._check_pipeline(cycle)

    # ------------------------------------------------------------------
    def _check_allocator(self):
        geometry = self.srf.geometry
        block = geometry.block_words
        cursor = 0
        for region in self.srf.allocator._regions:
            if region.base % block or region.words % block:
                yield (
                    f"allocation '{region.name}' [{region.base}, "
                    f"{region.base + region.words}) is not block-aligned"
                )
            if region.base < cursor:
                yield (
                    f"allocation '{region.name}' at {region.base} overlaps "
                    f"or reorders against the previous region end {cursor}"
                )
            cursor = max(cursor, region.base + region.words)
        if cursor > geometry.total_words:
            yield (
                f"allocations extend to word {cursor} beyond the "
                f"{geometry.total_words}-word SRF"
            )

    def _check_sequential_ports(self):
        for port in self.srf._seq_ports:
            fifo = getattr(port, "fifo", None)
            if fifo is None:
                continue  # duck-typed memory-system port; no buffer here
            name = port.descriptor.name
            if not 0 <= port._blocks_done <= port.total_blocks:
                yield (
                    f"sequential port '{name}': {port._blocks_done} blocks "
                    f"done outside [0, {port.total_blocks}]"
                )
            if port._inflight_words < 0:
                yield (
                    f"sequential port '{name}': negative in-flight word "
                    f"credit ({port._inflight_words})"
                )
            depths = {len(lane) for lane in fifo._fifos}
            if len(depths) > 1:
                yield (
                    f"sequential port '{name}': stream-buffer occupancy "
                    f"not uniform across lanes ({sorted(depths)}) — SIMD "
                    "lockstep broken"
                )
            occupancy = fifo.occupancy
            if occupancy > fifo.capacity:
                yield (
                    f"sequential port '{name}': buffer occupancy "
                    f"{occupancy} exceeds capacity {fifo.capacity}"
                )
            if (port.direction.value == "read"
                    and occupancy + port._inflight_words > fifo.capacity):
                yield (
                    f"sequential port '{name}': occupancy {occupancy} + "
                    f"in-flight {port._inflight_words} over-commits the "
                    f"{fifo.capacity}-word buffer"
                )

    def _check_indexed_streams(self):
        geometry = self.srf.geometry
        for stream in self.srf._indexed_list:
            name = stream.descriptor.name
            queued = 0
            for fifo in stream.fifos:
                entries = fifo._entries
                cursor = fifo._cursor
                queued += sum(len(entry) for entry in entries) - cursor
                if fifo.occupancy > fifo.capacity:
                    yield (
                        f"indexed stream '{name}' lane {fifo.lane}: "
                        f"{fifo.occupancy} FIFO entries exceed capacity "
                        f"{fifo.capacity}"
                    )
                if entries:
                    if not 0 <= cursor < len(entries[0]):
                        yield (
                            f"indexed stream '{name}' lane {fifo.lane}: "
                            f"head cursor {cursor} outside the "
                            f"{len(entries[0])}-word head record"
                        )
                elif cursor:
                    yield (
                        f"indexed stream '{name}' lane {fifo.lane}: "
                        f"head cursor {cursor} with an empty FIFO"
                    )
                for entry in entries:
                    for word in entry:
                        yield from self._check_decode(
                            geometry, name, fifo.lane, word
                        )
            if queued != stream.pending_words:
                yield (
                    f"indexed stream '{name}': pending_words counter "
                    f"{stream.pending_words} != {queued} words actually "
                    "queued across lane FIFOs"
                )
            if stream.outstanding_writes < 0:
                yield (
                    f"indexed stream '{name}': negative outstanding-write "
                    f"credit ({stream.outstanding_writes})"
                )
            if stream.robs is not None:
                for lane, rob in enumerate(stream.robs):
                    yield from self._check_rob(name, lane, rob)

    @staticmethod
    def _check_decode(geometry, name, lane, word):
        """The cached decode of a queued word against a fresh one."""
        target, addr, _, _, bit, index = word
        try:
            fresh_bit = 1 << geometry.subarray_of(addr)
            fresh_index = geometry.join(target, addr)
        except SrfAccessError as exc:
            yield (
                f"indexed stream '{name}' lane {lane}: queued word "
                f"({target}, {addr}) does not decode: {exc}"
            )
            return
        if (bit, index) != (fresh_bit, fresh_index):
            yield (
                f"indexed stream '{name}' lane {lane}: queued word "
                f"({target}, {addr}) caches sub-array bit {bit} and "
                f"storage index {index}, but decodes to {fresh_bit} and "
                f"{fresh_index}"
            )

    @staticmethod
    def _check_rob(name, lane, rob):
        issued = rob._next_ticket - rob._head_ticket
        if len(rob._slots) != issued:
            yield (
                f"indexed stream '{name}' lane {lane}: reorder buffer "
                f"holds {len(rob._slots)} slots but tickets say "
                f"{issued} outstanding"
            )
        if rob.occupancy > rob.capacity:
            yield (
                f"indexed stream '{name}' lane {lane}: reorder buffer "
                f"occupancy {rob.occupancy} exceeds capacity {rob.capacity}"
            )
        if rob.space != rob.capacity - rob.occupancy:
            yield (
                f"indexed stream '{name}' lane {lane}: reorder buffer "
                f"space counter {rob.space} != "
                f"{rob.capacity - rob.occupancy} free slots"
            )

    def _check_networks(self):
        address = self.srf.address_network
        for lane in range(address.lanes):
            if not 0 <= address._source_budget[lane] <= address.source_bandwidth:
                yield (
                    f"address network: source budget of lane {lane} is "
                    f"{address._source_budget[lane]}, outside "
                    f"[0, {address.source_bandwidth}]"
                )
            if not 0 <= address._bank_budget[lane] <= address.ports_per_bank:
                yield (
                    f"address network: port budget of bank {lane} is "
                    f"{address._bank_budget[lane]}, outside "
                    f"[0, {address.ports_per_bank}]"
                )
        returns = self.srf.return_network
        waiting = sum(len(queue) for queue in returns._queues)
        if returns.queued != waiting:
            yield (
                f"return network: queued-word counter {returns.queued} "
                f"!= {waiting} words in the bank queues"
            )
        for bank in range(returns.lanes):
            reserved = returns._reserved[bank]
            if reserved < 0:
                yield (
                    f"return network: negative reservation count "
                    f"({reserved}) at bank {bank}"
                )
            depth = len(returns._queues[bank]) + reserved
            if depth > returns.bank_queue_depth:
                yield (
                    f"return network: bank {bank} holds {depth} words "
                    f"(queued + reserved) against a depth of "
                    f"{returns.bank_queue_depth}"
                )

    def _check_pipeline(self, cycle: int):
        srf = self.srf
        ring = srf._ring
        events = sum(len(bucket) for bucket in ring)
        if events != srf._ring_count:
            yield (
                f"completion pipeline: ring holds {events} events but "
                f"counts {srf._ring_count}"
            )
        # Live dues span less than one lap of the ring, so an event in
        # this cycle's bucket is due now and was left behind.
        overdue = len(ring[cycle % srf._ring_size])
        if overdue:
            yield (
                f"completion pipeline: {overdue} access(es) due at cycle "
                f"{cycle} still in flight after it drained"
            )
