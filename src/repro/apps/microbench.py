"""Synthetic SRF-throughput microbenchmarks (paper Figures 17 and 18).

These drive the :class:`~repro.core.srf.StreamRegisterFile` directly,
without kernels, exactly as the paper describes:

* **Figure 17** — in-lane indexed throughput: "a micro-benchmark that
  issues 4 random reads per cycle per cluster on every cycle" (four
  indexed streams, one address each per cycle, honouring the
  one-access-per-stream-per-cycle limit of §5.3), with an 8-cycle
  separation between address issue and data consumption. Swept over the
  number of sub-arrays per bank and the address-FIFO size.
* **Figure 18** — cross-lane indexed throughput: "1 random cross-cluster
  read and 3 sequential stream accesses per cycle per cluster", swept
  over the number of cross-lane network ports per SRF bank and the
  fraction of cycles carrying unrelated inter-cluster communication
  (which has network priority).

Reported throughput is sustained indexed words per cycle per lane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.config.presets import isrf4_config
from repro.core.arrays import SrfArray
from repro.core.srf import PortDirection, StreamRegisterFile
from repro.errors import ExecutionError


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of one microbenchmark run."""

    words_per_cycle_per_lane: float
    cycles: int
    issued: int
    completed: int


def _config_with_subarrays(subarrays: int, fifo_entries: int,
                           ports_per_bank: int = 1,
                           network: str = "crossbar",
                           arbitration: str = "round_robin",
                           shared_network: bool = False) -> MachineConfig:
    return isrf4_config(
        subarrays_per_bank=subarrays,
        inlane_indexed_bandwidth=subarrays,
        address_fifo_words=fifo_entries,
        crosslane_ports_per_bank=ports_per_bank,
        crosslane_network=network,
        indexed_arbitration=arbitration,
        shared_interlane_network=shared_network,
    )


def _check_separation(separation: int) -> None:
    if separation < 0:
        raise ExecutionError("separation must be non-negative")


def inlane_random_read_throughput(
    subarrays: int = 4,
    fifo_entries: int = 8,
    streams: int = 4,
    cycles: int = 2000,
    separation: int = 8,
    seed: int = 3,
    arbitration: str = "round_robin",
) -> ThroughputResult:
    """Figure 17's measurement for one (sub-arrays, FIFO size) point."""
    if streams <= 0 or cycles <= 0:
        raise ExecutionError("streams and cycles must be positive")
    _check_separation(separation)
    config = _config_with_subarrays(subarrays, fifo_entries,
                                    arbitration=arbitration)
    srf = StreamRegisterFile(config)
    lanes = config.lanes
    rng = random.Random(seed)
    records = 512
    arrays = [SrfArray(srf, records * lanes, f"mb{i}") for i in range(streams)]
    for array in arrays:
        array.fill_replicated(list(range(records)))
    streams_open = [
        srf.open_indexed(array.inlane_read(records)) for array in arrays
    ]
    issued = completed = 0
    #: Issue timestamps per (stream, lane) so data is consumed only
    #: ``separation`` cycles after its address was issued.
    ready_queue = [[[] for _ in range(lanes)] for _ in streams_open]
    for cycle in range(cycles):
        # Consume data whose separation window has elapsed (decoupled
        # late read: frees reorder-buffer slots).
        for s, stream in enumerate(streams_open):
            for lane in range(lanes):
                pending = ready_queue[s][lane]
                while (pending and pending[0] + separation <= cycle
                       and stream.data_ready(lane)):
                    stream.pop_data(lane)
                    pending.pop(0)
                    completed += 1
        # Issue one random read per stream per lane (4 reads/cycle/lane)
        # in SIMD lockstep: a full address FIFO anywhere stalls issue for
        # the whole cluster array, which is why small FIFOs lose
        # throughput (Figure 17).
        if all(stream.can_issue_all() for stream in streams_open):
            for s, stream in enumerate(streams_open):
                stream.try_issue(
                    [rng.randrange(records) for _ in range(lanes)]
                )
                for pending in ready_queue[s]:
                    pending.append(cycle)
                issued += lanes
        srf.tick(cycle)
    words = srf.stats.inlane_grants
    return ThroughputResult(
        words_per_cycle_per_lane=words / cycles / lanes,
        cycles=cycles,
        issued=issued,
        completed=completed,
    )


def crosslane_random_read_throughput(
    ports_per_bank: int = 1,
    comm_occupancy: float = 0.0,
    cycles: int = 2000,
    separation: int = 8,
    sequential_streams: int = 3,
    seed: int = 4,
    network: str = "crossbar",
    shared_network: bool = False,
    issue_probability: float = 1.0,
) -> ThroughputResult:
    """Figure 18's measurement for one (ports, comm-occupancy) point.

    ``network`` selects the address-network topology: the paper's full
    crossbar, or the sparse ring of the §7 future-work evaluation.
    ``shared_network`` multiplexes index traffic onto the inter-cluster
    network (§4.5's preferred single-network option).
    """
    if not 0.0 <= comm_occupancy <= 1.0:
        raise ExecutionError("comm occupancy must be in [0, 1]")
    if cycles <= 0:
        raise ExecutionError("cycles must be positive")
    if not 0.0 <= issue_probability <= 1.0:
        raise ExecutionError("issue_probability must be in [0, 1]")
    if sequential_streams < 0:
        raise ExecutionError("sequential_streams must be non-negative")
    _check_separation(separation)
    config = _config_with_subarrays(4, 8, ports_per_bank, network=network,
                                    shared_network=shared_network)
    srf = StreamRegisterFile(config)
    lanes = config.lanes
    rng = random.Random(seed)
    records = 4096
    nodes = SrfArray(srf, records, "mb_nodes")
    nodes.fill_stream_order(list(range(records)))
    stream = srf.open_indexed(nodes.crosslane_read(records))
    # Three always-busy sequential streams contending for the SRF port.
    seq_arrays = [
        SrfArray(srf, 4096, f"mb_seq{i}") for i in range(sequential_streams)
    ]
    seq_ports = []
    for array in seq_arrays:
        port = srf.open_sequential(array.seq_read(), PortDirection.READ)
        seq_ports.append(port)
    issued = completed = 0
    pending = [[] for _ in range(lanes)]
    comm_accumulator = 0.0
    for cycle in range(cycles):
        # Keep sequential demand continuous: drain buffers and restart
        # finished streams.
        for position, port in enumerate(seq_ports):
            while port.can_pop():
                port.pop_simd()
            if port.drained:
                srf.close_sequential(port)
                port = srf.open_sequential(
                    seq_arrays[position].seq_read(), PortDirection.READ
                )
                seq_ports[position] = port
        for lane in range(lanes):
            queue = pending[lane]
            while (queue and queue[0] + separation <= cycle
                   and stream.data_ready(lane)):
                stream.pop_data(lane)
                queue.pop(0)
                completed += 1
        for lane in range(lanes):
            if rng.random() >= issue_probability:
                continue
            if stream.can_issue(lane):
                stream.issue_read(lane, rng.randrange(records))
                pending[lane].append(cycle)
                issued += 1
        # Deterministic comm-cycle pattern at the requested occupancy.
        comm_accumulator += comm_occupancy
        comm_busy = comm_accumulator >= 1.0
        if comm_busy:
            comm_accumulator -= 1.0
        srf.tick(cycle, comm_busy=comm_busy)
    words = srf.stats.crosslane_grants
    return ThroughputResult(
        words_per_cycle_per_lane=words / cycles / lanes,
        cycles=cycles,
        issued=issued,
        completed=completed,
    )
