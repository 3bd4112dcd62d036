"""RecMII by cycle-ratio iteration against the binary-search oracle.

The scheduler finds ``max(ResMII, RecMII)`` by jumping the II to
``ceil(latency / distance)`` of each violated dependence cycle it
extracts. This file keeps the earlier implementation — binary search
over II with a yes/no Bellman–Ford positive-cycle check — as an oracle
and requires both to agree on every application kernel at in-lane
separations 2-10 and on generated random kernels.
"""

from hypothesis import given, settings, strategies as st

from repro.config.presets import all_configs
from repro.errors import ScheduleError
from repro.kernel import (
    ClusterResources,
    KernelBuilder,
    ModuloScheduler,
    min_ii_recurrence,
    min_ii_resources,
)
from repro.kernel.scheduler import MAX_II, _cycle_subgraph
from repro.machine.processor import StreamProcessor
from tests.machine.runners import RUNNERS
from tests.machine.test_random_kernels import build_random_kernel

SEPARATIONS = range(2, 11)
CROSSLANE_SEPARATIONS = (4, 20)


def oracle_positive_cycle(node_count, compact, ii) -> bool:
    """Does any cycle have latency > II * distance? (yes/no Bellman–Ford)"""
    weighted = [
        (source, sink, latency - ii * distance)
        for source, sink, latency, distance in compact
    ]
    distance = [0] * node_count
    for _ in range(node_count):
        changed = False
        for source, sink, weight in weighted:
            if distance[source] + weight > distance[sink]:
                distance[sink] = distance[source] + weight
                changed = True
        if not changed:
            return False
    return True


def oracle_recmii(kernel, inlane, crosslane, capacity=8) -> int:
    """The binary-search RecMII the scheduler used to compute."""
    edges = kernel.dependence_edges(inlane, crosslane, capacity)
    if not any(e.distance > 0 for e in edges):
        return 1
    node_count, compact = _cycle_subgraph(edges)
    if node_count == 0:
        return 1
    latency_cap = sum(lat for _, _, lat, _ in compact if lat > 0)
    low, high = 1, min(MAX_II, max(1, latency_cap))
    if oracle_positive_cycle(node_count, compact, high):
        raise ScheduleError(f"{kernel.name}: unsatisfiable recurrence")
    while low < high:
        mid = (low + high) // 2
        if oracle_positive_cycle(node_count, compact, mid):
            low = mid + 1
        else:
            high = mid
    return low


def app_kernels() -> dict:
    """Every kernel the applications schedule, by name.

    The sequential presets build the gather/scatter variants and the
    indexed ones the lookup variants; ISRF1 and Cache build no kernel
    that Base and ISRF4 do not.
    """
    kernels = {}
    original = StreamProcessor.schedule_kernel

    def record(self, kernel):
        kernels.setdefault(kernel.name, kernel)
        return original(self, kernel)

    StreamProcessor.schedule_kernel = record
    try:
        for preset in ("Base", "ISRF4"):
            for run in RUNNERS.values():
                run(all_configs()[preset])
    finally:
        StreamProcessor.schedule_kernel = original
    return kernels


def test_every_app_kernel_matches_the_oracle():
    kernels = app_kernels()
    assert len(kernels) >= 20  # every app family contributed
    recurrent = 0
    for kernel in kernels.values():
        for inlane in SEPARATIONS:
            for crosslane in CROSSLANE_SEPARATIONS:
                expected = oracle_recmii(kernel, inlane, crosslane)
                assert min_ii_recurrence(kernel, inlane, crosslane) \
                    == expected, (kernel.name, inlane, crosslane)
        recurrent += oracle_recmii(kernel, 10, 20) > 1
    assert recurrent  # some kernel's II is bound by a recurrence


def test_scheduled_ii_is_max_of_resmii_and_recmii_when_placement_fits():
    # A loop-carried index chain: RecMII grows with separation and the
    # scheduler's starting II is exactly max(ResMII, RecMII).
    b = KernelBuilder("chain")
    lut = b.idxl_istream("lut")
    out = b.ostream("out")
    i = b.carry(0, "i")
    value = b.idx_read(lut, i)
    b.update(i, b.logic(lambda x: x % 4, value))
    b.write(out, value)
    kernel = b.build()
    for inlane in SEPARATIONS:
        expected = max(min_ii_resources(kernel, ClusterResources()),
                       oracle_recmii(kernel, inlane, 20))
        assert ModuloScheduler().schedule(
            kernel, inlane_separation=inlane).ii == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    ops_count=st.integers(min_value=1, max_value=14),
    use_carry=st.booleans(),
    lookups=st.integers(min_value=0, max_value=3),
    inlane=st.sampled_from(list(SEPARATIONS)),
    capacity=st.sampled_from([1, 2, 8]),
)
def test_random_kernels_match_the_oracle(seed, ops_count, use_carry,
                                         lookups, inlane, capacity):
    kernel, *_ = build_random_kernel(seed, ops_count, use_carry, lookups)
    expected = oracle_recmii(kernel, inlane, 20, capacity)
    assert min_ii_recurrence(kernel, inlane, 20, capacity) == expected
