"""Golden fixture for SRF paths ``golden_stats.json`` does not pin.

``golden_stats.json`` runs each app family at its default separations,
arbitration and network. This fixture pins the rest of the indexed SRF's
timing surface, so a rewrite of the grant loop, the completion queue or
the reorder buffers cannot move a cycle unnoticed on them:

* the Figure 17 grid (sub-arrays x address-FIFO entries) under both the
  ``round_robin`` and the ``occupancy`` per-bank arbitration;
* Figure 18 on the crossbar, the ring and the shared inter-lane network,
  with statically scheduled communication on part of the cycles;
* Rijndael, Sort and Filter on ISRF4 at in-lane separations 2 and 10
  (the ends of the Figure 14/15 sweep).

Regenerate deliberately after an intentional timing change:

    PYTHONPATH=src:. python tests/machine/test_golden_paths.py
"""

import contextlib
import dataclasses
import json
import os

import pytest

from repro.apps import filter2d, microbench, rijndael, sort
from repro.config.presets import isrf4_config
from repro.core.srf import StreamRegisterFile
from tests.machine.test_golden_stats import fingerprint

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_paths.json")

#: Simulated cycles per microbenchmark point. Sizes are frozen with the
#: fixture: changing one is a fixture regeneration, never a silent drift.
MICROBENCH_CYCLES = 300

FIG17_POINTS = [
    (subarrays, fifo_entries, arbitration)
    for arbitration in ("round_robin", "occupancy")
    for subarrays in (1, 2, 4, 8)
    for fifo_entries in (1, 2, 4, 6, 8)
]

#: (label, network, shared_network)
FIG18_NETWORKS = (
    ("crossbar", "crossbar", False),
    ("ring", "ring", False),
    ("shared", "crossbar", True),
)
FIG18_POINTS = [
    (label, ports, occupancy)
    for label, _, _ in FIG18_NETWORKS
    for ports in (1, 2)
    for occupancy in (0.25, 0.75)
]

APPS = {
    "Rijndael": lambda cfg: rijndael.run(cfg, blocks_per_lane=2),
    "Sort": lambda cfg: sort.run(cfg, n=256),
    "Filter": lambda cfg: filter2d.run(cfg, height=16, width=32),
}
SEPARATIONS = (2, 10)


@contextlib.contextmanager
def srf_recorder():
    """Record the SRFs a microbenchmark builds, to pin their counters."""
    built = []

    def build(config):
        srf = StreamRegisterFile(config)
        built.append(srf)
        return srf

    original = microbench.StreamRegisterFile
    microbench.StreamRegisterFile = build
    try:
        yield built
    finally:
        microbench.StreamRegisterFile = original


def microbench_fingerprint(function, **params) -> dict:
    """The result of one microbenchmark run plus its SRF's counters."""
    with srf_recorder() as built:
        result = function(cycles=MICROBENCH_CYCLES, **params)
    (srf,) = built
    return {"result": dataclasses.asdict(result),
            "srf": dataclasses.asdict(srf.stats)}


def fig17_key(subarrays, fifo_entries, arbitration) -> str:
    return f"s={subarrays},f={fifo_entries},{arbitration}"


def fig17_run(subarrays, fifo_entries, arbitration) -> dict:
    return microbench_fingerprint(
        microbench.inlane_random_read_throughput,
        subarrays=subarrays, fifo_entries=fifo_entries,
        arbitration=arbitration,
    )


def fig18_key(label, ports, occupancy) -> str:
    return f"{label},p={ports},comm={occupancy}"


def fig18_run(label, ports, occupancy) -> dict:
    network, shared = next(
        (network, shared) for name, network, shared in FIG18_NETWORKS
        if name == label
    )
    return microbench_fingerprint(
        microbench.crosslane_random_read_throughput,
        ports_per_bank=ports, comm_occupancy=occupancy,
        network=network, shared_network=shared,
    )


def app_run(app, separation) -> dict:
    config = isrf4_config(inlane_addr_data_separation=separation)
    return fingerprint(APPS[app](config).require_verified().stats)


def capture() -> dict:
    return {
        "fig17": {fig17_key(*p): fig17_run(*p) for p in FIG17_POINTS},
        "fig18": {fig18_key(*p): fig18_run(*p) for p in FIG18_POINTS},
        "apps": {
            f"{app}@sep={separation}": app_run(app, separation)
            for app in APPS for separation in SEPARATIONS
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("point", FIG17_POINTS,
                         ids=[fig17_key(*p) for p in FIG17_POINTS])
def test_fig17_point(golden, point):
    assert fig17_run(*point) == golden["fig17"][fig17_key(*point)]


@pytest.mark.parametrize("point", FIG18_POINTS,
                         ids=[fig18_key(*p) for p in FIG18_POINTS])
def test_fig18_point(golden, point):
    assert fig18_run(*point) == golden["fig18"][fig18_key(*point)]


@pytest.mark.parametrize("separation", SEPARATIONS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_app_at_separation(golden, app, separation):
    assert app_run(app, separation) == \
        golden["apps"][f"{app}@sep={separation}"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(capture(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
