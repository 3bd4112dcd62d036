"""Golden-stats regression test: tier-1 timing pinned per app x preset.

``golden_stats.json`` snapshots the ``ProgramStats`` fingerprint of a
small workload per application family — FFT 2D (n=16) plus the sparse
suite (SpMV CSR/CSC and both stencils) — for all four Table 2 presets.
Any change to cycle-level behaviour — intentional or not — shows up as
a diff against the fixture. It doubles as the enforcement of the
observability layer's zero-overhead contract: running with tracing,
metrics, and the profiler all enabled must reproduce the fixture
bit-for-bit, as must every pure simulation-speed knob (vector backend,
columnar engine, fast-forward, trace replay).

Regenerate deliberately after an intentional timing change:

    PYTHONPATH=src:. python tests/machine/test_golden_stats.py
"""

import json
import os

import pytest

from repro import observe
from repro.apps import fft, spmv, stencil
from repro.config.presets import all_configs
from repro.machine import replay
from repro.machine.replay import TraceStore
from tests.machine.runners import PRESETS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")

FFT_N = 16

#: App name -> small pinned workload. Sizes are frozen with the fixture:
#: changing one is a fixture regeneration, never a silent drift.
APPS = {
    "FFT 2D": lambda cfg: fft.run(cfg, n=FFT_N),
    "SpMV_CSR": lambda cfg: spmv.run(cfg, fmt="csr", rows=64, cols=64,
                                     strips_to_run=2),
    "SpMV_CSC": lambda cfg: spmv.run(cfg, fmt="csc", rows=64, cols=64,
                                     strips_to_run=2),
    "Stencil_STAR": lambda cfg: stencil.run(cfg, pattern="star"),
    "Stencil_BOX": lambda cfg: stencil.run(cfg, pattern="box"),
}


def fingerprint(stats) -> dict:
    """The timing-relevant slice of ProgramStats, JSON-stable."""
    return {
        "total_cycles": stats.total_cycles,
        "memory_stall_cycles": stats.memory_stall_cycles,
        "idle_cycles": stats.idle_cycles,
        "offchip_words": stats.offchip_words,
        "kernel_runs": [
            {
                "kernel_name": run.kernel_name,
                "ii": run.ii,
                "depth": run.depth,
                "iterations": run.iterations,
                "useful_iterations": run.useful_iterations,
                "total_cycles": run.total_cycles,
                "srf_stall_cycles": run.srf_stall_cycles,
                "startup_cycles": run.startup_cycles,
                "sequential_words": run.sequential_words,
                "inlane_words": run.inlane_words,
                "crosslane_words": run.crosslane_words,
                "indexed_write_words": run.indexed_write_words,
                "lanes": run.lanes,
            }
            for run in stats.kernel_runs
        ],
    }


def capture() -> dict:
    out = {}
    for app, runner in APPS.items():
        out[app] = {}
        for name, config in all_configs().items():
            result = runner(config).require_verified()
            out[app][name] = fingerprint(result.stats)
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(APPS))
class TestGoldenStats:
    def test_matches_fixture(self, golden, app, preset):
        config = all_configs()[preset]
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_observability_is_inert(self, golden, app, preset):
        """Trace + metrics + profiler on must not move a single cycle."""
        config = all_configs()[preset].replace(
            trace=True, metrics_level=2, profile_sample_period=64,
        )
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_sanitizer_is_inert(self, golden, app, preset):
        """Per-cycle invariant checks must not move a single cycle."""
        config = all_configs()[preset].replace(sanitize=True)
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_vector_backend_is_inert(self, golden, app, preset):
        """The vector execution backend is a pure simulation-speed knob:
        it must reproduce the *scalar-generated* fixture bit-for-bit,
        not merely be self-consistent."""
        config = all_configs()[preset].replace(backend="vector")
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_columnar_engine_is_inert(self, golden, app, preset):
        """The columnar timing engine is a pure simulation-speed knob:
        it must reproduce the *object-engine-generated* fixture
        bit-for-bit, not merely be self-consistent."""
        config = all_configs()[preset].replace(timing_engine="columnar")
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_columnar_engine_with_vector_backend_is_inert(self, golden,
                                                          app, preset):
        """Both speed knobs together still pin the fixture: drain
        windows charge exactly what per-cycle stepping would."""
        config = all_configs()[preset].replace(
            timing_engine="columnar", backend="vector"
        )
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_vector_backend_with_observability_is_inert(self, golden,
                                                        app, preset):
        """Steady-state fast-forward windows charge the profiler and
        metrics exactly like per-cycle ticking does."""
        config = all_configs()[preset].replace(
            backend="vector", trace=True, metrics_level=2,
            profile_sample_period=64,
        )
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_replay_with_observability_is_inert(self, golden, app, preset,
                                                tmp_path):
        """Replay's steady-state fast-forward windows charge the profiler
        and metrics exactly like per-cycle ticking does: the replayed
        run pins the fixture, and its profiler reports and metrics equal
        those of the (executed) recording run."""
        store = TraceStore(str(tmp_path))
        config = all_configs()[preset].replace(
            timing_source="replay", trace=True, metrics_level=2,
            profile_sample_period=64,
        )
        with replay.session(store, app, config, "test") as sess, \
                observe.collect() as recording:
            recorded = APPS[app](config).require_verified()
            assert sess.mode == "record"
        with replay.session(store, app, config, "test") as sess, \
                observe.collect() as replaying:
            replayed = APPS[app](config).require_verified()
            assert sess.mode == "replay"
        assert fingerprint(replayed.stats) == golden[app][preset]
        assert replayed.stats.metrics == recorded.stats.metrics
        assert ([o.profiler.report() for o in replaying.observers]
                == [o.profiler.report() for o in recording.observers])


@pytest.mark.parametrize("app", sorted(APPS))
def test_fast_forward_off_matches_fixture(golden, app):
    """The cycle-loop fast path must be an exact shortcut, for every
    app family (the sparse kernels stress its steady-state windows with
    indexed-FIFO occupancy the FFT never reaches)."""
    config = all_configs()["ISRF4"].replace(fast_forward=False)
    result = APPS[app](config).require_verified()
    assert fingerprint(result.stats) == golden[app]["ISRF4"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(capture(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
