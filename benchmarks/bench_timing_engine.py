"""Wall-clock measurement of the object vs columnar timing engines.

Each workload runs once per engine under pytest-benchmark; the
committed ``BENCH_BASELINE.json`` pins the *object/columnar wall-clock
speedup* and ``tools/bench_gate.py`` fails if the measured speedup
regresses by more than the configured tolerance. Gating on the ratio
rather than absolute seconds makes the gate machine-independent: a slow
CI runner scales both engines alike, but a change that slows the
columnar engine (or silently disables its drain windows) moves the
ratio.

The workloads exercise the columnar engine's drain windows on the
ISRF4 preset: FFT's communication-heavy kernels (few windows fire),
Filter's dense in-lane indexed traffic (stall windows bounded by fill
dues), and Sort's long sequential phases (quiet windows +
event-horizon jumps). The calendar ring and the bucketed grant loop
are shared by both engines (DESIGN.md §4j).

The gate exists to keep the columnar engine from *regressing* into a
slowdown, not to certify a large win.
"""

import pytest

from repro.apps import fft, filter2d, sort
from repro.config.presets import isrf4_config

WORKLOADS = {
    "fft32": lambda config: fft.run(config, n=32, repeats=1),
    "filter64": lambda config: filter2d.run(config, height=64, width=64,
                                            repeats=1),
    "sort1k": lambda config: sort.run(config, n=1024, repeats=1),
}

#: Rounds per measurement; the gate uses the minimum, so several rounds
#: shield the ratio from one-off scheduler noise.
ROUNDS = 5


@pytest.mark.parametrize("engine", ["object", "columnar"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timing_engine_speed(benchmark, workload, engine):
    config = isrf4_config(timing_engine=engine)
    runner = WORKLOADS[workload]
    result = benchmark.pedantic(
        runner, args=(config,), rounds=ROUNDS, iterations=1,
        warmup_rounds=1,
    )
    result.require_verified()
