"""Object/columnar timing-engine equivalence on every app and preset.

The columnar engine (:mod:`repro.machine.columnar`) is a pure
simulation-speed knob: for every benchmark application and every Table 2
machine configuration it must produce bit-identical ``ProgramStats`` AND
bit-identical application outputs, in direct execution and in
trace-replay timing mode. These tests enforce that on real workloads —
and enforce that the columnar engine actually *engages*, so a silent
fallback to the object engine can never fake an equivalence pass.

``tests/fuzz/test_timing_engine.py`` covers randomly generated programs.
"""

import dataclasses

import pytest

from repro.apps import common as apps_common
from repro.apps import fft
from repro.config.machine import MachineConfig
from repro.config.presets import (
    TIMING_ENGINE_ENV,
    all_configs,
    base_config,
)
from repro.errors import ConfigurationError
from repro.machine import replay
from repro.machine.columnar import (
    ColumnarProcessor,
    build_processor,
    columnar_eligible,
    engine_for,
)
from repro.machine.replay import TraceStore
from tests.machine.runners import PRESETS, RUNNERS


def full_stats(stats) -> dict:
    """Every ProgramStats field, recursively — nothing exempted."""
    return dataclasses.asdict(stats)


@pytest.fixture
def engine_log(monkeypatch):
    """Record the engine of every processor a run builds.

    Patches the single seam all apps share
    (:func:`repro.apps.common.make_processor` delegates to
    ``build_processor``), so the log reflects what actually simulated.
    """
    engines = []

    def recording(config):
        processor = build_processor(config)
        engines.append(processor.engine)
        return processor

    monkeypatch.setattr(apps_common, "build_processor", recording)
    return engines


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_engines_bit_identical(app, preset, engine_log):
    """Same full ProgramStats and same outputs on both engines."""
    config = all_configs()[preset]
    obj = RUNNERS[app](config).require_verified()
    assert engine_log == ["object"]
    del engine_log[:]
    col = RUNNERS[app](
        config.replace(timing_engine="columnar")
    ).require_verified()
    # Engagement: a fallback would record "object" and could trivially
    # "pass" the equivalence assertion below.
    assert engine_log == ["columnar"]
    assert full_stats(obj.stats) == full_stats(col.stats)
    assert obj.details == col.details


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_engines_bit_identical_in_replay(app, preset, tmp_path,
                                         engine_log):
    """Record once, then replay under both engines: identical stats.

    Replay mode drives the executor from recorded kernel data instead
    of the interpreter, exercising the drain-window machinery on a
    different step path than direct execution.
    """
    store = TraceStore(str(tmp_path))
    config = all_configs()[preset].replace(timing_source="replay")
    with replay.session(store, app, config, "test") as sess:
        recorded = RUNNERS[app](config).require_verified()
        assert sess.mode == "record"
    del engine_log[:]
    with replay.session(store, app, config, "test") as sess:
        obj = RUNNERS[app](config).require_verified()
        assert sess.mode == "replay"
    columnar_cfg = config.replace(timing_engine="columnar")
    with replay.session(store, app, columnar_cfg, "test") as sess:
        col = RUNNERS[app](columnar_cfg).require_verified()
        assert sess.mode == "replay"
    assert engine_log == ["object", "columnar"]
    assert full_stats(obj.stats) == full_stats(col.stats)
    assert full_stats(recorded.stats) == full_stats(col.stats)


@pytest.mark.parametrize("field", [
    "srf_sequential_latency", "inlane_indexed_latency",
    "crosslane_indexed_latency",
])
def test_engines_agree_at_the_minimum_latency(field, engine_log):
    """Latency 1 puts every completion in the very next ring bucket."""
    config = all_configs()["ISRF4"].replace(**{field: 1})
    obj = fft.run(config, n=16).require_verified()
    col = fft.run(
        config.replace(timing_engine="columnar"), n=16
    ).require_verified()
    assert engine_log == ["object", "columnar"]
    assert full_stats(obj.stats) == full_stats(col.stats)
    with pytest.raises(ConfigurationError, match=field):
        config.replace(**{field: 0})


class TestSelection:
    """Engine selection: config field, env overlay, harness seam."""

    def test_default_engine_is_object(self):
        assert MachineConfig().timing_engine == "object"
        assert base_config().timing_engine == "object"
        assert build_processor(base_config()).engine == "object"

    def test_columnar_selected_when_eligible(self):
        for name, config in all_configs().items():
            columnar = config.replace(timing_engine="columnar")
            assert engine_for(columnar) == "columnar", name
            assert build_processor(columnar).engine == "columnar", name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(timing_engine="quantum").validate()

    def test_env_overlay(self, monkeypatch):
        monkeypatch.setenv(TIMING_ENGINE_ENV, "columnar")
        assert base_config().timing_engine == "columnar"
        # Explicit overrides still win over the environment.
        assert base_config(
            timing_engine="object"
        ).timing_engine == "object"
        monkeypatch.setenv(TIMING_ENGINE_ENV, "warp9")
        with pytest.raises(ConfigurationError):
            base_config()

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(TIMING_ENGINE_ENV, "")
        assert base_config().timing_engine == "object"


#: Config features the columnar engine must refuse: each hooks the
#: per-cycle object path in a way batch-stepped windows cannot model.
INELIGIBLE = {
    "faults": dict(fault_seed=7, fault_srf_flips=2, fault_horizon=2_000),
    "sanitize": dict(sanitize=True),
    "trace": dict(trace=True),
    "metrics": dict(metrics_level=1),
    "profile": dict(profile_sample_period=64),
    "per_cycle": dict(fast_forward=False),
}


class TestFallback:
    """The documented fallback matrix, enforced edge by edge."""

    @pytest.mark.parametrize("feature", sorted(INELIGIBLE))
    def test_ineligible_configs_fall_back(self, feature):
        config = all_configs()["ISRF4"].replace(
            timing_engine="columnar", **INELIGIBLE[feature]
        )
        eligible, reason = columnar_eligible(config)
        assert not eligible and reason
        assert engine_for(config) == "object"
        assert build_processor(config).engine == "object"

    @pytest.mark.parametrize("feature", sorted(INELIGIBLE))
    def test_direct_construction_refused(self, feature):
        """A fallback can never masquerade as a columnar run: building
        ColumnarProcessor for an ineligible config raises instead of
        running half-modelled."""
        config = all_configs()["ISRF4"].replace(
            timing_engine="columnar", **INELIGIBLE[feature]
        )
        with pytest.raises(ConfigurationError):
            ColumnarProcessor(config)

    def test_faulted_columnar_run_matches_object(self, engine_log):
        """A faulted run under timing_engine="columnar" falls back and
        still reproduces the object engine's faulted stats exactly."""
        faulted = all_configs()["ISRF4"].replace(**INELIGIBLE["faults"])
        obj = fft.run(faulted, n=16, repeats=1)
        col = fft.run(
            faulted.replace(timing_engine="columnar"), n=16, repeats=1
        )
        assert engine_log == ["object", "object"]
        assert obj.stats.faults.injected > 0
        assert full_stats(obj.stats) == full_stats(col.stats)

    def test_eligibility_reasons_are_distinct(self):
        reasons = set()
        for overrides in INELIGIBLE.values():
            config = all_configs()["ISRF4"].replace(**overrides)
            eligible, reason = columnar_eligible(config)
            assert not eligible
            reasons.add(reason)
        assert len(reasons) == len(INELIGIBLE)
