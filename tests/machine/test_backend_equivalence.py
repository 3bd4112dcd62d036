"""Scalar/vector backend equivalence across every app and preset.

The vector backend (:mod:`repro.machine.vector`) is a pure simulation
speed knob: for every benchmark application and every Table 2 machine
configuration it must produce bit-identical ``ProgramStats`` AND
bit-identical application outputs. These tests enforce that on real
workloads; ``tests/fuzz`` covers randomly generated programs.
"""

import os

import pytest

from repro.apps import fft
from repro.config.machine import MachineConfig
from repro.config.presets import BACKEND_ENV, all_configs, base_config
from repro.errors import ConfigurationError
from repro.machine import executor as executor_mod
from repro.machine.vector import VectorKernelInterpreter
from tests.machine.runners import PRESETS, RUNNERS
from tests.machine.test_golden_stats import fingerprint

@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_backends_bit_identical(app, preset):
    """Same stats fingerprint and same outputs on both backends."""
    config = all_configs()[preset]
    scalar = RUNNERS[app](config).require_verified()
    vector = RUNNERS[app](
        config.replace(backend="vector")
    ).require_verified()
    assert fingerprint(scalar.stats) == fingerprint(vector.stats)
    assert scalar.details == vector.details


def test_vector_engine_actually_used(monkeypatch):
    """The equivalence above must not pass vacuously: a vector-backend
    run of a supported kernel must construct the vector engine."""
    built = []
    real = VectorKernelInterpreter

    def counting(*args, **kwargs):
        engine = real(*args, **kwargs)
        built.append(engine)
        return engine

    monkeypatch.setattr(
        executor_mod, "VectorKernelInterpreter", counting
    )
    fft.run(all_configs()["ISRF4"].replace(backend="vector"), n=16)
    assert built, "vector backend never engaged the vector engine"


def test_scalar_backend_never_builds_vector_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar backend built the vector engine")

    monkeypatch.setattr(
        executor_mod, "VectorKernelInterpreter", forbidden
    )
    fft.run(all_configs()["ISRF4"], n=16).require_verified()


def test_default_backend_is_scalar():
    assert MachineConfig().backend == "scalar"
    assert base_config().backend == "scalar"


def test_backend_env_overlay(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert base_config().backend == "vector"
    # Explicit overrides still win over the environment.
    assert base_config(backend="scalar").backend == "scalar"
    monkeypatch.setenv(BACKEND_ENV, "warp9")
    with pytest.raises(ConfigurationError):
        base_config()


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        MachineConfig(backend="simd").validate()
    assert os.environ.get(BACKEND_ENV) in (None, "")  # test hygiene


class TestSeedStability:
    """The backend knob must not perturb any seeded machinery.

    Fault schedules are drawn from ``fault_seed`` and profiler samples
    from cycle numbers; switching backends must leave both bit-stable,
    or reliability results would silently depend on a pure
    simulation-speed setting.
    """

    FLIPS = dict(fault_seed=13, fault_srf_flips=12, fault_dram_flips=12,
                 fault_horizon=2_000)

    def test_fault_plan_identical_across_backends(self):
        from repro.faults import FaultPlan

        scalar_cfg = all_configs()["ISRF4"].replace(**self.FLIPS)
        vector_cfg = scalar_cfg.replace(backend="vector")
        scalar_plan = FaultPlan.from_config(scalar_cfg)
        vector_plan = FaultPlan.from_config(vector_cfg)
        for domain in ("srf_flips", "dram_flips", "crossbar_drops",
                       "memory_delays"):
            assert (getattr(scalar_plan, domain)
                    == getattr(vector_plan, domain))

    def test_faulted_runs_identical_and_fall_back(self, monkeypatch):
        """Faulted vector runs must fall back to the scalar engine (the
        functional overlay cannot see mid-block strikes) and therefore
        match the scalar backend trivially — but bit-exactly."""

        def forbidden(*args, **kwargs):
            raise AssertionError("faulted run built the vector engine")

        monkeypatch.setattr(
            executor_mod, "VectorKernelInterpreter", forbidden
        )
        scalar_cfg = all_configs()["ISRF4"].replace(**self.FLIPS)
        scalar = fft.run(scalar_cfg, n=16, repeats=1)
        vector = fft.run(scalar_cfg.replace(backend="vector"), n=16,
                         repeats=1)
        assert scalar.stats.faults.injected > 0
        assert scalar.stats == vector.stats

    def test_profiler_report_identical_across_backends(self):
        from repro import observe

        config = all_configs()["ISRF4"].replace(profile_sample_period=64)
        with observe.collect() as scalar_run:
            fft.run(config, n=16, repeats=1)
        with observe.collect() as vector_run:
            fft.run(config.replace(backend="vector"), n=16, repeats=1)
        scalar_reports = [o.profiler.report()
                         for o in scalar_run.observers]
        vector_reports = [o.profiler.report()
                         for o in vector_run.observers]
        assert scalar_reports == vector_reports
