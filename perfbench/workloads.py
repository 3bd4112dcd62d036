"""The benchmark's four workloads, built from the simulator's public entry
points.

Each workload is a fixed, ordered list of operations that the closed loop
in ``run.py`` issues back to back. An operation is one app ``run``, one
microbenchmark call, or (for ``warm_rerun``) one registered harness
experiment. Why each workload exists is recorded in ``BENCHMARK.json``
and ``README.md``.

All workloads run the default machine: the presets with no overrides
beyond the swept parameter, i.e. ``backend="scalar"``,
``timing_engine="object"`` and ``timing_source="execute"``. ``run.py``
refuses to start while a result-affecting ``REPRO_*`` overlay is set, so
nothing can change that behind the presets' back.
"""

from __future__ import annotations

import inspect
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.apps import fft, filter2d, igraph, microbench, rijndael, sort, spmv
from repro.config.presets import base_config, cache_config, isrf4_config
from repro.harness import figures, runner
from repro.harness.resultcache import ResultCache

#: App sizes of the three app workloads. They are the harness's ``small``
#: sizes except Rijndael, Sort and Filter, which are halved so that one
#: pass of ``inlane_sweep`` fits into a 10-second run. They are fixed
#: here, not read from the harness, so the benchmark's inputs only change
#: when this file does.
FFT_N = 16
RIJNDAEL_BLOCKS = 2
SORT_N = 256
FILTER_SIZE = (16, 32)
IG_NODES = 384
IG_STRIPS = 2
SPMV_SHAPE = (96, 96, 6)
SPMV_STRIPS = 2
#: Simulated cycles of each fig17 microbenchmark point (the harness uses
#: 1500; 500 keeps the 20-point grid to about two host seconds).
MICROBENCH_CYCLES = 500

#: Figure 15 and 17 sweeps.
INLANE_SEPARATIONS = (2, 4, 6, 8, 10)
FIG17_SUBARRAYS = (1, 2, 4, 8)
FIG17_FIFO_ENTRIES = (1, 2, 4, 6, 8)
#: Figure 16 cross-lane separations and the locality orderings.
CROSSLANE_SEPARATIONS = (4, 12, 20)
SPMV_ORDERINGS = ("sorted", "random", "clustered")

#: The paper's eight applications (Figures 11 and 12).
PAPER_APPS = ("FFT 2D", "Rijndael", "Sort", "Filter",
              "IG_SML", "IG_DMS", "IG_DCS", "IG_SCL")


@dataclass(frozen=True)
class Operation:
    """One unit of closed-loop work and the check of its output.

    ``check(output, entries)`` raises when the output is wrong; ``entries``
    are the ledger entries (``probes.Entry``) recorded while the
    operation ran.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object, list], None]


class OutputError(Exception):
    """An operation returned a wrong or unaccounted-for output."""


def default_seed(function) -> int:
    """The ``seed`` default of an app or microbenchmark entry point."""
    return inspect.signature(function).parameters["seed"].default


def _check_app(result, entries) -> None:
    result.require_verified()
    executed = [e for e in entries if e.source == "executed"]
    if not executed:
        raise OutputError(f"{result.benchmark}: no simulation was recorded")
    simulated = sum(e.stats.total_cycles for e in executed)
    if simulated != result.cycles:
        raise OutputError(
            f"{result.benchmark}: reported {result.cycles} cycles, "
            f"simulated {simulated}"
        )


def _check_throughput(cycles: int):
    def check(result, entries) -> None:
        if result.cycles != cycles:
            raise OutputError(f"ran {result.cycles} cycles, asked {cycles}")
        if not 0 < result.completed <= result.issued:
            raise OutputError(
                f"completed {result.completed} of {result.issued} issued reads"
            )
        if result.words_per_cycle_per_lane <= 0:
            raise OutputError("no indexed word was granted")
        if [e.stats for e in entries] != [result]:
            raise OutputError("microbenchmark result was not recorded")
    return check


def _app_call(function, config, seed: int, **params) -> Operation:
    """An operation running ``function(config, **params)`` on the seed."""
    app_seed = default_seed(function) + seed

    def call():
        return function(config, seed=app_seed, **params)

    label = params.get("dataset") or function.__module__.rsplit(".", 1)[1]
    return Operation(f"{label}@{config.name}", call, _check_app)


def _app(name: str, config, seed: int) -> Operation:
    """One of the paper's eight apps at the benchmark's sizes."""
    if name == "FFT 2D":
        return _app_call(fft.run, config, seed, n=FFT_N)
    if name == "Rijndael":
        return _app_call(rijndael.run, config, seed,
                         blocks_per_lane=RIJNDAEL_BLOCKS)
    if name == "Sort":
        return _app_call(sort.run, config, seed, n=SORT_N)
    if name == "Filter":
        height, width = FILTER_SIZE
        return _app_call(filter2d.run, config, seed,
                         height=height, width=width)
    return _app_call(igraph.run, config, seed, dataset=name,
                     nodes=IG_NODES, strips_to_run=IG_STRIPS)


def _fig17_point(subarrays: int, fifo_entries: int, seed: int) -> Operation:
    function = microbench.inlane_random_read_throughput
    point_seed = default_seed(function) + seed

    def call():
        # Looked up at call time so the ledger's wrapper sees the call.
        return microbench.inlane_random_read_throughput(
            subarrays=subarrays, fifo_entries=fifo_entries,
            cycles=MICROBENCH_CYCLES, seed=point_seed,
        )

    return Operation(f"fig17[s={subarrays},f={fifo_entries}]", call,
                     _check_throughput(MICROBENCH_CYCLES))


class Workload:
    """A named, ordered list of operations plus its set-up and teardown."""

    name = ""
    #: Whether ``--seed`` reaches the inputs (``warm_rerun`` replays the
    #: harness's fixed seeds).
    seeded = True

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        """Work done before the first timed operation, beyond inputs."""

    def operations(self) -> list:
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Called before each pass over the operations."""

    def teardown(self) -> None:
        """Release what ``setup`` acquired."""


class InlaneSweep(Workload):
    name = "inlane_sweep"

    def operations(self) -> list:
        ops = []
        for separation in INLANE_SEPARATIONS:
            config = isrf4_config(inlane_addr_data_separation=separation)
            for app in ("FFT 2D", "Rijndael", "Sort", "Filter"):
                op = _app(app, config, self.seed)
                ops.append(Operation(f"{op.name}[sep={separation}]",
                                     op.call, op.check))
        for subarrays in FIG17_SUBARRAYS:
            for fifo_entries in FIG17_FIFO_ENTRIES:
                ops.append(_fig17_point(subarrays, fifo_entries, self.seed))
        return ops


class SequentialMem(Workload):
    name = "sequential_mem"

    def operations(self) -> list:
        return [_app(app, config, self.seed)
                for config in (base_config(), cache_config())
                for app in PAPER_APPS]


class CrosslaneRw(Workload):
    name = "crosslane_rw"

    def operations(self) -> list:
        rows, cols, avg_nnz = SPMV_SHAPE
        config = isrf4_config()
        ops = []
        for fmt in ("csr", "csc"):
            for ordering in SPMV_ORDERINGS:
                op = _app_call(spmv.run, config, self.seed, fmt=fmt,
                               rows=rows, cols=cols, avg_nnz=avg_nnz,
                               ordering=ordering, strips_to_run=SPMV_STRIPS)
                ops.append(Operation(f"spmv_{fmt}_{ordering}@ISRF4",
                                     op.call, op.check))
        for separation in CROSSLANE_SEPARATIONS:
            config = isrf4_config(crosslane_addr_data_separation=separation)
            for app in ("IG_SML", "IG_SCL"):
                op = _app(app, config, self.seed)
                ops.append(Operation(f"{op.name}[xsep={separation}]",
                                     op.call, op.check))
        return ops


class CountingCache(ResultCache):
    """A ``ResultCache`` that counts the lookups it cannot serve."""

    misses = 0

    def get(self, benchmark, config, scale):
        result = super().get(benchmark, config, scale)
        self.misses += result is None
        return result


class WarmRerun(Workload):
    """Every registered experiment against a result cache set-up filled.

    The experiments use the harness's fixed seeds and its default scale
    (``small``; ``REPRO_SCALE`` is refused by ``run.py``), so ``--seed``
    does not reach them. The cache, and the ``trace`` experiment's
    Perfetto export, live in a private directory under
    ``.perfbench-tmp/`` that teardown removes.
    """

    name = "warm_rerun"
    seeded = False
    directory = None

    def setup(self) -> None:
        parent = os.path.join(self.root, ".perfbench-tmp")
        os.makedirs(parent, exist_ok=True)
        self.directory = tempfile.mkdtemp(dir=parent)
        self.cache = CountingCache(os.path.join(self.directory, "cache"))
        figures.set_result_cache(self.cache)
        figures.set_trace_path(
            os.path.join(self.directory, figures.DEFAULT_TRACE_PATH)
        )
        figures.clear_cache()
        #: The cold (simulated) output of each experiment; a warm rerun
        #: must reproduce it exactly. None marks an experiment that
        #: raised, which then counts as failed on every pass.
        self.cold_text = {}
        for name in runner.experiment_names():
            try:
                self.cold_text[name] = runner.run_experiment(name)["text"]
            except Exception:  # counted when the passes re-run it
                self.cold_text[name] = None

    def begin_pass(self) -> None:
        figures.clear_cache()

    def operations(self) -> list:
        return [self._experiment(name) for name in runner.experiment_names()]

    def _experiment(self, name: str) -> Operation:
        def call():
            before = self.cache.misses
            result = runner.run_experiment(name)
            self.misses = self.cache.misses - before
            return result

        def check(result, entries) -> None:
            if self.misses:
                raise OutputError(f"{name}: {self.misses} result(s) "
                                  "re-simulated, not served by the cache")
            for entry in entries:
                if entry.source == "cached" and not entry.verified:
                    raise OutputError(f"{name}: cache served an unverified "
                                      "result")
            if result["text"] != self.cold_text[name]:
                raise OutputError(f"{name}: warm output differs from the "
                                  "simulated one")

        return Operation(name, call, check)

    def teardown(self) -> None:
        if self.directory is None:
            return
        figures.set_result_cache(None)
        figures.set_trace_path(None)
        figures.clear_cache()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.directory))
        except OSError:
            pass  # another run's directory is still there


WORKLOADS = {cls.name: cls for cls in
             (InlaneSweep, SequentialMem, CrosslaneRw, WarmRerun)}
