"""Instrumentation the benchmark attaches to the simulator from outside.

Nothing here edits the program. ``instrument`` wraps a few methods for the
duration of a run and puts the originals back afterwards:

* always, so every pass can be counted and checked:
  ``StreamProcessor.run_program`` (each executed simulation), the two
  microbenchmark entry points (each ``ThroughputResult``) and
  ``ResultCache.get`` (each result the cache delivers);
* in the traced run only, as spans: the same three plus
  ``ModuloScheduler.schedule``, and a byte counter on
  ``DurableStore.get_bytes``.

Per-word layers (SRF, stream buffers, address FIFOs, crossbar) are not
wrapped: a wrapper per word would swamp them. Their host time and exact
call counts come from a deterministic profiler (``cProfile``) attached
around the traced pass and totalled by module (``LayerProfile``).
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import os
import pstats
import time
from dataclasses import dataclass

from repro.apps import microbench
from repro.config.presets import isrf4_config
from repro.harness.resultcache import ResultCache
from repro.kernel.scheduler import ModuloScheduler
from repro.machine.processor import StreamProcessor
from repro.store import DurableStore

#: The machine the benchmark measures: (backend, timing engine, timing
#: source). Configs that predate or outlive one of these fields run it.
DEFAULT_MACHINE = ("scalar", "object", "execute")

RUN_PROGRAM = "StreamProcessor.run_program"
SCHEDULE = "ModuloScheduler.schedule"
CACHE_GET = "ResultCache.get"


def machine_of(config, engine: "str | None" = None) -> tuple:
    """The (backend, timing engine, timing source) a config runs on."""
    return (
        getattr(config, "backend", DEFAULT_MACHINE[0]),
        engine or getattr(config, "timing_engine", DEFAULT_MACHINE[1]),
        getattr(config, "timing_source", DEFAULT_MACHINE[2]),
    )


@dataclass(frozen=True)
class Entry:
    """One simulation result delivered to the workload.

    ``source`` is ``"executed"`` (a ``run_program`` call), ``"cached"``
    (served by ``ResultCache.get``) or ``"microbench"``; ``stats`` is the
    ``ProgramStats`` or ``ThroughputResult``; ``machine`` is None for
    microbenchmarks, which drive the SRF without a processor.
    """

    source: str
    stats: object
    machine: "tuple | None"
    verified: bool = True

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles if self.machine else self.stats.cycles


def microbench_lanes() -> int:
    """Lanes of the machine the microbenchmarks build (an ISRF4 preset)."""
    return isrf4_config().lanes


def digest(entries) -> str:
    """Hash of every delivered ``ProgramStats``/``ThroughputResult``.

    The source of an entry is left out, so a cached result hashes like the
    simulation that produced it.
    """
    sha = hashlib.sha256()
    for entry in entries:
        sha.update(repr(entry.stats).encode())
        sha.update(b"\n")
    return sha.hexdigest()[:16]


class Tracer:
    """Spans (name, start, end, parent) plus counters of the traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.cache_gets = 0
        self.cache_hits = 0
        self.store_read_bytes = 0
        self.l2_hits = 0
        self.l2_misses = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)

    def count(self, name: str, parent: "str | None" = None) -> int:
        """Spans called ``name``, only those under a ``parent`` span if set."""
        return sum(
            1 for n, _, _, p in self.spans
            if n == name and (parent is None or (
                p is not None and self.spans[p][0] == parent))
        )


@contextlib.contextmanager
def instrument(ledger: list, tracer: "Tracer | None" = None):
    """Wrap the simulator's entry points; restore them on exit.

    Every result delivered while they are wrapped is appended to
    ``ledger`` as an ``Entry``, in order.
    """
    patches = []

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def patch(owner, attribute, make):
        original = getattr(owner, attribute)
        setattr(owner, attribute, make(original))
        patches.append((owner, attribute, original))

    def run_program(original):
        def wrapper(self, program):
            cache = getattr(self.controller, "cache", None)
            if cache is not None:
                hits, misses = cache.stats.hits, cache.stats.misses
            with span(RUN_PROGRAM):
                stats = original(self, program)
            ledger.append(Entry(
                "executed", stats,
                machine_of(self.config, getattr(self, "engine", None)),
            ))
            if tracer and cache is not None:
                tracer.l2_hits += cache.stats.hits - hits
                tracer.l2_misses += cache.stats.misses - misses
            return stats
        return wrapper

    def throughput(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            ledger.append(Entry("microbench", result, None))
            return result
        return wrapper

    def cache_get(original):
        def wrapper(self, benchmark, config, scale):
            with span(CACHE_GET):
                result = original(self, benchmark, config, scale)
            if tracer:
                tracer.cache_gets += 1
                tracer.cache_hits += result is not None
            if result is not None:
                ledger.append(Entry(
                    "cached", result.stats, machine_of(config),
                    verified=result.verified,
                ))
            return result
        return wrapper

    def schedule(original):
        def wrapper(*args, **kwargs):
            with span(SCHEDULE):
                return original(*args, **kwargs)
        return wrapper

    def get_bytes(original):
        def wrapper(self, key):
            data = original(self, key)
            if data is not None:
                tracer.store_read_bytes += len(data)
            return data
        return wrapper

    try:
        patch(StreamProcessor, "run_program", run_program)
        patch(microbench, "inlane_random_read_throughput", throughput)
        patch(microbench, "crosslane_random_read_throughput", throughput)
        patch(ResultCache, "get", cache_get)
        if tracer:
            patch(ModuloScheduler, "schedule", schedule)
            patch(DurableStore, "get_bytes", get_bytes)
        yield
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


class LayerProfile:
    """``cProfile`` self time and exact call counts totalled by module.

    A module is named by its path under ``src/repro`` with dots, e.g.
    ``core.srf`` or ``memory.dram``. Self time of a function outside
    ``repro`` (a builtin, NumPy, the standard library) is charged to the
    ``repro`` module that called it, edge by edge, so ``heapq.heappush``
    called from ``core/srf.py`` counts as SRF time; what no ``repro``
    module called directly lands in ``other``. Call counts are only
    taken for ``repro`` functions.
    """

    def __init__(self, profiler: cProfile.Profile, package_dir: str):
        self._prefix = os.path.join(os.path.abspath(package_dir), "")
        self.self_s = {"other": 0.0}
        self.calls = {}
        self.total_calls = 0
        self._stats = pstats.Stats(profiler).stats
        for function, (_, calls, own, _, callers) in self._stats.items():
            self.total_calls += calls
            module = self._module(function)
            if module is not None:
                self._charge(module, own)
                self.calls[module] = self.calls.get(module, 0) + calls
                continue
            charged = 0.0
            for caller, edge in callers.items():
                caller_module = self._module(caller)
                if caller_module is not None:
                    self._charge(caller_module, edge[2])
                    charged += edge[2]
            self._charge("other", own - charged)

    def _module(self, function) -> "str | None":
        filename = function[0]
        if not filename.startswith(self._prefix):
            return None
        return filename[len(self._prefix):-len(".py")].replace(os.sep, ".")

    def _charge(self, module: str, seconds: float) -> None:
        self.self_s[module] = self.self_s.get(module, 0.0) + seconds

    @staticmethod
    def _matches(module: str, layer: str) -> bool:
        return module == layer or module.startswith(layer + ".")

    def self_time(self, layer: str) -> float:
        """Self seconds of a module or of every module of a package."""
        return sum(seconds for module, seconds in self.self_s.items()
                   if self._matches(module, layer))

    def call_count(self, layer: str) -> int:
        return sum(calls for module, calls in self.calls.items()
                   if self._matches(module, layer))

    def function_calls(self, module: str, name: str) -> int:
        """Exact calls of the functions called ``name`` in ``module``."""
        return sum(
            value[1] for function, value in self._stats.items()
            if function[2] == name and self._module(function) == module
        )

    @property
    def profiled_s(self) -> float:
        return sum(self.self_s.values())
