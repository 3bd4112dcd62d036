"""The repository benchmark: one closed-loop client driving the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inlane_sweep --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload,
                                                           # both modes, and
                                                           # the design check

One process runs one workload: a single client with no threads issues the
workload's operations back to back, pass after pass, until ``--seconds``
have elapsed (a started pass is always finished). Every operation's output
is checked, every delivered ``ProgramStats``/``ThroughputResult`` is hashed
into the pass's ``stats_digest``, and all passes of a run must give the
same digest. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run first makes untraced
passes for half the time, then traced passes (spans plus ``cProfile``),
and the last line carries the per-layer metrics. Times are host time,
corrected for the machine's speed by ``clock.SpeedClock``. Metric
definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from clock import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("inlane_sweep", "sequential_mem", "crosslane_rw",
                  "warm_rerun")
#: Import and input-building repetitions whose medians enter ``setup_s``.
SETUP_REPEATS = 5
#: Overlays refused beside the result-affecting ones: injected store
#: failures would let warm_rerun re-simulate what the cache should serve.
ALSO_REFUSED = ("REPRO_STORE_CHAOS",)
#: A fresh interpreter timing the imports this process makes at start-up.
_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import probes, workloads\n"
    "print(time.perf_counter() - start)\n"
)


class Refused(Exception):
    """The benchmark cannot run here (missing program, overlay set)."""


def _import_simulator():
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise Refused(f"no simulator sources under {SRC}")
    sys.path.insert(0, SRC)
    from repro.config.overlays import RESULT_AFFECTING

    set_overlays = [name for name in RESULT_AFFECTING + ALSO_REFUSED
                    if os.environ.get(name)]
    if set_overlays:
        raise Refused(
            "overlay(s) set: " + ", ".join(set_overlays)
            + "; unset them: the benchmark measures the default machine"
        )
    import probes
    import workloads

    return probes, workloads


@dataclass
class Pass:
    """One pass over a workload's operations.

    ``latencies`` are per operation, in reference seconds when the pass
    ran with a ``SpeedClock`` and in raw seconds otherwise; ``raw_s`` is
    the pass's raw host time.
    """

    raw_s: float
    latencies: list
    raw_latencies: list
    failures: list
    digest: str
    cycles: int
    entries: list


def _timed(clock, call):
    """(result, raw seconds, exception) of ``call()``."""
    if clock:
        return clock.interval(call)
    began = time.perf_counter()
    try:
        return call(), time.perf_counter() - began, None
    except Exception as exc:  # handed back to the caller
        return None, time.perf_counter() - began, exc


def run_pass(workload, ops, probes, ledger, clock=None, tracer=None) -> Pass:
    """One pass over ``ops``: timed by ``clock``, or traced by ``tracer``."""
    workload.begin_pass()
    ledger.clear()
    # Every pass starts from an empty young heap, so the collections that
    # land inside it are the same on every pass.
    gc.collect()
    if clock:
        clock.begin()
    raw, failures = [], []
    for op in ops:
        mark = len(ledger)
        call = op.call
        if tracer:
            call = functools.partial(_in_span, tracer, op)
        output, seconds, error = _timed(clock, call)
        raw.append(seconds)
        try:
            if error is not None:
                raise error
            entries = ledger[mark:]
            op.check(output, entries)
            for entry in entries:
                if entry.machine not in (None, probes.DEFAULT_MACHINE):
                    raise RuntimeError(f"simulated on {entry.machine}")
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    entries = list(ledger)
    return Pass(sum(raw), clock.rescale(raw) if clock else raw, raw, failures,
                probes.digest(entries), sum(e.cycles for e in entries),
                entries)


def _in_span(tracer, op):
    with tracer.span(op.name):
        return op.call()


def run_passes(until: float, run_one) -> list:
    """Passes until the clock passes ``until`` (at least one)."""
    passes = [run_one()]
    while time.perf_counter() < until:
        passes.append(run_one())
    return passes


def operation_latencies(passes: list, raw: bool = False) -> list:
    """Each operation's median latency over the run's passes, in order.

    Taking the median per operation keeps a pause that hit one operation
    in one pass out of the figures, and gives every run one sample per
    operation however many passes it made.
    """
    return [statistics.median(latencies) for latencies in zip(
        *(p.raw_latencies if raw else p.latencies for p in passes))]


def percentile_ms(samples: list, p: float, steps: int = 4096) -> float:
    """The ``p`` quantile of ``samples`` in milliseconds (Harrell-Davis).

    A weighted mean of every order statistic, with Beta(p(n+1),
    (1-p)(n+1)) weights, instead of one or two of them: a workload's
    operations differ in size, and a plain percentile jumps by the gap
    between two operations when one's latency crosses the other's.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    points = [(k + 0.5) / steps for k in range(steps)]
    log_density = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                   for t in points]
    peak = max(log_density)
    weights = [0.0] * n
    for t, log_d in zip(points, log_density):
        weights[int(t * n)] += math.exp(log_d - peak)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights) * 1e3


def end_to_end(setup_s: float, passes: list, raw: bool = False) -> dict:
    latencies = operation_latencies(passes, raw)
    wall = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "sim_cycles_per_s": (passes[0].cycles / wall, "1/s"),
        "sim_p50_ms": (percentile_ms(latencies, 0.5), "ms"),
        "sim_p90_ms": (percentile_ms(latencies, 0.9), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(probes, profile, tracer, traced: Pass) -> dict:
    """Per-layer metrics of one traced pass (see README.md)."""
    executed = [e for e in traced.entries if e.source != "cached"]
    programs = [e.stats for e in executed if e.machine]
    runs = [run for stats in programs for run in stats.kernel_runs]
    lanes = probes.microbench_lanes()
    microbench_words = sum(
        round(e.stats.words_per_cycle_per_lane * e.stats.cycles * lanes)
        for e in executed if not e.machine
    )
    indexed = microbench_words + sum(
        r.inlane_words + r.crosslane_words + r.indexed_write_words
        for r in runs)
    cycles = sum(e.cycles for e in executed)
    schedule_kernel = profile.function_calls("machine.processor",
                                             "schedule_kernel")
    l2 = tracer.l2_hits + tracer.l2_misses

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    wall = traced.raw_s
    metrics = {}
    for layer in ("core.srf", "core.stream_buffer", "core.address_fifo"):
        metrics[f"{layer}.self_s"] = (profile.self_time(layer), "s")
        metrics[f"{layer}.calls"] = (profile.call_count(layer), "count")
    metrics.update({
        "core.py_calls_per_indexed_word": (
            ratio(profile.call_count("core"), indexed), "calls/word"),
        "kernel.scheduler.self_s": (profile.self_time("kernel.scheduler"),
                                    "s"),
        "kernel.scheduler.schedules": (tracer.count(probes.SCHEDULE),
                                       "count"),
        "kernel.scheduler.hit_frac": (1 - ratio(
            tracer.count(probes.SCHEDULE, parent=probes.RUN_PROGRAM),
            schedule_kernel) if schedule_kernel else 0.0, "ratio"),
        "memory.self_s": (profile.self_time("memory"), "s"),
        "memory.offchip_words": (sum(s.offchip_words for s in programs),
                                 "words"),
        "cache.self_s": (profile.self_time("cache"), "s"),
        "cache.hit_frac": (ratio(tracer.l2_hits, l2), "ratio"),
        "interconnect.crossbar.self_s": (
            profile.self_time("interconnect.crossbar"), "s"),
        "interconnect.crossbar.calls": (
            profile.call_count("interconnect.crossbar"), "count"),
        "kernel.interpreter.self_s": (profile.self_time("kernel.interpreter"),
                                      "s"),
        "kernel.interpreter.iterations": (profile.function_calls(
            "kernel.interpreter", "run_iteration"), "count"),
        "machine.executor.self_s": (profile.self_time("machine.executor"),
                                    "s"),
        "machine.processor.self_s": (profile.self_time("machine.processor"),
                                     "s"),
        "machine.processor.stepped_frac": (ratio(
            profile.function_calls("core.srf", "tick"), cycles), "ratio"),
        "harness.resultcache.get_s": (tracer.total(probes.CACHE_GET), "s"),
        "harness.resultcache.gets": (tracer.cache_gets, "count"),
        "harness.resultcache.hit_frac": (
            ratio(tracer.cache_hits, tracer.cache_gets), "ratio"),
        "store.read_bytes": (tracer.store_read_bytes, "bytes"),
        "apps.self_s": (profile.self_time("apps"), "s"),
        "analyze.self_s": (profile.self_time("analyze"), "s"),
        "other.self_s": (profile.self_s["other"], "s"),
        "sim.cycles": (cycles, "cycles"),
        "sim.indexed_words": (indexed, "words"),
        "sim.indexed_write_words": (
            sum(r.indexed_write_words for r in runs), "words"),
        "sim.py_calls_per_cycle": (ratio(profile.total_calls, cycles),
                                   "calls/cycle"),
        "sim.srf_stall_cycles": (sum(s.srf_stall_cycles for s in programs),
                                 "cycles"),
        "sim.memory_stall_cycles": (
            sum(s.memory_stall_cycles for s in programs), "cycles"),
        "trace.wall_s": (wall, "s"),
        "trace.unaccounted_frac": (
            ratio(wall - profile.profiled_s, wall), "ratio"),
    })
    return metrics


def median_metrics(samples: list) -> dict:
    """Per-metric median over several passes' metric dicts."""
    return {
        name: (statistics.median(sample[name][0] for sample in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the simulator."""
    child = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
                           stdout=subprocess.PIPE, text=True, check=True,
                           cwd=ROOT)
    return float(child.stdout)


def run_workload(args) -> int:
    began = time.perf_counter()
    probes, workloads = _import_simulator()
    import_s = [time.perf_counter() - began]
    import_s += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    build_s = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        ops = workload.operations()
        build_s.append(time.perf_counter() - began)
    ledger = []
    traced = []
    with SpeedClock() as clock:
        try:
            with probes.instrument(ledger):
                _, raw_s, error = clock.interval(workload.setup)
                if error is not None:
                    raise error
                # Imports are file-system and unmarshalling work that the
                # calibration loop does not track, so only the workload's
                # own set-up is rescaled.
                fixed_s = statistics.median(import_s) + statistics.median(
                    build_s)
                setup_s = (fixed_s + clock.rescale([raw_s])[0],
                           fixed_s + raw_s)
                # warm_rerun's cold pass: every warm pass must hash the same.
                setup_digest = probes.digest(ledger) if ledger else None
                measure_until = time.perf_counter() + (
                    args.seconds / 2 if args.trace else args.seconds)
                passes = run_passes(measure_until, lambda: run_pass(
                    workload, ops, probes, ledger, clock))
            if args.trace:
                traced = run_traced(args, workload, ops, probes, ledger)
        finally:
            workload.teardown()
    return report(args, probes, workload, ops, setup_s, setup_digest, passes,
                  traced)


def run_traced(args, workload, ops, probes, ledger) -> list:
    """Traced passes for half of ``--seconds``: (pass, per-layer metrics)."""
    traced = []
    until = time.perf_counter() + args.seconds / 2
    while not traced or time.perf_counter() < until:
        tracer = probes.Tracer()
        profiler = cProfile.Profile()
        with probes.instrument(ledger, tracer):
            profiler.enable()
            try:
                result = run_pass(workload, ops, probes, ledger,
                                  tracer=tracer)
            finally:
                profiler.disable()
        profile = probes.LayerProfile(profiler, os.path.join(SRC, "repro"))
        traced.append((result, per_layer(probes, profile, tracer, result)))
    return traced


def report(args, probes, workload, ops, setup_s, setup_digest, passes,
           traced) -> int:
    """Print the run's text summary and, last, its JSON result line.

    ``setup_s`` is (corrected, raw) set-up seconds.
    """
    notes = []
    every = passes + [result for result, _ in traced]
    digests = {p.digest for p in every}
    if setup_digest is not None:
        digests.add(setup_digest)
    failures = [failure for p in every for failure in p.failures]
    attempted = sum(len(p.latencies) for p in every)
    correct = not failures and len(digests) == 1
    if len(digests) != 1:
        notes.append(f"stats_digest differs between passes: {sorted(digests)}")

    if args.trace:
        metrics = median_metrics([layers for _, layers in traced])
        traced_wall = statistics.median(p.raw_s for p, _ in traced)
        metrics["trace.overhead_x"] = (
            traced_wall / statistics.median(p.raw_s for p in passes), "x")
        metrics["fail_frac"] = (len(failures) / attempted, "ratio")
    else:
        metrics = end_to_end(setup_s[0], passes)
        raw_metrics = end_to_end(setup_s[1], passes, raw=True)

    machines = {}
    for entry in (e for p in every for e in p.entries):
        label = ("microbenchmark (drives the SRF directly)"
                 if entry.machine is None else
                 "backend={} timing_engine={} timing_source={}".format(
                     *entry.machine) + f" [{entry.source}]")
        machines[label] = machines.get(label, 0) + 1
    seed = args.seed if workload.seeded else "harness fixed seeds"
    print(f"workload: {args.workload}   seed: {seed}   trace: {args.trace}")
    print(f"stats_digest: {sorted(digests)[0]}")
    print(f"passes: {len(passes)} untraced, {len(traced)} traced; "
          f"latency samples: {len(ops)} operations, each the median of "
          f"{len(passes)} pass(es)")
    print("raw host seconds per pass: " + ", ".join(
        f"{p.raw_s:.3f}" for p in every))
    for label, count in sorted(machines.items()):
        print(f"simulated on {label}: {count}")
    print(f"fail_frac: {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    for note in notes:
        print(f"  ERROR {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print("raw " + "  ".join(f"{name}={value:.6g}"
                                 for name, (value, _) in raw_metrics.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _share(layers: dict, workload: str, layer: str) -> float:
    """A layer's self time over the traced pass's wall time."""
    metrics = layers[workload]
    return (metrics[f"{layer}.self_s"]["value"]
            / metrics["trace.wall_s"]["value"])


#: Address-FIFO share on inlane_sweep over its share on sequential_mem.
FIFO_SHARE_FACTOR = 5.0
#: Least address-FIFO share of the traced wall on inlane_sweep. Only
#: indexed streams have address FIFOs, so sequential_mem's share is about
#: 0 and the factor alone would hold even if inlane_sweep never used them.
FIFO_SHARE_FLOOR = 0.05
#: Largest part of the traced wall time the profile may leave unaccounted.
UNACCOUNTED_LIMIT = 0.10


def design_check(layers: dict) -> list:
    """(passed, description) for each claim the workload split rests on."""
    fifo_in = _share(layers, "inlane_sweep", "core.address_fifo")
    fifo_seq = _share(layers, "sequential_mem", "core.address_fifo")
    mem_seq = _share(layers, "sequential_mem", "memory")
    mem_in = _share(layers, "inlane_sweep", "memory")
    crossbar = {w: _share(layers, w, "interconnect.crossbar") for w in layers}
    checks = [
        (fifo_in >= max(FIFO_SHARE_FLOOR, FIFO_SHARE_FACTOR * fifo_seq),
         f"address_fifo share inlane_sweep {fifo_in:.2%} >= "
         f"{FIFO_SHARE_FLOOR:.0%} and >= {FIFO_SHARE_FACTOR:g}x "
         f"sequential_mem {fifo_seq:.2%}"),
        (mem_seq > mem_in,
         f"memory share sequential_mem {mem_seq:.2%} > "
         f"inlane_sweep {mem_in:.2%}"),
        (max(crossbar, key=crossbar.get) == "crosslane_rw",
         "crossbar share highest on crosslane_rw: " + ", ".join(
             f"{w} {s:.2%}" for w, s in crossbar.items())),
        (layers["crosslane_rw"]["sim.indexed_write_words"]["value"] > 0,
         "indexed-write words on crosslane_rw: "
         f"{layers['crosslane_rw']['sim.indexed_write_words']['value']:g}"),
    ]
    warm_hits = layers["warm_rerun"]["harness.resultcache.hit_frac"]["value"]
    checks.append((warm_hits == 1,
                   f"every ResultCache.get on warm_rerun hits: hit_frac "
                   f"{warm_hits:g}"))
    for workload, metrics in layers.items():
        gets = metrics["harness.resultcache.gets"]["value"]
        wanted = workload == "warm_rerun"
        checks.append((
            (gets > 0) == wanted,
            f"ResultCache.get calls on {workload}: {gets:g} "
            f"({'expected' if wanted else 'none expected'})",
        ))
        unaccounted = metrics["trace.unaccounted_frac"]["value"]
        checks.append((
            abs(unaccounted) <= UNACCOUNTED_LIMIT,
            f"layers + other account for the traced wall on {workload}: "
            f"{unaccounted:+.2%} unaccounted",
        ))
    return checks


def run_all(args) -> int:
    """Every workload untraced and traced, then the design check.

    The two runs of a workload use the same seed, so they must also give
    the same ``stats_digest``.
    """
    results, layers, ok = {}, {}, True
    for workload in WORKLOAD_NAMES:
        digests = []
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            completed = subprocess.run(command, stdout=subprocess.PIPE,
                                       text=True, cwd=ROOT)
            print(completed.stdout, end="", flush=True)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} (trace {trace}) exited "
                      f"{completed.returncode}", flush=True)
                return completed.returncode or 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            results[(workload, trace)] = result
            digests += [line.split()[-1] for line in lines
                        if line.startswith("stats_digest:")]
            if trace:
                layers[workload] = result["metrics"]
        same = len(set(digests)) == 1
        ok = ok and same
        print(f"  {'ok  ' if same else 'FAIL'} {workload} stats_digest of "
              f"both runs: {', '.join(digests)}\n", flush=True)
    print("workload-design check:")
    for passed, description in design_check(layers):
        ok = ok and passed
        print(f"  {'ok  ' if passed else 'FAIL'} {description}")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{workload}.{name}": value
                    for (workload, _), r in results.items()
                    for name, value in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every app's and microbenchmark's "
                             "default seed (0 reproduces the harness)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
