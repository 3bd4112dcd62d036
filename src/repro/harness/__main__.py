"""Print every reproduced table and figure: ``python -m repro.harness``.

Pass experiment names (``fig11 fig17 area ...``) to run a subset, and
``--json PATH`` to additionally dump the structured results. Set
``REPRO_SCALE`` (small / medium / paper) to choose workload sizes.

``--jobs N`` fans independent experiments across N worker processes;
``--cache-dir DIR`` / ``--no-cache`` control the on-disk result cache
(default ``.repro-cache``, see :mod:`repro.harness.resultcache`).

The harness degrades gracefully: a raising, crashing, or (with
``--timeout``) hung experiment is reported as a structured failure —
and reflected in a non-zero exit code — while every other experiment's
results are still printed and exported. ``--fail-fast`` opts out,
aborting on the first failure.
"""

from __future__ import annotations

import json
import os
import sys

from repro.config.machine import BACKEND_KINDS, TIMING_ENGINES
from repro.config.presets import BACKEND_ENV, REPLAY_ENV, TIMING_ENGINE_ENV
from repro.errors import SweepInterrupted
from repro.harness import figures, runner
from repro.harness.resultcache import default_cache_dir
from repro.harness.sweep import default_sweep_journal
from repro.store.atomic import atomic_write_text

USAGE = """\
usage: python -m repro.harness [EXPERIMENT ...] [options]

Runs every experiment when none is named. Known experiments:
  {experiments}

options:
  --jobs N         run experiments in N parallel worker processes
  --timeout S      per-experiment timeout in seconds (isolated workers)
  --deadline S     total sweep wall-clock budget; past it, unfinished
                   experiments become structured failures (exit 1)
                   instead of running or retrying unbounded
  --resume         continue an interrupted sweep from the journal in
                   the cache directory: journaled completions are
                   served without re-execution (needs the cache)
  --fail-fast      abort on the first failure instead of degrading
  --json PATH      also dump structured results as JSON to PATH
                   (includes durable-store entry/quarantine counts)
  --cache-dir DIR  on-disk benchmark result cache (default {cache_dir})
  --no-cache       disable the on-disk cache for this run
  --trace-path P   output file of the `trace` experiment
                   (default repro-trace.json; load in Perfetto)
  --backend B      functional-evaluation backend for every machine
                   config: scalar (reference) or vector (lane-batched
                   NumPy; bit-identical stats, faster). Equivalent to
                   setting REPRO_BACKEND.
  --replay         trace-replay timing mode: record each benchmark's
                   kernel data once, then re-time later runs and config
                   sweeps from the recorded trace (bit-identical
                   stats). Traces live in <cache-dir>/traces.
                   Equivalent to setting REPRO_REPLAY=1.
  --timing-engine E  cycle engine driving the timing model: object
                   (reference) or columnar (calendar-queue SRF with
                   batch-stepped drain windows; bit-identical stats,
                   faster — falls back to object for faulted /
                   sanitized / traced configs). Equivalent to setting
                   REPRO_TIMING_ENGINE.
  --list           list experiment names and exit

Workload scale is chosen by the REPRO_SCALE environment variable
(small / medium / paper; default small). REPRO_TRACE overlays
observability knobs on every machine config
(e.g. REPRO_TRACE="trace=1,metrics=2,profile=64"); REPRO_BACKEND
overlays the evaluation backend the same way."""


def _usage() -> str:
    return USAGE.format(
        experiments=" ".join(runner.experiment_names()),
        cache_dir=default_cache_dir(),
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    print(_usage(), file=sys.stderr)
    return 2


def _store_stats(cache_dir: "str | None") -> dict:
    """Durable-store health (entries, quarantined, tmp) for --json.

    Quarantine counts make silent corruption visible: a torn or
    undecodable entry costs a recompute, but the operator should see
    that it happened.
    """
    if cache_dir is None:
        return {}
    from repro.harness.resultcache import ResultCache
    from repro.machine.replay import TraceStore

    stats = {"results": ResultCache(cache_dir).stats()}
    traces_dir = os.path.join(cache_dir, "traces")
    if os.path.isdir(traces_dir):
        stats["traces"] = TraceStore(traces_dir).stats()
    return stats


def _parse_args(argv):
    """Split argv into (names, options) or raise ValueError."""
    options = {"json": None, "jobs": 1, "cache_dir": default_cache_dir(),
               "no_cache": False, "list": False, "timeout": None,
               "fail_fast": False, "trace_path": None, "backend": None,
               "replay": False, "deadline": None, "resume": False,
               "timing_engine": None}
    names = []
    position = 0
    while position < len(argv):
        token = argv[position]
        if token in ("--json", "--jobs", "--cache-dir", "--timeout",
                     "--trace-path", "--backend", "--deadline",
                     "--timing-engine"):
            if position + 1 >= len(argv):
                raise ValueError(f"{token} requires a value")
            value = argv[position + 1]
            if token == "--json":
                options["json"] = value
            elif token == "--cache-dir":
                options["cache_dir"] = value
            elif token == "--trace-path":
                options["trace_path"] = value
            elif token == "--backend":
                if value not in BACKEND_KINDS:
                    raise ValueError(
                        f"--backend must be one of "
                        f"{', '.join(BACKEND_KINDS)}; got {value!r}"
                    )
                options["backend"] = value
            elif token == "--timing-engine":
                if value not in TIMING_ENGINES:
                    raise ValueError(
                        f"--timing-engine must be one of "
                        f"{', '.join(TIMING_ENGINES)}; got {value!r}"
                    )
                options["timing_engine"] = value
            elif token in ("--timeout", "--deadline"):
                field = token.lstrip("-")
                try:
                    options[field] = float(value)
                except ValueError:
                    raise ValueError(
                        f"{token} needs a number of seconds, got "
                        f"{value!r}"
                    ) from None
                if options[field] <= 0:
                    raise ValueError(f"{token} must be positive")
            else:
                try:
                    options["jobs"] = int(value)
                except ValueError:
                    raise ValueError(
                        f"--jobs needs an integer, got {value!r}"
                    ) from None
                if options["jobs"] < 1:
                    raise ValueError("--jobs must be >= 1")
            position += 2
            continue
        if token == "--no-cache":
            options["no_cache"] = True
        elif token == "--resume":
            options["resume"] = True
        elif token == "--replay":
            options["replay"] = True
        elif token == "--fail-fast":
            options["fail_fast"] = True
        elif token == "--list":
            options["list"] = True
        elif token in ("-h", "--help"):
            options["help"] = True
        elif token.startswith("-"):
            raise ValueError(f"unknown option {token}")
        else:
            names.append(token)
        position += 1
    return names, options


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        names, options = _parse_args(argv)
    except ValueError as exc:
        return _fail(str(exc))
    if options.get("help"):
        print(_usage())
        return 0
    if options["list"]:
        for name in runner.experiment_names():
            print(name)
        return 0
    known = runner.experiment_names()
    unknown = [name for name in names if name not in known]
    if unknown:
        return _fail(f"unknown experiment(s): {', '.join(unknown)}")
    selected = [name for name in known if name in set(names)] if names \
        else known
    try:
        scale = figures.default_scale()
    except ValueError as exc:
        return _fail(str(exc))
    if options["json"] is not None:
        # Validate up front: discovering a bad path only after every
        # experiment ran would discard all their results.
        json_dir = os.path.dirname(os.path.abspath(options["json"]))
        if not os.path.isdir(json_dir):
            return _fail(
                f"--json: directory {json_dir!r} does not exist"
            )

    cache_dir = None if options["no_cache"] else options["cache_dir"]
    if options["resume"] and cache_dir is None:
        return _fail("--resume requires the on-disk cache (no --no-cache)")
    # Backend travels via the environment: forked workers inherit it,
    # and the preset factories overlay it onto every machine config.
    if options["backend"] is not None:
        os.environ[BACKEND_ENV] = options["backend"]
    # So does the replay timing source.
    if options["replay"]:
        os.environ[REPLAY_ENV] = "1"
    # And the timing engine.
    if options["timing_engine"] is not None:
        os.environ[TIMING_ENGINE_ENV] = options["timing_engine"]
    # Forked workers inherit the path, so isolated runs see it too.
    figures.set_trace_path(options["trace_path"])
    print(f"# repro harness (scale: {scale}, jobs: {options['jobs']})\n")
    sweep_journal = (default_sweep_journal(cache_dir)
                     if cache_dir is not None else None)
    try:
        results, timings = runner.run_many(
            selected, jobs=options["jobs"], cache_dir=cache_dir,
            timeout=options["timeout"], fail_fast=options["fail_fast"],
            deadline=options["deadline"], sweep_journal=sweep_journal,
            resume=options["resume"],
        )
    except runner.ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SweepInterrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 130
    collected = {}
    failures = []
    for name in selected:
        result = results[name]
        if runner.failed(result):
            failures.append(name)
            print(
                f"FAILED {name} (attempts: {result['attempts']}): "
                f"{result['error']}"
            )
            print(f"[{name}: {timings[name]:.1f}s]\n")
            collected[name] = _jsonable(result)
        else:
            print(result["text"])
            print(f"[{name}: {timings[name]:.1f}s]\n")
            collected[name] = {"status": "ok"}
            collected[name].update(
                _jsonable({k: v for k, v in result.items() if k != "text"})
            )
    store_stats = _store_stats(cache_dir)
    quarantined = sum(
        block.get("quarantined", 0) for block in store_stats.values()
    )
    if quarantined:
        # Silent corruption must be visible: quarantined entries mean
        # torn or undecodable store files were detected and recomputed.
        print(
            f"warning: {quarantined} quarantined store entr"
            f"{'y' if quarantined == 1 else 'ies'} under {cache_dir}",
            file=sys.stderr,
        )
    if options["json"] is not None:
        payload = {
            "scale": scale,
            "jobs": options["jobs"],
            "timings_s": {k: round(v, 3) for k, v in timings.items()},
            "experiments": collected,
        }
        if store_stats:
            payload["store"] = store_stats
        # Atomic + durable: a crash mid-dump must not leave a torn
        # report for a consumer to half-parse.
        atomic_write_text(options["json"], json.dumps(payload, indent=2))
        print(f"wrote {options['json']}")
    if failures:
        print(
            f"error: {len(failures)} experiment(s) failed: "
            f"{', '.join(failures)}", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
