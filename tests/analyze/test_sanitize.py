"""Machine-state sanitizer: detection power and inertness.

(The bit-identical-stats half of the inertness contract lives in
``tests/machine/test_golden_stats.py::test_sanitizer_is_inert``.)
"""

from types import SimpleNamespace

import pytest

from repro.analyze import MachineSanitizer
from repro.apps import fft
from repro.config.presets import base_config, isrf4_config
from repro.core import SrfArray
from repro.errors import DeadlockError, SanitizerError
from repro.kernel.builder import KernelBuilder
from repro.machine import StreamProcessor, StreamProgram
from repro.machine.program import KernelInvocation


class TestInstallation:
    def test_off_by_default_leaves_no_state(self):
        proc = StreamProcessor(isrf4_config())
        assert proc._sanitizer is None

    def test_sanitize_flag_installs_checker(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        assert isinstance(proc._sanitizer, MachineSanitizer)

    def test_clean_machine_passes(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        proc._sanitizer.check(0)  # must not raise
        assert proc._sanitizer.checks_run == 1

    def test_sanitized_run_completes_and_checks_every_cycle(self):
        config = isrf4_config(sanitize=True)
        result = fft.run(config, n=16).require_verified()
        assert result.verified
        assert result.cycles > 0


class TestAllocatorInvariants:
    def test_misaligned_allocation_detected(self):
        proc = StreamProcessor(base_config(sanitize=True))
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=3, words=5, name="evil")
        )
        with pytest.raises(SanitizerError) as excinfo:
            proc._sanitizer.check(0)
        assert "not block-aligned" in str(excinfo.value)
        assert excinfo.value.report.violations

    def test_overlapping_allocations_detected(self):
        proc = StreamProcessor(base_config(sanitize=True))
        SrfArray(proc.srf, 64, "a")
        block = proc.srf.geometry.block_words
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=0, words=block, name="clash")
        )
        with pytest.raises(SanitizerError, match="overlaps"):
            proc._sanitizer.check(0)

    def test_allocation_beyond_srf_detected(self):
        proc = StreamProcessor(base_config(sanitize=True))
        total = proc.srf.geometry.total_words
        block = proc.srf.geometry.block_words
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=total, words=block, name="beyond")
        )
        with pytest.raises(SanitizerError, match="beyond"):
            proc._sanitizer.check(0)

    def test_report_collects_all_violations_of_the_cycle(self):
        proc = StreamProcessor(base_config(sanitize=True))
        total = proc.srf.geometry.total_words
        block = proc.srf.geometry.block_words
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=3, words=5, name="evil")
        )
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=total, words=block, name="beyond")
        )
        with pytest.raises(SanitizerError) as excinfo:
            proc._sanitizer.check(7)
        report = excinfo.value.report
        assert report.cycle == 7
        assert len(report.violations) >= 2
        assert "sanitizer:" in report.describe()


def _lookup_program(proc):
    """One indexed-lookup kernel, with a hook slot for corruption."""
    b = KernelBuilder("lookup")
    table = b.idxl_istream("table")
    dst = b.ostream("dst")
    it = b.carry(0, "it")
    b.update(it, b.add(it, b.const(1), name="next"))
    b.write(dst, b.idx_read(table, it))
    kernel = b.build()
    table_a = SrfArray(proc.srf, 256, "table")
    out = SrfArray(proc.srf, 256, "out")
    invocation = KernelInvocation(
        kernel,
        {"table": table_a.inlane_read(), "dst": out.seq_write()},
        iterations=8,
    )
    prog = StreamProgram("lookup")
    prog.add_kernel(invocation)
    return prog, invocation


class TestRuntimeDetection:
    def test_corrupted_pending_counter_aborts_the_run(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        prog, invocation = _lookup_program(proc)

        def corrupt():
            # After stream binding the indexed stream is registered;
            # skew its O(1) pending-words counter off the ground truth.
            proc.srf._indexed_list[0].pending_words += 1

        invocation.on_start = corrupt
        with pytest.raises(SanitizerError, match="pending_words"):
            proc.run_program(prog)

    def test_corrupted_decoded_word_is_caught(self):
        # Words are decoded once at issue; arbitration trusts the cached
        # storage index, so a stale one must not go unnoticed.
        proc = StreamProcessor(isrf4_config(sanitize=True))
        table = SrfArray(proc.srf, 256, "table")
        stream = proc.srf.open_indexed(table.inlane_read())
        stream.try_issue([5] * proc.srf.geometry.lanes)
        proc._sanitizer.check(0)  # freshly issued words decode cleanly
        entries = stream.fifos[3]._entries
        word = entries[0][0]
        entries[0] = (word[:5] + (word[5] + 1,),)
        with pytest.raises(SanitizerError) as excinfo:
            proc._sanitizer.check(1)
        (violation,) = excinfo.value.report.violations
        assert "lane 3" in violation and "storage index" in violation

    def test_skewed_return_queue_counter_is_caught(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        proc.srf.return_network.queued += 1
        with pytest.raises(SanitizerError, match="queued-word counter"):
            proc._sanitizer.check(0)

    def test_sanitizer_catches_it_long_before_the_deadlock_horizon(self):
        # Without the sanitizer the same corruption only surfaces as a
        # deadlock after the full no-progress horizon, with nothing
        # pointing at the broken counter; the sanitizer converts that
        # into an immediate, named invariant violation.
        proc = StreamProcessor(isrf4_config())
        prog, invocation = _lookup_program(proc)

        def corrupt():
            proc.srf._indexed_list[0].pending_words += 1

        invocation.on_start = corrupt
        with pytest.raises(DeadlockError):
            proc.run_program(prog)
        assert proc.cycle > 10_000  # burned the whole horizon first
