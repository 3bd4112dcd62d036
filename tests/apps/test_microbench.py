"""Figure 17/18 microbenchmarks: throughput shapes."""

import pytest

from repro.apps.microbench import (
    crosslane_random_read_throughput,
    inlane_random_read_throughput,
)
from repro.errors import ExecutionError

CYCLES = 800


class TestInlaneThroughput:
    def test_single_subarray_saturates_at_one_word(self):
        r = inlane_random_read_throughput(subarrays=1, fifo_entries=8,
                                          cycles=CYCLES)
        assert r.words_per_cycle_per_lane == pytest.approx(1.0, abs=0.05)

    def test_throughput_grows_with_subarrays(self):
        results = [
            inlane_random_read_throughput(subarrays=s, fifo_entries=8,
                                          cycles=CYCLES)
            .words_per_cycle_per_lane
            for s in (1, 2, 4, 8)
        ]
        assert results[0] < results[1] < results[2] < results[3]

    def test_utilization_declines_with_subarrays(self):
        # Head-of-line blocking: more sub-arrays -> lower utilisation of
        # the available bandwidth (paper §5.4).
        results = {
            s: inlane_random_read_throughput(subarrays=s, fifo_entries=8,
                                             cycles=CYCLES)
            .words_per_cycle_per_lane
            for s in (2, 8)
        }
        assert results[2] / 2 > results[8] / 8

    def test_throughput_grows_with_fifo_size(self):
        small = inlane_random_read_throughput(subarrays=4, fifo_entries=1,
                                              cycles=CYCLES)
        large = inlane_random_read_throughput(subarrays=4, fifo_entries=8,
                                              cycles=CYCLES)
        assert (large.words_per_cycle_per_lane
                > 1.3 * small.words_per_cycle_per_lane)

    def test_invalid_parameters(self):
        with pytest.raises(ExecutionError):
            inlane_random_read_throughput(streams=0)
        with pytest.raises(ExecutionError, match="cycles"):
            inlane_random_read_throughput(cycles=0)
        with pytest.raises(ExecutionError, match="separation"):
            inlane_random_read_throughput(separation=-1)


class TestCrosslaneThroughput:
    def test_two_ports_beat_one_significantly(self):
        one = crosslane_random_read_throughput(ports_per_bank=1,
                                               cycles=CYCLES)
        two = crosslane_random_read_throughput(ports_per_bank=2,
                                               cycles=CYCLES)
        assert (two.words_per_cycle_per_lane
                > 1.15 * one.words_per_cycle_per_lane)

    def test_four_ports_only_marginally_better_than_two(self):
        two = crosslane_random_read_throughput(ports_per_bank=2,
                                               cycles=CYCLES)
        four = crosslane_random_read_throughput(ports_per_bank=4,
                                                cycles=CYCLES)
        assert (four.words_per_cycle_per_lane
                < 1.10 * two.words_per_cycle_per_lane)

    def test_comm_traffic_degrades_mildly(self):
        quiet = crosslane_random_read_throughput(comm_occupancy=0.0,
                                                 cycles=CYCLES)
        busy = crosslane_random_read_throughput(comm_occupancy=0.8,
                                                cycles=CYCLES)
        ratio = (busy.words_per_cycle_per_lane
                 / quiet.words_per_cycle_per_lane)
        assert 0.6 < ratio < 1.0  # paper: 20% or less over a wide range

    def test_occupancy_bounds_checked(self):
        with pytest.raises(ExecutionError):
            crosslane_random_read_throughput(comm_occupancy=1.5)
        with pytest.raises(ExecutionError, match="cycles"):
            crosslane_random_read_throughput(cycles=0)
        with pytest.raises(ExecutionError, match="issue_probability"):
            crosslane_random_read_throughput(issue_probability=1.5)
        with pytest.raises(ExecutionError, match="issue_probability"):
            crosslane_random_read_throughput(issue_probability=-0.1)
        with pytest.raises(ExecutionError, match="separation"):
            crosslane_random_read_throughput(separation=-1)
        with pytest.raises(ExecutionError, match="sequential_streams"):
            crosslane_random_read_throughput(sequential_streams=-1)
