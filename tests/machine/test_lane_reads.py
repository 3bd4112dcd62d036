"""The executor's one-call functional read of every lane.

``ExecutionContext.idx_read_lanes`` defaults to one ``idx_read`` per
lane; the SRF-backed context reads every lane of a per-lane stream
straight from SRF storage, and takes the per-lane path for cross-lane
streams and while a read-write stream's write overlay holds entries.
Each app run here checks every lane-vector read against the per-lane
reads it replaces.
"""

import pytest

from repro.config.presets import all_configs
from repro.machine.executor import _SrfBackedContext
from tests.machine.runners import RUNNERS


def checked_run(monkeypatch, runner: str) -> dict:
    """Run ``runner`` on ISRF4; count lane-vector reads by path."""
    paths = {"storage": 0, "overlay": 0, "crosslane": 0}
    original = _SrfBackedContext.idx_read_lanes

    def checked(self, stream, indices):
        executor = self._executor
        if stream.name in executor._write_overlay:
            path = "overlay"
        elif stream.name in executor._lane_layouts:
            path = "storage"
        else:
            path = "crosslane"
        values = original(self, stream, indices)
        assert values == [
            0 if index is None else self.idx_read(stream, lane, index)
            for lane, index in enumerate(indices)
        ], (stream.name, indices)
        paths[path] += 1
        return values

    monkeypatch.setattr(_SrfBackedContext, "idx_read_lanes", checked)
    RUNNERS[runner](all_configs()["ISRF4"])
    return paths


@pytest.mark.parametrize("runner", ["fft", "rijndael", "sort", "filter",
                                    "stencil_box"])
def test_per_lane_streams_read_from_storage(monkeypatch, runner):
    paths = checked_run(monkeypatch, runner)
    assert paths["storage"] > 0


def test_crosslane_streams_take_the_per_lane_path(monkeypatch):
    paths = checked_run(monkeypatch, "ig_sml")
    assert paths["crosslane"] > 0


def test_read_write_overlay_falls_back_per_lane(monkeypatch):
    # CSC SpMV reads and writes y through one read-write stream: once a
    # write is overlaid, later reads must see it in program order.
    paths = checked_run(monkeypatch, "spmv_csc")
    assert paths["overlay"] > 0
    assert paths["storage"] > 0
