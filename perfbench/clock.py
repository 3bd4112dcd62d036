"""Host time corrected for the speed of a shared, noisy machine.

On a machine shared with other tenants the same Python code runs up to
half again as fast or slow from one minute to the next, which swamps the
differences a benchmark has to resolve. ``SpeedClock`` times a short
fixed calibration loop (call- and attribute-heavy pure Python, like the
simulator, allocating no containers so the garbage collector never runs
inside it) between timed intervals and every ``PERIOD`` seconds inside
them, from a ``SIGALRM`` handler. Each interval's host time, less the
calibration samples taken inside it, is rescaled to what it would have
taken at the reference speed. On a machine running at the reference
speed, corrected seconds equal raw seconds. The program under test never
runs while a sample is timed, so it cannot move the correction.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of one calibration sample (about 2 ms).
ROUNDS = 8_000
#: Seconds one calibration sample takes at the reference speed: about
#: its time on a 2-core x86-64 VM at 2.1 GHz running CPython 3.11.
REFERENCE_S = 0.0020


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value: int):
        self.value = value
        self.link = self


_CELLS = [_Cell(i) for i in range(1024)]
for _i, _cell in enumerate(_CELLS):
    _cell.link = _CELLS[(_i * 31 + 7) & 1023]


def _step(cell: _Cell, i: int) -> int:
    cell.value = (cell.value + i) & 0xFFFF
    return cell.link.value


def spin() -> float:
    """Host seconds of one calibration sample."""
    cells, total = _CELLS, 0
    start = time.perf_counter()
    for i in range(ROUNDS):
        total ^= _step(cells[(i * 7) & 1023], i)
    return time.perf_counter() - start


class SpeedClock:
    """Calibration samples around and inside timed intervals.

    Run each interval of a series through ``interval()``; ``rescale``
    then turns the series' raw seconds into reference seconds. An
    interval is scaled by the median of the samples taken inside it and
    of the boundary samples around it (two on either side), so one
    sample that an interrupt hit does not move it. Use as a context
    manager: it owns the ``SIGALRM`` handler while open.
    """

    #: Seconds between samples inside an interval.
    PERIOD = 0.1
    #: Boundary samples on either side of an interval that set its speed.
    WINDOW = 2

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample_inside)
        self._boundary = [spin()]
        self._inside = []
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample_inside(self, signum, frame) -> None:
        self._inside[-1].append(spin())

    def begin(self) -> None:
        """Start a new series after the latest boundary sample."""
        self._boundary = self._boundary[-1:]
        self._inside = []

    def interval(self, call):
        """Run ``call()``; returns (its result, raw seconds, exception).

        The raw seconds exclude the samples taken inside. An exception
        from ``call`` is returned, not raised (the result is then None),
        so every interval is closed by a boundary sample.
        """
        inside = []
        self._inside.append(inside)
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        began = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # handed back to the caller
            error = exc
        finally:
            elapsed = time.perf_counter() - began
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._boundary.append(spin())
        return result, elapsed - sum(inside), error

    def rescale(self, raw: list) -> list:
        """Reference seconds of the series' intervals, in order."""
        boundary = self._boundary
        return [
            seconds * REFERENCE_S / statistics.median(
                boundary[max(0, i + 1 - self.WINDOW):i + 1 + self.WINDOW]
                + self._inside[i])
            for i, seconds in enumerate(raw)
        ]
