"""Single-cycle placement against the per-cell oracle.

``ModuloScheduler._place_in_window`` places an op that holds its unit
for one cycle — nearly every op — with one modulo-cell probe per
candidate slot. This file keeps the earlier loop, which builds each
slot's list of cells and tests it with ``all()`` whatever the hold, as
an oracle, and requires identical ``(ii, slots)`` for every application
kernel at in-lane separations 1-12 and cross-lane separations 4 and 20.
No application op holds its unit longer than a cycle, so kernels mixing
unpipelined divides with one-cycle ops cover the multi-cycle path.
"""

from repro.kernel import KernelBuilder, ModuloScheduler
from tests.kernel.test_recmii_oracle import app_kernels

SEPARATIONS = range(1, 13)
CROSSLANE_SEPARATIONS = (4, 20)


def oracle_place_in_window(key, units, hold, earliest, ii, reservations):
    """The placement loop the scheduler used for every hold."""
    if key is None:
        return max(earliest, 0)
    if hold > ii:
        return None  # unpipelined op cannot fit this II
    occupied = reservations.setdefault(key, {})
    for offset in range(ii):
        slot = max(earliest, 0) + offset
        cells = [(slot + k) % ii for k in range(hold)]
        if all(occupied.get(cell, 0) < units for cell in cells):
            for cell in cells:
                occupied[cell] = occupied.get(cell, 0) + 1
            return slot
    return None


class OracleScheduler(ModuloScheduler):
    _place_in_window = staticmethod(oracle_place_in_window)


def same_placement(kernel, inlane, crosslane) -> None:
    placed = ModuloScheduler().schedule(
        kernel, inlane_separation=inlane, crosslane_separation=crosslane
    )
    expected = OracleScheduler().schedule(
        kernel, inlane_separation=inlane, crosslane_separation=crosslane
    )
    assert (placed.ii, placed.slots) == (expected.ii, expected.slots), (
        kernel.name, inlane, crosslane
    )


def test_every_app_kernel_places_like_the_oracle():
    kernels = app_kernels()
    assert len(kernels) >= 20  # every app family contributed
    for kernel in kernels.values():
        for inlane in SEPARATIONS:
            for crosslane in CROSSLANE_SEPARATIONS:
                same_placement(kernel, inlane, crosslane)


def test_multi_cycle_ops_place_like_the_oracle():
    for divides in (1, 2, 3):
        b = KernelBuilder(f"divides{divides}")
        lut = b.idxl_istream("lut")
        in_s = b.istream("in")
        out = b.ostream("out")
        x = b.read(in_s)
        for _ in range(divides):
            x = b.add(b.div(x, b.const(3.0)), b.idx_read(lut, b.const(0)))
        b.write(out, x)
        kernel = b.build()
        assert any(op.spec.reserved_cycles > 1 for op in kernel.ops)
        for inlane in SEPARATIONS:
            same_placement(kernel, inlane, 20)
