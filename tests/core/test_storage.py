"""SRF backing storage and the block-aligned allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.core.geometry import SrfGeometry
from repro.core.storage import SrfAllocator, SrfStorage
from repro.errors import SrfAccessError, SrfAllocationError


def small_geometry() -> SrfGeometry:
    return SrfGeometry(
        lanes=4, bank_words=64, words_per_lane_access=4, subarrays_per_bank=4
    )


class TestAllocator:
    def test_allocations_are_block_aligned_and_rounded(self):
        alloc = SrfAllocator(small_geometry())
        a = alloc.allocate(10, "a")
        assert a.base == 0
        assert a.words == 16  # rounded to one 4x4 block

    def test_sequential_allocations_do_not_overlap(self):
        alloc = SrfAllocator(small_geometry())
        a = alloc.allocate(16, "a")
        b = alloc.allocate(20, "b")
        assert b.base >= a.end
        assert b.words == 32

    def test_free_makes_space_reusable_first_fit(self):
        alloc = SrfAllocator(small_geometry())
        a = alloc.allocate(16, "a")
        alloc.allocate(16, "b")
        alloc.free(a)
        c = alloc.allocate(16, "c")
        assert c.base == 0  # reuses the hole

    def test_capacity_exhaustion_raises(self):
        alloc = SrfAllocator(small_geometry())
        alloc.allocate(small_geometry().total_words, "all")
        with pytest.raises(SrfAllocationError):
            alloc.allocate(1, "more")

    def test_double_free_raises(self):
        alloc = SrfAllocator(small_geometry())
        a = alloc.allocate(16, "a")
        alloc.free(a)
        with pytest.raises(SrfAllocationError):
            alloc.free(a)

    def test_nonpositive_allocation_raises(self):
        alloc = SrfAllocator(small_geometry())
        with pytest.raises(SrfAllocationError):
            alloc.allocate(0)

    def test_reset_frees_everything(self):
        alloc = SrfAllocator(small_geometry())
        alloc.allocate(64)
        alloc.reset()
        assert alloc.free_words == small_geometry().total_words

    @given(sizes=st.lists(st.integers(min_value=1, max_value=40), max_size=12))
    def test_allocations_never_overlap_property(self, sizes):
        geometry = small_geometry()
        alloc = SrfAllocator(geometry)
        regions = []
        for size in sizes:
            try:
                regions.append(alloc.allocate(size))
            except SrfAllocationError:
                break
        spans = sorted((r.base, r.end) for r in regions)
        for (_, prev_end), (base, _) in zip(spans, spans[1:]):
            assert base >= prev_end
        for base, end in spans:
            assert 0 <= base < end <= geometry.total_words


class TestStorage:
    def test_read_write_roundtrip_global(self):
        store = SrfStorage(small_geometry())
        store.write(5, 1.25)
        assert store.read(5) == 1.25

    def test_lane_addressing_aliases_global(self):
        g = small_geometry()
        store = SrfStorage(g)
        store.write_lane(2, 7, "x")
        assert store.read(g.join(2, 7)) == "x"
        assert store.read_lane(2, 7) == "x"

    @pytest.mark.parametrize("start,count", [(0, 64), (3, 9), (7, 1),
                                             (60, 4)])
    def test_lane_range_equals_word_by_word_writes(self, start, count):
        g = small_geometry()
        bulk, single = SrfStorage(g), SrfStorage(g)
        values = [f"w{i}" for i in range(count)]
        bulk.write_lane_range(2, start, values)
        for offset, value in enumerate(values):
            single.write_lane(2, start + offset, value)
        assert bulk.read_range(0, g.total_words) == \
            single.read_range(0, g.total_words)

    def test_lane_range_out_of_bank_rejected(self):
        store = SrfStorage(small_geometry())
        with pytest.raises(SrfAccessError):
            store.write_lane_range(1, 62, [0, 0, 0])
        with pytest.raises(SrfAccessError):
            store.write_lane_range(4, 0, [0])
        assert store.read_range(0, 8) == [0] * 8

    def test_range_roundtrip(self):
        store = SrfStorage(small_geometry())
        store.write_range(8, [1, 2, 3])
        assert store.read_range(8, 3) == [1, 2, 3]

    def test_out_of_range_rejected(self):
        store = SrfStorage(small_geometry())
        with pytest.raises(SrfAccessError):
            store.read(small_geometry().total_words)
        with pytest.raises(SrfAccessError):
            store.write(-1, 0)

    def test_empty_range_ok(self):
        store = SrfStorage(small_geometry())
        assert store.read_range(0, 0) == []
        store.write_range(0, [])
