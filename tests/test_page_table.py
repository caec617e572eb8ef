"""Unit tests for the radix page table and frame allocator."""

import pickle

import pytest

from repro.config import PAGE_SIZE, PAGE_TABLE_LEVELS
from repro.mmu.page_table import FrameAllocator, PageTable


class TestFrameAllocator:
    def test_frames_are_unique(self):
        alloc = FrameAllocator()
        frames = [alloc.allocate() for _ in range(100)]
        assert len(set(frames)) == 100

    def test_frame_zero_reserved(self):
        with pytest.raises(ValueError):
            FrameAllocator(start_frame=0)
        assert FrameAllocator().allocate() >= 1

    def test_accounting(self):
        alloc = FrameAllocator()
        for _ in range(5):
            alloc.allocate()
        assert alloc.allocated_frames == 5
        assert alloc.allocated_bytes == 5 * PAGE_SIZE


class TestPageTable:
    def test_translate_allocates_lazily(self):
        table = PageTable()
        assert table.mapped_pages == 0
        pfn = table.translate(0x42)
        assert pfn >= 1
        assert table.mapped_pages == 1

    def test_translate_is_stable(self):
        table = PageTable()
        assert table.translate(0x42) == table.translate(0x42)
        assert table.mapped_pages == 1

    def test_distinct_vpns_get_distinct_frames(self):
        table = PageTable()
        pfns = {table.translate(vpn) for vpn in range(64)}
        assert len(pfns) == 64

    def test_lookup_has_no_side_effects(self):
        table = PageTable()
        assert table.lookup(0x99) is None
        assert table.mapped_pages == 0
        table.translate(0x99)
        assert table.lookup(0x99) is not None

    def test_walk_addresses_has_four_levels(self):
        table = PageTable()
        path = table.walk_addresses(0x1234)
        assert len(path) == PAGE_TABLE_LEVELS
        levels = [level for level, _ in path]
        assert levels == [4, 3, 2, 1]

    def test_walk_addresses_are_page_table_entries(self):
        table = PageTable()
        for _, address in table.walk_addresses(0xABCDE):
            assert address % 8 == 0  # PTE-aligned

    def test_same_region_shares_upper_levels(self):
        table = PageTable()
        # Adjacent vpns share all interior nodes; only the leaf index
        # (within the same level-1 table page) differs.
        path_a = table.walk_addresses(0x1000)
        path_b = table.walk_addresses(0x1001)
        for (la, aa), (lb, ab) in zip(path_a[:-1], path_b[:-1]):
            assert la == lb
            assert aa == ab
        # Leaf entries live in the same table page, different slots.
        assert path_a[-1][1] != path_b[-1][1]
        assert path_a[-1][1] // PAGE_SIZE == path_b[-1][1] // PAGE_SIZE

    def test_far_apart_vpns_use_different_interior_nodes(self):
        table = PageTable()
        path_a = table.walk_addresses(0)
        path_b = table.walk_addresses(1 << 27)  # different level-4 index
        # Root access address is the same table page (the root), but the
        # level-3 tables differ.
        assert path_a[0][1] // PAGE_SIZE == path_b[0][1] // PAGE_SIZE
        assert path_a[1][1] // PAGE_SIZE != path_b[1][1] // PAGE_SIZE

    def test_interior_node_count_grows_with_spread(self):
        table = PageTable()
        before = table.interior_nodes
        table.translate(0)
        table.translate(1 << 27)
        assert table.interior_nodes > before

    def test_walk_addresses_maps_on_demand(self):
        table = PageTable()
        table.walk_addresses(0x777)
        assert table.lookup(0x777) is not None

    def test_root_address_is_page_aligned(self):
        assert PageTable().root_address % PAGE_SIZE == 0


def test_unpickled_page_table_has_empty_walk_memo():
    table = PageTable()
    paths = {vpn: table.walk_addresses(vpn) for vpn in (5, 70_000, 5 << 20)}
    clone = pickle.loads(pickle.dumps(table))
    assert clone._walk_cache == {}
    assert clone.mapped_pages == table.mapped_pages
    # The memo refills lazily with the same paths and maps nothing new.
    assert {vpn: clone.walk_addresses(vpn) for vpn in paths} == paths
    assert clone.mapped_pages == table.mapped_pages
    assert clone.interior_nodes == table.interior_nodes
