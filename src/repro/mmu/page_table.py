"""A software model of a 4-level radix page table.

The table is populated lazily: the first translation of a virtual page
allocates a physical frame (and any missing interior nodes).  This mirrors
how our synthetic workloads behave — every virtual page they touch is
backed — while letting us build page tables for multi-hundred-megabyte
footprints in microseconds.

Interior nodes are real objects with physical addresses, so a page-table
walker can compute the exact DRAM address of every PTE it fetches; those
addresses then exercise the DRAM bank/row model just like data accesses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import BITS_PER_LEVEL, PAGE_SIZE, PAGE_TABLE_LEVELS
from repro.mmu.address import LEVEL_MASK, PAGE_SHIFT, pte_address
from repro.mmu.geometry import BASE_4K, PageGeometry


class FrameAllocator:
    """Hands out physical frame numbers.

    Frames are allocated with a large deterministic stride pattern so that
    consecutive virtual pages do not map to adjacent physical frames —
    spreading page-table and data traffic across DRAM banks the way a
    long-running system's fragmented physical memory would.
    """

    def __init__(self, start_frame: int = 1, stride: int = 97) -> None:
        if start_frame < 1:
            raise ValueError("frame 0 is reserved")
        self._next = start_frame
        self._stride = stride
        self._allocated = 0

    def allocate(self) -> int:
        """Return a fresh physical frame number."""
        frame = self._next
        self._next += self._stride
        self._allocated += 1
        return frame

    @property
    def allocated_frames(self) -> int:
        return self._allocated

    @property
    def allocated_bytes(self) -> int:
        return self._allocated * PAGE_SIZE


class _Node:
    """One interior page-table page: 512 slots of children."""

    __slots__ = ("base_address", "children")

    def __init__(self, base_address: int) -> None:
        self.base_address = base_address
        self.children: Dict[int, "_Node"] = {}


class PageTable:
    """A 4-level radix page table with lazy population.

    ``geometry`` selects the mapping granularity: with
    :data:`~repro.mmu.geometry.LARGE_2M` the level-2 entries are leaves
    (2 MB frames) and walks touch three levels instead of four.
    """

    def __init__(
        self,
        allocator: Optional[FrameAllocator] = None,
        geometry: PageGeometry = BASE_4K,
    ) -> None:
        self._allocator = allocator or FrameAllocator()
        self.geometry = geometry
        #: Root-first ``(level, index shift)`` of the interior levels a
        #: walk descends through to reach the leaf (whose shift is 0).
        self._descent: Tuple[Tuple[int, int], ...] = tuple(
            (level, BITS_PER_LEVEL * (level - geometry.leaf_level))
            for level in range(PAGE_TABLE_LEVELS, geometry.leaf_level, -1)
        )
        self._root = _Node(self._allocate_node_address())
        #: Leaf mappings: unit number -> pfn (unit-sized frame number).
        self._mappings: Dict[int, int] = {}
        self._interior_nodes = 1
        #: Memoised walk paths: once a unit is mapped, its PTE addresses
        #: never change (interior nodes are only ever added), so the
        #: root-to-leaf address list is computed once per vpn.
        self._walk_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def _allocate_node_address(self) -> int:
        return self._allocator.allocate() << PAGE_SHIFT

    @property
    def root_address(self) -> int:
        return self._root.base_address

    @property
    def mapped_pages(self) -> int:
        return len(self._mappings)

    @property
    def interior_nodes(self) -> int:
        return self._interior_nodes

    def translate(self, vpn: int) -> int:
        """Return the physical frame number for ``vpn``, mapping on demand."""
        pfn = self._mappings.get(vpn)
        if pfn is None:
            pfn = self._map(vpn)
        return pfn

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the PFN for ``vpn`` or None if unmapped (no side effects)."""
        return self._mappings.get(vpn)

    def _map(self, vpn: int) -> int:
        node = self._root
        for _, shift in self._descent:
            index = (vpn >> shift) & LEVEL_MASK
            child = node.children.get(index)
            if child is None:
                child = _Node(self._allocate_node_address())
                node.children[index] = child
                self._interior_nodes += 1
            node = child
        pfn = self._allocator.allocate()
        self._mappings[vpn] = pfn
        return pfn

    def walk_addresses(self, vpn: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(level, pte_physical_address)`` pairs a full walk touches.

        Ordered root-first: level 4 down to the geometry's leaf level.
        Ensures the mapping exists (allocating if needed) so that the
        addresses are defined.
        """
        cached = self._walk_cache.get(vpn)
        if cached is not None:
            return cached
        self.translate(vpn)
        addresses: List[Tuple[int, int]] = []
        node = self._root
        for level, shift in self._descent:
            index = (vpn >> shift) & LEVEL_MASK
            addresses.append((level, pte_address(node.base_address, index)))
            node = node.children[index]
        addresses.append(
            (
                self.geometry.leaf_level,
                pte_address(node.base_address, vpn & LEVEL_MASK),
            )
        )
        path = tuple(addresses)
        self._walk_cache[vpn] = path
        return path
