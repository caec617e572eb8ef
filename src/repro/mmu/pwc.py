"""Page walk caches (PWCs) with the paper's 2-bit saturating counters.

The IOMMU keeps one small cache per *upper* page-table level (levels 4,
3 and 2 of the four-level table; level 1 holds the leaf PTEs which are
what TLBs cache).  A PWC entry at level *n* caches the physical address
of the level-(n-1) table, letting the walker skip the accesses above it:

===========================  =================================
Deepest PWC hit              Memory accesses left for the walk
===========================  =================================
level 2 (PD entry cached)    1  (leaf PTE only)
level 3 (PDPT entry cached)  2
level 4 (PML4 entry cached)  3
complete miss                4
===========================  =================================

Section IV of the paper adds a 2-bit saturating counter to every PWC
entry.  When a newly-arrived walk request is *scored* against the PWC
(action 1-a), the counters of the entries it hit are incremented; when a
*scheduled* walk later hits those entries (action 2-b), they are
decremented.  A non-zero counter therefore means "some pending request
was promised this entry" and the replacement policy refuses to victimise
such entries unless the whole set is pinned.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.config import BITS_PER_LEVEL, PAGE_TABLE_LEVELS, PWCConfig
from repro.mmu.geometry import BASE_4K, PageGeometry

#: Page-table levels the PWC caches under the default 4 KB geometry
#: (the leaf level is the TLB's job).  With 2 MB pages only levels 4
#: and 3 are cached — level 2 holds the leaves.
CACHED_LEVELS: Tuple[int, ...] = BASE_4K.pwc_levels


class _Entry:
    __slots__ = ("counter",)

    def __init__(self) -> None:
        self.counter = 0


class _LevelCache:
    """One per-level set-associative cache with counter-guarded LRU.

    :class:`PageWalkCache` indexes ``_sets`` directly on its hot paths.
    """

    def __init__(self, config: PWCConfig) -> None:
        self._ways = config.associativity
        self._num_sets = config.entries_per_level // config.associativity
        self._sets: List["OrderedDict[int, _Entry]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self._guard = config.counter_guard
        self.hits = 0
        self.misses = 0
        self.guarded_evictions_avoided = 0

    def _evict(self, entries: "OrderedDict[int, _Entry]") -> None:
        if self._guard:
            # Victimise the LRU entry whose counter is zero; fall back to
            # plain LRU when every entry in the set is pinned (paper §IV).
            for tag, entry in entries.items():
                if entry.counter == 0:
                    del entries[tag]
                    return
            self.guarded_evictions_avoided += 1
        entries.popitem(last=False)


class PageWalkCache:
    """The bundle of per-level page walk caches."""

    def __init__(self, config: PWCConfig, geometry: PageGeometry = BASE_4K) -> None:
        self.config = config
        self.geometry = geometry
        self._cached_levels = geometry.pwc_levels
        self._levels: Dict[int, _LevelCache] = {
            level: _LevelCache(config) for level in self._cached_levels
        }
        # Hot-path precomputation.  ``vpn_prefix(vpn, level)`` is a plain
        # shift for a cached level, and probe order never changes.
        leaf = geometry.leaf_level
        #: level -> (cache, tag shift).
        self._slots: Dict[int, Tuple[_LevelCache, int]] = {
            level: (self._levels[level], BITS_PER_LEVEL * (level - leaf))
            for level in self._cached_levels
        }
        #: Deepest level first: ``(level, cache, shift, accesses, pins,
        #: path)``.  ``accesses`` is what a walk still needs after a hit
        #: at ``level``; ``pins`` are the levels from ``level`` up to the
        #: root (the entries a hit relies on) and ``path`` their slots.
        self._probe_order = tuple(
            (
                level,
                *self._slots[level],
                level - leaf,
                tuple(range(level, PAGE_TABLE_LEVELS + 1)),
                tuple(
                    self._slots[upper]
                    for upper in range(level, PAGE_TABLE_LEVELS + 1)
                ),
            )
            for level in reversed(self._cached_levels)
        )
        self._fill_order: Tuple[Tuple[_LevelCache, int], ...] = tuple(
            self._slots[level] for level in self._cached_levels
        )
        #: Accesses a walk needs when every level misses.
        self._miss_accesses = geometry.walk_levels
        self._counter_max = (1 << config.counter_bits) - 1
        #: Optional :class:`~repro.obs.trace.Tracer` plus a clock
        #: closure (the PWC holds no simulator reference).
        self.tracer = None
        self._trace_now = None

    def attach_tracer(self, tracer, now) -> None:
        """Record probes into ``tracer``; ``now`` supplies timestamps."""
        self.tracer = tracer
        self._trace_now = now

    def accesses_for_hit_level(self, level: int) -> int:
        """Memory accesses a walk needs given the deepest PWC hit level."""
        if level == 0:
            return self.geometry.walk_levels
        return level - self.geometry.leaf_level

    def score(self, vpn: int) -> Tuple[int, Tuple[int, ...]]:
        """Score probe (action 1-a): estimate accesses and pin hit entries.

        Increments the 2-bit counters of every entry at or below the
        deepest hit (the entries the estimate relies on) and returns
        ``(accesses, pinned_levels)``.  The caller must record
        ``pinned_levels`` on the pending walk so :meth:`walk_lookup` can
        unpin exactly those levels — unpinning by the hit depth *at walk
        time* drifts whenever fills or evictions change the depth between
        scoring and walking (pins leak until saturation, or unrelated
        entries lose their guard).
        """
        level = 0
        accesses = self._miss_accesses
        pinned_levels: Tuple[int, ...] = ()
        # Probe from the deepest cached level up to the root: a hit at
        # level *n* implies the walker needs no level above *n*.
        for hit_level, cache, shift, hit_accesses, pins, path in self._probe_order:
            tag = vpn >> shift
            if tag not in cache._sets[tag % cache._num_sets]:
                cache.misses += 1
                continue
            cache.hits += 1
            level, accesses, pinned_levels = hit_level, hit_accesses, pins
            counter_max = self._counter_max
            for pin_cache, pin_shift in path:
                tag = vpn >> pin_shift
                entry = pin_cache._sets[tag % pin_cache._num_sets].get(tag)
                if entry is not None and entry.counter < counter_max:
                    entry.counter += 1
            break
        tracer = self.tracer
        if tracer is not None and tracer.cat_pwc:
            tracer.pwc_probe(self._trace_now(), "score", vpn, level, accesses)
        return accesses, pinned_levels

    def peek_accesses(self, vpn: int) -> int:
        """Estimate accesses without touching counters or stats."""
        for _, cache, shift, accesses, _, _ in self._probe_order:
            tag = vpn >> shift
            if tag in cache._sets[tag % cache._num_sets]:
                return accesses
        return self._miss_accesses

    def walk_lookup(self, vpn: int, pinned_levels: Tuple[int, ...] = ()) -> int:
        """Walker lookup (action 2-b): returns accesses needed; unpins entries.

        Decrements the counters of exactly the levels pinned when this
        walk was scored (``pinned_levels``, as returned by :meth:`score`)
        and refreshes the LRU position of the entries the walk actually
        hits now.  A walk that was never scored (non-scoring scheduler,
        prefetch) passes the default empty tuple and unpins nothing.
        """
        slots = self._slots
        for pinned in pinned_levels:
            cache, shift = slots[pinned]
            tag = vpn >> shift
            entry = cache._sets[tag % cache._num_sets].get(tag)
            if entry is not None and entry.counter > 0:
                entry.counter -= 1
        level = 0
        accesses = self._miss_accesses
        for hit_level, cache, shift, hit_accesses, _, path in self._probe_order:
            tag = vpn >> shift
            if tag not in cache._sets[tag % cache._num_sets]:
                cache.misses += 1
                continue
            cache.hits += 1
            level, accesses = hit_level, hit_accesses
            for touch_cache, touch_shift in path:
                tag = vpn >> touch_shift
                entries = touch_cache._sets[tag % touch_cache._num_sets]
                if tag in entries:
                    entries.move_to_end(tag)
            break
        tracer = self.tracer
        if tracer is not None and tracer.cat_pwc:
            tracer.pwc_probe(self._trace_now(), "walk", vpn, level, accesses)
        return accesses

    def fill(self, vpn: int) -> None:
        """Install the upper-level entries discovered by a completed walk."""
        for cache, shift in self._fill_order:
            tag = vpn >> shift
            entries = cache._sets[tag % cache._num_sets]
            if tag in entries:
                entries.move_to_end(tag)
                continue
            if len(entries) >= cache._ways:
                cache._evict(entries)
            entries[tag] = _Entry()

    def flush(self) -> int:
        """Invalidate every cached entry at every level (fault injection).

        Counter pins vanish with their entries — pending requests scored
        against flushed entries simply re-walk from the root, which is
        the safe, conservative outcome.  Returns entries discarded.
        """
        discarded = 0
        for cache in self._levels.values():
            for entries in cache._sets:
                discarded += len(entries)
                entries.clear()
        return discarded

    @property
    def occupancy(self) -> int:
        return sum(
            len(entries) for cache in self._levels.values() for entries in cache._sets
        )

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            f"level{level}": {
                "hits": cache.hits,
                "misses": cache.misses,
                "guarded_evictions_avoided": cache.guarded_evictions_avoided,
            }
            for level, cache in self._levels.items()
        }
