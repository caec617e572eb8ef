"""Page-table walk schedulers.

The scheduler decides, each time a hardware page-table walker becomes
free, which pending walk in the IOMMU buffer it services next.  The
paper's contribution is the :class:`SIMTAwareScheduler`; the others are
the baselines it is evaluated against (FCFS, random) and single-idea
ablations (SJF-only, batch-only).

All schedulers share one tiny interface so the IOMMU can host any of
them:

``on_arrival(entry, buffer)``
    Called after a new walk request is buffered (the entry's PWC-based
    estimate has already been folded into its instruction's score).

``select(buffer)``
    Called when a walker is free; returns the entry to service next (the
    IOMMU removes it from the buffer) or None to idle.

``needs_scores``
    Whether the IOMMU should spend a PWC probe on every arriving request
    to maintain scores.  Baselines that ignore scores skip the probe so
    they do not perturb PWC counters.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from itertools import islice
from typing import Callable, Dict, Optional

from repro.core.aging import AgingPolicy
from repro.core.buffer import PendingWalkBuffer
from repro.core.request import WalkBufferEntry


class WalkScheduler(ABC):
    """Base class for walk-selection policies."""

    #: Short name used in configs, result tables and the registry.
    name = "abstract"
    #: Whether arriving requests must be scored against the PWC.
    needs_scores = False
    #: Whether selection scans the pending buffer (and therefore pays
    #: ``IOMMUConfig.scan_latency_cycles``).  FIFO-style policies pop a
    #: queue head in hardware and pay nothing.
    requires_scan = True
    #: WaSP-style walk-prefetch lookahead: after a demand walk for page
    #: *p* completes, the IOMMU walk-prefetches pages ``p+1 ..
    #: p+distance`` on otherwise-idle walkers.  0 disables; the legacy
    #: ``IOMMUConfig.prefetch_next_page`` flag is the distance-1 case.
    prefetch_distance = 0
    #: IRU-style reorder window, in cycles.  Non-zero makes the IOMMU
    #: stage arriving TLB misses for this long and admit each batch to
    #: the pending buffer sorted by (instruction, page), so divergent
    #: bursts arrive contiguous and same-page requests coalesce before
    #: they occupy buffer slots.  0 disables staging.
    reorder_window_cycles = 0
    #: Whether same-page arrivals may merge with *pending* buffered
    #: walks even under ``coalesce_walks="inflight"`` (the reorder
    #: unit's job-shrinking merge; "full" already implies it).
    coalesce_pending = False
    #: Mosaic-style promotion: distinct base pages walked within one
    #: 2 MB region before the region promotes into the IOMMU's region
    #: TLB.  0 disables promotion.
    promote_threshold = 0
    #: Capacity of the region TLB holding promoted 2 MB entries (LRU;
    #: a capacity eviction is a demotion).
    region_tlb_entries = 0

    def on_arrival(self, entry: WalkBufferEntry, buffer: PendingWalkBuffer) -> None:
        """Hook for arrival-time bookkeeping.  Default: nothing."""

    @abstractmethod
    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next entry to dispatch."""

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        """Observe a dispatch that bypassed the policy.

        The IOMMU dispatches an arriving request straight to an idle
        walker without consulting ``select``; schedulers that track the
        most-recently-scheduled instruction still need to see it.
        """

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Drop policy state that refers to walks no longer in ``buffer``.

        The IOMMU calls this after removing an entry from the pending
        buffer.  Batching policies use it to retire their batch pointer
        the moment the buffer holds no more walks from the batched
        instruction (paper §IV: batching lasts exactly as long as the
        instruction has pending walks) — otherwise the pointer survives
        the batch and a much later walk carrying the same 20-bit
        instruction tag would inherit batch priority it never earned.
        """


class FCFSScheduler(WalkScheduler):
    """First-come-first-serve: the paper's baseline policy."""

    name = "fcfs"
    requires_scan = False

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next pending walk under this policy."""
        return buffer.oldest()


class RandomScheduler(WalkScheduler):
    """Uniformly random selection — the paper's worst case (Fig 2)."""

    name = "random"
    requires_scan = False

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next pending walk under this policy."""
        if buffer.is_empty:
            return None
        index = self._rng.randrange(len(buffer))
        # islice skips ``index`` entries in C instead of a Python-level
        # enumerate loop; the visited order (arrival order) and hence the
        # seeded selection sequence are unchanged.
        entry = next(islice(iter(buffer), index, None), None)
        if entry is None:
            raise AssertionError("unreachable: index within len(buffer)")
        return entry


class SJFScheduler(WalkScheduler):
    """Shortest-job-first on instruction scores only (key idea 1, ablation).

    Picks the pending walk whose issuing instruction has the lowest
    aggregate score; ties go to the oldest entry.
    """

    name = "sjf"
    needs_scores = True

    def __init__(self, aging_threshold: int = 2_000_000) -> None:
        self.aging = AgingPolicy(aging_threshold)

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next pending walk under this policy."""
        if buffer.is_empty:
            return None
        starving = self.aging.starving(buffer)
        if starving is not None:
            choice = starving
        else:
            choice = buffer.min_score_entry()
        self.aging.record_dispatch(choice)
        return choice


class BatchScheduler(WalkScheduler):
    """Batching only (key idea 2, ablation).

    Prefers walks from the same instruction as the most recently
    scheduled walk; otherwise falls back to FCFS.
    """

    name = "batch"

    def __init__(self) -> None:
        self._last_instruction: Optional[int] = None

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        """Track the most recently dispatched instruction (batching)."""
        self._last_instruction = entry.instruction_id

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Retire the batch pointer once its instruction has drained."""
        if (
            self._last_instruction is not None
            and buffer.oldest_for_instruction(self._last_instruction) is None
        ):
            self._last_instruction = None

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next pending walk under this policy."""
        if buffer.is_empty:
            return None
        if self._last_instruction is not None:
            same = buffer.oldest_for_instruction(self._last_instruction)
            if same is not None:
                self.note_dispatch(same)
                return same
        choice = buffer.oldest()
        assert choice is not None
        self.note_dispatch(choice)
        return choice


class SIMTAwareScheduler(WalkScheduler):
    """The paper's SIMT-aware page-table walk scheduler (§IV).

    Selection order when a walker frees up:

    1. *Aging*: an entry bypassed ≥ threshold times is serviced first
       (oldest such entry).
    2. *Batching*: the oldest pending walk from the same instruction as
       the most recently dispatched walk (action 2-a).
    3. *Shortest-job-first*: the entry whose instruction has the lowest
       aggregate score, oldest first on ties.
    """

    name = "simt"
    needs_scores = True

    def __init__(self, aging_threshold: int = 2_000_000) -> None:
        self.aging = AgingPolicy(aging_threshold)
        self._last_instruction: Optional[int] = None
        self.batch_hits = 0
        self.sjf_picks = 0

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        """Track the most recently dispatched instruction (batching)."""
        self._last_instruction = entry.instruction_id

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Retire the batch pointer once its instruction has drained."""
        if (
            self._last_instruction is not None
            and buffer.oldest_for_instruction(self._last_instruction) is None
        ):
            self._last_instruction = None

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next pending walk under this policy."""
        if buffer.is_empty:
            return None
        choice = self.aging.starving(buffer)
        if choice is None and self._last_instruction is not None:
            choice = buffer.oldest_for_instruction(self._last_instruction)
            if choice is not None:
                self.batch_hits += 1
        if choice is None:
            choice = buffer.min_score_entry()
            self.sjf_picks += 1
        self.aging.record_dispatch(choice)
        self.note_dispatch(choice)
        return choice


class FairShareScheduler(WalkScheduler):
    """QoS extension: SIMT-aware scheduling with per-application fairness.

    The paper closes by inviting follow-on work on page-walk scheduling
    "for both performance and QoS".  This policy adds an ATLAS-style
    least-attained-service tier between batching and SJF: when several
    applications share the GPU, the app that has received the least walk
    service so far gets first pick, and the SIMT-aware rules order walks
    *within* it.  With a single application it degenerates to the plain
    SIMT-aware policy.
    """

    name = "fairshare"
    needs_scores = True

    def __init__(self, aging_threshold: int = 2_000_000) -> None:
        self.aging = AgingPolicy(aging_threshold)
        self._last_instruction: Optional[int] = None
        #: Walk-work (estimated accesses) served so far, per application.
        self.attained_service: Dict[int, int] = {}

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        """Track the most recently dispatched instruction (batching)."""
        self._last_instruction = entry.instruction_id
        self.attained_service[entry.app_id] = (
            self.attained_service.get(entry.app_id, 0)
            + max(1, entry.estimated_accesses)
        )

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Retire the batch pointer once its instruction has drained."""
        if (
            self._last_instruction is not None
            and buffer.oldest_for_instruction(self._last_instruction) is None
        ):
            self._last_instruction = None

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """Choose the next pending walk under this policy."""
        if buffer.is_empty:
            return None
        choice = self.aging.starving(buffer)
        if choice is None and self._last_instruction is not None:
            choice = buffer.oldest_for_instruction(self._last_instruction)
        if choice is None:
            # Build the candidate set in buffer first-occurrence order so
            # tie-breaking via set iteration matches the original
            # ``{entry.app_id for entry in buffer}`` comprehension.
            pending_apps = set(buffer.pending_apps())
            neediest = min(
                pending_apps, key=lambda app: self.attained_service.get(app, 0)
            )
            choice = buffer.min_score_entry_for_app(neediest)
        self.aging.record_dispatch(choice)
        self.note_dispatch(choice)
        return choice


_FACTORIES: Dict[str, Callable[..., WalkScheduler]] = {
    "fcfs": lambda **kw: FCFSScheduler(),
    "random": lambda **kw: RandomScheduler(seed=kw.get("seed", 0)),
    "sjf": lambda **kw: SJFScheduler(aging_threshold=kw.get("aging_threshold", 2_000_000)),
    "batch": lambda **kw: BatchScheduler(),
    "simt": lambda **kw: SIMTAwareScheduler(
        aging_threshold=kw.get("aging_threshold", 2_000_000)
    ),
    "fairshare": lambda **kw: FairShareScheduler(
        aging_threshold=kw.get("aging_threshold", 2_000_000)
    ),
}


def _ensure_zoo() -> None:
    """Import the scheduler zoo so its factories self-register.

    Lazy (call-time) on purpose: :mod:`repro.core.zoo` subclasses the
    policies above, so a module-level import in either direction would
    deadlock on a partially-initialised module.  After the first call
    this is a ``sys.modules`` hit.
    """
    from repro.core import zoo  # noqa: F401  (import has the side effect)


def available_schedulers() -> tuple:
    """Names of every registered scheduling policy."""
    _ensure_zoo()
    return tuple(sorted(_FACTORIES))


def make_scheduler(name: str, **kwargs) -> WalkScheduler:
    """Instantiate a scheduler by registry name.

    ``kwargs`` may include ``seed`` (random) and ``aging_threshold``
    (sjf / simt / the zoo families); irrelevant keys are ignored so one
    call site can serve every policy.
    """
    _ensure_zoo()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    return factory(**kwargs)
