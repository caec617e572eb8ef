"""The IOMMU's buffer of pending page-table walk requests.

The buffer is what a scheduler scans: the paper calls its size the
scheduler's *lookahead* (Fig 14).  Entries are kept in arrival order.

Unlike the hardware's associative scan of buffer slots, this model keeps
*indexes* alongside the entries for the queries the SIMT-aware policy
makes on every dispatch (the policy decisions are bit-identical to a
linear scan — see ``docs/PERFORMANCE.md`` and the differential tests):

* a global arrival deque and per-instruction arrival deques (lazily
  pruned) make ``oldest`` and ``oldest_for_instruction`` amortised O(1);
* per-VPN entries live in an insertion-ordered dict keyed by arrival
  sequence, so coalescing lookups and removals are O(1);
* a lazy min-heap over ``(score, oldest_seq, instruction)`` keys (see
  :class:`~repro.core.scoring.ScoreIndex`) answers the shortest-job-first
  query in amortised O(log n) instead of an O(n) rescan.

The per-application queries only the fair-share policy makes
(:meth:`~PendingWalkBuffer.pending_apps`,
:meth:`~PendingWalkBuffer.min_score_entry_for_app`) are plain scans over
at most ``capacity`` entries: indexing them cost every other policy a
per-application heap push on every arrival and removal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.core.request import TranslationRequest, WalkBufferEntry
from repro.core.scoring import ScoreIndex, ScoreKey, ScoreTable

#: Rebuild a lazy score index once it holds this many stale keys per
#: live one (keeps memory proportional to occupancy, amortised O(1)).
_INDEX_SLACK = 4
_INDEX_MIN = 64


class PendingWalkBuffer:
    """Holds pending walks, their coalescing state and instruction scores."""

    def __init__(self, capacity: int, track_scores: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        #: Whether the score index is maintained.  The IOMMU disables
        #: this for policies with ``needs_scores`` False
        #: (fcfs/random/batch) so their hot path skips heap pushes.
        self.track_scores = track_scores
        #: arrival_seq -> entry, in arrival order.  Read-only outside
        #: this class (the IOMMU tests its length on the hot path);
        #: mutate through :meth:`add` and :meth:`remove`.
        self.entries: Dict[int, WalkBufferEntry] = {}
        # Duplicate-VPN entries are legal (the baseline IOMMU does not
        # merge same-page walks across instructions), so index per VPN
        # by arrival sequence; insertion order keeps the oldest first.
        self._by_vpn: Dict[int, Dict[int, WalkBufferEntry]] = {}
        #: Per-instruction scores.  The IOMMU releases a finished walk's
        #: score here directly (see :meth:`complete_walk`).
        self.scores = ScoreTable()
        self._arrival_seq = 0
        # Arrival-order indexes.  Deques are pruned lazily: an entry
        # removed from ``entries`` is dropped when it surfaces at a
        # deque front, so each entry costs O(1) amortised per index.
        self._arrival: Deque[WalkBufferEntry] = deque()
        self._by_instruction: Dict[int, Deque[WalkBufferEntry]] = {}
        self._score_index = ScoreIndex()
        self.peak_occupancy = 0
        self.total_insertions = 0
        self.total_coalesced = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WalkBufferEntry]:
        """Iterate entries in arrival order."""
        return iter(self.entries.values())

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.entries

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------

    def _oldest_of_instruction(self, instruction_id: int) -> Optional[WalkBufferEntry]:
        """The instruction's oldest buffered entry (prunes stale ones)."""
        queue = self._by_instruction.get(instruction_id)
        if queue is None:
            return None
        entries = self.entries
        while queue:
            entry = queue[0]
            if entries.get(entry.arrival_seq) is entry:
                return entry
            queue.popleft()
        del self._by_instruction[instruction_id]
        return None

    def _push_instruction_key(self, instruction_id: int) -> None:
        """Refresh the score-index truth for an instruction."""
        entry = self._oldest_of_instruction(instruction_id)
        if entry is None:
            return
        index = self._score_index
        index.push(
            self.scores.score_of(instruction_id), entry.arrival_seq, instruction_id
        )
        if len(index) > max(_INDEX_MIN, _INDEX_SLACK * len(self._by_instruction)):
            index.rebuild(self._current_keys())

    def _current_keys(self) -> List[ScoreKey]:
        keys: List[ScoreKey] = []
        for instruction_id in list(self._by_instruction):
            entry = self._oldest_of_instruction(instruction_id)
            if entry is not None:
                keys.append(
                    (
                        self.scores.score_of(instruction_id),
                        entry.arrival_seq,
                        instruction_id,
                    )
                )
        return keys

    def _key_is_current(self, key: ScoreKey) -> bool:
        score, oldest_seq, instruction_id = key
        entry = self._oldest_of_instruction(instruction_id)
        return (
            entry is not None
            and entry.arrival_seq == oldest_seq
            and self.scores.score_of(instruction_id) == score
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def find_by_vpn(self, vpn: int) -> Optional[WalkBufferEntry]:
        """The oldest pending entry for ``vpn``, if any (for coalescing)."""
        entries = self._by_vpn.get(vpn)
        if not entries:
            return None
        return next(iter(entries.values()))

    def add(
        self,
        request: TranslationRequest,
        arrival_time: int,
        estimated_accesses: int = 0,
    ) -> WalkBufferEntry:
        """Insert a new pending walk for ``request``.

        ``estimated_accesses`` is the PWC-probe estimate (action 1-a);
        it is accumulated into the issuing instruction's score (1-b).
        The score persists until :meth:`complete_walk` is called for the
        instruction's last walk.  Raises :class:`OverflowError` when the
        buffer is full — callers must check :attr:`is_full` and apply
        back-pressure.
        """
        entries = self.entries
        if len(entries) >= self.capacity:
            raise OverflowError("IOMMU buffer is full")
        seq = self._arrival_seq
        entry = WalkBufferEntry(request, seq, arrival_time, estimated_accesses)
        self._arrival_seq = seq + 1
        entries[seq] = entry
        vpn = entry.vpn
        same_vpn = self._by_vpn.get(vpn)
        if same_vpn is None:
            self._by_vpn[vpn] = {seq: entry}
        else:
            same_vpn[seq] = entry
        instruction_id = entry.instruction_id
        score = self.scores.add(instruction_id, estimated_accesses)
        self._arrival.append(entry)
        by_instruction = self._by_instruction
        queue = by_instruction.get(instruction_id)
        if queue is None:
            queue = by_instruction[instruction_id] = deque()
        queue.append(entry)
        if self.track_scores:
            # The instruction's score just changed: push its new truth.
            while True:  # terminates: ``entry`` itself is live
                oldest = queue[0]
                if entries.get(oldest.arrival_seq) is oldest:
                    break
                queue.popleft()
            index = self._score_index
            index.push(score, oldest.arrival_seq, instruction_id)
            if len(index) > max(_INDEX_MIN, _INDEX_SLACK * len(by_instruction)):
                index.rebuild(self._current_keys())
        self.total_insertions += 1
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)
        return entry

    def attach(self, entry: WalkBufferEntry, request: TranslationRequest) -> None:
        """Coalesce a same-page request onto an existing pending walk.

        The new request contributes no extra walk work (the single walk
        serves both), so scores are unchanged.
        """
        entry.attach(request)
        self.total_coalesced += 1

    def remove(self, entry: WalkBufferEntry) -> None:
        """Remove a dispatched (or cancelled) entry.

        The instruction's score is intentionally NOT released here — the
        walk is merely moving from pending to in-flight.  Call
        :meth:`complete_walk` when the walk finishes.
        """
        seq = entry.arrival_seq
        entries = self.entries
        if entries.get(seq) is not entry:
            raise KeyError(f"entry {entry!r} is not in the buffer")
        del entries[seq]
        same_vpn = self._by_vpn[entry.vpn]
        del same_vpn[seq]
        if not same_vpn:
            del self._by_vpn[entry.vpn]
        if self.track_scores:
            # The instruction's oldest pending entry may have changed;
            # refresh its index truth (stale keys expire lazily).
            self._push_instruction_key(entry.instruction_id)

    def account_direct_dispatch(
        self, instruction_id: int, estimated_accesses: int
    ) -> None:
        """Score a walk that bypassed the buffer (idle-walker fast path).

        Keeps the instruction's score complete even when some of its
        walks never queued.
        """
        self.scores.add(instruction_id, estimated_accesses)
        if self.track_scores:
            # The score changed while the instruction may have buffered
            # entries (possible when a scan is in progress): refresh.
            self._push_instruction_key(instruction_id)

    def complete_walk(self, instruction_id: int) -> None:
        """Release one walk's score accounting (after the walk finishes)."""
        self.scores.complete(instruction_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def score_of(self, entry: WalkBufferEntry) -> int:
        """The aggregate score of the entry's issuing instruction."""
        return self.scores.score_of(entry.instruction_id)

    def oldest(self) -> Optional[WalkBufferEntry]:
        """The entry that arrived first (FCFS choice).  Amortised O(1)."""
        queue = self._arrival
        entries = self.entries
        while queue:
            entry = queue[0]
            if entries.get(entry.arrival_seq) is entry:
                return entry
            queue.popleft()
        return None

    def oldest_for_instruction(self, instruction_id: int) -> Optional[WalkBufferEntry]:
        """The oldest pending entry of ``instruction_id``.  Amortised O(1)."""
        return self._oldest_of_instruction(instruction_id)

    def min_score_entry(self) -> Optional[WalkBufferEntry]:
        """The pending entry minimising ``(score, arrival_seq)``.

        Bit-identical to ``min(buffer, key=lambda e: (score_of(e),
        e.arrival_seq))`` but amortised O(log n) via the lazy score
        index.  Requires ``track_scores``.
        """
        if not self.entries:
            return None
        key = self._score_index.peek_valid(self._key_is_current)
        if key is None:
            raise RuntimeError(
                "score index out of sync with buffer "
                "(was the buffer built with track_scores=False?)"
            )
        return self._oldest_of_instruction(key[2])

    def min_score_entry_for_app(self, app_id: int) -> Optional[WalkBufferEntry]:
        """Same as :meth:`min_score_entry`, restricted to one application.

        A scan over the buffer (at most ``capacity`` entries).
        """
        score_of = self.scores.score_of
        return min(
            (entry for entry in self.entries.values() if entry.app_id == app_id),
            key=lambda entry: (score_of(entry.instruction_id), entry.arrival_seq),
            default=None,
        )

    def pending_apps(self) -> List[int]:
        """Applications with pending entries, ordered by oldest entry.

        The first-occurrence order of a scan of the buffer, which is
        what the fair-share policy's original set comprehension saw.
        """
        return list(dict.fromkeys(entry.app_id for entry in self.entries.values()))
