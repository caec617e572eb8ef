"""A deterministic calendar queue of tagged simulation events.

Events are plain data: ``(time, sequence, kind, payload)``.  ``kind`` is
a string naming a handler registered on the simulator and ``payload`` is
a tuple of arguments for it.  Keeping events as data (instead of bound
closures) is what makes the queue serialisable: an in-run checkpoint
pickles it as it is, and the unpickled queue pops the identical event
order.

Structure: a *calendar* of buckets keyed on the absolute integer cycle
(``dict`` of ``time -> [(sequence, kind, payload), ...]``) plus a small
binary heap holding each distinct pending timestamp once.  Same-cycle
events — the common case in a cycle-quantised simulation — append to an
existing bucket in O(1) with no heap sift; the heap only orders the
far-future tail of distinct timestamps.  The run loop drains whole
buckets at a time (:meth:`pop_bucket`, which ``Simulator`` inlines),
which is what enables the simulator's kind-batched dispatch.

Ties at the same timestamp break by insertion order (the monotonically
increasing sequence number): buckets are appended in sequence order, so
bucket order *is* (time, sequence) order.  Event ordering — and
therefore every simulation statistic — is reproducible.

The queue also tracks the *floor* — the timestamp of the bucket most
recently drained.  Pushing below the floor would corrupt pop order
(that bucket is already gone), so :meth:`push` rejects it; this also
subsumes the old non-negative-time check.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

#: One scheduled event: ``(time, sequence, kind, payload)``.
Event = Tuple[int, int, str, tuple]


class EventQueue:
    """Calendar/bucket queue of :data:`Event`s ordered by (time, sequence)."""

    __slots__ = ("_buckets", "_times", "_sequence", "_size", "_floor")

    def __init__(self) -> None:
        #: time -> [(sequence, kind, payload), ...] in sequence order.
        self._buckets: Dict[int, List[Tuple[int, str, tuple]]] = {}
        #: Min-heap of the distinct pending timestamps (each exactly once).
        self._times: List[int] = []
        self._sequence = 0
        self._size = 0
        #: Timestamp of the most recently drained bucket; pushes below
        #: this would schedule into the past.
        self._floor = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push(self, time: int, kind: str, payload: tuple = ()) -> None:
        """Schedule ``kind`` with ``payload`` at absolute cycle ``time``.

        ``time`` must be an integer cycle count no earlier than the last
        drained timestamp; fractional or past timestamps would break the
        determinism guarantees of the engine.
        """
        if time < self._floor:
            raise ValueError(
                f"cannot schedule event at {time}: events up to "
                f"{self._floor} have already fired"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(self._sequence, kind, payload)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((self._sequence, kind, payload))
        self._sequence += 1
        self._size += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        time = self._times[0]
        bucket = self._buckets[time]
        sequence, kind, payload = bucket.pop(0)
        if not bucket:
            del self._buckets[time]
            heapq.heappop(self._times)
        self._size -= 1
        self._floor = time
        return (time, sequence, kind, payload)

    def pop_bucket(self) -> Tuple[int, List[Tuple[int, str, tuple]]]:
        """Remove and return ``(time, events)`` for the earliest cycle.

        The returned list holds every event pending at that cycle, in
        (time, sequence) pop order.  Events pushed at the same cycle
        *while the caller processes the batch* open a fresh bucket and
        are drained by a subsequent call — exactly the order a scalar
        pop loop would produce.
        """
        time = heapq.heappop(self._times)
        bucket = self._buckets.pop(time)
        self._size -= len(bucket)
        self._floor = time
        return time, bucket

    def requeue(self, time: int, events: List[Tuple[int, str, tuple]]) -> None:
        """Return the unprocessed tail of a drained bucket to the queue.

        Used by the run loop when an event budget expires mid-bucket.
        ``events`` carry older sequence numbers than anything pushed at
        ``time`` since the drain, so they go back *in front*.
        """
        if not events:
            return
        existing = self._buckets.get(time)
        if existing is None:
            self._buckets[time] = list(events)
            heapq.heappush(self._times, time)
        else:
            self._buckets[time] = list(events) + existing
        self._size += len(events)

    def peek_time(self) -> int:
        """Timestamp of the earliest pending event.

        Raises :class:`IndexError` when the queue is empty.
        """
        return self._times[0]
