"""The simulation kernel: a clock plus a data-driven event loop.

Every hardware model in this package (TLBs, walkers, DRAM banks, compute
units) advances by posting *tagged events* — ``(kind, payload)`` pairs —
on a shared :class:`Simulator`.  Components :meth:`register` a handler
per kind once at construction; the event loop then dispatches
``handlers[kind](*payload)``.  Because events are plain data and
handlers are bound methods, the simulator pickles as it is — pending
events, monitors and all — so a run can be checkpointed mid-run and
resumed with bit-identical replay (see :mod:`repro.engine.checkpoint`).

The event loop is *batched*: it drains one calendar bucket (all events
pending at the current cycle) at a time and dispatches maximal runs of
consecutive same-kind events in a single call.  Kinds that registered a
batch handler (:meth:`register_batch`) receive the whole run as
``handle_batch([payload, ...])``; kinds without one fall back to the
scalar handler, called once per event.  Because a run is a *consecutive*
slice of the (time, sequence) order and batch handlers must process
payloads in list order, batched dispatch is observably identical to the
scalar loop — same handler invocation order, same results.

Monitor cadence survives batching: a dispatch run is capped at the
smallest monitor countdown (and the remaining ``max_events`` budget), so
monitors fire at exactly the same processed-event counts as a scalar
loop — which keeps checkpoint/watchdog/metrics cadence bit-identical.

Components hand each other *completion targets* in the same shape — a
``(kind, *payload)`` tuple — which the receiver schedules with
``post(delay, *target)`` / ``post_at(time, *target)`` or fires in place
with :meth:`dispatch`.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.engine.event_queue import EventQueue


class Simulator:
    """A discrete-event simulator with an integer cycle clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._events_processed = 0
        #: Installed monitors: mutable ``[callback, interval, countdown]``
        #: slots, so the run loop decrements in place.
        self._monitors: List[list] = []
        #: Event dispatch table: kind -> handler(*payload).
        self._handlers: Dict[str, Callable[..., Any]] = {}
        #: Batch dispatch table: kind -> handler(list_of_payloads).
        self._batch_handlers: Dict[str, Callable[[list], Any]] = {}

    @property
    def now(self) -> int:
        """The current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events fired so far, queued and synchronously
        dispatched alike (for progress reporting)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------

    def register(self, kind: str, handler: Callable[..., Any]) -> None:
        """Bind ``handler`` to event ``kind`` (silently replacing any old
        binding — components re-register when a system is rebuilt)."""
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        self._handlers[kind] = handler

    def register_batch(
        self, kind: str, handler: Callable[[list], Any]
    ) -> None:
        """Bind a *batch* handler to ``kind``.

        ``handler`` receives the payload tuples of a maximal run of
        consecutive same-cycle ``kind`` events, in (time, sequence)
        order, and must process them in that order — the contract that
        keeps batched dispatch equivalent to the scalar loop.  A kind
        with only a scalar handler simply never batches; a batch
        handler without the scalar registration is an error, because
        :meth:`step`, run-length-1 dispatch and :meth:`dispatch` all go
        through the scalar table.
        """
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        if kind not in self._handlers:
            raise ValueError(
                f"register a scalar handler for {kind!r} before its "
                f"batch handler"
            )
        self._batch_handlers[kind] = handler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    # The two scheduling entry points inline the calendar-bucket insert
    # (EventQueue.push) — they run once per event, and the extra call
    # frames are measurable on the hot path.  The queue's past-time
    # floor check is subsumed here: the clock can never sit below the
    # floor, so ``time >= self._now`` implies ``time >= floor``.

    def post_at(self, time: int, kind: str, *payload: Any) -> None:
        """Schedule event ``kind`` at absolute cycle ``time``.

        Scheduling in the past is an error — it indicates a model bug
        (e.g. a resource reporting completion before it started).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        queue = self._queue
        bucket = queue._buckets.get(time)
        if bucket is None:
            queue._buckets[time] = [(queue._sequence, kind, payload)]
            heappush(queue._times, time)
        else:
            bucket.append((queue._sequence, kind, payload))
        queue._sequence += 1
        queue._size += 1

    def post(self, delay: int, kind: str, *payload: Any) -> None:
        """Schedule event ``kind`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self._now + delay
        queue = self._queue
        bucket = queue._buckets.get(time)
        if bucket is None:
            queue._buckets[time] = [(queue._sequence, kind, payload)]
            heappush(queue._times, time)
        else:
            bucket.append((queue._sequence, kind, payload))
        queue._sequence += 1
        queue._size += 1

    def dispatch(self, target: tuple) -> None:
        """Invoke a ``(kind, *payload)`` completion target immediately
        (same cycle).

        Used by models that complete a request synchronously instead of
        through the queue.  A dispatched completion is real work, so it
        counts toward :attr:`events_processed` and ticks monitor
        countdowns — otherwise watchdog/metrics cadence would drift
        relative to the queued-event stream.  Monitors themselves fire
        only at event *boundaries* in :meth:`run` (firing mid-handler
        could observe — or checkpoint — half-updated component state).
        """
        self._handlers[target[0]](*target[1:])
        self._events_processed += 1
        for slot in self._monitors:
            slot[2] -= 1

    # ------------------------------------------------------------------
    # Monitors
    # ------------------------------------------------------------------

    def set_monitor(
        self, callback: Optional[Callable[[], Any]], interval_events: int = 10_000
    ) -> None:
        """Install (or clear, with ``None``) the periodic monitor hook.

        ``callback`` runs every ``interval_events`` fired events during
        :meth:`run` — the attachment point for watchdogs and invariant
        checkers.  A monitor may raise to abort the run; the clock and
        event counts stay consistent.  With no monitor installed the
        event loop is the original tight loop.

        This replaces *every* installed monitor; use :meth:`add_monitor`
        to attach several (e.g. a watchdog plus a metrics sampler).
        """
        if callback is not None and interval_events <= 0:
            raise ValueError(
                f"interval_events must be positive, got {interval_events}"
            )
        self._monitors.clear()
        if callback is not None:
            self.add_monitor(callback, interval_events)

    def add_monitor(
        self, callback: Callable[[], Any], interval_events: int = 10_000
    ) -> None:
        """Attach one more periodic monitor, each with its own cadence.

        Monitors fire in installation order when their countdowns expire
        on the same event.
        """
        if interval_events <= 0:
            raise ValueError(
                f"interval_events must be positive, got {interval_events}"
            )
        self._monitors.append([callback, interval_events, interval_events])

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when the next event would fire
        after ``until``, or after ``max_events`` events.  Returns the
        final simulation time.  When the queue empties before ``until``
        the clock stays at the last fired event (callers discover
        premature drains by inspecting their own completion state).
        """
        queue = self._queue
        handlers = self._handlers
        batch_handlers = self._batch_handlers
        monitors = self._monitors
        limit = float("inf") if max_events is None else max_events
        # The loop allocates heavily (event tuples, payloads) but creates
        # no reference cycles of its own; pausing the cyclic collector
        # for the drain avoids generation-0 sweeps every ~700 tuples.
        # Reference counting still frees everything promptly; anything
        # cyclic is collected when GC resumes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_loop(queue, handlers, batch_handlers, monitors, until, limit)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._now

    def _run_loop(self, queue, handlers, batch_handlers, monitors, until, limit):
        fired = 0
        unlimited = limit == float("inf")
        stop = float("inf") if until is None else until
        times = queue._times
        buckets = queue._buckets
        while times:
            time = times[0]
            if time > stop:
                self._now = until
                break
            if fired >= limit:
                break
            # EventQueue.pop_bucket, inline: it runs once per bucket.
            heappop(times)
            bucket = buckets.pop(time)
            n = len(bucket)
            queue._size -= n
            queue._floor = time
            self._now = time
            if n == 1 and unlimited and not monitors:
                # Most buckets hold one event; with no budget or monitor
                # to cap the run it needs no batching bookkeeping.
                _, kind, payload = bucket[0]
                handlers[kind](*payload)
                fired += 1
                self._events_processed += 1
                continue
            i = 0
            try:
                while i < n:
                    event = bucket[i]
                    kind = event[1]
                    j = i + 1
                    while j < n and bucket[j][1] == kind:
                        j += 1
                    take = j - i
                    # Cap the dispatch run at the max-events budget and
                    # at the nearest monitor due point, so monitors fire
                    # at exactly the scalar loop's event counts.
                    if fired + take > limit:
                        take = limit - fired
                        j = i + take
                    if monitors:
                        due = min(slot[2] for slot in monitors)
                        if due < 1:
                            due = 1
                        if take > due:
                            take = due
                            j = i + take
                    if take == 1:
                        # An event whose handler raises is consumed (the
                        # index advances first), matching the scalar pop
                        # loop; siblings after it stay queued.
                        i = j
                        handlers[kind](*event[2])
                        fired += 1
                        self._events_processed += 1
                    else:
                        batch = batch_handlers.get(kind)
                        if batch is None:
                            handler = handlers[kind]
                            while i < j:
                                event = bucket[i]
                                i += 1
                                handler(*event[2])
                                fired += 1
                                self._events_processed += 1
                        else:
                            payloads = [event[2] for event in bucket[i:j]]
                            i = j
                            batch(payloads)
                            fired += take
                            self._events_processed += take
                    if monitors:
                        due = False
                        for slot in monitors:
                            slot[2] -= take
                            if slot[2] <= 0:
                                due = True
                        if due:
                            if i < n:
                                # Monitors may checkpoint (or inspect)
                                # the queue, so the unprocessed tail of
                                # this bucket must be back in it before
                                # any monitor runs; the outer loop then
                                # re-pops the same cycle.
                                queue.requeue(time, bucket[i:])
                                n = i
                            for slot in monitors:
                                if slot[2] <= 0:
                                    slot[2] = slot[1]
                                    slot[0]()
                    if fired >= limit:
                        break
            finally:
                if i < n:
                    # Aborted mid-bucket (budget exhausted, or a handler
                    # or monitor raised): the unprocessed tail goes back
                    # so the queue stays consistent.
                    queue.requeue(time, bucket[i:])
        return self._now

    def step(self) -> bool:
        """Fire a single event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _, kind, payload = self._queue.pop()
        self._now = time
        self._handlers[kind](*payload)
        self._events_processed += 1
        return True
