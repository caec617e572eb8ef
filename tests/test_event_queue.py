"""Unit tests for the event queue: ordering, stability, snapshots.

The calendar/bucket queue must be observably identical to the binary
heap it replaced, so alongside the unit tests there is a differential
fuzz section popping it against a ``heapq`` reference twin — same-cycle
ties, interleaved push/pop, and snapshot/restore mid-stream included.
"""

import pickle
import random
from heapq import heappop, heappush

import pytest

from repro.engine.event_queue import EventQueue


def test_empty_queue_is_falsy():
    queue = EventQueue()
    assert not queue
    assert len(queue) == 0


def test_push_pop_single_event():
    queue = EventQueue()
    queue.push(5, "walker.step", (3,))
    time, seq, kind, payload = queue.pop()
    assert time == 5
    assert kind == "walker.step"
    assert payload == (3,)


def test_payload_defaults_to_empty_tuple():
    queue = EventQueue()
    queue.push(0, "iommu.kick")
    _time, _seq, kind, payload = queue.pop()
    assert kind == "iommu.kick"
    assert payload == ()


def test_events_pop_in_time_order():
    queue = EventQueue()
    queue.push(30, "late")
    queue.push(10, "early")
    queue.push(20, "middle")
    times = [queue.pop()[0] for _ in range(3)]
    assert times == [10, 20, 30]


def test_same_time_events_are_fifo():
    queue = EventQueue()
    for tag in ("first", "second", "third"):
        queue.push(7, tag)
    kinds = [queue.pop()[2] for _ in range(3)]
    assert kinds == ["first", "second", "third"]


def test_payloads_never_compared_for_ordering():
    # Payload objects need not be orderable; the (time, seq) prefix is
    # always unique, so the heap must not look past it.
    queue = EventQueue()
    queue.push(7, "a", (object(),))
    queue.push(7, "a", (object(),))
    queue.push(7, "a", (object(),))
    assert [queue.pop()[1] for _ in range(3)] == [0, 1, 2]


def test_peek_time_returns_earliest():
    queue = EventQueue()
    queue.push(42, "x")
    queue.push(17, "y")
    assert queue.peek_time() == 17
    assert len(queue) == 2  # peek does not consume


def test_peek_time_on_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().peek_time()


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().push(-1, "x")


def test_len_tracks_pushes_and_pops():
    queue = EventQueue()
    for i in range(10):
        queue.push(i, "tick")
    assert len(queue) == 10
    queue.pop()
    assert len(queue) == 9


def test_snapshot_restore_roundtrip():
    queue = EventQueue()
    queue.push(10, "a", (1,))
    queue.push(5, "b", (2,))
    queue.pop()

    other = pickle.loads(pickle.dumps(queue))
    assert len(other) == 1
    time, _seq, kind, payload = other.pop()
    assert (time, kind, payload) == (10, "a", (1,))

    # Sequence numbering continues from the pickled queue, preserving
    # FIFO order across the round trip.
    queue.pop()
    queue.push(10, "c")
    other.push(10, "c")
    assert other.pop() == queue.pop()


def test_push_below_drained_time_raises():
    # The floor guard lives in the queue itself (not just the
    # simulator's post_at): once a bucket has been drained, a direct
    # push into the past would corrupt pop order, so it is rejected.
    queue = EventQueue()
    queue.push(10, "a")
    queue.push(20, "b")
    queue.pop()  # drains the cycle-10 bucket; floor is now 10
    with pytest.raises(ValueError):
        queue.push(9, "late")
    queue.push(10, "same-cycle-ok")  # the floor itself stays legal
    assert queue.pop()[0] == 10


def test_pop_bucket_sets_floor():
    queue = EventQueue()
    queue.push(5, "a")
    queue.push(5, "b")
    queue.pop_bucket()
    with pytest.raises(ValueError):
        queue.push(4, "late")


# ----------------------------------------------------------------------
# Differential fuzz: calendar queue vs heapq reference twin
# ----------------------------------------------------------------------


class _HeapTwin:
    """The pre-calendar reference implementation: one binary heap."""

    def __init__(self):
        self._heap = []
        self._sequence = 0

    def push(self, time, kind, payload=()):
        heappush(self._heap, (time, self._sequence, kind, payload))
        self._sequence += 1

    def pop(self):
        return heappop(self._heap)

    def __len__(self):
        return len(self._heap)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_matches_heap_reference(seed):
    """Interleaved pushes and pops, dense same-cycle ties."""
    rng = random.Random(seed)
    queue, twin = EventQueue(), _HeapTwin()
    now = 0
    for step in range(2_000):
        if twin and rng.random() < 0.45:
            expected = twin.pop()
            got = queue.pop()
            assert got == expected
            now = expected[0]
        else:
            # Mostly near-future times with heavy collisions, plus the
            # occasional far-future outlier.
            delay = rng.choice((0, 0, 0, 1, 1, 2, 3, rng.randrange(500)))
            kind = rng.choice(("a", "b", "c"))
            payload = (step,)
            queue.push(now + delay, kind, payload)
            twin.push(now + delay, kind, payload)
        assert len(queue) == len(twin)
    while twin:
        assert queue.pop() == twin.pop()
    assert not queue


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_snapshot_restore_mid_stream(seed):
    """Pickle round trips at random points must not perturb pop order."""
    rng = random.Random(1_000 + seed)
    queue, twin = EventQueue(), _HeapTwin()
    now = 0
    for step in range(1_500):
        roll = rng.random()
        if roll < 0.05:
            # Round-trip through pickle into a fresh queue object.
            queue = pickle.loads(pickle.dumps(queue))
        elif twin and roll < 0.5:
            expected = twin.pop()
            assert queue.pop() == expected
            now = expected[0]
        else:
            delay = rng.choice((0, 0, 1, 2, rng.randrange(100)))
            queue.push(now + delay, "k", (step,))
            twin.push(now + delay, "k", (step,))
    while twin:
        assert queue.pop() == twin.pop()


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_pop_bucket_matches_scalar_pops(seed):
    """Draining whole buckets yields the same stream as scalar pops."""
    rng = random.Random(2_000 + seed)
    queue, twin = EventQueue(), _HeapTwin()
    for step in range(300):
        time = rng.choice((0, 0, 1, 2, 5)) + rng.randrange(4)
        kind = rng.choice(("x", "y"))
        queue.push(time, kind, (step,))
        twin.push(time, kind, (step,))
    while queue:
        time, events = queue.pop_bucket()
        for seq, kind, payload in events:
            assert (time, seq, kind, payload) == twin.pop()
    assert not len(twin)
