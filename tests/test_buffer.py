"""Unit tests for the IOMMU pending-walk buffer."""

import pickle

import pytest

from repro.core.buffer import PendingWalkBuffer
from repro.core.request import TranslationRequest


def make_request(vpn=1, instruction_id=1, app_id=0):
    return TranslationRequest(
        vpn=vpn,
        instruction_id=instruction_id,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
        app_id=app_id,
    )


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PendingWalkBuffer(0)


def test_add_and_len():
    buffer = PendingWalkBuffer(4)
    buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.add(make_request(vpn=2), arrival_time=1)
    assert len(buffer) == 2
    assert not buffer.is_empty
    assert not buffer.is_full


def test_overflow_raises():
    buffer = PendingWalkBuffer(1)
    buffer.add(make_request(vpn=1), arrival_time=0)
    assert buffer.is_full
    with pytest.raises(OverflowError):
        buffer.add(make_request(vpn=2), arrival_time=1)


def test_iteration_in_arrival_order():
    buffer = PendingWalkBuffer(8)
    for vpn in (5, 3, 9):
        buffer.add(make_request(vpn=vpn), arrival_time=0)
    assert [entry.vpn for entry in buffer] == [5, 3, 9]


def test_oldest():
    buffer = PendingWalkBuffer(8)
    assert buffer.oldest() is None
    first = buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.add(make_request(vpn=2), arrival_time=1)
    assert buffer.oldest() is first


def test_oldest_for_instruction():
    buffer = PendingWalkBuffer(8)
    buffer.add(make_request(vpn=1, instruction_id=1), arrival_time=0)
    target = buffer.add(make_request(vpn=2, instruction_id=2), arrival_time=1)
    buffer.add(make_request(vpn=3, instruction_id=2), arrival_time=2)
    assert buffer.oldest_for_instruction(2) is target
    assert buffer.oldest_for_instruction(99) is None


def test_duplicate_vpn_entries_are_legal():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=7, instruction_id=1), arrival_time=0)
    b = buffer.add(make_request(vpn=7, instruction_id=2), arrival_time=1)
    assert buffer.find_by_vpn(7) is a
    buffer.remove(a)
    assert buffer.find_by_vpn(7) is b
    buffer.remove(b)
    assert buffer.find_by_vpn(7) is None


def test_remove_frees_capacity():
    buffer = PendingWalkBuffer(1)
    entry = buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.remove(entry)
    assert buffer.is_empty
    buffer.add(make_request(vpn=2), arrival_time=1)  # no overflow


def test_remove_unknown_entry_raises():
    buffer = PendingWalkBuffer(2)
    entry = buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.remove(entry)
    with pytest.raises(KeyError):
        buffer.remove(entry)


def test_scores_accumulate_per_instruction():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    b = buffer.add(make_request(vpn=2, instruction_id=1), 0, estimated_accesses=3)
    assert buffer.score_of(a) == 7
    assert buffer.score_of(b) == 7


def test_score_persists_until_walk_completes():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    b = buffer.add(make_request(vpn=2, instruction_id=1), 0, estimated_accesses=2)
    buffer.remove(a)  # dispatched, still in flight
    assert buffer.score_of(b) == 6
    buffer.complete_walk(1)
    assert buffer.score_of(b) == 6  # one walk still active
    buffer.remove(b)
    buffer.complete_walk(1)  # last walk done: score released


def test_attach_does_not_change_score():
    buffer = PendingWalkBuffer(8)
    entry = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    buffer.attach(entry, make_request(vpn=1, instruction_id=2))
    assert buffer.score_of(entry) == 4
    assert buffer.total_coalesced == 1


def test_direct_dispatch_accounting():
    buffer = PendingWalkBuffer(8)
    buffer.account_direct_dispatch(5, 4)
    entry = buffer.add(make_request(vpn=9, instruction_id=5), 0, estimated_accesses=1)
    assert buffer.score_of(entry) == 5


def test_peak_occupancy_tracked():
    buffer = PendingWalkBuffer(4)
    entries = [buffer.add(make_request(vpn=v), 0) for v in range(3)]
    for entry in entries:
        buffer.remove(entry)
    assert buffer.peak_occupancy == 3
    assert buffer.total_insertions == 3


def test_min_score_entry_picks_lowest_score_then_oldest():
    buffer = PendingWalkBuffer(8)
    assert buffer.min_score_entry() is None
    buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    light = buffer.add(make_request(vpn=2, instruction_id=2), 0, estimated_accesses=1)
    buffer.add(make_request(vpn=3, instruction_id=2), 0, estimated_accesses=0)
    assert buffer.min_score_entry() is light  # score 1 < 4; oldest of instr 2


def test_min_score_entry_tracks_removals():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=1)
    b = buffer.add(make_request(vpn=2, instruction_id=1), 0, estimated_accesses=1)
    c = buffer.add(make_request(vpn=3, instruction_id=2), 0, estimated_accesses=9)
    assert buffer.min_score_entry() is a
    buffer.remove(a)
    assert buffer.min_score_entry() is b  # next-oldest of the same instruction
    buffer.remove(b)
    assert buffer.min_score_entry() is c  # only instruction left


def test_min_score_entry_sees_score_growth():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=2)
    b = buffer.add(make_request(vpn=2, instruction_id=2), 0, estimated_accesses=3)
    assert buffer.min_score_entry() is a
    # Instruction 1 gains work (a direct dispatch): instruction 2 wins now.
    buffer.account_direct_dispatch(1, 4)
    assert buffer.min_score_entry() is b


def test_min_score_entry_for_app():
    buffer = PendingWalkBuffer(8)
    buffer.add(make_request(vpn=1, instruction_id=1, app_id=0), 0, estimated_accesses=1)
    heavy = buffer.add(
        make_request(vpn=2, instruction_id=2, app_id=1), 0, estimated_accesses=9
    )
    assert buffer.min_score_entry_for_app(1) is heavy
    assert buffer.min_score_entry_for_app(7) is None


def test_app_index_sees_other_apps_score_changes():
    # Regression: instruction 1 spans two apps; adding more of its work
    # via app 1 must refresh app 0's index too.
    buffer = PendingWalkBuffer(8)
    mine = buffer.add(
        make_request(vpn=1, instruction_id=1, app_id=0), 0, estimated_accesses=1
    )
    buffer.add(make_request(vpn=2, instruction_id=1, app_id=1), 0, estimated_accesses=5)
    assert buffer.min_score_entry_for_app(0) is mine


def test_pending_apps_ordered_by_oldest_entry():
    buffer = PendingWalkBuffer(8)
    assert buffer.pending_apps() == []
    first = buffer.add(make_request(vpn=1, instruction_id=1, app_id=3), 0)
    buffer.add(make_request(vpn=2, instruction_id=2, app_id=0), 0)
    buffer.add(make_request(vpn=3, instruction_id=3, app_id=3), 0)
    assert buffer.pending_apps() == [3, 0]
    buffer.remove(first)
    assert buffer.pending_apps() == [0, 3]


def test_track_scores_false_skips_score_index():
    buffer = PendingWalkBuffer(8, track_scores=False)
    entry = buffer.add(make_request(vpn=1), 0, estimated_accesses=2)
    assert buffer.oldest() is entry  # arrival-order queries still work
    assert buffer.score_of(entry) == 2  # plain score lookups still work
    with pytest.raises(RuntimeError):
        buffer.min_score_entry()


def _queries(buffer):
    """Every query a scheduler can make, as comparable plain data."""
    seq = lambda entry: None if entry is None else entry.arrival_seq  # noqa: E731
    return (
        [entry.arrival_seq for entry in buffer],
        seq(buffer.oldest()),
        seq(buffer.min_score_entry()),
        [seq(buffer.oldest_for_instruction(i)) for i in range(4)],
        buffer.pending_apps(),
        [seq(buffer.min_score_entry_for_app(app)) for app in range(3)],
        [seq(buffer.find_by_vpn(vpn)) for vpn in range(12)],
        (buffer.peak_occupancy, buffer.total_insertions, buffer.total_coalesced),
    )


def test_snapshot_restore_round_trip():
    buffer = PendingWalkBuffer(16)
    entries = [
        buffer.add(
            make_request(vpn=v % 12, instruction_id=v % 4, app_id=v % 3),
            arrival_time=v,
            estimated_accesses=1 + v % 4,
        )
        for v in range(14)
    ]
    buffer.attach(entries[3], make_request(vpn=3, instruction_id=7))
    buffer.account_direct_dispatch(2, 3)
    for entry in entries[::3]:  # leaves stale members in every index
        buffer.remove(entry)
    twin = pickle.loads(pickle.dumps(buffer))
    # The per-application index is gone from the layout.
    assert not {"_by_app", "_per_app", "_instruction_apps", "_app_score_index"} & set(
        vars(twin)
    )
    assert _queries(twin) == _queries(buffer)
    # Both keep answering identically as entries drain.
    twin_entries = {entry.arrival_seq: entry for entry in twin}
    while not buffer.is_empty:
        choice = buffer.min_score_entry()
        buffer.remove(choice)
        twin.remove(twin_entries[choice.arrival_seq])
        assert _queries(twin) == _queries(buffer)

