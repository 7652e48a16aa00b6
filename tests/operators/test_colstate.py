"""Direct unit tests for the hash join's keyed state container."""

import random

import pytest

from repro.analysis.sanitizer import sanitized
from repro.operators import colstate
from repro.operators.colstate import ColumnarJoinState
from repro.temporal.element import NEW, OLD


@pytest.fixture(autouse=True)
def debug_cross_checks():
    """Every expiry self-checks against a scan of the live buckets."""
    with sanitized():
        yield


def contents(state):
    return [(e.payload, e.start, e.end, e.flag) for e in state]


def recount(state):
    return sum(len(e.payload) for e in state)


def fill(state, entries):
    for key, start, end in entries:
        state.insert(key, start, end, (key, start))


def test_sorted_mode_expires_by_end_and_prunes_empty_buckets():
    state = ColumnarJoinState()
    fill(state, [("a", 0, 10), ("b", 1, 11), ("a", 2, 12)])
    assert "sorted" in repr(state)
    state.expire(9)
    assert len(state) == 3
    state.expire(11)  # expiry is inclusive: end <= watermark
    assert contents(state) == [(("a", 2), 2, 12, None)]
    assert list(state.buckets) == ["a"]
    assert state.value_count() == recount(state) == 2
    state.expire(12)
    assert not state and not state.buckets and state.value_count() == 0


def test_out_of_order_end_flips_to_heap_mode_and_stays_exact():
    state = ColumnarJoinState()
    fill(state, [("a", 0, 20), ("b", 1, 5), ("a", 2, 30), ("b", 3, 8)])
    assert "heap" in repr(state)
    state.expire(5)
    assert [e.payload for e in state] == [("a", 0), ("a", 2), ("b", 3)]
    state.expire(20)
    assert [e.payload for e in state] == [("a", 2)]
    assert list(state.buckets) == ["a"]
    assert state.value_count() == recount(state) == 2
    # Inserts after the flip are indexed by the heap as well.
    fill(state, [("c", 21, 25)])
    state.expire(25)
    assert [e.payload for e in state] == [("a", 2)]
    state.expire(30)
    assert not state and not state.buckets


def test_out_of_order_end_inside_a_bulk_run_flips_too():
    state = ColumnarJoinState()
    state.insert_run(0, [0, 0, 0], [20, 5, 30], [("a",), ("b",), ("a",)], 0, 3)
    assert "heap" in repr(state)
    state.expire(5)
    assert [e.payload for e in state] == [("a",), ("a",)]
    assert state.value_count() == recount(state) == 2


def test_set_retention_mid_life_rekeys_live_elements():
    state = ColumnarJoinState()
    fill(state, [("a", 0, 10), ("b", 5, 12)])
    state.set_retention(lambda e: max(e.end, e.start + 25))
    state.expire(24)  # both past their end, neither past start + 25
    assert len(state) == 2
    fill(state, [("c", 6, 40)])
    state.expire(25)
    assert [e.payload for e in state] == [("b", 5), ("c", 6)]
    state.expire(30)
    assert [e.payload for e in state] == [("c", 6)]
    assert state.value_count() == recount(state) == 2
    state.expire(40)
    assert not state


@pytest.mark.parametrize("heap_mode", [False, True])
def test_extract_then_expire_past_the_drained_indices(heap_mode):
    state = ColumnarJoinState()
    fill(state, [("a", 0, 10), ("b", 1, 11), ("a", 2, 12), ("c", 3, 13)])
    if heap_mode:
        state.set_retention(None)
    drained = state.extract(lambda key: key == "a")
    assert [(e.payload, e.start, e.end) for e in drained] == [
        (("a", 0), 0, 10),
        (("a", 2), 2, 12),
    ]
    assert list(state.buckets) == ["b", "c"]
    assert len(state) == 2 and state.value_count() == recount(state) == 4
    # The sweep walks over the drained indices without touching a bucket.
    state.expire(12)
    assert [e.payload for e in state] == [("c", 3)]
    # A drained key can be re-inserted and expires on its own terms.
    fill(state, [("a", 4, 14)])
    state.expire(13)
    assert [e.payload for e in state] == [("a", 4)]
    state.expire(14)
    assert not state and not state.buckets and state.value_count() == 0


def test_compaction_rebases_bucket_indices_and_dead_markers(monkeypatch):
    monkeypatch.setattr(colstate, "_COMPACT_THRESHOLD", 4)
    state = ColumnarJoinState()
    fill(state, [(k, t, t + 10) for t, k in enumerate("abcabcabcd")])
    drained = state.extract(lambda key: key == "c")
    assert [e.start for e in drained] == [2, 5, 8]
    before = contents(state)
    state.expire(15)  # retires indices 0..5, one of them (2) already drained
    assert len(state.starts) == 4  # dead prefix dropped
    assert contents(state) == [entry for entry in before if entry[2] > 15]
    assert sorted(i for bucket in state.buckets.values() for i in bucket) == [0, 1, 3]
    assert state.value_count() == recount(state) == 6
    # The surviving drained index (8, now 2) is still skipped by the sweep.
    fill(state, [("c", 10, 20)])
    state.expire(19)
    assert [e.payload for e in state] == [("c", 10)]
    state.expire(20)
    assert not state and not state.buckets


def _heap_mode_trace(run_length, steps):
    """Feed runs with out-of-order ends through one state, expiring and
    (once) extracting as a join would; every observation per step."""
    rng = random.Random(5)
    state = ColumnarJoinState()
    trace = []
    sizes = []
    for t in range(steps):
        starts = [t] * run_length
        ends = [t + 1 + rng.randrange(40) for _ in range(run_length)]
        rows = [(rng.randrange(30), t, i) for i in range(run_length)]
        state.insert_run(0, starts, ends, rows, 0, run_length)
        sizes.append((len(state.starts), len(state)))
        if t == steps // 2:
            trace.append(contents(state.extract(lambda key: key % 7 == 0)))
        state.expire(t)
        sizes.append((len(state.starts), len(state)))
        assert state.value_count() == recount(state)
        trace.append((contents(state), state.value_count(), list(state.buckets)))
    assert "heap" in repr(state)
    return trace, sizes


def test_heap_mode_compacts_and_compaction_is_invisible(monkeypatch):
    run_length = 8
    monkeypatch.setattr(colstate, "_COMPACT_THRESHOLD", 10**9)
    reference, grown = _heap_mode_trace(run_length, 240)
    monkeypatch.undo()
    limit = colstate._COMPACT_THRESHOLD
    assert max(size for size, _ in grown) > 3 * limit, "the feed must outgrow the floor"
    trace, sizes = _heap_mode_trace(run_length, 240)
    for size, live in sizes:
        assert size <= max(limit, 2 * live) + run_length
    assert any(later < earlier for (earlier, _), (later, _) in zip(sizes, sizes[1:]))
    # Iteration order, bucket order, value counts and the extraction
    # are exactly those of the state that never compacted.
    assert trace == reference


def test_flagged_tracks_pt_flags_through_insert_expire_extract():
    state = ColumnarJoinState()
    assert not state.flagged
    state.insert("a", 0, 10, ("a",), OLD)
    state.insert("b", 1, 11, ("b",))
    state.insert("c", 2, 12, ("c",), NEW)
    assert state.flagged
    state.expire(10)  # drops the OLD element
    assert state.flagged
    assert [e.flag for e in state.extract(lambda key: key == "c")] == [NEW]
    assert not state.flagged
    state.insert("z", 5, 15, ("z",), OLD)
    assert state.flagged
    assert contents(state) == [(("b",), 1, 11, None), (("z",), 5, 15, OLD)]
    state.expire(15)
    assert not state.flagged and state.value_count() == 0


def test_debug_cross_check_catches_a_corrupted_index():
    state = ColumnarJoinState()
    fill(state, [("a", 0, 10), ("b", 1, 11)])
    state.ends[1] = 5  # unsorted behind the container's back: the bisect overshoots
    with pytest.raises(AssertionError, match="diverged from scan"):
        state.expire(7)
