"""Direct unit tests for the joins' keyed state container."""

import random

import pytest

from repro.analysis.sanitizer import sanitized
from repro.operators.colstate import ColumnarJoinState
from repro.temporal.element import NEW, OLD


@pytest.fixture(autouse=True)
def debug_cross_checks():
    """Every expiry self-checks against a scan of the live buckets."""
    with sanitized():
        yield


def contents(elements):
    return [(e.payload, e.start, e.end, e.flag) for e in elements]


def recount(state):
    return sum(len(e.payload) for e in state)


def fill(state, entries):
    for key, start, end in entries:
        state.insert(key, start, end, (key, start))


def test_sorted_mode_expires_by_end_and_prunes_empty_buckets():
    """In-order ends, the common window-extended feed: the purge is
    inclusive by end and a bucket goes the moment it empties."""
    state = ColumnarJoinState()
    fill(state, [("a", 0, 10), ("b", 1, 11), ("a", 2, 12)])
    state.expire(9)
    assert len(state) == 3
    state.expire(11)  # expiry is inclusive: end <= watermark
    assert contents(state) == [(("a", 2), 2, 12, None)]
    assert list(state.buckets) == ["a"]
    assert state.value_count() == recount(state) == 2
    state.expire(12)
    assert not state and not state.buckets and state.value_count() == 0


def test_out_of_order_end_flips_to_heap_mode_and_stays_exact():
    """Out-of-order ends (once a separate heap mode) purge exactly through
    the one calendar, before and after the first disorder."""
    state = ColumnarJoinState()
    fill(state, [("a", 0, 20), ("b", 1, 5), ("a", 2, 30), ("b", 3, 8)])
    state.expire(5)
    assert [e.payload for e in state] == [("a", 0), ("a", 2), ("b", 3)]
    state.expire(20)
    assert [e.payload for e in state] == [("a", 2)]
    assert list(state.buckets) == ["a"]
    assert state.value_count() == recount(state) == 2
    # Inserts after the disorder are filed in the same calendar.
    fill(state, [("c", 21, 25)])
    state.expire(25)
    assert [e.payload for e in state] == [("a", 2)]
    state.expire(30)
    assert not state and not state.buckets


def test_out_of_order_end_inside_a_bulk_run_flips_too():
    """A bulk run whose ends are out of order purges as exactly as
    element-at-a-time inserts."""
    state = ColumnarJoinState()
    state.insert_run(0, [0, 0, 0], [20, 5, 30], [("a",), ("b",), ("a",)], 0, 3)
    state.expire(5)
    assert [e.payload for e in state] == [("a",), ("a",)]
    assert state.value_count() == recount(state) == 2


class ListModel:
    """The container's contract over one flat list of live elements.

    A key's bucket exists while the key holds a live element; its place in
    the bucket order is the insertion that (re)created it.
    """

    def __init__(self):
        self.live = []  # (seq, key, start, end, row, flag)
        self.created = {}  # key -> seq of the insert that created its bucket
        self.seq = 0
        self.retention = None

    def insert(self, key, start, end, row, flag=None):
        self.created.setdefault(key, self.seq)
        self.live.append((self.seq, key, start, end, row, flag))
        self.seq += 1

    def _order(self, entries):
        return sorted(entries, key=lambda x: (self.created[x[1]], x[0]))

    def _drop(self, doomed):
        doomed = {x[0] for x in doomed}
        self.live = [x for x in self.live if x[0] not in doomed]
        held = {x[1] for x in self.live}
        self.created = {k: s for k, s in self.created.items() if k in held}

    def expiry(self, x):
        _, _, start, end, _, _ = x
        if self.retention is None:
            return end
        return self.retention(start, end)

    def expire(self, watermark):
        self._drop([x for x in self.live if self.expiry(x) <= watermark])

    def extract(self, predicate):
        drained = self._order([x for x in self.live if predicate(x[1])])
        self._drop(drained)
        return [(row, start, end, flag) for _, _, start, end, row, flag in drained]

    def observe(self):
        ordered = self._order(self.live)
        return (
            [(row, start, end, flag) for _, _, start, end, row, flag in ordered],
            sorted(self.created, key=self.created.get),
            len(self.live),
            sum(len(x[4]) for x in self.live),
            any(x[5] is not None for x in self.live),
        )


def observe(state):
    return (
        contents(state),
        list(state.buckets),
        len(state),
        state.value_count(),
        state.flagged,
    )


def _tuple_timestamp_rule(window):
    return lambda start, end: max(end, start + window)


@pytest.mark.parametrize("seed", range(40))
def test_state_matches_a_list_model(seed):
    """Random inserts, bulk runs, range drains, retention changes and
    purges — ends out of order and on half chronons — leave the container
    and a naive list model with the same iteration order, bucket order,
    size, value count and flag status after every step."""
    rng = random.Random(seed)
    state = ColumnarJoinState()
    model = ListModel()
    keys = range(rng.choice([1, 3, 8]))
    t = 0
    watermark = 0
    for _ in range(150):
        action = rng.random()
        if action < 0.35:
            key = rng.choice(keys)
            end = t + rng.randrange(1, 30) - rng.choice([0, 0.5])
            flag = rng.choice([None, None, OLD, NEW])
            row = (key, t, model.seq)
            state.insert(key, t, end, row, flag)
            model.insert(key, t, end, row, flag)
        elif action < 0.6:
            n = rng.randrange(1, 9)
            lo = rng.randrange(3)
            width = rng.choice([10, 20])
            starts = [t] * (lo + n)
            ends = [t + width - rng.choice([0, 0, 0.5, 3]) for _ in starts]
            rows = [(rng.choice(keys), t, model.seq + i) for i in range(lo + n)]
            state.insert_run(0, starts, ends, rows, lo, lo + n)
            for i in range(lo, lo + n):
                model.insert(rows[i][0], starts[i], ends[i], rows[i])
        elif action < 0.67:
            chosen = set(rng.sample(list(keys), rng.randrange(len(keys) + 1)))
            assert contents(state.extract(chosen.__contains__)) == model.extract(
                chosen.__contains__
            )
        elif action < 0.7:
            window = rng.choice([None, 15, 25])
            if window is None:
                state.set_retention(None)
                model.retention = None
            else:
                rule = _tuple_timestamp_rule(window)
                state.set_retention(lambda e, rule=rule: rule(e.start, e.end))
                model.retention = rule
        else:
            watermark = max(watermark, t - rng.randrange(0, 20) + rng.choice([0, 0.5]))
            state.expire(watermark)
            model.expire(watermark)
        assert observe(state) == model.observe()
        t += rng.choice([0, 0, 1, 2])
    state.expire(10**6)
    model.expire(10**6)
    assert observe(state) == model.observe() == ([], [], 0, 0, False)


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


@pytest.mark.parametrize("refile_after_extract", [False, True])
def test_extract_then_expire_past_the_drained_indices(refile_after_extract):
    """The calendar records a drain leaves behind remove nothing live,
    whether they stay (no re-filing) or are dropped by ``set_retention``."""
    state = ColumnarJoinState()
    fill(state, [("a", 0, 10), ("b", 1, 11), ("a", 2, 12), ("c", 3, 13)])
    drained = state.extract(lambda key: key == "a")
    if refile_after_extract:
        state.set_retention(None)
    assert [(e.payload, e.start, e.end) for e in drained] == [
        (("a", 0), 0, 10),
        (("a", 2), 2, 12),
    ]
    assert list(state.buckets) == ["b", "c"]
    assert len(state) == 2 and state.value_count() == recount(state) == 4
    # A drained key can be re-inserted; the drained elements' records
    # (due at 10 and 12) must not take its later entry with them.
    fill(state, [("a", 4, 14)])
    state.expire(12)
    assert [e.payload for e in state] == [("c", 3), ("a", 4)]
    state.expire(13)
    assert [e.payload for e in state] == [("a", 4)]
    state.expire(14)
    assert not state and not state.buckets and state.value_count() == 0


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
    # Shorten an entry behind the container's back: its calendar record
    # still says 11, so the purge at 7 misses it.
    state.buckets["b"][0] = (1, 5, ("b", 1), None)
    with pytest.raises(AssertionError, match="diverged from scan"):
        state.expire(7)
