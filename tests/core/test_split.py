"""Tests for the Split operator (Algorithm 2) and the router contract
every two-sided migration router shares."""

import random

import pytest

from helpers import BATCH_BUILDERS
from repro.core import FrontierRouter, ReferencePointSplit, Split
from repro.core.parallel_track import _DualTap
from repro.operators import Select
from repro.streams import CollectorSink
from repro.temporal import EPSILON, OLD, element, snapshot_equivalent
from repro.temporal.element import StreamElement
from repro.temporal.time import MAX_TIME

T_SPLIT = 100 + EPSILON


def make_split(cls=Split):
    split = cls(T_SPLIT)
    old_sink, new_sink = CollectorSink("old"), CollectorSink("new")
    old_op, new_op = Select(lambda p: True), Select(lambda p: True)
    old_op.attach_sink(old_sink)
    new_op.attach_sink(new_sink)
    split.connect_old(old_op, 0)
    split.connect_new(new_op, 0)
    return split, old_sink, new_sink, old_op, new_op


class TestRouting:
    def test_fully_below_goes_old_only(self):
        split, old, new, *_ = make_split()
        split.process(element("a", 0, 50))
        assert [e.payload for e in old.elements] == [("a",)]
        assert new.elements == []

    def test_fully_above_goes_new_only(self):
        split, old, new, *_ = make_split()
        split.process(element("a", 101, 150))
        assert old.elements == []
        assert [e.payload for e in new.elements] == [("a",)]

    def test_straddling_element_split_cleanly(self):
        split, old, new, *_ = make_split()
        split.process(element("a", 50, 150))
        assert old.elements[0].interval.end == T_SPLIT
        assert new.elements[0].interval.start == T_SPLIT
        # The two parts are snapshot-equivalent to the original.
        assert snapshot_equivalent(
            [element("a", 50, 150)], old.elements + new.elements
        )

    def test_t_split_never_collides_with_timestamps(self):
        """Remark 3: integer-stamped inputs are never cut ambiguously."""
        split, old, new, *_ = make_split()
        split.process(element("a", 100, 101))  # instants: just 100 < T_split
        assert len(old.elements) == 1
        assert new.elements == []

    def test_flags_preserved(self):
        from repro.temporal import OLD

        split, old, new, *_ = make_split()
        split.process(element("a", 50, 150).with_flag(OLD))
        assert old.elements[0].flag == OLD
        assert new.elements[0].flag == OLD


class TestWatermarkPromises:
    def test_old_side_follows_raw_watermark(self):
        split, _, _, old_op, _ = make_split()
        split.process_heartbeat(42)
        assert old_op.min_watermark == 42

    def test_new_side_promised_t_split_immediately(self):
        """This is what lets the new box emit during migration."""
        split, _, _, _, new_op = make_split()
        split.process_heartbeat(5)
        assert new_op.min_watermark == T_SPLIT

    def test_old_side_receives_end_of_stream_when_input_passes_t_split(self):
        """Algorithm 1 line 11, realised per input."""
        split, _, _, old_op, _ = make_split()
        split.process_heartbeat(101)
        assert old_op.min_watermark == MAX_TIME

    def test_new_side_follows_raw_watermark_after_t_split(self):
        split, _, _, _, new_op = make_split()
        split.process_heartbeat(150)
        assert new_op.min_watermark == 150

    def test_element_processing_advances_watermarks(self):
        split, _, _, old_op, new_op = make_split()
        split.process(element("a", 42, 80))
        assert old_op.min_watermark == 42
        assert new_op.min_watermark == T_SPLIT

    def test_watermarks_never_regress(self):
        split, _, _, old_op, _ = make_split()
        split.process_heartbeat(50)
        split.process_heartbeat(30)
        assert old_op.min_watermark == 50


class TestReferencePointSplit:
    def test_old_side_receives_full_intervals(self):
        split, old, new, *_ = make_split(ReferencePointSplit)
        split.process(element("a", 50, 150))
        assert old.elements[0].interval.end == 150
        assert new.elements[0].interval.start == T_SPLIT

    def test_post_split_elements_skip_old_side(self):
        split, old, new, *_ = make_split(ReferencePointSplit)
        split.process(element("a", 101, 150))
        assert old.elements == []
        assert len(new.elements) == 1

    def test_below_split_elements_not_duplicated_to_new(self):
        split, old, new, *_ = make_split(ReferencePointSplit)
        split.process(element("a", 0, 50))
        assert len(old.elements) == 1
        assert new.elements == []


ROUTERS = {
    "split": lambda: Split(T_SPLIT),
    "rp-split": lambda: ReferencePointSplit(T_SPLIT),
    "frontier": lambda: FrontierRouter(
        key_of=lambda p: p[0], range_of=lambda k: k % 3, migrated={1}
    ),
    "pt-tap": lambda: _DualTap("tap"),
}


class _Side:
    """Records what one side of a router is handed, in order, and how
    many runs it was handed; reads runs by their columns only."""

    def __init__(self):
        self.elements = []
        self.promises = []
        self.runs = 0

    def process(self, element, port=0):
        self.elements.append((element.payload, element.start, element.end, element.flag))

    def process_batch(self, batch, port=0):
        self.runs += 1
        assert batch.uniform_start == (batch.starts[0] == batch.starts[-1])
        assert batch.watermark == batch.starts[-1]
        flags = batch.flags or [None] * len(batch)
        self.elements.extend(zip(batch.rows, batch.starts, batch.ends, flags))

    def process_heartbeat(self, t, port=0):
        if not self.promises or t > self.promises[-1]:
            self.promises.append(t)


def _random_runs(seed):
    """Uniform-start runs (the executor's batch currency) straddling the
    half-chronon ``T_SPLIT``, some closed by a watermark beyond their
    start, about a third of the elements PT-flagged, and every run below
    ``T_SPLIT`` holding an element that ends at 101, whose part above
    ``T_SPLIT``, ``[100.5, 101)``, is a sliver covering no instant."""
    rng = random.Random(seed)
    t, runs = 80, []
    for _ in range(12):
        run = [
            element(rng.randint(0, 5), t, t + rng.randint(1, 40))
            for _ in range(rng.randint(1, 4))
        ]
        if t < T_SPLIT:
            run.append(element(rng.randint(0, 5), t, 101))
        run = [e.with_flag(OLD) if rng.random() < 0.3 else e for e in run]
        watermark = t + rng.choice([0, 0, 2])
        runs.append((run, watermark))
        t = watermark + rng.randint(0, 4)
    return runs


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", sorted(ROUTERS))
def test_batch_path_equals_element_path(kind, seed, monkeypatch):
    """``process_batch`` — given a run built from elements or from
    columns — hands each side exactly the element sequence and the same
    distinct watermark promises as element-wise ``process`` followed by
    the run's trailing heartbeat, always as runs, and builds no element
    on the way."""
    built = []
    element_init = StreamElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        element_init(self, *args, **kwargs)

    sides = {}
    for mode in ("element", *BATCH_BUILDERS):
        router = ROUTERS[kind]()
        old, new = _Side(), _Side()
        router.connect_old(old)
        router.connect_new(new)
        for run, watermark in _random_runs(seed):
            if mode == "element":
                for e in run:
                    router.process(e)
                router.process_heartbeat(watermark)
            else:
                batch = BATCH_BUILDERS[mode](run, watermark, "s")
                with monkeypatch.context() as patch:
                    patch.setattr(StreamElement, "__init__", counting_init)
                    router.process_batch(batch)
                assert not built, "the run path built an element"
        sides[mode] = (old, new)
    for mode in BATCH_BUILDERS:
        for by_element, by_batch in zip(sides["element"], sides[mode]):
            assert by_batch.elements == by_element.elements, mode
            assert by_batch.promises == by_element.promises, mode
            assert bool(by_batch.runs) == bool(by_batch.elements), mode
    old, new = sides["element"]
    assert old.elements and new.elements
    assert any(flag is not None for *_, flag in old.elements + new.elements)
