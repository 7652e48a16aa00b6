"""Tests for the column view of a Batch (starts/ends/rows/flags)."""

import pytest

from repro.temporal import Batch, NEW, OLD, element


def elements_at(*starts):
    return [element((i, i * 10), t, t + 5) for i, t in enumerate(starts)]


class TestConstruction:
    def test_is_a_batch(self):
        # One class: a run built from columns is a plain Batch.
        batch = Batch.from_columns([1, 2], [6, 7], [("a",), ("b",)], None, 2, None, False)
        assert type(batch) is Batch

    def test_empty_rejected(self):
        # A watermark-only batch is not representable: watermark-only
        # progress travels as heartbeats, never as an empty run.
        with pytest.raises(ValueError, match="at least one element"):
            Batch([])

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Batch(elements_at(5, 3))

    def test_watermark_below_last_start_rejected(self):
        with pytest.raises(ValueError, match="watermark"):
            Batch(elements_at(1, 7), watermark=6)

    def test_columns_mirror_the_elements(self):
        batch = Batch(elements_at(1, 4, 4), watermark=9, source="A")
        assert batch.starts == [1, 4, 4]
        assert batch.ends == [6, 9, 9]
        assert batch.rows == [(0, 0), (1, 10), (2, 20)]
        assert batch.flags is None
        assert batch.watermark == 9
        assert batch.source == "A"
        assert not batch.uniform_start

    def test_flag_column_only_when_flagged(self):
        items = elements_at(1, 2)
        flagged = [items[0].with_flag(NEW), items[1]]
        batch = Batch(flagged)
        assert batch.flags == [NEW, None]

    def test_from_columns_round_trips(self):
        batch = Batch.from_columns(
            [1, 1], [6, 7], [("a",), ("b",)], [None, OLD], 3, "A", True
        )
        assert len(batch) == 2
        assert [(e.payload, e.start, e.end, e.flag) for e in batch] == [
            (("a",), 1, 6, None),
            (("b",), 1, 7, OLD),
        ]
        assert batch.watermark == 3
        assert batch.uniform_start


class TestMaterialisation:
    def test_elements_lazy_and_cached(self):
        batch = Batch.from_columns(
            [1, 2], [6, 7], [("a",), ("b",)], None, 2, None, False
        )
        first = batch.elements
        assert [e.payload for e in first] == [("a",), ("b",)]
        assert batch.elements is first  # cached, built once

    def test_validating_constructor_keeps_original_elements(self):
        items = elements_at(1, 2)
        batch = Batch(items)
        assert batch.starts == [1, 2]
        assert all(a is b for a, b in zip(batch.elements, items))

    def test_with_elements_returns_plain_batch(self):
        # An element-wise rewrite of a run built from columns is a run
        # built from the rewritten elements.
        batch = Batch.from_columns(
            [1, 2], [6, 7], [("a",), ("b",)], None, 8, "A", False
        )
        rewritten = [e.with_flag(NEW) for e in batch]
        mapped = batch.with_elements(rewritten)
        assert type(mapped) is Batch
        assert mapped.elements is rewritten
        assert mapped.watermark == 8
        assert mapped.source == "A"
        assert mapped.flags == [NEW, NEW]


class TestHalfChrononTimestamps:
    def test_sub_chronon_starts_survive(self):
        # Migration split times are half chronons (Remark 3): the float
        # must flow through the timestamp columns unchanged.
        half = 3.5
        items = [element(("a",), 1, 6), element(("b",), half, 8)]
        batch = Batch(items)
        assert batch.starts == [1, half]
        assert batch.elements[1].start == half


class TestRuns:
    def test_uniform_batch_is_a_single_run(self):
        batch = Batch(elements_at(4, 4, 4), watermark=9)
        runs = list(batch.runs())
        assert runs == [batch]

    def test_single_element_run(self):
        batch = Batch(elements_at(3))
        (run,) = batch.runs()
        assert run is batch
        assert len(run) == 1

    def test_splits_stay_columnar_with_batch_watermark_placement(self):
        batch = Batch(elements_at(1, 1, 4, 9, 9), watermark=12, source="A")
        runs = list(batch.runs())
        assert [run.starts for run in runs] == [[1, 1], [4], [9, 9]]
        assert [run.rows for run in runs] == [
            [(0, 0), (1, 10)], [(2, 20)], [(3, 30), (4, 40)]
        ]
        # Non-final runs promise their own start; the final run inherits
        # the batch's trailing watermark.
        assert [run.watermark for run in runs] == [1, 4, 12]
        assert all(run.uniform_start for run in runs)
        assert all(run.source == "A" for run in runs)
        rejoined = [e for run in runs for e in run]
        assert rejoined == batch.elements

    def test_runs_slice_the_flag_column(self):
        items = elements_at(1, 1, 5)
        items[1] = items[1].with_flag(OLD)
        runs = list(Batch(items).runs())
        assert runs[0].flags == [None, OLD]
        assert runs[1].flags == [None]
