"""Tests for the struct-of-arrays ColumnarBatch."""

import pytest

from repro.temporal import Batch, ColumnarBatch, NEW, OLD, element


def elements_at(*starts):
    return [element((i, i * 10), t, t + 5) for i, t in enumerate(starts)]


class TestConstruction:
    def test_is_a_batch(self):
        batch = ColumnarBatch(elements_at(1, 2))
        assert isinstance(batch, Batch)

    def test_empty_rejected(self):
        # A watermark-only batch is not representable: watermark-only
        # progress travels as heartbeats, never as an empty run.
        with pytest.raises(ValueError, match="at least one element"):
            ColumnarBatch([])

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            ColumnarBatch(elements_at(5, 3))

    def test_watermark_below_last_start_rejected(self):
        with pytest.raises(ValueError, match="watermark"):
            ColumnarBatch(elements_at(1, 7), watermark=6)

    def test_columns_mirror_the_elements(self):
        batch = ColumnarBatch(elements_at(1, 4, 4), watermark=9, source="A")
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
        batch = ColumnarBatch(flagged)
        assert batch.flags == [NEW, None]

    def test_from_columns_round_trips(self):
        batch = ColumnarBatch.from_columns(
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
        batch = ColumnarBatch.from_columns(
            [1, 2], [6, 7], [("a",), ("b",)], None, 2, None, False
        )
        first = batch.elements
        assert [e.payload for e in first] == [("a",), ("b",)]
        assert batch.elements is first  # cached, built once

    def test_validating_constructor_keeps_original_elements(self):
        items = elements_at(1, 2)
        batch = ColumnarBatch(items)
        assert batch.elements == items

    def test_with_elements_returns_plain_batch(self):
        # Element-wise rewrites already paid materialisation: the result
        # deliberately drops the columnar layout.
        batch = ColumnarBatch(elements_at(1, 2), watermark=8, source="A")
        mapped = batch.with_elements([e.with_flag(NEW) for e in batch])
        assert type(mapped) is Batch
        assert mapped.watermark == 8
        assert mapped.source == "A"
        assert [e.flag for e in mapped] == [NEW, NEW]

    def test_to_columnar_is_identity_and_batch_converts(self):
        columnar = ColumnarBatch(elements_at(1, 2))
        assert columnar.to_columnar() is columnar
        plain = Batch(elements_at(1, 2), watermark=9, source="A")
        converted = plain.to_columnar()
        assert isinstance(converted, ColumnarBatch)
        assert converted.elements is plain.elements  # shared, not copied
        assert converted.watermark == 9
        assert converted.source == "A"


class TestHalfChrononTimestamps:
    def test_sub_chronon_starts_survive(self):
        # Migration split times are half chronons (Remark 3): the float
        # must flow through the timestamp columns unchanged.
        half = 3.5
        items = [element(("a",), 1, 6), element(("b",), half, 8)]
        batch = ColumnarBatch(items)
        assert batch.starts == [1, half]
        assert batch.elements[1].start == half


class TestRuns:
    def test_uniform_batch_is_a_single_run(self):
        batch = ColumnarBatch(elements_at(4, 4, 4), watermark=9)
        runs = list(batch.runs())
        assert runs == [batch]

    def test_single_element_run(self):
        batch = ColumnarBatch(elements_at(3))
        (run,) = batch.runs()
        assert run is batch
        assert len(run) == 1

    def test_splits_stay_columnar_with_batch_watermark_placement(self):
        batch = ColumnarBatch(elements_at(1, 1, 4, 9, 9), watermark=12, source="A")
        runs = list(batch.runs())
        assert all(isinstance(run, ColumnarBatch) for run in runs)
        assert [run.starts for run in runs] == [[1, 1], [4], [9, 9]]
        # Non-final runs promise their own start; the final run inherits
        # the batch's trailing watermark — exactly Batch.runs().
        assert [run.watermark for run in runs] == [1, 4, 12]
        assert all(run.uniform_start for run in runs)
        assert all(run.source == "A" for run in runs)
        reference = Batch(elements_at(1, 1, 4, 9, 9), watermark=12, source="A")
        key = lambda run: [  # noqa: E731
            (e.payload, e.start, e.end, e.flag) for e in run
        ]
        assert [key(run) for run in runs] == [
            key(run) for run in reference.runs()
        ]

    def test_runs_slice_the_flag_column(self):
        items = elements_at(1, 1, 5)
        items[1] = items[1].with_flag(OLD)
        runs = list(ColumnarBatch(items).runs())
        assert runs[0].flags == [None, OLD]
        assert runs[1].flags == [None]
