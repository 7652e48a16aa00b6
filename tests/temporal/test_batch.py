"""Tests for the Batch abstraction (ordered runs + trailing watermark)."""

import pytest

from helpers import columnar
from repro.temporal import OLD, Batch, element


def elements_at(*starts):
    return [element(f"p{i}", t, t + 5) for i, t in enumerate(starts)]


class TestInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            Batch([])

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Batch(elements_at(5, 3))

    def test_watermark_below_last_start_rejected(self):
        with pytest.raises(ValueError, match="watermark"):
            Batch(elements_at(1, 7), watermark=6)

    def test_watermark_defaults_to_last_start(self):
        assert Batch(elements_at(1, 7)).watermark == 7

    def test_equal_starts_allowed(self):
        batch = Batch(elements_at(4, 4, 4))
        assert batch.uniform_start
        assert batch.first_start == batch.last_start == 4

    def test_mixed_starts_not_uniform(self):
        assert not Batch(elements_at(4, 4, 9)).uniform_start

    def test_iteration_and_len(self):
        items = elements_at(0, 1, 2)
        batch = Batch(items)
        assert list(batch) == items
        assert len(batch) == 3
        assert bool(batch)

    def test_repr_mentions_span_and_watermark(self):
        text = repr(Batch(elements_at(2, 6), watermark=9, source="A"))
        assert "2..6" in text and "wm=9" in text and "'A'" in text
        assert "@3" in repr(Batch(elements_at(3, 3)))


class TestDerivation:
    def test_with_elements_keeps_watermark_and_source(self):
        batch = Batch(elements_at(1, 5), watermark=8, source="A")
        mapped = batch.with_elements([e.with_interval(e.interval.extend(3)) for e in batch])
        assert mapped.watermark == 8
        assert mapped.source == "A"
        assert [e.start for e in mapped] == [1, 5]
        assert [e.end for e in mapped] == [9, 13]

    def test_runs_splits_at_start_changes(self):
        batch = Batch(elements_at(1, 1, 4, 9, 9), watermark=12, source="A")
        runs = list(batch.runs())
        assert [[e.start for e in run] for run in runs] == [[1, 1], [4], [9, 9]]
        assert all(run.uniform_start for run in runs)
        # Intermediate runs promise exactly their own start...
        assert [run.watermark for run in runs[:-1]] == [1, 4]
        # ...while the final run inherits the batch's trailing watermark.
        assert runs[-1].watermark == 12
        assert all(run.source == "A" for run in runs)

    def test_runs_of_uniform_batch_is_itself(self):
        batch = Batch(elements_at(2, 2))
        assert list(batch.runs()) == [batch]

    def test_runs_concatenation_preserves_elements(self):
        batch = Batch(elements_at(0, 3, 3, 3, 7))
        rejoined = [e for run in batch.runs() for e in run]
        assert rejoined == batch.elements


class TestTwoViews:
    """A batch built from elements and its twin built from columns are
    the same run: every read agrees, and each view is built once."""

    @pytest.mark.parametrize("starts", [(4, 4, 4), (1, 1, 4, 9, 9), (3,)])
    @pytest.mark.parametrize("flagged", [False, True])
    def test_built_from_elements_or_columns_alike(self, starts, flagged):
        items = elements_at(*starts)
        if flagged:
            items[-1] = items[-1].with_flag(OLD)
        watermark = starts[-1] + 2
        twins = (Batch(items, watermark, "A"), columnar(items, watermark, "A"))
        views = [
            (
                [(e.payload, e.start, e.end, e.flag) for e in batch.elements],
                batch.starts, batch.ends, batch.rows, batch.flags,
                batch.first_start, batch.last_start, len(batch),
                batch.uniform_start, batch.watermark, batch.source,
                [(run.starts, run.rows, run.flags, run.watermark) for run in batch.runs()],
            )
            for batch in twins
        ]
        assert views[0] == views[1]
        for batch in twins:
            assert batch.elements is batch.elements
            assert batch.starts is batch.starts
            assert batch.ends is batch.ends
            assert batch.rows is batch.rows
            assert batch.flags is batch.flags
