"""Tests for GenMig on the positive-negative implementation (Section 4.6)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pn import (
    PNBox,
    PNDistinct,
    PNJoin,
    PNWindow,
    pn_to_interval,
    run_pn_migration,
    run_pn_pipeline,
)
from repro.temporal import EPSILON, first_divergence
from repro.temporal.element import positive


def raw_streams(seed=9, length=300):
    rng = random.Random(seed)
    return {
        "A": [positive(rng.randint(0, 4), t) for t in range(0, length, 3)],
        "B": [positive(rng.randint(0, 4), t) for t in range(1, length, 4)],
    }


def distinct_top_box():
    join = PNJoin(lambda l, r: l[0] == r[0])
    distinct = PNDistinct()
    join.subscribe(distinct, 0)
    return PNBox(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=distinct)


def distinct_pushed_box():
    da, db = PNDistinct(), PNDistinct()
    join = PNJoin(lambda l, r: l[0] == r[0])
    da.subscribe(join, 0)
    db.subscribe(join, 1)
    return PNBox(taps={"A": [(da, 0)], "B": [(db, 0)]}, root=join)


def join_only_box():
    join = PNJoin(lambda l, r: l[0] == r[0])
    return PNBox(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=join)


def reference(raws, box_factory, window=50):
    box = box_factory()
    wa, wb = PNWindow(window), PNWindow(window)
    for op, port in box.taps["A"]:
        wa.subscribe(op, port)
    for op, port in box.taps["B"]:
        wb.subscribe(op, port)
    return pn_to_interval(
        run_pn_pipeline(raws, {"A": [(wa, 0)], "B": [(wb, 0)]}, box.root)
    )


WINDOWS = {"A": 50, "B": 50}


class TestCorrectness:
    @pytest.mark.parametrize("seed", [9, 1, 2])
    def test_distinct_pushdown_migration(self, seed):
        raws = raw_streams(seed=seed)
        base = reference(raws, distinct_top_box)
        out, report = run_pn_migration(
            raws, WINDOWS, distinct_top_box(), distinct_pushed_box(), migrate_at=100
        )
        assert first_divergence(pn_to_interval(out), base) is None

    def test_join_only_migration(self):
        raws = raw_streams(seed=4)
        base = reference(raws, join_only_box)
        out, _ = run_pn_migration(
            raws, WINDOWS, join_only_box(), join_only_box(), migrate_at=100
        )
        assert first_divergence(pn_to_interval(out), base) is None

    def test_output_timestamp_ordered(self):
        """Old box results first, then the new box's — no buffer needed."""
        raws = raw_streams(seed=6)
        out, report = run_pn_migration(
            raws, WINDOWS, join_only_box(), join_only_box(), migrate_at=100
        )
        timestamps = [e.timestamp for e in out]
        assert timestamps == sorted(timestamps)


class TestSplitTimeAndAccounting:
    def test_pn_t_split_uses_plus_one_plus_epsilon(self):
        """Algorithm 1's formula verbatim: max(t_Si) + w + 1 + epsilon."""
        raws = raw_streams()
        _, report = run_pn_migration(
            raws, WINDOWS, join_only_box(), join_only_box(), migrate_at=100
        )
        assert report.t_split == int(report.t_split - EPSILON - 1 - 50) + 50 + 1 + EPSILON
        assert report.t_split > 100 + 50

    def test_duration_about_one_window(self):
        raws = raw_streams()
        _, report = run_pn_migration(
            raws, WINDOWS, join_only_box(), join_only_box(), migrate_at=100
        )
        assert 45 <= report.duration <= 60

    def test_reference_point_rejections_counted(self):
        raws = raw_streams()
        _, report = run_pn_migration(
            raws, WINDOWS, distinct_top_box(), distinct_pushed_box(), migrate_at=100
        )
        # During migration the new box produces results below T_split that
        # the old box owns; they must have been rejected.
        assert report.new_rejected > 0
        assert report.old_rejected >= 0

    def test_migration_requires_data_after_trigger(self):
        from repro.recovery import RecoveryError

        raws = {"A": [positive(1, 0)], "B": [positive(1, 1)]}
        with pytest.raises(RecoveryError):
            run_pn_migration(raws, WINDOWS, join_only_box(), join_only_box(),
                             migrate_at=100)


@settings(max_examples=10, deadline=None)
@given(
    values_a=st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=40),
    values_b=st.lists(st.integers(min_value=0, max_value=3), min_size=8, max_size=40),
    window=st.integers(min_value=5, max_value=50),
    migrate_at=st.integers(min_value=5, max_value=120),
)
def test_pn_genmig_always_snapshot_equivalent(values_a, values_b, window, migrate_at):
    """Section 4.6 as a property: the PN migration matches the unmigrated
    PN run for random inputs, windows and migration times."""
    from repro.recovery import RecoveryError

    raw = {
        "A": [positive(v, 3 * i) for i, v in enumerate(values_a)],
        "B": [positive(v, 1 + 4 * i) for i, v in enumerate(values_b)],
    }
    reference_box = distinct_top_box()
    wa, wb = PNWindow(window), PNWindow(window)
    for op, port in reference_box.taps["A"]:
        wa.subscribe(op, port)
    for op, port in reference_box.taps["B"]:
        wb.subscribe(op, port)
    reference = pn_to_interval(
        run_pn_pipeline(raw, {"A": [(wa, 0)], "B": [(wb, 0)]}, reference_box.root)
    )
    try:
        migrated, _ = run_pn_migration(
            raw, {"A": window, "B": window}, distinct_top_box(), distinct_pushed_box(), migrate_at
        )
    except RecoveryError:
        return  # inputs ended before the trigger: nothing to migrate
    assert first_divergence(pn_to_interval(migrated), reference) is None
