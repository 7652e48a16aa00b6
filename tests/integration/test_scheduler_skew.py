"""Migration under application-time skew (Remark 2 and Section 4.4).

GenMig keeps a migration start time per input, so it must stay correct
when the scheduler does not follow global temporal order and when one
input's application time runs structurally behind another's.
"""

import pytest

from feeds import skewed_arrival
from helpers import run_query
from repro.core import GenMig, ShortenedGenMig
from repro.engine import RoundRobinScheduler
from repro.temporal import first_divergence
from scenarios import (
    distinct_over_join_box,
    join_over_distinct_box,
    left_deep_join_box,
    right_deep_join_box,
    three_random_streams,
    two_random_streams,
)

W3 = {"A": 60, "B": 60, "C": 60}


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_round_robin_batches(batch):
    streams = three_random_streams(seed=61)
    base, _ = run_query(streams, W3, left_deep_join_box())
    out, executor = run_query(
        streams, W3, left_deep_join_box(),
        migrate_at=150, new_box=right_deep_join_box(), strategy=GenMig(),
        scheduler=RoundRobinScheduler(batch=batch),
    )
    assert first_divergence(base, out) is None
    assert executor.gate.order_violations == 0


@pytest.mark.parametrize("skew", [0, 25, 75])
def test_application_time_skew_between_inputs(skew):
    """One input's timestamps run `skew` units behind the other's."""
    streams = two_random_streams(seed=63)
    streams = {"A": streams["A"], "B": skewed_arrival(streams["B"], skew)}
    windows = {"A": 50, "B": 50}
    base, _ = run_query(streams, windows, distinct_over_join_box())
    out, executor = run_query(
        streams, windows, distinct_over_join_box(),
        migrate_at=150, new_box=join_over_distinct_box(), strategy=GenMig(),
    )
    assert first_divergence(base, out) is None


def test_skew_lengthens_migration():
    """T_split is driven by the *maximum* t_Si: the laggard must catch up,
    so the migration lasts roughly w + skew from the laggard's position."""
    skew = 80
    streams = two_random_streams(seed=65, length=600)
    streams = {"A": streams["A"], "B": skewed_arrival(streams["B"], skew)}
    windows = {"A": 50, "B": 50}
    _, executor = run_query(
        streams, windows, distinct_over_join_box(),
        migrate_at=200, new_box=join_over_distinct_box(), strategy=GenMig(),
        scheduler=RoundRobinScheduler(batch=5),
    )
    report = executor.migration_log[0]
    assert report.duration >= 50  # never shorter than the window


def test_coalesce_state_bounded_by_skew():
    """Section 4.4: the coalesce tables hold at most skew-bounded state."""
    streams = two_random_streams(seed=67, length=600)
    windows = {"A": 50, "B": 50}
    strategy = GenMig()
    _, executor = run_query(
        streams, windows, distinct_over_join_box(),
        migrate_at=200, new_box=join_over_distinct_box(), strategy=strategy,
    )
    # After completion all migration state is gone.
    assert strategy.coalesce.state_value_count() == 0


def test_shortened_variant_under_round_robin():
    streams = three_random_streams(seed=69)
    base, _ = run_query(streams, W3, left_deep_join_box())
    out, _ = run_query(
        streams, W3, left_deep_join_box(),
        migrate_at=150, new_box=right_deep_join_box(), strategy=ShortenedGenMig(),
        scheduler=RoundRobinScheduler(batch=4),
    )
    assert first_divergence(base, out) is None
