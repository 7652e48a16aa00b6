"""Temporal substrate: time domain, intervals, elements, snapshots.

This package implements the semantic foundation of Section 2 of the paper —
the discrete application-time domain, half-open validity intervals, the two
physical element representations (interval-based and positive–negative), and
the snapshot/snapshot-equivalence machinery that defines correctness for
every operator and for plan migration itself.
"""

from .batch import Batch
from .element import (
    NEW,
    OLD,
    Payload,
    PNElement,
    Sign,
    StreamElement,
    as_payload,
    combine_flags,
    element,
    negative,
    positive,
)
from .interval import TimeInterval
from .intervalset import IntervalSet
from .multiset import Multiset
from .snapshot import (
    coalesce_stream,
    critical_instants,
    first_divergence,
    first_duplicate_instant,
    has_snapshot_duplicates,
    snapshot,
    snapshot_equivalent,
)
from .time import (
    CHRONON,
    EPSILON,
    MAX_TIME,
    MIN_TIME,
    Time,
    half_before,
    is_finite,
    validate_time,
)

__all__ = [
    "Batch",
    "CHRONON",
    "EPSILON",
    "IntervalSet",
    "MAX_TIME",
    "MIN_TIME",
    "Multiset",
    "NEW",
    "OLD",
    "PNElement",
    "Payload",
    "Sign",
    "StreamElement",
    "Time",
    "TimeInterval",
    "as_payload",
    "coalesce_stream",
    "combine_flags",
    "critical_instants",
    "element",
    "first_divergence",
    "first_duplicate_instant",
    "half_before",
    "has_snapshot_duplicates",
    "is_finite",
    "negative",
    "positive",
    "snapshot",
    "snapshot_equivalent",
    "validate_time",
]
