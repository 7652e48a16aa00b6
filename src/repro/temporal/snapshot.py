"""Snapshots and snapshot-equivalence (Definitions 1 and 2 of the paper).

A *snapshot* of a stream at time instant ``t`` is the bag of payloads valid
at ``t`` — i.e. a relation.  Two streams are *snapshot-equivalent* when all
their snapshots agree; two query plans are equivalent when their outputs are
snapshot-equivalent.  This module implements both notions exactly, serving
as the correctness oracle for the whole test suite and for the Figure 2
reproduction of the Parallel Track defect.
"""

from __future__ import annotations

import math

from typing import Iterable, List, Optional, Sequence, Set

from .element import StreamElement
from .multiset import Multiset
from .time import MAX_TIME, Time


def snapshot(elements: Iterable[StreamElement], t: Time) -> Multiset:
    """Return the snapshot (a bag of payloads) of ``elements`` at instant ``t``."""
    return Multiset(e.payload for e in elements if e.is_valid_at(t))


def critical_instants(*streams: Sequence[StreamElement]) -> List[Time]:
    """Return integer probe instants covering every distinct snapshot.

    The time domain of the paper is *discrete* (the non-negative integers);
    a migration's ``T_split`` deliberately lies between two integer instants
    (Remark 3), so element intervals may carry fractional endpoints, but
    snapshot-equivalence is only defined at integer instants.  Snapshots are
    piecewise constant between consecutive interval endpoints, so probing
    one integer inside every such segment (when one exists) is exhaustive —
    and much cheaper than enumerating every chronon under long windows.
    """
    endpoints: Set[Time] = set()
    for stream in streams:
        for e in stream:
            endpoints.add(e.interval.start)
            if not e.interval.is_unbounded:
                endpoints.add(e.interval.end)
    ordered = sorted(endpoints)
    probes: List[Time] = []
    for p, q in zip(ordered, ordered[1:]):
        first_integer = math.ceil(p)
        if first_integer < q:
            probes.append(first_integer)
    return probes


def snapshot_equivalent(
    left: Sequence[StreamElement],
    right: Sequence[StreamElement],
) -> bool:
    """Decide snapshot-equivalence of two finite streams (Definition 2)."""
    return first_divergence(left, right) is None


def first_divergence(
    left: Sequence[StreamElement],
    right: Sequence[StreamElement],
) -> Optional[Time]:
    """Return the earliest instant where the two streams' snapshots differ.

    Returns ``None`` when the streams are snapshot-equivalent.  Handy in
    test failure messages: the instant pinpoints the offending snapshot.
    """
    for t in critical_instants(left, right):
        if t >= MAX_TIME:
            continue
        if snapshot(left, t) != snapshot(right, t):
            return t
    return None


def has_snapshot_duplicates(elements: Sequence[StreamElement]) -> bool:
    """Return ``True`` if some snapshot contains the same payload twice.

    A correct duplicate-elimination output never does (Section 2.2); the
    Parallel Track strategy violates exactly this property in Example 1.
    """
    return first_duplicate_instant(elements) is not None


def first_duplicate_instant(elements: Sequence[StreamElement]) -> Optional[Time]:
    """Return the earliest instant at which some payload appears twice."""
    for t in critical_instants(elements):
        if t >= MAX_TIME:
            continue
        snap = snapshot(elements, t)
        if any(count > 1 for count in snap.counts().values()):
            return t
    return None


def coalesce_stream(elements: Sequence[StreamElement]) -> List[StreamElement]:
    """Return a canonical coalesced form of a finite stream.

    Equal payloads with overlapping or adjacent intervals are merged into
    maximal intervals.  For duplicate-free streams (e.g. the output of a
    duplicate elimination) coalescing preserves snapshot-equivalence
    [Slivinskas et al. 2000] and yields a canonical representation useful
    for comparing expected and actual outputs structurally.
    """
    by_payload: dict = {}
    for e in elements:
        by_payload.setdefault(e.payload, []).append(e.interval)
    result: List[StreamElement] = []
    for payload, intervals in by_payload.items():
        intervals.sort(key=lambda iv: (iv.start, iv.end))
        merged = [intervals[0]]
        for iv in intervals[1:]:
            last = merged[-1]
            if iv.start <= last.end:
                if iv.end > last.end:
                    merged[-1] = last.merge(iv)
            else:
                merged.append(iv)
        result.extend(StreamElement(payload, iv) for iv in merged)
    result.sort(key=lambda e: (e.start, e.end, repr(e.payload)))
    return result
