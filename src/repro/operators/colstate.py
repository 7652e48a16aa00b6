"""Bucketed join state: the one container of both symmetric joins.

One instance holds one join side.  Each key owns its state:
``buckets[key]`` is a list of ``(start, end, row, flag)`` entries in
insertion order.  The hash join buckets by its join key; the
nested-loops join files every element under the one key ``None`` and
walks that bucket.  The joins' element loops and the compiled probe
kernels (:func:`repro.plans.kernels.compile_probe_kernel`) read the
entries directly; everything else (iteration, drains, seeding)
materialises :class:`StreamElement`\\ s on demand.

Observable behaviour, which checkpoints, Moving States and the
byte-identity property suites rely on:

* buckets are created on first insert (dict position = first-touch
  order) and deleted the moment they empty, which fixes key iteration
  order — and hence ``state_of_port`` order;
* iteration yields bucket order then insertion order within the bucket;
* ``expire`` removes exactly the elements whose expiry has been reached
  (cross-checked against a scan of the live buckets while a sanitizer is
  installed).

Expiry goes through one *calendar*: a dict expiry → the keys of the
elements due then (one record per element), plus a heap of the
*distinct* expiries.  An insert whose expiry is already filed is one
list append; a purge pops one heap entry per expiry and, for each of its
records, removes one due entry from that key's bucket — nearly always
the head, since window-extended ends arrive (almost) in order.  The
expiry is the element's end unless a retention rule is installed (the
Parallel Track baseline's tuple-timestamp rule, the one exception to
Section 2.2's ``t_E <= watermark`` purge, installed through the join's
``set_retention``).

:meth:`extract` — fluid migration's key-range drain — pops whole
buckets and leaves their calendar records behind.  Such a record can
only ever remove an entry that is already due: every purge pops at
least as many records for a key as the key has due entries, and each
record removes one due entry or nothing.  So the leftovers are harmless
and need no marker.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..temporal.element import Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import Time
from . import base

#: Maps a state element to the watermark at which it may be purged;
#: ``None`` is the interval rule (purge once ``t_E <= watermark``).
RetentionRule = Optional[Callable[[StreamElement], Time]]

#: One held element: ``(start, end, row, flag)``.
Entry = Tuple[Time, Time, Payload, Optional[str]]


class ColumnarJoinState:
    """One join side as per-key entry lists under one expiry calendar.

    ``buckets`` is the read surface of the compiled probe kernels;
    mutation goes through :meth:`insert` / :meth:`insert_run` /
    :meth:`expire` / :meth:`extract` only.
    """

    __slots__ = (
        "buckets",
        "_calendar",
        "_expiries",
        "_live",
        "_values",
        "_flag_count",
        "_retention",
    )

    def __init__(self) -> None:
        self.buckets: Dict[Any, List[Entry]] = {}
        self._calendar: Dict[Time, List[Any]] = {}
        self._expiries: List[Time] = []
        self._live = 0
        self._values = 0
        self._flag_count = 0
        self._retention: RetentionRule = None

    def _expiry(self, entry: Entry) -> Time:
        retention = self._retention
        if retention is None:
            return entry[1]
        start, end, row, flag = entry
        return retention(StreamElement(row, TimeInterval(start, end), flag))

    def _file(self, key: Any, expiry: Time) -> None:
        """Enter one record for ``key`` in the calendar under ``expiry``."""
        slot = self._calendar.get(expiry)
        if slot is None:
            self._calendar[expiry] = [key]
            heapq.heappush(self._expiries, expiry)
        else:
            slot.append(key)

    def set_retention(self, retention: RetentionRule) -> None:
        """Install a new retention rule and re-file the calendar.

        The calendar is rebuilt from the live entries only, so the records
        an extraction left behind go too.  Retention overrides happen once
        per migration, never on the steady path.
        """
        self._retention = retention
        self._calendar = {}
        self._expiries = []
        for key, bucket in self.buckets.items():
            for entry in bucket:
                self._file(key, self._expiry(entry))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(
        self,
        key: Any,
        start: Time,
        end: Time,
        row: Payload,
        flag: Optional[str] = None,
    ) -> None:
        """Append one element under ``key`` (element-path entry point)."""
        entry = (start, end, row, flag)
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [entry]
        else:
            bucket.append(entry)
        self._live += 1
        self._values += len(row)
        if flag is not None:
            self._flag_count += 1
        self._file(key, self._expiry(entry))

    def insert_run(
        self,
        key_index: int,
        starts: List[Time],
        ends: List[Time],
        rows: List[Payload],
        lo: int,
        hi: int,
    ) -> None:
        """Bulk-append an unflagged run slice (kernel-path build side).

        Keys are taken positionally from each row; semantics per element
        are exactly :meth:`insert` with ``flag=None``.  Consecutive equal
        ends (a window-extended uniform run) share one calendar lookup.
        """
        if self._retention is not None:
            for i in range(lo, hi):
                row = rows[i]
                self.insert(row[key_index], starts[i], ends[i], row)
            return
        buckets = self.buckets
        get = buckets.get
        calendar = self._calendar
        expiries = self._expiries
        file_key = None
        slot_end = None
        values = 0
        for i in range(lo, hi):
            row = rows[i]
            end = ends[i]
            key = row[key_index]
            bucket = get(key)
            if bucket is None:
                buckets[key] = [(starts[i], end, row, None)]
            else:
                bucket.append((starts[i], end, row, None))
            if end != slot_end:
                slot_end = end
                slot = calendar.get(end)
                if slot is None:
                    slot = calendar[end] = []
                    heapq.heappush(expiries, end)
                file_key = slot.append
            file_key(key)
            values += len(row)
        self._live += hi - lo
        self._values += values

    def expire(self, watermark: Time) -> None:
        """Remove every element whose expiry has been reached.

        Pops the distinct expiries until they clear the watermark; each
        record removes one due entry from its key's bucket (the head
        unless ends arrived out of order within the bucket), or nothing
        when an extraction already took the key's entries.
        """
        debug = base.SANITIZER is not None
        if debug:
            survivors = self._scan_survivors(watermark)
        expiries = self._expiries
        if expiries and expiries[0] <= watermark:
            pop_records = self._calendar.pop
            pop_expiry = heapq.heappop
            buckets = self.buckets
            get = buckets.get
            interval_rule = self._retention is None
            removed = values = flagged = 0
            while expiries and expiries[0] <= watermark:
                for key in pop_records(pop_expiry(expiries)):
                    bucket = get(key)
                    if bucket is None:  # drained by a range extraction
                        continue
                    entry = bucket[0]
                    if (entry[1] if interval_rule else self._expiry(entry)) <= watermark:
                        del bucket[0]
                    else:
                        entry = self._take_due(bucket, watermark)
                        if entry is None:  # drained, then the key came back
                            continue
                    if not bucket:
                        del buckets[key]
                    values += len(entry[2])
                    if entry[3] is not None:
                        flagged += 1
                    removed += 1
            self._live -= removed
            self._values -= values
            self._flag_count -= flagged
        if debug:
            assert list(self) == survivors, (
                f"join expiry diverged from scan at watermark {watermark}"
            )

    def _take_due(self, bucket: List[Entry], watermark: Time) -> Optional[Entry]:
        """Remove and return the first due entry past the head, if any."""
        for position in range(1, len(bucket)):
            if self._expiry(bucket[position]) <= watermark:
                return bucket.pop(position)
        return None

    def _scan_survivors(self, watermark: Time) -> List[StreamElement]:
        """What a full scan says outlives ``watermark`` (the sanitizer's reference).

        A method of its own so that :meth:`expire` holds no comprehension:
        one would turn its ``self`` and ``watermark`` into closure cells
        and tax every access on the hot path.
        """
        return [
            StreamElement(entry[2], TimeInterval(entry[0], entry[1]), entry[3])
            for bucket in self.buckets.values()
            for entry in bucket
            if self._expiry(entry) > watermark
        ]

    def extract(self, predicate: Callable[[Any], bool]) -> List[StreamElement]:
        """Remove and return every element whose bucket key satisfies
        ``predicate`` — the fluid-migration range drain.

        Pops the matching buckets whole; their calendar records stay
        behind and are harmless (see the module docstring).  Returned in
        iteration order: bucket first-touch order, insertion order within
        a bucket.
        """
        drained: List[StreamElement] = []
        for key in [k for k in self.buckets if predicate(k)]:
            for start, end, row, flag in self.buckets.pop(key):
                drained.append(StreamElement(row, TimeInterval(start, end), flag))
                self._values -= len(row)
                if flag is not None:
                    self._flag_count -= 1
        self._live -= len(drained)
        return drained

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def flagged(self) -> bool:
        """True when any live element carries a Parallel-Track flag."""
        return self._flag_count > 0

    def value_count(self) -> int:
        """Payload values held — O(1); SAN007 checks the owning join's sum."""
        return self._values

    def __iter__(self) -> Iterator[StreamElement]:
        for bucket in self.buckets.values():
            for start, end, row, flag in bucket:
                yield StreamElement(row, TimeInterval(start, end), flag)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __repr__(self) -> str:
        return (
            f"ColumnarJoinState({len(self.buckets)} buckets, "
            f"{self._live} live, {self._values} values)"
        )
