"""Columnar bucketed join state: the one container of both symmetric joins.

One instance holds one join side as five parallel append-only arrays —
start, end, payload row, PT flag and bucket key per element — plus a
``buckets`` dict mapping key → list of live array indices in insertion
order.  The hash join buckets by its join key; the nested-loops join
files every element under the one key ``None`` and walks that bucket.
The joins' element loops and the compiled probe kernels
(:func:`repro.plans.kernels.compile_probe_kernel`) read the arrays and
``buckets`` directly; everything else (iteration, drains, seeding)
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

The expiry sweep is where the layout pays off.  Window-extended input
arrives with non-decreasing end timestamps, so in the common case the
``ends`` array is sorted and a watermark purge is one ``bisect`` over
the live suffix plus O(1) bucket pops — no per-element heap traffic at
all (*sorted mode*).  The first out-of-order end, or a retention rule
(the Parallel Track baseline's tuple-timestamp rule, the one exception to
Section 2.2's ``t_E <= watermark`` purge, installed through the join's
``set_retention``), switches the instance permanently to *heap mode*:
an expiry *calendar* — a dict expiry → indices due then, plus a heap of
the *distinct* expiries — so an insert whose expiry is already filed is
one list append, and a purge pops one heap entry per expiry, not per
element.

Both modes compact.  Sorted mode drops the dead array prefix once it is
over ``_COMPACT_THRESHOLD`` long and half the array; heap mode, whose
dead rows are scattered, rebuilds the arrays from the live buckets (in
bucket order, so iteration and drains are unchanged) and re-files the
calendar once the arrays are over ``_COMPACT_THRESHOLD`` and twice the
live count.

Why ``bucket[0]`` is always the dying index in sorted mode: inserts
append strictly increasing indices to each bucket, and the sorted sweep
retires indices in increasing order (the dead prefix grows left to
right), so within any bucket the next index to die is always the
smallest live one — its head.  In heap mode it usually is too (ends are
only mildly out of order), so the purge tries the head before
``list.remove``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..temporal.element import Payload, StreamElement
from ..temporal.interval import TimeInterval
from ..temporal.time import MIN_TIME, Time
from . import base

#: Maps a state element to the watermark at which it may be purged;
#: ``None`` is the interval rule (purge once ``t_E <= watermark``).
RetentionRule = Optional[Callable[[StreamElement], Time]]

#: Compaction floor: sorted mode drops a dead prefix longer than this and
#: than half the array; heap mode rebuilds arrays longer than this and
#: than twice the live count.
_COMPACT_THRESHOLD = 512


class ColumnarJoinState:
    """One join side stored as parallel columns with keyed buckets.

    The array attributes and ``buckets`` are the read surface of the
    compiled probe kernels; mutation goes through :meth:`insert` /
    :meth:`insert_run` / :meth:`expire` / :meth:`extract` only.
    """

    __slots__ = (
        "starts",
        "ends",
        "rows",
        "flags",
        "keys",
        "buckets",
        "_calendar",
        "_expiries",
        "_dead",
        "_sweep_pos",
        "_sorted",
        "_last_end",
        "_live",
        "_values",
        "_flag_count",
        "_retention",
    )

    def __init__(self) -> None:
        self.starts: List[Time] = []
        self.ends: List[Time] = []
        self.rows: List[Payload] = []
        self.flags: List[Optional[str]] = []
        self.keys: List[Any] = []
        self.buckets: dict = {}
        self._calendar: Dict[Time, List[int]] = {}
        self._expiries: List[Time] = []
        self._dead: set = set()
        self._sweep_pos = 0
        self._sorted = True
        self._last_end: Time = MIN_TIME
        self._live = 0
        self._values = 0
        self._flag_count = 0
        self._retention: RetentionRule = None

    # ------------------------------------------------------------------ #
    # Expiry keys and modes
    # ------------------------------------------------------------------ #

    def _element_at(self, index: int) -> StreamElement:
        return StreamElement(
            self.rows[index],
            TimeInterval(self.starts[index], self.ends[index]),
            self.flags[index],
        )

    def _expiry_at(self, index: int) -> Time:
        retention = self._retention
        if retention is None:
            return self.ends[index]
        return retention(self._element_at(index))

    def set_retention(self, retention: RetentionRule) -> None:
        """Install a new retention rule and re-key the expiry index.

        Any explicit rule invalidates the sorted-ends invariant, so the
        instance drops to heap mode for the rest of its life — retention
        overrides happen once per migration, never on the steady path.
        """
        self._retention = retention
        self._enter_heap_mode()

    def _enter_heap_mode(self) -> None:
        self._sorted = False
        self._refile()

    def _refile(self) -> None:
        """Rebuild the arrays from the live buckets and file the calendar.

        Heap mode's compaction, also its entry: the live rows move to the
        front in bucket order, then insertion order within a bucket, so
        iteration and drains see exactly the order they saw before.  The
        calendar is filed from the live rows only, so extracted indices
        can no longer surface from it — their markers go.
        """
        buckets = self.buckets
        order = [index for bucket in buckets.values() for index in bucket]
        if self._retention is None:
            expiries = [self.ends[index] for index in order]
        else:
            expiries = [self._expiry_at(index) for index in order]
        self.starts = [self.starts[index] for index in order]
        self.ends = [self.ends[index] for index in order]
        self.rows = [self.rows[index] for index in order]
        self.flags = [self.flags[index] for index in order]
        self.keys = [self.keys[index] for index in order]
        fresh = 0
        for key, bucket in buckets.items():
            buckets[key] = list(range(fresh, fresh + len(bucket)))
            fresh += len(bucket)
        self._calendar = {}
        self._expiries = []
        for index, expiry in enumerate(expiries):
            self._file(index, expiry)
        self._dead.clear()
        self._sweep_pos = 0

    def _file(self, index: int, expiry: Time) -> None:
        """Enter ``index`` in the calendar under ``expiry`` (heap mode)."""
        slot = self._calendar.get(expiry)
        if slot is None:
            self._calendar[expiry] = [index]
            heapq.heappush(self._expiries, expiry)
        else:
            slot.append(index)

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
        index = len(self.starts)
        self.starts.append(start)
        self.ends.append(end)
        self.rows.append(row)
        self.flags.append(flag)
        self.keys.append(key)
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [index]
        else:
            bucket.append(index)
        self._live += 1
        self._values += len(row)
        if flag is not None:
            self._flag_count += 1
        if self._sorted:
            if end < self._last_end:
                self._enter_heap_mode()
            else:
                self._last_end = end
        else:
            self._file(index, end if self._retention is None else self._expiry_at(index))

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
        are exactly :meth:`insert` with ``flag=None``.
        """
        s_app = self.starts.append
        e_app = self.ends.append
        r_app = self.rows.append
        f_app = self.flags.append
        k_app = self.keys.append
        buckets = self.buckets
        get = buckets.get
        index = len(self.starts)
        last = self._last_end
        in_sorted = self._sorted
        broke_order = False
        values = 0
        retention = self._retention
        file = self._file
        for i in range(lo, hi):
            row = rows[i]
            end = ends[i]
            key = row[key_index]
            s_app(starts[i])
            e_app(end)
            r_app(row)
            f_app(None)
            k_app(key)
            bucket = get(key)
            if bucket is None:
                buckets[key] = [index]
            else:
                bucket.append(index)
            values += len(row)
            if in_sorted:
                if end < last:
                    broke_order = True
                else:
                    last = end
            else:
                file(index, end if retention is None else self._expiry_at(index))
            index += 1
        self._live += hi - lo
        self._values += values
        self._last_end = last
        if broke_order:
            self._enter_heap_mode()

    def expire(self, watermark: Time) -> None:
        """Remove every element whose expiry has been reached.

        Sorted mode: one bisect over the live suffix of the ``ends``
        column, then O(1) bucket-head pops.  Heap mode: pop the distinct
        expiries until they clear the watermark, retiring each one's
        calendar entry.
        """
        debug = base.SANITIZER is not None
        if debug:
            survivors = self._scan_survivors(watermark)
        if not self._sorted:
            self._expire_calendar(watermark)
            size = len(self.starts)
            if size > _COMPACT_THRESHOLD and size > 2 * self._live:
                self._refile()
        else:
            pos = self._sweep_pos
            cut = bisect_right(self.ends, watermark, pos)
            if cut != pos:
                buckets = self.buckets
                keys = self.keys
                rows = self.rows
                flags = self.flags
                dead = self._dead
                removed = 0
                for index in range(pos, cut):
                    if index in dead:  # drained by a range extraction
                        dead.discard(index)
                        continue
                    key = keys[index]
                    bucket = buckets[key]
                    head = bucket.pop(0)
                    if debug:
                        assert head == index, "columnar sorted sweep out of order"
                    if not bucket:
                        del buckets[key]
                    self._values -= len(rows[index])
                    if flags[index] is not None:
                        self._flag_count -= 1
                    removed += 1
                self._live -= removed
                self._sweep_pos = cut
                if cut > _COMPACT_THRESHOLD and cut * 2 > len(self.starts):
                    self._compact()
        if debug:
            assert list(self) == survivors, (
                f"columnar expiry diverged from scan at watermark {watermark}"
            )

    def _scan_survivors(self, watermark: Time) -> List[StreamElement]:
        """What a full scan says outlives ``watermark`` (the sanitizer's reference).

        A method of its own so that :meth:`expire` holds no comprehension:
        one would turn its ``self`` and ``watermark`` into closure cells
        and tax every access on the hot path.
        """
        return [
            self._element_at(index)
            for bucket in self.buckets.values()
            for index in bucket
            if self._expiry_at(index) > watermark
        ]

    def _expire_calendar(self, watermark: Time) -> None:
        expiries = self._expiries
        calendar = self._calendar
        buckets = self.buckets
        keys = self.keys
        rows = self.rows
        flags = self.flags
        dead = self._dead
        removed = values = flagged = 0
        while expiries and expiries[0] <= watermark:
            for index in calendar.pop(heapq.heappop(expiries)):
                if index in dead:  # drained by a range extraction
                    dead.discard(index)
                    continue
                key = keys[index]
                bucket = buckets[key]
                if bucket[0] == index:
                    del bucket[0]
                else:
                    bucket.remove(index)
                if not bucket:
                    del buckets[key]
                values += len(rows[index])
                if flags[index] is not None:
                    flagged += 1
                removed += 1
        self._live -= removed
        self._values -= values
        self._flag_count -= flagged

    def _compact(self) -> None:
        """Drop the dead array prefix and re-base every bucket index
        (sorted mode's compaction; heap mode's is :meth:`_refile`)."""
        pos = self._sweep_pos
        self.starts = self.starts[pos:]
        self.ends = self.ends[pos:]
        self.rows = self.rows[pos:]
        self.flags = self.flags[pos:]
        self.keys = self.keys[pos:]
        for key, bucket in self.buckets.items():
            self.buckets[key] = [index - pos for index in bucket]
        self._dead = {index - pos for index in self._dead if index >= pos}
        self._sweep_pos = 0

    def extract(self, predicate: Callable[[Any], bool]) -> List[StreamElement]:
        """Remove and return every element whose bucket key satisfies
        ``predicate`` — the fluid-migration range drain.

        Touches only the matching buckets; the arrays keep the drained
        rows, whose indices are marked dead and skipped by both expiry
        modes (rebased by :meth:`_compact`, dropped by :meth:`_refile`)
        until the sweep passes them.  Returned in iteration order: bucket
        first-touch order, insertion order within a bucket.
        """
        drained: List[StreamElement] = []
        dead = self._dead
        for key in [k for k in self.buckets if predicate(k)]:
            for index in self.buckets.pop(key):
                drained.append(self._element_at(index))
                dead.add(index)
                self._values -= len(self.rows[index])
                if self.flags[index] is not None:
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
            for index in bucket:
                yield self._element_at(index)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __repr__(self) -> str:
        mode = "sorted" if self._sorted else "heap"
        return (
            f"ColumnarJoinState({len(self.buckets)} buckets, "
            f"{self._live} live, {self._values} values, {mode})"
        )
