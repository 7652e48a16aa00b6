"""Bag (multiset) semantics for the extended relational algebra.

The standard operators of the stream algebra are snapshot-reducible to their
counterparts in the *extended* (bag-preserving) relational algebra
[Dayal et al. 1982; Albert 1991].  This module provides the relational side
of that reduction: a small, exact multiset implementation together with the
bag operators the reference evaluator needs.

Nothing in here touches streams or time — a :class:`Multiset` is what a
snapshot of a stream *is* (Figure 1 of the paper).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

from .element import Payload


class Multiset:
    """An immutable-by-convention bag of payload tuples.

    Internally a ``Counter``; exposed operations mirror the extended
    relational algebra: bag union, bag difference, selection, projection
    (duplicate preserving), cross product / join, duplicate elimination,
    grouping and aggregation.
    """

    __slots__ = ("_counts",)

    def __init__(self, items: Iterable[Payload] = ()) -> None:
        self._counts: Counter = Counter()
        for item in items:
            if not isinstance(item, tuple):
                raise TypeError(f"multiset members must be tuples, got {type(item).__name__}")
            self._counts[item] += 1

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def multiplicity(self, item: Payload) -> int:
        """Return how many copies of ``item`` the bag holds.

        No system caller; kept until its unit tests retire (ROADMAP, audit
        follow-up).
        """
        return self._counts.get(item, 0)

    def __contains__(self, item: Payload) -> bool:
        return self._counts.get(item, 0) > 0

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __iter__(self) -> Iterator[Payload]:
        for item, count in self._counts.items():
            for _ in range(count):
                yield item

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return +self._counts == +other._counts

    def __hash__(self) -> int:  # pragma: no cover - bags are not hashable
        raise TypeError("Multiset is unhashable")

    def __bool__(self) -> bool:
        return any(count > 0 for count in self._counts.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{item}: {count}" for item, count in sorted(self._counts.items(), key=str))
        return f"Multiset({{{inner}}})"

    def counts(self) -> Dict[Payload, int]:
        """Return a copy of the ``{payload: multiplicity}`` map."""
        return {item: count for item, count in self._counts.items() if count > 0}

    # ------------------------------------------------------------------ #
    # Extended relational algebra (bag operators)
    # ------------------------------------------------------------------ #

    def union(self, other: "Multiset") -> "Multiset":
        """Bag union: multiplicities add (``UNION ALL``).

        Oracle specification: ``RelationalOracle.snapshot_of`` evaluates
        UnionNode with it.
        """
        result = Multiset()
        result._counts = self._counts + other._counts
        return result

    def difference(self, other: "Multiset") -> "Multiset":
        """Bag difference: multiplicities subtract, clamped at zero.

        Oracle specification: ``RelationalOracle.snapshot_of`` evaluates
        DifferenceNode with it.
        """
        result = Multiset()
        result._counts = self._counts - other._counts
        return result

    def select(self, predicate: Callable[[Payload], bool]) -> "Multiset":
        """Bag selection sigma.

        Oracle specification: ``RelationalOracle.snapshot_of`` evaluates
        SelectNode with it.
        """
        result = Multiset()
        for item, count in self._counts.items():
            if predicate(item):
                result._counts[item] = count
        return result

    def project(self, mapping: Callable[[Payload], Payload]) -> "Multiset":
        """Duplicate-preserving projection pi.

        Oracle specification: ``RelationalOracle.snapshot_of`` evaluates
        ProjectNode with it.
        """
        result = Multiset()
        for item, count in self._counts.items():
            result._counts[mapping(item)] += count
        return result

    def distinct(self) -> "Multiset":
        """Duplicate elimination delta: every multiplicity becomes one."""
        result = Multiset()
        for item, count in self._counts.items():
            if count:
                result._counts[item] = 1
        return result

    def join(
        self,
        other: "Multiset",
        predicate: Callable[[Payload, Payload], bool],
        combine: Callable[[Payload, Payload], Payload] | None = None,
    ) -> "Multiset":
        """Bag theta-join; result multiplicity is the product of inputs."""
        if combine is None:
            combine = lambda left, right: left + right
        result = Multiset()
        for left, left_count in self._counts.items():
            for right, right_count in other._counts.items():
                if predicate(left, right):
                    result._counts[combine(left, right)] += left_count * right_count
        return result

    def group_by(
        self, key: Callable[[Payload], Payload]
    ) -> Dict[Payload, "Multiset"]:
        """Partition the bag into groups keyed by ``key``.

        Oracle specification: ``RelationalOracle.snapshot_of`` groups
        AggregateNode input with it.
        """
        groups: Dict[Payload, Multiset] = {}
        for item, count in self._counts.items():
            group = groups.setdefault(key(item), Multiset())
            group._counts[item] += count
        return groups

    def aggregate(self, function: Callable[[Iterable[Payload]], Any]) -> Tuple[Any, ...]:
        """Apply an aggregate function over the whole bag, returning a tuple.

        No system caller; kept until its unit tests retire (ROADMAP, audit
        follow-up).
        """
        value = function(iter(self))
        return value if isinstance(value, tuple) else (value,)
