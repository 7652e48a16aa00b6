"""Half-open validity intervals ``[t_S, t_E)`` over application time.

Every element of a physical stream carries such an interval (Definition 3 of
the paper).  The interval denotes the contiguous set of time instants —
*snapshots* — at which the element's payload is valid.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .time import MAX_TIME, MIN_TIME, Time, validate_time


class TimeInterval:
    """A half-open application-time interval ``[start, end)``.

    Immutable and compared by value.  A hand-written ``__slots__`` class
    rather than a frozen dataclass: every join result builds one, and
    writing the slots through their descriptors (instead of a generated
    ``__init__`` that calls ``object.__setattr__`` and then
    ``__post_init__``) costs about a third less per element.

    Attributes:
        start: inclusive start timestamp ``t_S``.
        end: exclusive end timestamp ``t_E``; must satisfy ``end > start``.
    """

    __slots__ = ("start", "end")

    start: Time
    end: Time

    def __init__(self, start: Time, end: Time) -> None:
        # Plain chronons in order pass every check below.
        if not (type(start) is int and type(end) is int and MIN_TIME <= start < end):
            validate_time(start)
            validate_time(end)
            if end <= start:
                raise ValueError(f"empty or inverted interval [{start}, {end})")
        _set_start(self, start)
        _set_end(self, end)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimeInterval) and other.__class__ is self.__class__:
            return (self.start, self.end) == (other.start, other.end)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"TimeInterval(start={self.start!r}, end={self.end!r})"

    def __reduce__(self) -> Tuple[Any, Tuple[Time, Time]]:
        return (TimeInterval, (self.start, self.end))

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #

    def contains(self, t: Time) -> bool:
        """Return ``True`` if time instant ``t`` lies inside the interval."""
        return self.start <= t < self.end

    @property
    def length(self) -> Time:
        """The number of time units covered by the interval.

        Read by :func:`repro.engine.compose.materialize`.
        """
        return self.end - self.start

    @property
    def is_unbounded(self) -> bool:
        """Return ``True`` if the interval never expires."""
        return self.end >= MAX_TIME

    # ------------------------------------------------------------------ #
    # Combinators
    # ------------------------------------------------------------------ #

    def intersect(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        """Return the intersection with ``other``, or ``None`` if disjoint.

        The snapshot-reducible join assigns exactly this intersection to its
        results (Section 2.2 of the paper).
        """
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start < end:
            return TimeInterval(start, end)
        return None

    def extend(self, window: Time) -> "TimeInterval":
        """Return the interval with its end extended by ``window`` units.

        This is the effect of a time-based sliding window operator on a
        single-instant element.
        """
        if window < 0:
            raise ValueError(f"window extension must be non-negative, got {window}")
        return TimeInterval(self.start, self.end + window)

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


# The slot descriptors: the constructor writes through these, since
# ``__setattr__`` refuses every assignment.
_set_start = TimeInterval.__dict__["start"].__set__
_set_end = TimeInterval.__dict__["end"].__set__
