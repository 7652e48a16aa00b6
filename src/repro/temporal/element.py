"""Stream element representations for the two physical stream models.

The interval-based model (Definition 3 of the paper) attaches a half-open
validity interval to each payload tuple.  The positive–negative model
(Section 2.3) instead emits a ``+`` element at the start of the validity and
a ``-`` element at its end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Tuple

from .interval import TimeInterval
from .time import Time, validate_time

#: Payloads are plain tuples so they hash and compare by value, which the
#: duplicate-elimination, grouping and coalesce operators rely on.
Payload = Tuple[Any, ...]


def as_payload(value: Any) -> Payload:
    """Coerce ``value`` into a payload tuple.

    Scalars become 1-tuples; tuples pass through; lists are converted.
    """
    if isinstance(value, tuple):
        return value
    if isinstance(value, list):
        return tuple(value)
    return (value,)


#: Lineage flags used exclusively by the Parallel Track baseline: elements
#: (and results derived from them) are marked as having arrived before
#: (``OLD``) or after (``NEW``) the migration start.  Outside a PT migration
#: every element carries ``flag=None``.
OLD = "old"
NEW = "new"


def combine_flags(left: "str | None", right: "str | None") -> "str | None":
    """Combine the PT flags of two constituent elements (Section 3.1).

    A combined result is ``NEW`` only if *all* involved elements are ``NEW``;
    if any constituent predates the migration the result is ``OLD``.  Two
    unflagged inputs yield an unflagged result (no migration in progress).
    """
    if left is None and right is None:
        return None
    if left == NEW and right == NEW:
        return NEW
    return OLD


class StreamElement:
    """An element ``(e, [t_S, t_E))`` of an interval-based physical stream.

    ``flag`` is ``None`` except while a Parallel Track migration is running,
    when it records old/new lineage (see :data:`OLD`, :data:`NEW`).

    Immutable and compared by value.  Like :class:`TimeInterval`, a
    hand-written ``__slots__`` class whose constructor writes the slots
    through their descriptors, because every delivered result is one.
    """

    __slots__ = ("payload", "interval", "flag")

    payload: Payload
    interval: TimeInterval
    flag: "str | None"

    def __init__(
        self, payload: Payload, interval: TimeInterval, flag: "str | None" = None
    ) -> None:
        if not isinstance(payload, tuple):
            raise TypeError(f"payload must be a tuple, got {type(payload).__name__}")
        _set_payload(self, payload)
        _set_interval(self, interval)
        _set_flag(self, flag)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StreamElement) and other.__class__ is self.__class__:
            return (self.payload, self.interval, self.flag) == (
                other.payload,
                other.interval,
                other.flag,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.payload, self.interval, self.flag))

    def __repr__(self) -> str:
        return (
            f"StreamElement(payload={self.payload!r}, "
            f"interval={self.interval!r}, flag={self.flag!r})"
        )

    def __reduce__(self) -> Tuple[Any, Tuple[Payload, TimeInterval, "str | None"]]:
        return (StreamElement, (self.payload, self.interval, self.flag))

    @property
    def start(self) -> Time:
        """The start timestamp ``t_S``; streams are ordered by this value."""
        return self.interval.start

    @property
    def end(self) -> Time:
        """The exclusive end timestamp ``t_E``."""
        return self.interval.end

    def with_interval(self, interval: TimeInterval) -> "StreamElement":
        """Return a copy of the element carrying ``interval`` instead."""
        return StreamElement(self.payload, interval, self.flag)

    def with_payload(self, payload: Payload) -> "StreamElement":
        """Return a copy of the element carrying ``payload`` instead."""
        return StreamElement(payload, self.interval, self.flag)

    def with_flag(self, flag: "str | None") -> "StreamElement":
        """Return a copy of the element carrying the given PT flag."""
        return StreamElement(self.payload, self.interval, flag)

    def is_valid_at(self, t: Time) -> bool:
        """Return ``True`` if the element belongs to the snapshot at ``t``."""
        return self.interval.contains(t)

    def __str__(self) -> str:
        return f"({self.payload}, {self.interval})"


# The slot descriptors: the constructor writes through these, since
# ``__setattr__`` refuses every assignment.
_set_payload = StreamElement.__dict__["payload"].__set__
_set_interval = StreamElement.__dict__["interval"].__set__
_set_flag = StreamElement.__dict__["flag"].__set__


def element(payload: Any, start: Time, end: Time) -> StreamElement:
    """Convenience constructor: ``element('a', 3, 7) == (('a',), [3, 7))``."""
    return StreamElement(as_payload(payload), TimeInterval(start, end))


class Sign(enum.IntEnum):
    """Sign of a positive–negative stream element."""

    POSITIVE = 1
    NEGATIVE = -1

    def __str__(self) -> str:
        return "+" if self is Sign.POSITIVE else "-"


@dataclass(frozen=True, slots=True)
class PNElement:
    """An element ``(e, t, sign)`` of a positive–negative physical stream.

    A positive element announces that ``payload`` becomes valid at ``t``; the
    matching negative element announces its expiration.  A PN stream is
    ordered by ``timestamp``.
    """

    payload: Payload
    timestamp: Time
    sign: Sign

    def __post_init__(self) -> None:
        if not isinstance(self.payload, tuple):
            raise TypeError(f"payload must be a tuple, got {type(self.payload).__name__}")
        validate_time(self.timestamp)

    @property
    def is_positive(self) -> bool:
        return self.sign is Sign.POSITIVE

    @property
    def is_negative(self) -> bool:
        return self.sign is Sign.NEGATIVE

    def __str__(self) -> str:
        return f"({self.payload}, {self.timestamp}, {self.sign})"


def positive(payload: Any, timestamp: Time) -> PNElement:
    """Construct a positive PN element."""
    return PNElement(as_payload(payload), timestamp, Sign.POSITIVE)


def negative(payload: Any, timestamp: Time) -> PNElement:
    """Construct a negative PN element."""
    return PNElement(as_payload(payload), timestamp, Sign.NEGATIVE)
