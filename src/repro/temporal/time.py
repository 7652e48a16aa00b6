"""Application-time domain for snapshot-equivalent stream processing.

The paper models time as a discrete domain ``T = (T, <=)`` with a total
order; for simplicity it takes the non-negative integers.  We follow suit:
regular timestamps are Python ``int`` chronons.

One refinement is needed for the split time of a migration (Remark 3 in the
paper): ``T_split`` must be expressible at a *finer* granularity so that it
never collides with a start or end timestamp of any stream element.  We
realise this with the half chronon ``k - 0.5`` held in a ``float``
(:func:`half_before`).  It is exact, not an approximation: every half
chronon below ``2**52`` is a binary float, Python compares ``int`` with
``float`` exactly, and ``k - 0.5`` equals and hashes like the rational
``(2k - 1) / 2``.  The rest of the engine stays on plain integers.
"""

from __future__ import annotations

from typing import Union

#: A point in application time.  Regular stream timestamps are ``int``;
#: migration split times are half chronons held in a ``float``.
Time = Union[int, float]

#: The smallest representable step of application time for regular elements.
CHRONON: int = 1

#: A sub-chronon offset used to place ``T_split`` strictly between two
#: integer time instants (Remark 3 of the paper).
EPSILON: float = 0.5

#: The origin of the application-time domain.
MIN_TIME: int = 0

#: A sentinel "infinitely late" timestamp, used for intervals that never
#: expire (e.g. elements of an unwindowed stream) and for end-of-stream
#: heartbeats.  Any finite timestamp compares strictly below it.
MAX_TIME: int = 2**62

#: Half chronons are exact floats only below this chronon: from ``2**52``
#: on, a float's spacing is a whole chronon or more.
_HALF_CHRONON_LIMIT: int = 2**52


def half_before(k: int) -> float:
    """The half chronon ``k - 0.5``: strictly between ``k - 1`` and ``k``.

    The one constructor of sub-chronon time.

    Raises:
        TypeError: if ``k`` is not an ``int``.
        ValueError: if ``k`` is not in ``[1, 2**52)``, where ``k - 0.5``
            would be negative or not exactly representable.
    """
    if type(k) is not int:
        raise TypeError(f"half_before needs an int chronon, got {type(k).__name__}")
    if not 1 <= k < _HALF_CHRONON_LIMIT:
        raise ValueError(
            f"no exact half chronon before {k}: the chronon must lie in "
            "[1, 2**52)"
        )
    return k - 0.5


def is_finite(t: Time) -> bool:
    """Return ``True`` for a timestamp inside the application-time domain."""
    return MIN_TIME <= t < MAX_TIME


def validate_time(t: Time) -> Time:
    """Validate ``t`` as an application timestamp and return it.

    A timestamp is an ``int`` chronon or a half chronon ``float`` (one
    value, one representation: ``3.0`` is not a timestamp, ``3`` is).

    Raises:
        TypeError: if ``t`` is neither an ``int`` (``bool`` excluded) nor a
            ``float``.
        ValueError: if ``t`` lies before the time origin, or is a float
            that is not an exact half chronon (``1.25``, ``3.0``, ``inf``,
            ``nan``, anything from ``2**52`` on).
    """
    if isinstance(t, float):
        # ``t % 1 == 0.5`` excludes inf and nan, and every float from
        # 2**52 on, whose spacing is a whole chronon.
        if t % 1 != 0.5:
            raise ValueError(f"float timestamp {t!r} is not a half chronon")
    elif not isinstance(t, int) or isinstance(t, bool):
        raise TypeError(
            f"timestamp must be int or half-chronon float, got {type(t).__name__}"
        )
    if t < MIN_TIME:
        raise ValueError(f"timestamp {t} precedes the time origin {MIN_TIME}")
    return t
