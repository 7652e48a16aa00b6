"""The value protocol of ``StreamElement`` and ``TimeInterval``.

Both are hand-written ``__slots__`` classes that replaced frozen
dataclasses.  These tests pin what the dataclasses did, so the two cannot
drift apart: equality and hashing by the same field tuples (set and dict
orders under a fixed ``PYTHONHASHSEED`` depend on the hash formula), the
``repr`` text, immutability, the validation messages, and pickling.
"""

import pickle

import pytest

from repro.temporal import NEW, OLD, StreamElement, TimeInterval, element
from repro.temporal.time import half_before

ELEMENTS = [
    StreamElement(("a",), TimeInterval(3, 7)),
    StreamElement(("a",), TimeInterval(3, 7), OLD),
    StreamElement(("a", 1), TimeInterval(3, 7), NEW),
    StreamElement(("b",), TimeInterval(half_before(3), 7)),
    StreamElement((), TimeInterval(0, 2**62)),
]


def fields(e):
    return (e.payload, e.interval, e.flag)


class TestValueSemantics:
    @pytest.mark.parametrize("left", ELEMENTS)
    @pytest.mark.parametrize("right", ELEMENTS)
    def test_equality_is_field_tuple_equality(self, left, right):
        assert (left == right) == (fields(left) == fields(right))
        assert (left != right) == (fields(left) != fields(right))
        assert (left.interval == right.interval) == (
            (left.start, left.end) == (right.start, right.end)
        )

    @pytest.mark.parametrize("e", ELEMENTS)
    def test_hash_is_the_field_tuple_hash(self, e):
        assert hash(e) == hash((e.payload, e.interval, e.flag))
        assert hash(e.interval) == hash((e.start, e.end))

    def test_equal_values_are_equal_and_hash_alike(self):
        a = StreamElement(("a",), TimeInterval(3, 7))
        b = element("a", 3, 7)
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("e", ELEMENTS)
    def test_never_equal_to_a_plain_tuple(self, e):
        assert e != fields(e)
        assert not e == fields(e)
        assert e.interval != (e.start, e.end)
        assert not e.interval == (e.start, e.end)

    def test_repr_text(self):
        assert repr(element("a", 3, 7)) == (
            "StreamElement(payload=('a',), "
            "interval=TimeInterval(start=3, end=7), flag=None)"
        )
        assert repr(element("a", 3, 7).with_flag(OLD)) == (
            "StreamElement(payload=('a',), "
            "interval=TimeInterval(start=3, end=7), flag='old')"
        )
        assert repr(TimeInterval(half_before(3), 7)) == "TimeInterval(start=2.5, end=7)"

    def test_str_text(self):
        assert str(element("a", 3, 7)) == "(('a',), [3, 7))"


class TestImmutability:
    @pytest.mark.parametrize("name", ["payload", "interval", "flag", "other"])
    def test_element_refuses_assignment_and_deletion(self, name):
        e = element("a", 3, 7)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(e, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(e, name)
        assert e == element("a", 3, 7)

    @pytest.mark.parametrize("name", ["start", "end", "other"])
    def test_interval_refuses_assignment_and_deletion(self, name):
        interval = TimeInterval(3, 7)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(interval, name, 5)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(interval, name)
        assert interval == TimeInterval(3, 7)

    def test_object_setattr_still_forges_an_instance(self):
        # The sanitizer tests build an inverted interval this way.
        forged = object.__new__(TimeInterval)
        object.__setattr__(forged, "start", 7)
        object.__setattr__(forged, "end", 3)
        assert (forged.start, forged.end) == (7, 3)
        e = object.__new__(StreamElement)
        object.__setattr__(e, "payload", ("a",))
        object.__setattr__(e, "interval", forged)
        object.__setattr__(e, "flag", None)
        assert e.start == 7 and e.end == 3


class TestValidation:
    def test_payload_must_be_a_tuple(self):
        with pytest.raises(TypeError, match="payload must be a tuple, got str"):
            StreamElement("a", TimeInterval(0, 1))
        with pytest.raises(TypeError, match="payload must be a tuple, got list"):
            StreamElement(["a"], TimeInterval(0, 1))

    @pytest.mark.parametrize("start,end", [(3, 3), (7, 3), (3.5, 3), (4, 3.5)])
    def test_inverted_interval(self, start, end):
        with pytest.raises(ValueError, match=r"empty or inverted interval \["):
            TimeInterval(start, end)

    def test_time_validation_runs_first(self):
        with pytest.raises(ValueError, match="is not a half chronon"):
            TimeInterval(3.0, 7)
        with pytest.raises(ValueError, match="precedes the time origin"):
            TimeInterval(-1, 7)
        with pytest.raises(TypeError, match="timestamp must be int"):
            TimeInterval("3", 7)
        with pytest.raises(TypeError, match="timestamp must be int"):
            TimeInterval(True, 7)

    def test_keyword_construction(self):
        assert StreamElement(
            payload=("a",), interval=TimeInterval(start=3, end=7), flag=OLD
        ) == element("a", 3, 7).with_flag(OLD)


class TestPickling:
    @pytest.mark.parametrize("e", ELEMENTS)
    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_round_trip(self, e, protocol):
        copy = pickle.loads(pickle.dumps(e, protocol))
        assert type(copy) is StreamElement and type(copy.interval) is TimeInterval
        assert copy == e and hash(copy) == hash(e) and repr(copy) == repr(e)
