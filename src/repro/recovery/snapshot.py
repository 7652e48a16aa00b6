"""The versioned, checksummed, pickle-free snapshot codec.

A snapshot is a plain tree of Python builtins (``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes``, ``Fraction``, ``tuple``,
``list``, ``dict``) encoded in a tagged binary format:

* header — magic ``RPCK``, a big-endian ``uint16`` format version, the
  CRC-32 of the body and the body length; any mismatch raises
  :class:`~repro.recovery.errors.SnapshotFormatError` before a single
  value is decoded;
* body — one tag byte per value followed by its payload.  Homogeneous
  ``int`` lists (the dominant content: start/end time columns of
  drained operator state) pack as a single ``array('q')`` blob, the
  same struct-of-arrays trick a ``Batch``'s column view uses, instead of
  one tag per entry.

``pickle`` is deliberately not used: a snapshot may be read by a
different process (or reviewed by a human with ``xxd``), and unpickling
untrusted files executes arbitrary code.  Unsupported value types fail
encoding with a typed error — a checkpoint either round-trips exactly
or is refused up front.

Stream elements cross the codec as column dictionaries via
:func:`pack_elements` / :func:`unpack_elements`.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..temporal.element import StreamElement
from ..temporal.interval import TimeInterval
from .errors import SnapshotFormatError

MAGIC = b"RPCK"
VERSION = 1

#: Header layout: magic, version, CRC-32 of the body, body length.
_HEADER = struct.Struct(">4sHIQ")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_TAG_NONE = b"N"
_TAG_FALSE = b"F"
_TAG_TRUE = b"T"
_TAG_INT = b"i"       # 8-byte big-endian signed
_TAG_BIGINT = b"I"    # length-prefixed two's-complement bytes
_TAG_FLOAT = b"f"     # 8-byte IEEE double
_TAG_STR = b"s"       # length-prefixed UTF-8
_TAG_BYTES = b"b"     # length-prefixed raw bytes
_TAG_FRACTION = b"q"  # numerator, denominator (nested ints)
_TAG_TUPLE = b"t"     # count-prefixed items
_TAG_LIST = b"l"      # count-prefixed items
_TAG_INT_COLUMN = b"A"  # count-prefixed array('q') blob (int64 list)
_TAG_DICT = b"d"      # count-prefixed key/value pairs

_LEN = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def _encode(value: object, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif type(value) is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out += _TAG_INT
            out += _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _TAG_BIGINT
            out += _LEN.pack(len(raw))
            out += raw
        return
    elif type(value) is float:
        out += _TAG_FLOAT
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += _LEN.pack(len(raw))
        out += raw
    elif type(value) is bytes:
        out += _TAG_BYTES
        out += _LEN.pack(len(value))
        out += value
    elif type(value) is Fraction:
        out += _TAG_FRACTION
        _encode(value.numerator, out)
        _encode(value.denominator, out)
    elif type(value) is tuple:
        out += _TAG_TUPLE
        out += _LEN.pack(len(value))
        for item in value:
            _encode(item, out)
    elif type(value) is list:
        if value and all(
            type(item) is int and _INT64_MIN <= item <= _INT64_MAX for item in value
        ):
            column = array("q", value)
            if sys.byteorder != "big":
                column.byteswap()
            out += _TAG_INT_COLUMN
            out += _LEN.pack(len(value))
            out += column.tobytes()
        else:
            out += _TAG_LIST
            out += _LEN.pack(len(value))
            for item in value:
                _encode(item, out)
    elif type(value) is dict:
        out += _TAG_DICT
        out += _LEN.pack(len(value))
        for key, item in value.items():
            _encode(key, out)
            _encode(item, out)
    else:
        raise SnapshotFormatError(
            f"cannot encode a {type(value).__name__} into a snapshot: supported "
            "types are None/bool/int/float/str/bytes/Fraction/tuple/list/dict"
        )


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise SnapshotFormatError(
                f"truncated snapshot body: needed {count} bytes at offset "
                f"{self.pos}, only {len(self.data) - self.pos} remain"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def length(self) -> int:
        return _LEN.unpack(self.take(8))[0]


def _decode(reader: _Reader) -> object:
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return _I64.unpack(reader.take(8))[0]
    if tag == _TAG_BIGINT:
        return int.from_bytes(reader.take(reader.length()), "big", signed=True)
    if tag == _TAG_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        return reader.take(reader.length()).decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.take(reader.length())
    if tag == _TAG_FRACTION:
        numerator = _decode(reader)
        denominator = _decode(reader)
        if not isinstance(numerator, int) or not isinstance(denominator, int):
            raise SnapshotFormatError("malformed Fraction in snapshot body")
        return Fraction(numerator, denominator)
    if tag == _TAG_TUPLE:
        return tuple(_decode(reader) for _ in range(reader.length()))
    if tag == _TAG_LIST:
        return [_decode(reader) for _ in range(reader.length())]
    if tag == _TAG_INT_COLUMN:
        count = reader.length()
        column = array("q")
        column.frombytes(reader.take(count * column.itemsize))
        if sys.byteorder != "big":
            column.byteswap()
        return list(column)
    if tag == _TAG_DICT:
        return {_decode(reader): _decode(reader) for _ in range(reader.length())}
    raise SnapshotFormatError(f"unknown snapshot tag {tag!r} at offset {reader.pos - 1}")


# --------------------------------------------------------------------- #
# Public codec API
# --------------------------------------------------------------------- #


def encode_snapshot(payload: object) -> bytes:
    """Serialize ``payload`` into a self-verifying snapshot blob."""
    body = bytearray()
    _encode(payload, body)
    checksum = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, VERSION, checksum, len(body)) + bytes(body)


def decode_snapshot(data: bytes) -> object:
    """Verify and decode a snapshot blob produced by :func:`encode_snapshot`."""
    if len(data) < _HEADER.size:
        raise SnapshotFormatError(
            f"snapshot too short: {len(data)} bytes, header needs {_HEADER.size}"
        )
    magic, version, checksum, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad snapshot magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version} (this build reads {VERSION})"
        )
    body = data[_HEADER.size :]
    if len(body) != length:
        raise SnapshotFormatError(
            f"snapshot body is {len(body)} bytes but the header promises {length}"
        )
    if (zlib.crc32(body) & 0xFFFFFFFF) != checksum:
        raise SnapshotFormatError(
            "snapshot checksum mismatch: the file is corrupted or was "
            "modified after capture"
        )
    reader = _Reader(body)
    payload = _decode(reader)
    if reader.pos != len(body):
        raise SnapshotFormatError(
            f"{len(body) - reader.pos} trailing bytes after the snapshot payload"
        )
    return payload


def write_snapshot(path: str, payload: object) -> int:
    """Encode ``payload`` and write it to ``path``; returns the byte size."""
    blob = encode_snapshot(payload)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def read_snapshot(path: str) -> object:
    """Read, verify and decode the snapshot file at ``path``."""
    with open(path, "rb") as handle:
        return decode_snapshot(handle.read())


# --------------------------------------------------------------------- #
# Stream-element columns
# --------------------------------------------------------------------- #


def pack_elements(elements: Sequence[StreamElement]) -> Dict[str, list]:
    """Decompose elements into parallel columns for compact encoding.

    The ``starts``/``ends`` columns are all-``int`` in the common case
    and hit the codec's ``array('q')`` fast path; ``rows`` and ``flags``
    stay per-element (payload tuples are heterogeneous by nature).
    """
    starts: List[object] = []
    ends: List[object] = []
    rows: List[tuple] = []
    flags: List[Optional[str]] = []
    for element in elements:
        starts.append(element.start)
        ends.append(element.end)
        rows.append(element.payload)
        flags.append(element.flag)
    return {"starts": starts, "ends": ends, "rows": rows, "flags": flags}


def unpack_elements(columns: Dict[str, list]) -> List[StreamElement]:
    """Rebuild stream elements from :func:`pack_elements` columns."""
    return [
        StreamElement(tuple(row), TimeInterval(start, end), flag)
        for start, end, row, flag in zip(
            columns["starts"], columns["ends"], columns["rows"], columns["flags"]
        )
    ]
