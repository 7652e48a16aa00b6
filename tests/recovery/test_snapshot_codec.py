"""Tests for the pickle-free snapshot codec (header, tags, columns)."""

import zlib
from fractions import Fraction

import pytest

from repro.recovery import (
    SnapshotFormatError,
    decode_snapshot,
    encode_snapshot,
    pack_elements,
    read_snapshot,
    unpack_elements,
    write_snapshot,
)
from repro.recovery.snapshot import _HEADER, MAGIC, VERSION
from repro.temporal import element


def roundtrip(payload):
    return decode_snapshot(encode_snapshot(payload))


class TestRoundTrip:
    def test_scalars(self):
        payload = [None, True, False, 0, -1, 2**40, 3.25, "text", b"raw"]
        assert roundtrip(payload) == payload

    def test_bool_and_int_stay_distinct(self):
        decoded = roundtrip([True, 1, False, 0])
        assert [type(item) for item in decoded] == [bool, int, bool, int]

    def test_bigint_beyond_int64(self):
        payload = [2**70, -(2**70), 2**63, -(2**63) - 1]
        assert roundtrip(payload) == payload

    def test_fraction(self):
        payload = Fraction(7, 3)
        decoded = roundtrip(payload)
        assert decoded == payload and type(decoded) is Fraction

    def test_unicode_text(self):
        assert roundtrip("χρόνος ≠ wall-clock") == "χρόνος ≠ wall-clock"

    def test_nested_containers(self):
        payload = {
            "tuple": (1, ("a", None)),
            "list": [1.5, [True, b"x"]],
            "dict": {"inner": {"n": 3}},
        }
        assert roundtrip(payload) == payload

    def test_dict_order_preserved(self):
        payload = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(payload)) == ["z", "a", "m"]

    def test_int_column_fast_path(self):
        column = list(range(1000))
        blob = encode_snapshot(column)
        # One array blob, not one tag per entry: 8 bytes/value plus small
        # framing, far below the ~9 bytes/value of per-element encoding.
        assert len(blob) < 1000 * 9
        assert decode_snapshot(blob) == column

    def test_mixed_list_takes_generic_path(self):
        payload = [1, 2, "three"]
        assert roundtrip(payload) == payload

    def test_int_list_with_bigint_takes_generic_path(self):
        payload = [1, 2, 2**70]
        assert roundtrip(payload) == payload

    def test_empty_containers(self):
        payload = {"list": [], "tuple": (), "dict": {}}
        assert roundtrip(payload) == payload


class TestRefusals:
    def test_unsupported_type_refused_on_encode(self):
        with pytest.raises(SnapshotFormatError, match="cannot encode a set"):
            encode_snapshot({"state": {1, 2}})

    def test_bad_magic(self):
        blob = bytearray(encode_snapshot([1]))
        blob[:4] = b"NOPE"
        with pytest.raises(SnapshotFormatError, match="magic"):
            decode_snapshot(bytes(blob))

    def test_unsupported_version(self):
        body = encode_snapshot([1])[_HEADER.size:]
        checksum = zlib.crc32(body) & 0xFFFFFFFF
        blob = _HEADER.pack(MAGIC, VERSION + 1, checksum, len(body)) + body
        with pytest.raises(SnapshotFormatError, match="version"):
            decode_snapshot(blob)

    def test_truncated_header(self):
        with pytest.raises(SnapshotFormatError, match="too short"):
            decode_snapshot(b"RPCK")

    def test_truncated_body(self):
        blob = encode_snapshot(list(range(100)))
        with pytest.raises(SnapshotFormatError, match="promises"):
            decode_snapshot(blob[:-5])

    def test_corrupted_body_caught_by_checksum(self):
        blob = bytearray(encode_snapshot({"offsets": {"bids": 100}}))
        blob[-1] ^= 0x40  # single bit flip inside the body
        with pytest.raises(SnapshotFormatError, match="checksum"):
            decode_snapshot(bytes(blob))

    def test_trailing_bytes_after_payload(self):
        body = encode_snapshot(42)[_HEADER.size:] + b"\x00"
        checksum = zlib.crc32(body) & 0xFFFFFFFF
        blob = _HEADER.pack(MAGIC, VERSION, checksum, len(body)) + body
        with pytest.raises(SnapshotFormatError, match="trailing"):
            decode_snapshot(blob)

    def test_unknown_tag(self):
        body = b"Z"
        checksum = zlib.crc32(body) & 0xFFFFFFFF
        blob = _HEADER.pack(MAGIC, VERSION, checksum, len(body)) + body
        with pytest.raises(SnapshotFormatError, match="unknown snapshot tag"):
            decode_snapshot(blob)


class TestFileIO:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "service.ckpt")
        payload = {"queries": [{"name": "q", "starts": list(range(50))}]}
        size = write_snapshot(path, payload)
        assert size == (tmp_path / "service.ckpt").stat().st_size
        assert read_snapshot(path) == payload

    def test_header_is_inspectable(self, tmp_path):
        path = str(tmp_path / "service.ckpt")
        write_snapshot(path, {"k": 1})
        raw = (tmp_path / "service.ckpt").read_bytes()
        magic, version, _, length = _HEADER.unpack_from(raw)
        assert magic == MAGIC and version == VERSION
        assert length == len(raw) - _HEADER.size


class TestElementColumns:
    def test_elements_roundtrip_through_codec(self):
        elements = [element((i % 3, f"p{i}"), i, i + 10) for i in range(20)]
        elements.append(element(("x",), 5, 7).with_flag("old"))
        columns = pack_elements(elements)
        assert unpack_elements(roundtrip(columns)) == elements

    def test_time_columns_hit_the_array_fast_path(self):
        elements = [element((i,), i, i + 1) for i in range(200)]
        columns = pack_elements(elements)
        assert all(type(start) is int for start in columns["starts"])
        blob = encode_snapshot(columns["starts"])
        assert len(blob) < 200 * 9

    def test_half_chronon_timestamps_survive(self):
        item = element(("a",), 0.5, 2)
        restored = unpack_elements(roundtrip(pack_elements([item])))
        assert restored == [item]
        assert type(restored[0].start) is float
        assert type(restored[0].end) is int

    def test_empty(self):
        assert unpack_elements(roundtrip(pack_elements([]))) == []
