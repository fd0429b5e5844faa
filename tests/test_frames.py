"""The zero-pickle binary frame codec (repro.tenants.frames).

Contracts: frames and tagged payloads round-trip exactly (including
float bit-patterns, tuple-vs-list identity, and interned strings);
damaged frames — truncation, bad counts, unknown tags, trailing bytes —
raise ``FrameError`` rather than decoding garbage; and every send is
visible in the ``frames_sent`` / ``frames_bytes`` perf counters.
"""

from __future__ import annotations

import pytest

from repro.perf import COUNTERS
from repro.tenants.frames import (
    FRAME_BATCH,
    FRAME_RESULT,
    FrameError,
    decode_batch,
    decode_batch_text,
    decode_error,
    decode_frame,
    decode_payload,
    encode_batch,
    encode_error,
    encode_frame,
    encode_payload,
    send_frame,
)


class TestFrameLayer:
    def test_header_round_trip(self):
        frame = encode_frame(FRAME_BATCH, 42, b"abc")
        assert decode_frame(frame) == (FRAME_BATCH, 42, b"abc")

    def test_truncated_header_is_loud(self):
        with pytest.raises(FrameError, match="shorter than header"):
            decode_frame(b"\x01\x00")

    def test_body_length_mismatch_is_loud(self):
        frame = encode_frame(FRAME_BATCH, 1, b"abcdef")
        with pytest.raises(FrameError, match="length mismatch"):
            decode_frame(frame[:-2])


class TestBatchBodies:
    def test_lines_round_trip(self):
        lines = [b"A|rv|c|1|10.0.0.0/24|1 2|0.5|0.5", b"W|rv|c|1|x||1.0|1.0"]
        kind, epoch, body = decode_frame(encode_batch(7, lines))
        assert (kind, epoch) == (FRAME_BATCH, 7)
        assert decode_batch(body) == lines

    def test_text_decode_is_the_bytes_decode_decoded(self):
        lines = ["A|rv|c\u00e9|1|10.0.0.0/24|1 2|0.5|0.5", "W|rv|c|1|x||1.0|1.0"]
        _kind, _epoch, body = decode_frame(
            encode_batch(7, [line.encode("utf-8") for line in lines])
        )
        assert decode_batch_text(body) == lines

    def test_empty_batch(self):
        _kind, _epoch, body = decode_frame(encode_batch(1, []))
        assert decode_batch(body) == []
        assert decode_batch_text(body) == []

    def test_count_mismatch_is_loud(self):
        _kind, _epoch, body = decode_frame(encode_batch(1, [b"a", b"b"]))
        for decode in (decode_batch, decode_batch_text):
            with pytest.raises(FrameError, match="line count mismatch"):
                decode(body[:4] + b"a\nb\nc")


class TestTaggedPayloads:
    def test_scalar_and_container_round_trip(self):
        value = {
            "worker": 3,
            "rows": [
                ("tenant-a", "exact", "10.0.0.0/24", -1, 1.5, (1, 2, 3)),
                ("tenant-b", None, True, False, ((1.0, "x"),)),
            ],
            "cpu_seconds": 0.1234567890123456789,
            "empty": [],
            "nested": {"a": {"b": (None,)}},
        }
        frame = encode_payload(FRAME_RESULT, 0, value)
        _kind, _epoch, body = decode_frame(frame)
        decoded = decode_payload(body)
        assert decoded == value
        # Concrete container types survive: digests hash repr() output,
        # which distinguishes tuple from list.
        assert type(decoded["rows"]) is list
        assert type(decoded["rows"][0]) is tuple

    def test_floats_round_trip_bit_identically(self):
        import math
        import struct as _struct

        values = [0.1, 1e-308, 1e308, -0.0, math.pi, 1234.5678901234567]
        frame = encode_payload(FRAME_RESULT, 0, tuple(values))
        decoded = decode_payload(decode_frame(frame)[2])
        for before, after in zip(values, decoded):
            assert _struct.pack("!d", before) == _struct.pack("!d", after)

    def test_strings_interned_once(self):
        # The same long string 50 times must not cost 50 copies.
        text = "tenant-with-a-rather-long-name" * 4
        solo = len(encode_payload(FRAME_RESULT, 0, [text]))
        many = len(encode_payload(FRAME_RESULT, 0, [text] * 50))
        assert many < solo + 50 * 6  # 49 repeats cost a tag + index each

    def test_bool_is_not_int(self):
        decoded = decode_payload(
            decode_frame(encode_payload(FRAME_RESULT, 0, (True, 1, False, 0)))[2]
        )
        assert decoded == (True, 1, False, 0)
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_unencodable_type_is_loud(self):
        with pytest.raises(FrameError, match="unencodable"):
            encode_payload(FRAME_RESULT, 0, {1, 2, 3})

    def test_truncated_payload_is_loud(self):
        frame = encode_payload(FRAME_RESULT, 0, {"key": [1, 2, 3]})
        _kind, _epoch, body = decode_frame(frame)
        with pytest.raises(FrameError):
            decode_payload(body[:-3])

    def test_trailing_bytes_are_loud(self):
        frame = encode_payload(FRAME_RESULT, 0, 7)
        _kind, _epoch, body = decode_frame(frame)
        with pytest.raises(FrameError, match="trailing"):
            decode_payload(body + b"\x00")

    def test_unknown_tag_is_loud(self):
        # A payload with no strings whose single value has a bogus tag.
        body = b"\x00\x00\x00\x00" + b"\x63"
        with pytest.raises(FrameError, match="unknown payload tag"):
            decode_payload(body)

    def test_error_frames(self):
        frame = encode_error("worker 3: boom")
        kind, _epoch, body = decode_frame(frame)
        assert decode_error(body) == "worker 3: boom"


class TestSendCounters:
    def test_send_frame_counts(self):
        class FakeConn:
            def __init__(self):
                self.sent = []

            def send_bytes(self, data):
                self.sent.append(data)

        COUNTERS.reset()
        conn = FakeConn()
        frame = encode_batch(1, [b"line"])
        send_frame(conn, frame)
        send_frame(conn, frame)
        assert conn.sent == [frame, frame]
        assert COUNTERS.frames_sent == 2
        assert COUNTERS.frames_bytes == 2 * len(frame)
