"""The binary frames detection workers are fed with (repro.tenants.frames).

Contracts: headers and BATCH bodies round-trip exactly; damaged frames —
truncation, bad counts, a non-UTF-8 payload — raise ``FrameError`` rather
than decoding garbage (fuzzed: truncation, bit flips and oversize length
prefixes either raise or decode to exactly the bytes received); and every
frame shipped is visible in the ``frames_sent`` / ``frames_bytes`` perf
counters.  (What a worker answers is not a frame:
``tests/test_proc.py`` and ``tests/test_tenants.py`` cover the reply pair.)
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.perf import COUNTERS
from repro.proc import WorkerGroup
from repro.tenants.frames import (
    FRAME_BATCH,
    FrameError,
    decode_batch,
    decode_batch_text,
    decode_frame,
    encode_batch,
    encode_frame,
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


    def test_zero_count_over_a_payload_is_loud(self):
        """A count field damaged to 0 must not drop the shipment as ``[]``."""
        _kind, _epoch, body = decode_frame(encode_batch(1, [b"a", b"b"]))
        for decode in (decode_batch, decode_batch_text):
            with pytest.raises(FrameError, match="header says 0, got 2"):
                decode(b"\0\0\0\0" + body[4:])

    def test_non_utf8_payload_is_a_frame_error(self):
        _kind, _epoch, body = decode_frame(encode_batch(1, [b"\xff\xfe"]))
        assert decode_batch(body) == [b"\xff\xfe"]
        with pytest.raises(FrameError, match="not UTF-8"):
            decode_batch_text(body)


#: Header layout (``!BII``: kind, epoch, body length) — the fuzz below
#: rewrites the length field directly.
_HEADER_SIZE, _SIZE_FIELD = 9, slice(5, 9)


@st.composite
def damaged_batch_frame(draw):
    """A BATCH frame of UTF-8 lines, intact or damaged one way."""
    line = st.text(max_size=12).filter(lambda text: "\n" not in text)
    lines = draw(st.lists(line, max_size=6))
    frame = encode_batch(draw(st.integers(0, 2**32 - 1)), [t.encode() for t in lines])
    damage = draw(st.sampled_from(["none", "truncate", "flip", "oversize"]))
    if damage == "truncate":
        frame = frame[: draw(st.integers(0, len(frame) - 1))]
    elif damage == "flip":
        bit = draw(st.integers(0, 8 * len(frame) - 1))
        frame = bytearray(frame)
        frame[bit // 8] ^= 1 << (bit % 8)
    elif damage == "oversize":
        size = draw(st.integers(len(frame) - _HEADER_SIZE + 1, 2**32 - 1))
        frame = bytearray(frame)
        frame[_SIZE_FIELD] = struct.pack("!I", size)
    return bytes(frame)


@settings(max_examples=500, deadline=None)
@given(frame=damaged_batch_frame())
def test_damage_is_a_frame_error_or_an_exact_round_trip(frame):
    """Whatever the damage, each decoder either raises ``FrameError`` or
    returns exactly what re-encodes to the bytes received: no line is lost,
    invented or silently altered by the decoder itself.  (A flipped bit
    inside a line or the kind/epoch fields is a different, valid frame —
    nothing in the format can tell.)"""
    try:
        kind, epoch, body = decode_frame(frame)
    except FrameError:
        return
    assert encode_frame(kind, epoch, body) == frame
    for decode, to_bytes in ((decode_batch, bytes), (decode_batch_text, str.encode)):
        try:
            lines = decode(body)
        except FrameError:
            continue
        reencoded = encode_batch(epoch, [to_bytes(line) for line in lines])
        assert decode_frame(reencoded)[2] == body


def _sink(conn):
    """A child that reads frames until its parent hangs up."""
    try:
        while True:
            conn.recv_bytes()
    except EOFError:
        pass


class TestSendCounters:
    def test_send_frame_counts(self):
        group = WorkerGroup("sink {}", ReproError)
        group.fork(_sink)
        try:
            COUNTERS.reset()
            frame = encode_batch(1, [b"line"])
            group.send(0, frame)
            group.send(0, frame)
            assert COUNTERS.frames_sent == 2
            assert COUNTERS.frames_bytes == 2 * len(frame)
        finally:
            group.close(b"")
