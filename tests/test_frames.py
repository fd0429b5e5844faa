"""The binary frames detection workers are fed with (repro.tenants.frames).

Contracts: headers and BATCH bodies round-trip exactly; damaged frames —
truncation, bad counts — raise ``FrameError`` rather than decoding
garbage; and every frame shipped is visible in the ``frames_sent`` /
``frames_bytes`` perf counters.  (What a worker answers is not a frame:
``tests/test_proc.py`` and ``tests/test_tenants.py`` cover the reply pair.)
"""

from __future__ import annotations

import pytest

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
            # A pickled message is not a frame.
            group.send(0, ("not", "a frame"))
            assert COUNTERS.frames_sent == 2
        finally:
            group.close(b"")
