"""Binary frames for the detection-worker pipes — the *down* direction.

Parent → worker, the detection-worker pipes carry the trace itself, as
compact length-prefixed binary frames shipped raw
(:meth:`repro.proc.WorkerGroup.send`, ``recv_bytes`` in the worker) —
never pickled, which would re-serialize every line's string object per
shipment and pay the pickle VM on both ends.  The registry and
prefix tree do **not** travel here: workers inherit them at fork (see
:mod:`repro.tenants.workers`), so the parent's traffic is the trace plus a
handful of control frames.

* **Header** — ``!BII``: frame kind, epoch, body length.  The epoch field
  carries the per-worker shipment epoch for ``BATCH`` frames (zero
  elsewhere); the explicit body length lets the receiver reject truncated
  or corrupt frames loudly.
* **BATCH / FINISH / STOP.**  A ``BATCH`` body is a u32 line count plus the
  raw trace lines joined by ``\\n``.  The parent never decodes a line: it
  reads the trace file in binary and routes on the prefix field as bytes.
  A worker decodes each ``BATCH`` body once (:func:`decode_batch_text`:
  one UTF-8 decode and one split per frame) and hands the ``str`` lines to
  its plane.  ``FINISH`` and ``STOP`` are bare headers.

Worker → parent there is no frame: a worker answers ``FINISH`` once, with
:mod:`repro.proc`'s pickled ``("ok", result)`` / ``("error", message)``
pair.  One reply per worker per run, from a fork of
this very process, is not worth a private serializer: on the real RESULT
``pickle`` is 0.57× the bytes and an order of magnitude faster than the
tagged codec that used to carry it (DESIGN.md "Worker processes").  Every frame shipped is
counted by the sender in :data:`repro.perf.COUNTERS` as ``frames_sent`` /
``frames_bytes``.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

# Frame kinds, all parent → worker.
FRAME_BATCH = 0x01
FRAME_FINISH = 0x02
FRAME_STOP = 0x03

_HEADER = struct.Struct("!BII")  # kind, epoch, body length
_U32 = struct.Struct("!I")


class FrameError(ValueError):
    """A malformed, truncated, or type-inconsistent frame."""


# ------------------------------------------------------------------- frames


def encode_frame(kind: int, epoch: int, body: bytes = b"") -> bytes:
    """One wire frame: header plus body."""
    return _HEADER.pack(kind, epoch, len(body)) + body


def decode_frame(data: bytes) -> Tuple[int, int, bytes]:
    """Split a received message into (kind, epoch, body); loud on damage."""
    if len(data) < _HEADER.size:
        raise FrameError(f"frame shorter than header: {len(data)} bytes")
    kind, epoch, size = _HEADER.unpack_from(data)
    body = data[_HEADER.size:]
    if len(body) != size:
        raise FrameError(
            f"frame body length mismatch: header says {size}, got {len(body)}"
        )
    return kind, epoch, body


# ------------------------------------------------------------- batch bodies


def encode_batch(epoch: int, lines: List[bytes]) -> bytes:
    """A BATCH frame: u32 line count + newline-joined raw trace lines."""
    body = _U32.pack(len(lines)) + b"\n".join(lines)
    return encode_frame(FRAME_BATCH, epoch, body)


def _split_batch(body: bytes, text: bool) -> List:
    if len(body) < _U32.size:
        raise FrameError("batch body shorter than its line count")
    (count,) = _U32.unpack_from(body)
    payload = body[_U32.size:]
    if count == 0 and not payload:
        return []
    try:
        lines = payload.decode("utf-8").split("\n") if text else payload.split(b"\n")
    except UnicodeDecodeError as exc:
        raise FrameError(f"batch payload is not UTF-8: {exc}") from None
    # A payload splits into at least one line, so a zero count over a
    # payload (a damaged count field) is a mismatch too, never ``[]``.
    if len(lines) != count:
        raise FrameError(
            f"batch line count mismatch: header says {count}, got {len(lines)}"
        )
    return lines


def decode_batch(body: bytes) -> List[bytes]:
    """Recover the raw trace lines of a BATCH body."""
    return _split_batch(body, text=False)


def decode_batch_text(body: bytes) -> List[str]:
    """The lines of a BATCH body as ``str``: one UTF-8 decode, one split."""
    return _split_batch(body, text=True)
