"""Zero-pickle binary frame transport for the detection-worker pipes.

The detection-worker pipes carry trace lines down and one result up, as
compact length-prefixed binary frames moved via
``Connection.send_bytes``/``recv_bytes`` — never ``Connection.send``, whose
pickle re-serializes every line's string object per shipment and pays the
pickle VM on both ends.  The registry and prefix tree do **not** travel
here: workers inherit them at fork (see :mod:`repro.tenants.workers`), so
the parent's traffic is the trace itself plus a handful of control frames.

* **Header** — ``!BII``: frame kind, epoch, body length.  The epoch field
  carries the per-worker shipment epoch for ``BATCH`` frames (zero
  elsewhere); the explicit body length lets the receiver reject truncated
  or corrupt frames loudly.
* **Down (parent → worker): BATCH / FINISH / STOP.**  A ``BATCH`` body is
  a u32 line count plus the raw trace lines joined by ``\\n``.  Lines stay
  **bytes end to end**: the parent reads the trace file in binary, routes
  on the prefix field without decoding, and workers parse events straight
  from the bytes — no intermediate ``str`` objects cross the pipe at all.
  ``FINISH`` and ``STOP`` are bare headers.
* **Up (worker → parent): RESULT / ERROR.**  ``RESULT`` carries the
  worker's result dict in a tagged binary encoding with a per-frame
  **interned string table**: every distinct string is encoded once and
  referenced by index (incident rows repeat tenant names, sources and
  prefix strings heavily).  ``ERROR`` carries a UTF-8 exception summary.

Every frame sent is counted in :data:`repro.perf.COUNTERS` as
``frames_sent`` / ``frames_bytes``.

The payload encoding round-trips exactly: ints are ``!q``, floats are
``!d`` (IEEE-754 bits, so event timestamps survive bit-identically — the
merged alert digest depends on this), tuples/lists/dicts nest arbitrarily
and keep their concrete type (``incident_rows`` digests ``repr`` output,
which distinguishes tuple from list).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.perf import COUNTERS as _COUNTERS

# Frame kinds (parent → worker: BATCH/FINISH/STOP; worker → parent:
# RESULT/ERROR).
FRAME_BATCH = 0x01
FRAME_FINISH = 0x02
FRAME_STOP = 0x03
FRAME_RESULT = 0x10
FRAME_ERROR = 0x11

_HEADER = struct.Struct("!BII")  # kind, epoch, body length
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

# Payload value tags.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_TUPLE = 6
_T_LIST = 7
_T_DICT = 8

_TAG_BYTES = tuple(bytes((tag,)) for tag in range(9))


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


def send_frame(conn, frame: bytes) -> None:
    """Ship one frame over a ``multiprocessing`` connection, counted."""
    conn.send_bytes(frame)
    _COUNTERS.frames_sent += 1
    _COUNTERS.frames_bytes += len(frame)


# ------------------------------------------------------------- batch bodies


def encode_batch(epoch: int, lines: List[bytes]) -> bytes:
    """A BATCH frame: u32 line count + newline-joined raw trace lines."""
    body = _U32.pack(len(lines)) + b"\n".join(lines)
    return encode_frame(FRAME_BATCH, epoch, body)


def _split_batch(body: bytes, text: bool) -> List:
    if len(body) < _U32.size:
        raise FrameError("batch body shorter than its line count")
    (count,) = _U32.unpack_from(body)
    if count == 0:
        return []
    payload = body[_U32.size:]
    lines = payload.decode("utf-8").split("\n") if text else payload.split(b"\n")
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


# ---------------------------------------------------------- tagged payloads


def _encode_value(
    value, table: Dict[str, int], out: List[bytes]
) -> None:
    # bool before int: bool is an int subclass.
    if value is None:
        out.append(_TAG_BYTES[_T_NONE])
    elif value is True:
        out.append(_TAG_BYTES[_T_TRUE])
    elif value is False:
        out.append(_TAG_BYTES[_T_FALSE])
    elif type(value) is int:
        out.append(_TAG_BYTES[_T_INT])
        out.append(_I64.pack(value))
    elif type(value) is float:
        out.append(_TAG_BYTES[_T_FLOAT])
        out.append(_F64.pack(value))
    elif type(value) is str:
        index = table.get(value)
        if index is None:
            index = len(table)
            table[value] = index
        out.append(_TAG_BYTES[_T_STR])
        out.append(_U32.pack(index))
    elif type(value) is tuple:
        out.append(_TAG_BYTES[_T_TUPLE])
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, table, out)
    elif type(value) is list:
        out.append(_TAG_BYTES[_T_LIST])
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, table, out)
    elif type(value) is dict:
        out.append(_TAG_BYTES[_T_DICT])
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, table, out)
            _encode_value(item, table, out)
    else:
        raise FrameError(
            f"unencodable payload value of type {type(value).__name__}"
        )


def encode_payload(kind: int, epoch: int, value) -> bytes:
    """A payload (RESULT) frame: interned string table + tagged value body."""
    table: Dict[str, int] = {}
    values: List[bytes] = []
    _encode_value(value, table, values)
    head: List[bytes] = [_U32.pack(len(table))]
    for text in table:  # dict order == assignment order == index order
        raw = text.encode("utf-8")
        head.append(_U32.pack(len(raw)))
        head.append(raw)
    return encode_frame(kind, epoch, b"".join(head + values))


def _decode_value(body: bytes, offset: int, strings: List[str]):
    try:
        tag = body[offset]
    except IndexError:
        raise FrameError("payload truncated at a value tag") from None
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    try:
        if tag == _T_INT:
            return _I64.unpack_from(body, offset)[0], offset + _I64.size
        if tag == _T_FLOAT:
            return _F64.unpack_from(body, offset)[0], offset + _F64.size
        if tag == _T_STR:
            (index,) = _U32.unpack_from(body, offset)
            return strings[index], offset + _U32.size
        if tag in (_T_TUPLE, _T_LIST):
            (count,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            items = []
            for _ in range(count):
                item, offset = _decode_value(body, offset, strings)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), offset
        if tag == _T_DICT:
            (count,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            mapping = {}
            for _ in range(count):
                key, offset = _decode_value(body, offset, strings)
                item, offset = _decode_value(body, offset, strings)
                mapping[key] = item
            return mapping, offset
    except (struct.error, IndexError) as exc:
        raise FrameError(f"payload truncated inside tag {tag}: {exc}") from None
    raise FrameError(f"unknown payload tag {tag}")


def decode_payload(body: bytes):
    """Recover the value of a payload (RESULT) body."""
    try:
        (num_strings,) = _U32.unpack_from(body)
    except struct.error:
        raise FrameError("payload shorter than its string-table count") from None
    offset = _U32.size
    strings: List[str] = []
    for _ in range(num_strings):
        try:
            (size,) = _U32.unpack_from(body, offset)
        except struct.error:
            raise FrameError("payload truncated inside string table") from None
        offset += _U32.size
        raw = body[offset:offset + size]
        if len(raw) != size:
            raise FrameError("payload truncated inside a table string")
        strings.append(raw.decode("utf-8"))
        offset += size
    value, offset = _decode_value(body, offset, strings)
    if offset != len(body):
        raise FrameError(
            f"payload has {len(body) - offset} trailing bytes after its value"
        )
    return value


def encode_error(message: str) -> bytes:
    """An ERROR frame carrying a UTF-8 message."""
    return encode_frame(FRAME_ERROR, 0, message.encode("utf-8"))


def decode_error(body: bytes) -> str:
    """The message out of an ERROR frame body (lossy on bad UTF-8)."""
    return body.decode("utf-8", errors="replace")
