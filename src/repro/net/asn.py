"""Autonomous System Number helpers.

ASNs are plain ``int`` throughout the library (cheap, hashable); this module
provides validation and AS-path parsing/formatting used by feeds, looking
glasses and serialisation code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import BGPError
from repro.perf import COUNTERS as _C

#: Highest 4-byte ASN (RFC 6793).
MAX_ASN = (1 << 32) - 1


class ASN(int):
    """A validated autonomous-system number.

    Subclasses ``int`` so it interoperates with the rest of the library
    (plain ints are accepted everywhere); constructing an ``ASN`` simply adds
    range validation and a conventional ``ASxxxx`` repr.
    """

    def __new__(cls, value: int) -> "ASN":
        number = int(value)
        if not 0 <= number <= MAX_ASN:
            raise BGPError(f"ASN {number} out of 32-bit range")
        return super().__new__(cls, number)

    def __repr__(self) -> str:
        return f"AS{int(self)}"


def _tokenize_as_path(text: str) -> Tuple[int, ...]:
    """Validate and convert one AS-path spelling (the interner's miss path).

    Hops are runs of ASCII digits separated by spaces, each within the
    32-bit range.  The whole spelling is checked at once, so no per-hop
    object is built beyond the ints themselves.
    """
    digits = text.replace(" ", "")
    if not digits:
        return ()
    if not (digits.isdigit() and digits.isascii()):
        token = next(
            token
            for token in text.split(" ")
            if token and not (token.isdigit() and token.isascii())
        )
        raise BGPError(f"invalid ASN token {token!r} in AS path {text!r}")
    try:
        path = tuple(map(int, text.split()))
    except ValueError as error:  # a hop beyond int()'s digit limit
        raise BGPError(f"invalid AS path {text[:64]!r}: {error}") from None
    if max(path) > MAX_ASN:
        raise BGPError(f"ASN {max(path)} out of 32-bit range")
    return path


def intern_as_path(text: str) -> Tuple[int, ...]:
    """The AS path spelled by ``text`` as one shared, immutable tuple.

    Results are interned per spelling, exactly like
    :meth:`~repro.net.prefix.Prefix.parse`: feeds repeat a small set of
    paths, so a repeat costs one dictionary hit and every event carrying
    the path shares one tuple.  Raises :class:`~repro.errors.BGPError` on
    anything but space-separated ASCII-digit hops in the 32-bit range.
    """
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        _C.path_parse_hits += 1
        return cached
    _C.path_parse_misses += 1
    path = _tokenize_as_path(text)
    if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[text] = path
    return path


def parse_as_path(text: str) -> List[int]:
    """Parse a space-separated AS path string (``"3356 1299 64500"``).

    Leading/trailing spaces are ignored; an empty string yields an empty
    path.  Raises :class:`~repro.errors.BGPError` on non-numeric tokens.
    """
    return list(intern_as_path(text))


def format_as_path(path: Sequence[int]) -> str:
    """Format an AS path as the conventional space-separated string."""
    return " ".join(str(int(asn)) for asn in path)


#: Interned ``intern_as_path`` results, keyed by the exact input spelling;
#: bounded, and cleared wholesale when full (same policy as the prefix
#: parse cache).
_PARSE_CACHE: Dict[str, Tuple[int, ...]] = {}
_PARSE_CACHE_LIMIT = 65536
