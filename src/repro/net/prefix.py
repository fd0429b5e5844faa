"""IP addresses and prefixes, implemented from scratch.

The simulator never touches real sockets, so these types are pure value
objects optimised for the operations BGP needs: containment tests,
longest-prefix-match keys, and — the heart of ARTEMIS mitigation —
de-aggregation into more-specific sub-prefixes.

Both IPv4 and IPv6 are supported.  A prefix is canonical: host bits beyond
the mask length are forced to zero at construction time, so two textual
spellings of the same network compare equal.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, TypeVar, Union

from repro.errors import PrefixError
from repro.perf import COUNTERS as _C

_V4_BITS = 32
_V6_BITS = 128
_V4_MAX = (1 << _V4_BITS) - 1
_V6_MAX = (1 << _V6_BITS) - 1

V = TypeVar("V")


def _parse_v4(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"invalid IPv4 address {text!r}: expected 4 octets")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise PrefixError(f"invalid IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"IPv4 octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_v4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _parse_v6(text: str) -> int:
    """Parse RFC 4291 IPv6 text (with ``::`` compression) into a 128-bit int."""
    if text.count("::") > 1:
        raise PrefixError(f"invalid IPv6 address {text!r}: multiple '::'")
    if "::" in text:
        head_text, tail_text = text.split("::", 1)
        head = head_text.split(":") if head_text else []
        tail = tail_text.split(":") if tail_text else []
        missing = 8 - (len(head) + len(tail))
        if missing < 1:
            raise PrefixError(f"invalid IPv6 address {text!r}: too many groups")
        groups = head + ["0"] * missing + tail
    else:
        groups = text.split(":")
        if len(groups) != 8:
            raise PrefixError(
                f"invalid IPv6 address {text!r}: expected 8 groups, got {len(groups)}"
            )
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise PrefixError(f"invalid IPv6 group {group!r} in {text!r}")
        try:
            word = int(group, 16)
        except ValueError:
            raise PrefixError(f"invalid IPv6 group {group!r} in {text!r}") from None
        value = (value << 16) | word
    return value


def _format_v6(value: int) -> str:
    """Format a 128-bit integer as compressed lowercase IPv6 text."""
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    # Find the longest run of zero groups (length >= 2) to compress.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len >= 2:
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
        return f"{head}::{tail}"
    return ":".join(f"{g:x}" for g in groups)


class Address:
    """A single IP address (IPv4 or IPv6), comparable and hashable.

    Addresses order first by version, then numerically, so mixed-version
    collections sort deterministically.
    """

    __slots__ = ("value", "version", "_hash")

    def __init__(self, value: int, version: int = 4):
        if version not in (4, 6):
            raise PrefixError(f"unsupported IP version {version}")
        limit = _V4_MAX if version == 4 else _V6_MAX
        if not 0 <= value <= limit:
            raise PrefixError(f"address value {value} out of range for IPv{version}")
        self.value = value
        self.version = version
        self._hash = hash((version, value))

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse dotted-quad IPv4 or RFC 4291 IPv6 text."""
        text = text.strip()
        if ":" in text:
            return cls(_parse_v6(text), 6)
        return cls(_parse_v4(text), 4)

    @property
    def bits(self) -> int:
        """Total address width in bits (32 or 128)."""
        return _V4_BITS if self.version == 4 else _V6_BITS

    def __deepcopy__(self, memo) -> "Address":
        # Immutable value object: shared structurally by checkpoint forks.
        return self

    def __str__(self) -> str:
        if self.version == 4:
            return _format_v4(self.value)
        return _format_v6(self.value)

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return self.version == other.version and self.value == other.value

    def __lt__(self, other: "Address") -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return (self.version, self.value) < (other.version, other.value)

    def __le__(self, other: "Address") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return self._hash


class Prefix:
    """An IP prefix (network) in canonical form.

    The constructor zeroes host bits, so ``Prefix.parse("10.0.1.77/23")``
    equals ``Prefix.parse("10.0.0.0/23")``.  Prefixes are immutable,
    hashable, and totally ordered (version, network value, length) — the
    ordering groups covering prefixes immediately before their
    more-specifics, which :func:`covered_range` and de-aggregation rely on.
    """

    __slots__ = ("value", "length", "version", "ikey")

    def __init__(self, value: int, length: int, version: int = 4):
        if version not in (4, 6):
            raise PrefixError(f"unsupported IP version {version}")
        bits = _V4_BITS if version == 4 else _V6_BITS
        if not 0 <= length <= bits:
            raise PrefixError(f"prefix length /{length} out of range for IPv{version}")
        limit = _V4_MAX if version == 4 else _V6_MAX
        if not 0 <= value <= limit:
            raise PrefixError(f"network value {value} out of range for IPv{version}")
        mask = ((1 << length) - 1) << (bits - length) if length else 0
        self.value = value & mask
        self.length = length
        self.version = version
        #: The prefix's one key: version, value and length packed into a
        #: unique int whose integer order *is* the total order (version bit
        #: on top, then network value, then length) — ``==``, ``<``, ``hash``
        #: and every sort read it and nothing else.  Hot tables key on it,
        #: not on the Prefix (an int hashes in C, a Prefix through a Python
        #: ``__hash__`` call) and hot sorts compare ikeys in C, keyless.
        self.ikey = ((version == 6) << 137) | (self.value << 9) | (length << 1)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/23"`` or ``"2001:db8::/32"`` text.

        A bare address is accepted as a host prefix (/32 or /128).
        Results are interned per spelling: repeated parses of the same text
        (feed subscriptions, probe targets, config round-trips) return the
        same immutable object without re-tokenising.
        """
        cached = _PARSE_CACHE.get(text)
        if cached is not None:
            _C.prefix_parse_hits += 1
            return cached
        _C.prefix_parse_misses += 1
        prefix = cls._parse_uncached(text)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = prefix
        return prefix

    @classmethod
    def _parse_uncached(cls, text: str) -> "Prefix":
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise PrefixError(f"invalid prefix length in {text!r}")
            length = int(len_text)
        else:
            addr_text = text
            length = None
        address = Address.parse(addr_text)
        if length is None:
            length = address.bits
        return cls(address.value, length, address.version)

    @property
    def bits(self) -> int:
        """Total address width in bits (32 or 128)."""
        return _V4_BITS if self.version == 4 else _V6_BITS

    @property
    def network(self) -> Address:
        """The network (first) address of the prefix."""
        return Address(self.value, self.version)

    @property
    def broadcast_value(self) -> int:
        """Integer value of the last address covered by the prefix."""
        host_bits = self.bits - self.length
        return self.value | ((1 << host_bits) - 1)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered."""
        return 1 << (self.bits - self.length)

    def contains_address(self, address: Union[Address, str]) -> bool:
        """True if ``address`` falls inside this prefix."""
        if isinstance(address, str):
            address = Address.parse(address)
        if address.version != self.version:
            return False
        return self.value <= address.value <= self.broadcast_value

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if other.version != self.version or other.length < self.length:
            return False
        shift = self.bits - self.length
        return (other.value >> shift) == (self.value >> shift) if self.length else True

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def supernet(self, new_length: int = None) -> "Prefix":
        """The covering prefix of length ``new_length`` (default: one shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if not 0 <= new_length <= self.length:
            raise PrefixError(
                f"supernet length /{new_length} invalid for {self} (/{self.length})"
            )
        return Prefix(self.value, new_length, self.version)

    def split(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two halves one bit longer (e.g. /23 → two /24s).

        This is the primitive behind ARTEMIS prefix de-aggregation.
        """
        if self.length >= self.bits:
            raise PrefixError(f"cannot split host prefix {self}")
        child_length = self.length + 1
        low = Prefix(self.value, child_length, self.version)
        high_value = self.value | (1 << (self.bits - child_length))
        high = Prefix(high_value, child_length, self.version)
        return low, high

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate all sub-prefixes of ``new_length`` covering this prefix."""
        if new_length < self.length:
            raise PrefixError(
                f"subnet length /{new_length} shorter than prefix {self}"
            )
        if new_length > self.bits:
            raise PrefixError(f"subnet length /{new_length} exceeds IPv{self.version}")
        step = 1 << (self.bits - new_length)
        for value in range(self.value, self.broadcast_value + 1, step):
            yield Prefix(value, new_length, self.version)

    def deaggregate(self, target_length: int = None) -> List["Prefix"]:
        """De-aggregate into more-specific announcements (ARTEMIS mitigation).

        By default splits one level (``/23`` → ``[/24, /24]``), matching the
        paper's Phase-3.  Pass ``target_length`` to de-aggregate deeper.
        Raises :class:`PrefixError` if no more-specific exists.
        """
        if target_length is None:
            target_length = self.length + 1
        if target_length <= self.length:
            raise PrefixError(
                f"cannot de-aggregate {self} to shorter-or-equal /{target_length}"
            )
        if target_length > self.bits:
            raise PrefixError(
                f"cannot de-aggregate {self} beyond /{self.bits}"
            )
        return list(self.subnets(target_length))

    def __deepcopy__(self, memo) -> "Prefix":
        # Immutable value object: shared structurally by checkpoint forks.
        return self

    def __str__(self) -> str:
        if self.version == 4:  # no Address: every digest and incident row formats these
            value = self.value
            return "%d.%d.%d.%d/%d" % (
                value >> 24, value >> 16 & 0xFF, value >> 8 & 0xFF, value & 0xFF, self.length
            )
        return f"{self.network}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.ikey == other.ikey

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.ikey < other.ikey

    def __le__(self, other: "Prefix") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return hash(self.ikey)


# A prefix table is a plain dict keyed by :attr:`Prefix.ikey`, read through the
# functions below; this module alone knows the ``ikey`` layout.  A caller that
# keeps its table's :func:`present_lengths` passes them as ``lengths``: one
# probe per length present, not one per possible length (33 or 129).  Each
# query runs its own probe loop: a shared key generator doubled the cost of
# ``LocRib.resolve``, which stops at its first hit.

Target = Union[Address, Prefix]


def longest_match(
    table: Mapping[int, V], target: Target, lengths: Optional[List[int]] = None
) -> Optional[V]:
    """The value ``table`` holds for the most specific prefix covering
    ``target`` (an :class:`Address` is its host prefix; a stored prefix longer
    than a ``Prefix`` target never matches), or ``None``: one probe per
    length, longest first — every length down to /0, or only ``lengths``."""
    bits, value = target.bits, target.value
    top = target.length if isinstance(target, Prefix) else bits
    version_bit = (target.version == 6) << 137
    get = table.get
    for length in range(top, -1, -1) if lengths is None else lengths:
        if length <= top:
            shift = bits - length
            hit = get(version_bit | ((value >> shift) << (shift + 9)) | (length << 1))
            if hit is not None:
                return hit
    return None


def covering(
    table: Mapping[int, V], target: Target, lengths: Optional[List[int]] = None
) -> List[V]:
    """Every value ``table`` holds at ``target`` or a supernet of it, least
    specific first — :func:`longest_match`'s probes, every hit kept."""
    bits, value = target.bits, target.value
    top = target.length if isinstance(target, Prefix) else bits
    version_bit = (target.version == 6) << 137
    get = table.get
    hits = []
    for length in range(top + 1) if lengths is None else reversed(lengths):
        if length <= top:
            shift = bits - length
            hit = get(version_bit | ((value >> shift) << (shift + 9)) | (length << 1))
            if hit is not None:
                hits.append(hit)
    return hits


def covered_range(prefix: Prefix) -> Tuple[int, int]:
    """``[low, high)``: the ``ikey`` range holding ``prefix`` and every prefix
    inside it.

    The covered set is one contiguous range: from ``prefix`` itself up to
    (not including) the next network of its length *at length 0* — anything
    shorter at ``prefix``'s own network value sorts before ``low``, and the
    bound carries no length bits, so a shorter prefix sitting at the next
    network value is outside too.
    """
    low = prefix.ikey
    return low, low - (prefix.length << 1) + (1 << (prefix.bits - prefix.length + 9))


def present_lengths(ikeys: Iterable[int]) -> Dict[int, List[int]]:
    """``{4: [...], 6: [...]}``: the distinct prefix lengths among ``ikeys``,
    longest first — the ``lengths`` argument for a table with those keys."""
    seen = {(ikey >> 137, (ikey >> 1) & 0xFF) for ikey in ikeys}
    return {
        version: sorted((n for v6, n in seen if v6 == (version == 6)), reverse=True)
        for version in (4, 6)
    }


#: Interned ``Prefix.parse`` results, keyed by the exact input spelling.
_PARSE_CACHE: Dict[str, Prefix] = {}
_PARSE_CACHE_LIMIT = 65536
