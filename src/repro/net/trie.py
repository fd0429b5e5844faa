"""A binary radix (Patricia-style) trie keyed by :class:`~repro.net.prefix.Prefix`.

The trie provides the two lookups BGP needs:

* :meth:`PrefixTrie.longest_match` — data-plane resolution: given an address
  (or a prefix), find the most specific stored prefix covering it.  This is
  what makes ARTEMIS de-aggregation work: a /24 route beats the hijacked /23.
* :meth:`PrefixTrie.covered` / :meth:`PrefixTrie.covering` — control-plane
  queries used by the detection service (is this announcement a sub-prefix of
  an owned prefix?).

Each trie stores a single IP version's worth of keys per internal root, but
mixed v4/v6 usage is transparent: two roots are kept internally.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar, Union

from repro.net.prefix import Address, Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Mutable mapping from :class:`Prefix` to arbitrary values.

    Supports exact get/set/delete plus longest-match and subtree queries.
    Iteration yields prefixes in deterministic bit order.
    """

    def __init__(self) -> None:
        self._roots: Dict[int, _Node[V]] = {4: _Node(), 6: _Node()}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node.has_value

    def _find(self, prefix: Prefix) -> Optional[_Node[V]]:
        # Hot path: inline the per-bit extraction (value >> shift) & 1 with
        # locals instead of calling Prefix.bit_at for every level.
        node = self._roots[prefix.version]
        value = prefix.value
        shift = (32 if prefix.version == 4 else 128) - 1
        for _ in range(prefix.length):
            node = node.children[(value >> shift) & 1]
            if node is None:
                return None
            shift -= 1
        return node

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._roots[prefix.version]
        key = prefix.value
        shift = (32 if prefix.version == 4 else 128) - 1
        for _ in range(prefix.length):
            bit = (key >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
            shift -= 1
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact lookup; returns ``default`` when absent."""
        node = self._find(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def __getitem__(self, prefix: Prefix) -> V:
        node = self._find(prefix)
        if node is None or not node.has_value:
            raise KeyError(str(prefix))
        return node.value  # type: ignore[return-value]

    def remove(self, prefix: Prefix) -> V:
        """Delete and return the value at ``prefix`` (KeyError if absent).

        Dangling interior nodes on the path are pruned so repeated
        insert/remove cycles do not leak memory.
        """
        path: List[Tuple[_Node[V], int]] = []
        node = self._roots[prefix.version]
        value_bits = prefix.value
        shift = (32 if prefix.version == 4 else 128) - 1
        for _ in range(prefix.length):
            bit = (value_bits >> shift) & 1
            child = node.children[bit]
            if child is None:
                raise KeyError(str(prefix))
            path.append((node, bit))
            node = child
            shift -= 1
        if not node.has_value:
            raise KeyError(str(prefix))
        value = node.value
        node.value = None
        node.has_value = False
        self._size -= 1
        # Prune empty leaves bottom-up.
        current = node
        for parent, bit in reversed(path):
            if current.has_value or current.children[0] or current.children[1]:
                break
            parent.children[bit] = None
            current = parent
        return value  # type: ignore[return-value]

    def __delitem__(self, prefix: Prefix) -> None:
        self.remove(prefix)

    def longest_match(
        self, target: Union[Address, Prefix, str]
    ) -> Optional[Tuple[Prefix, V]]:
        """Most specific stored prefix covering ``target``, or ``None``.

        ``target`` may be an :class:`Address`, a :class:`Prefix` (matched by
        its network address, but never by a stored prefix longer than the
        target), or a string parsed as either.
        """
        if isinstance(target, str):
            target = Prefix.parse(target) if "/" in target else Address.parse(target)
        if isinstance(target, Address):
            probe = Prefix(target.value, target.bits, target.version)
        else:
            probe = target
        node = self._roots[probe.version]
        best: Optional[Tuple[Prefix, V]] = None
        if node.has_value:
            best = (Prefix(0, 0, probe.version), node.value)  # type: ignore[arg-type]
        value = probe.value
        shift = (32 if probe.version == 4 else 128) - 1
        for position in range(probe.length):
            node = node.children[(value >> shift) & 1]
            if node is None:
                break
            shift -= 1
            if node.has_value:
                mask_prefix = Prefix(value, position + 1, probe.version)
                best = (mask_prefix, node.value)  # type: ignore[arg-type]
        return best

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Yield stored (prefix, value) pairs equal to or inside ``prefix``."""
        node = self._find(prefix)
        if node is None:
            return
        yield from self._walk(node, prefix.value, prefix.length, prefix.version)

    def covering(self, target: Union[Prefix, Address]) -> Iterator[Tuple[Prefix, V]]:
        """Yield stored (prefix, value) pairs that cover ``target``.

        Results are ordered from least specific (shortest) to most specific.
        """
        if isinstance(target, Address):
            probe = Prefix(target.value, target.bits, target.version)
        else:
            probe = target
        node = self._roots[probe.version]
        if node.has_value:
            yield Prefix(0, 0, probe.version), node.value  # type: ignore[misc]
        value = probe.value
        shift = (32 if probe.version == 4 else 128) - 1
        for position in range(probe.length):
            node = node.children[(value >> shift) & 1]
            if node is None:
                return
            shift -= 1
            if node.has_value:
                yield (
                    Prefix(value, position + 1, probe.version),
                    node.value,  # type: ignore[misc]
                )

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Yield all (prefix, value) pairs in deterministic bit order."""
        for version in (4, 6):
            yield from self._walk(self._roots[version], 0, 0, version)

    def keys(self) -> Iterator[Prefix]:
        for prefix, _value in self.items():
            yield prefix

    def __iter__(self) -> Iterator[Prefix]:
        return self.keys()

    def values(self) -> Iterator[V]:
        for _prefix, value in self.items():
            yield value

    def _walk(
        self, node: _Node[V], value: int, length: int, version: int
    ) -> Iterator[Tuple[Prefix, V]]:
        stack: List[Tuple[_Node[V], int, int]] = [(node, value, length)]
        bits = 32 if version == 4 else 128
        while stack:
            current, cur_value, cur_length = stack.pop()
            if current.has_value:
                yield Prefix(cur_value, cur_length, version), current.value  # type: ignore[misc]
            # Push high child first so low child pops first (sorted order).
            high = current.children[1]
            low = current.children[0]
            if high is not None:
                child_value = cur_value | (1 << (bits - cur_length - 1))
                stack.append((high, child_value, cur_length + 1))
            if low is not None:
                stack.append((low, cur_value, cur_length + 1))
