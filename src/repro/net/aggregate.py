"""Prefix-set aggregation.

Operators de-aggregate to mitigate and re-aggregate when the incident is
over; these helpers compute minimal covering sets:

* :func:`merge_siblings` — collapse complementary pairs (two /24 halves →
  their /23), repeatedly, without ever covering address space that was not
  in the input;
* :func:`remove_covered` — drop prefixes already covered by another prefix
  in the set;
* :func:`aggregate` — both, to a canonical minimal set.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.net.prefix import Prefix, uncovered_keys


def remove_covered(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Drop any prefix covered by another of the set; sorted, duplicates collapsed."""
    by_key = {prefix.ikey: prefix for prefix in prefixes}
    return [by_key[key] for key in uncovered_keys(by_key)]


def merge_siblings(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Collapse complementary sibling pairs into their parent, repeatedly.

    Exact aggregation only: the merged set covers exactly the same
    addresses as the input (assuming the input has no covered duplicates —
    run :func:`remove_covered` first, or use :func:`aggregate`).
    """
    current = sorted(set(prefixes))
    changed = True
    while changed:
        changed = False
        merged: List[Prefix] = []
        index = 0
        while index < len(current):
            prefix = current[index]
            if index + 1 < len(current) and prefix.length > 0:
                sibling = current[index + 1]
                parent = prefix.supernet()
                if (
                    sibling.length == prefix.length
                    and sibling.version == prefix.version
                    and parent.contains(sibling)
                    and sibling != prefix
                ):
                    merged.append(parent)
                    index += 2
                    changed = True
                    continue
            merged.append(prefix)
            index += 1
        current = sorted(merged)
    return current


def aggregate(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Canonical minimal covering set (same address space, fewest prefixes)."""
    return merge_siblings(remove_covered(prefixes))


def covers_same_space(a: Iterable[Prefix], b: Iterable[Prefix]) -> bool:
    """True if the two prefix sets cover exactly the same addresses.

    Compares canonical aggregations, so it is exact (not sampled).
    """
    return aggregate(a) == aggregate(b)
