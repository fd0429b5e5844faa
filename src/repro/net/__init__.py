"""Core networking primitives: IP addresses, prefixes, and prefix tables.

These types are the foundation of the whole library: BGP routes are keyed by
:class:`~repro.net.prefix.Prefix`, a prefix table is a plain dict keyed by
:attr:`Prefix.ikey` read through :mod:`repro.net.prefix`'s helpers
(data-plane resolution is :func:`~repro.net.prefix.longest_match` over one),
and ARTEMIS' mitigation is prefix de-aggregation arithmetic
(:meth:`Prefix.deaggregate`).
"""

from repro.net.aggregate import (
    aggregate,
    covers_same_space,
    merge_siblings,
    remove_covered,
)
from repro.net.asn import ASN, format_as_path, parse_as_path
from repro.net.prefix import Address, Prefix

__all__ = [
    "ASN",
    "Address",
    "Prefix",
    "aggregate",
    "covers_same_space",
    "format_as_path",
    "merge_siblings",
    "parse_as_path",
    "remove_covered",
]
