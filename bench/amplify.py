"""Deterministic trace amplifier: one recorded run looped into a long trace.

The pinned 1000-AS run records ~6.5k feed events, which the detection
plane ingests in milliseconds.  Amplifying loops the recorded records
``loops`` times into one valid sealed trace (``#%TRACE`` header, ``#%END``
footer with record count and sha256), so ``load_trace``'s verification
stays on inside the timed body.  Every loop's timestamps are shifted by a
whole number of periods, so event time stays strictly monotone across
loops.  Two modes:

``steady``
    Prefixes unchanged.  After loop 1 every (prefix, path) key is a
    verdict-cache hit: the plane's ingest floor and the parser dominate.

``diverse``
    Loop *i*'s prefixes are remapped into a loop-specific block of
    otherwise unused space (prefix lengths and containment preserved), so
    every loop brings a fresh set of keys: the working set outgrows the
    plane's verdict cache, and the tree walk, rule ladder and eviction
    path do the work.  Block order is a seeded permutation.

The amplifier works on raw record lines (the ``|``-separated dump format):
it never builds ``FeedEvent`` objects, so generating a 400k-record trace
costs about a second.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List, Sequence, Tuple

HEADER_TAG = "#%TRACE "
FOOTER_TAG = "#%END "

MODES = ("steady", "diverse")

#: Remapped blocks start here: above the synth padding pool (11.0.0.0 to
#: 171.255.255.0), the simulator's owned space (10/8) and its churn pool
#: (172.16/12), below multicast.
BLOCK_SPACE_START = 173 << 24
BLOCK_SPACE_END = 224 << 24
#: One /18 per loop: room for 64 /24s (the recorded run announces 42
#: prefixes under 41 roots, 10,496 addresses).
BLOCK_BITS = 14


class AmplifyError(ValueError):
    """The base trace cannot be amplified as asked."""


def read_base(path: str) -> Tuple[Dict, List[List[str]], Dict]:
    """Header dict, record field lists and footer dict of a sealed trace."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if not lines or not lines[0].startswith(HEADER_TAG):
        raise AmplifyError(f"{path}: not a trace file")
    header = json.loads(lines[0][len(HEADER_TAG):])
    records: List[List[str]] = []
    footer = None
    for line in lines[1:]:
        if line.startswith(FOOTER_TAG):
            footer = json.loads(line[len(FOOTER_TAG):])
            break
        fields = line.split("|")
        if len(fields) != 8:
            raise AmplifyError(f"{path}: bad record {line!r}")
        records.append(fields)
    if footer is None or footer.get("records") != len(records):
        raise AmplifyError(f"{path}: truncated trace")
    return header, records, footer


def parse_v4(text: str) -> Tuple[int, int]:
    address, _, length = text.partition("/")
    octets = address.split(".")
    if len(octets) != 4 or not length.isdigit():
        raise AmplifyError(f"only IPv4 prefixes can be remapped, got {text!r}")
    value = 0
    for octet in octets:
        value = (value << 8) | int(octet)
    return value, int(length)


def format_v4(value: int, length: int) -> str:
    return "%d.%d.%d.%d/%d" % (
        value >> 24, (value >> 16) & 255, (value >> 8) & 255, value & 255, length
    )


def block_layout(prefixes: Sequence[str]) -> Dict[str, Tuple[int, int]]:
    """Each base prefix's (offset inside a block, length).

    Roots (prefixes no other base prefix covers) are packed largest first,
    so each lands aligned to its own size; a covered prefix keeps its
    offset inside its root.  That preserves lengths and containment, which
    is all detection and worker routing look at.
    """
    parsed = sorted({parse_v4(p) + (p,) for p in prefixes}, key=lambda t: (t[1], t[0]))
    roots: List[Tuple[int, int, int]] = []  # (value, length, offset)
    layout: Dict[str, Tuple[int, int]] = {}
    cursor = 0
    for value, length, text in parsed:
        for root_value, root_length, root_offset in roots:
            if length > root_length and value >> (32 - root_length) == root_value >> (32 - root_length):
                layout[text] = (root_offset + value - root_value, length)
                break
        else:
            roots.append((value, length, cursor))
            layout[text] = (cursor, length)
            cursor += 1 << (32 - length)
    if cursor > 1 << BLOCK_BITS:
        raise AmplifyError(
            f"base trace announces {cursor} addresses, more than one "
            f"/{32 - BLOCK_BITS} block holds"
        )
    return layout


def block_order(loops: int, seed: int) -> List[int]:
    """Which block each loop is remapped into: a seeded permutation."""
    available = (BLOCK_SPACE_END - BLOCK_SPACE_START) >> BLOCK_BITS
    if loops > available:
        raise AmplifyError(f"{loops} loops exceed the {available} free blocks")
    return random.Random(seed).sample(range(available), loops)


def block_of(prefix: str) -> int:
    """The block a remapped prefix lies in (inverse of the ``diverse`` remap)."""
    return (parse_v4(prefix)[0] - BLOCK_SPACE_START) >> BLOCK_BITS


def verdict_key(fields: Sequence[str], prefix: str) -> Tuple:
    """The plane's verdict-cache key of an announcement record.

    The vantage joins the key only for single-hop paths.
    """
    path = fields[5]
    return (prefix, path) if " " in path else (prefix, path, fields[3])


def distinct_keys(records: Sequence[Sequence[str]]) -> int:
    """Distinct verdict-cache keys among one loop's announcements."""
    return len({verdict_key(r, r[4]) for r in records if r[0] == "A"})


def period_of(records: Sequence[Sequence[str]]) -> float:
    """The per-loop time shift: a whole number of seconds past the span."""
    earliest = min(min(float(r[6]), float(r[7])) for r in records)
    latest = max(max(float(r[6]), float(r[7])) for r in records)
    return float(math.floor(latest - earliest) + 1)


def amplify(
    base_path: str,
    out_path: str,
    mode: str,
    loops: int,
    seed: int,
    max_records: int = 0,
) -> Dict:
    """Write the amplified trace; returns its summary (also in the footer).

    ``max_records`` > 0 truncates the last loop so traces recorded under
    different seeds amplify to the same size.  The summary carries what a
    workload needs without loading the trace: record count, sha256, the
    first observed origin per prefix (the synth registry's ground truth)
    and the number of distinct verdict-cache keys.
    """
    if mode not in MODES:
        raise AmplifyError(f"unknown mode {mode!r}")
    if loops < 1:
        raise AmplifyError("need at least one loop")
    header, records, footer = read_base(base_path)
    if not records:
        raise AmplifyError(f"{base_path}: empty trace")
    period = period_of(records)
    times = [(float(r[6]), float(r[7])) for r in records]
    if mode == "diverse":
        layout = block_layout([r[4] for r in records])
        blocks = block_order(loops, seed)
    base_sha = footer["sha256"]
    meta = dict(header.get("meta", {}))
    meta.update(
        amplified={"mode": mode, "loops": loops, "seed": seed, "base_sha256": base_sha}
    )
    header = dict(header, meta=meta)
    digest = hashlib.sha256()
    origins: Dict[str, int] = {}
    keys = set()
    written = 0
    with open(out_path, "w", encoding="utf-8") as out:
        out.write(HEADER_TAG + json.dumps(header, sort_keys=True) + "\n")
        for loop in range(loops):
            shift = loop * period
            if mode == "diverse":
                base = BLOCK_SPACE_START + (blocks[loop] << BLOCK_BITS)
                remap = {
                    text: format_v4(base + offset, length)
                    for text, (offset, length) in layout.items()
                }
            chunk: List[str] = []
            for fields, (observed, delivered) in zip(records, times):
                if max_records and written >= max_records:
                    break
                prefix = fields[4] if mode == "steady" else remap[fields[4]]
                if fields[0] == "A":
                    if prefix not in origins:
                        origins[prefix] = int(fields[5].rsplit(" ", 1)[-1])
                    keys.add(verdict_key(fields, prefix))
                chunk.append(
                    "|".join(
                        (
                            fields[0], fields[1], fields[2], fields[3], prefix,
                            fields[5], repr(observed + shift), repr(delivered + shift),
                        )
                    )
                )
                written += 1
            if chunk:
                text = "\n".join(chunk) + "\n"
                out.write(text)
                digest.update(text.encode("utf-8"))
        summary = {
            "mode": mode,
            "loops": loops,
            "seed": seed,
            "base_sha256": base_sha,
            "records": written,
            "sha256": digest.hexdigest(),
            "distinct_keys": len(keys),
            "live_prefixes": len(origins),
            "period": period,
        }
        footer_meta = dict(footer.get("meta", {}))
        footer_meta["amplified"] = summary
        out.write(
            FOOTER_TAG
            + json.dumps(
                {"records": written, "sha256": digest.hexdigest(), "meta": footer_meta},
                sort_keys=True,
            )
            + "\n"
        )
    summary["origins"] = origins
    return summary
