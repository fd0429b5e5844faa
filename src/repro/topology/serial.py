"""CAIDA ``as-rel`` serialisation.

The CAIDA AS-relationship datasets use one line per link::

    <provider-asn>|<customer-asn>|-1      # transit
    <peer-asn>|<peer-asn>|0               # settlement-free peering

with ``#`` comment lines.  Reading one of these files yields an
:class:`~repro.topology.graph.ASGraph` whose tiers are inferred (provider-free
ASes → tier 1, customer-free → tier 3, rest → tier 2), so real inferred
topologies drop straight into the simulator.

The plain format loses the generator's node metadata (region, tags), which the
simulator needs to reproduce per-link propagation delays.  ``annotate=True``
adds one structured comment line per node::

    # node <asn> tier=<n> region=<name> tags=<a,b>

These are ignored by any standard as-rel consumer (they are comments) but are
round-tripped by :func:`from_caida_lines`, so a graph loaded back from the
topology cache rebuilds **bit-identically** — same tiers, same regions, same
link iteration order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.errors import TopologyError
from repro.topology.graph import ASGraph
from repro.topology.geo import region_by_name


def to_caida_lines(graph: ASGraph, annotate: bool = False) -> Iterator[str]:
    """Serialise ``graph`` to CAIDA as-rel lines (deterministic order).

    With ``annotate=True``, emit ``# node`` metadata comments so regions,
    tiers and tags survive the round trip (see module docstring).
    """
    yield "# generated by repro.topology.serial"
    if annotate:
        for asn in graph.asns():
            node = graph.node(asn)
            region = node.region.name if node.region is not None else "-"
            tags = ",".join(sorted(node.tags)) if node.tags else "-"
            yield f"# node {asn} tier={node.tier} region={region} tags={tags}"
    for asn in graph.asns():
        for provider in graph.providers_of(asn):
            yield f"{provider}|{asn}|-1"
    for asn in graph.asns():
        for peer in graph.peers_of(asn):
            if asn < peer:
                yield f"{asn}|{peer}|0"


def _parse_node_annotation(line: str, line_number: int, annotations: dict) -> None:
    # "# node <asn> tier=<n> region=<name> tags=<a,b>"
    fields = line.split()
    try:
        asn = int(fields[2])
        attrs = dict(field.split("=", 1) for field in fields[3:])
        tier = int(attrs["tier"])
    except (IndexError, KeyError, ValueError):
        raise TopologyError(
            f"as-rel line {line_number}: malformed node annotation {line!r}"
        ) from None
    region_name = attrs.get("region", "-")
    region = None if region_name == "-" else region_by_name(region_name)
    tags_field = attrs.get("tags", "-")
    tags = () if tags_field == "-" else tuple(tags_field.split(","))
    annotations[asn] = (tier, region, tags)


def from_caida_lines(lines: Iterable[str], validate: bool = True) -> ASGraph:
    """Parse CAIDA as-rel lines into a validated :class:`ASGraph`.

    ``validate=False`` skips the structural validation pass — used when the
    lines were produced by :func:`to_caida_lines` from an already-validated
    graph (the topology cache reloading a file it wrote), where
    re-validating a 10k-node graph on every load is pure overhead.
    """
    graph = ASGraph()
    annotations: dict = {}

    def ensure(asn: int) -> None:
        if asn not in graph:
            graph.add_as(asn)

    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# node "):
                _parse_node_annotation(line, line_number, annotations)
            continue
        fields = line.split("|")
        if len(fields) < 3:
            raise TopologyError(
                f"as-rel line {line_number}: expected a|b|rel, got {line!r}"
            )
        try:
            a, b, rel = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise TopologyError(
                f"as-rel line {line_number}: non-numeric field in {line!r}"
            ) from None
        ensure(a)
        ensure(b)
        if rel == -1:
            graph.add_customer_provider(customer=b, provider=a)
        elif rel == 0:
            graph.add_peering(a, b)
        else:
            raise TopologyError(
                f"as-rel line {line_number}: unknown relationship {rel}"
            )

    if annotations:
        # Annotated files carry the authoritative metadata; isolated nodes
        # (annotation but no links) are legal and re-created here.
        for asn, (tier, region, tags) in sorted(annotations.items()):
            ensure(asn)
            node = graph.node(asn)
            node.tier = tier
            node.region = region
            node.tags = set(tags)
    else:
        # Infer tiers from the final structure.
        for node in graph.nodes():
            has_provider = bool(graph.providers_of(node.asn))
            has_customer = bool(graph.customers_of(node.asn))
            if not has_provider:
                node.tier = 1
            elif has_customer:
                node.tier = 2
            else:
                node.tier = 3
    if validate:
        graph.validate()
    return graph


def save_caida(graph: ASGraph, path: str, annotate: bool = False) -> None:
    """Write ``graph`` to ``path`` in CAIDA as-rel format."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in to_caida_lines(graph, annotate=annotate):
            handle.write(line + "\n")
