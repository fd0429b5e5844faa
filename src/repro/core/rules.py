"""The hijack-classification rule ladder.

One pure function implements the full ARTEMIS taxonomy verdict for one
announcement against one rule row.  Its one caller in ``src/`` is the
detection plane (:func:`repro.tenants.pipeline.classify_batch_verdicts`),
which picks the row — the most specific monitored prefix per tenant.

The rule ladder, in evaluation order (first hit wins):

1. **Origin check** — announced origin not in ``legit_origins`` →
   ``EXACT_ORIGIN`` (exact match) or ``SUB_PREFIX`` (more-specific).
2. **First-hop check** (type-1) — origin legit but the AS adjacent to it
   is not a configured upstream → ``PATH``.  A single-hop path is judged
   against the *vantage* AS: a vantage reporting it heard the origin
   directly is itself the first hop, so a non-upstream vantage claiming
   direct adjacency is a forged announcement (the len-1 bypass fix).
3. **Hop-N adjacency check** (type-N) — any consecutive path pair whose
   link does not exist in the configured/learned adjacency map →
   ``PATH_N``.  Unknown ASes are skipped (learned maps are partial).
4. **Route-leak check** — a configured leak sentinel (an AS known to be a
   stub, i.e. never a transit) in a strictly interior path position →
   ``ROUTE_LEAK``.  Interior means between two other ASes: the sentinel
   is definitionally providing transit there.
5. **Type-U check** — an *exact* announcement whose control plane is
   clean but whose data-plane corroboration probe reports the prefix
   unhealthy → ``UNCHANGED_PATH``.  This is the only rule that
   *requires* a probe, and it only fires for exact announcements: a
   type-U hijack announces the victim's own prefix unchanged.

Corroboration gating (Oscilloscope-style): when a probe is attached and
reports the prefix's data plane **healthy**, the low-confidence verdicts
``EXACT_ORIGIN``, ``PATH`` and ``PATH_N`` are suppressed — a legitimate
MOAS (anycast) origin or a new peering looks exactly like a hijack on the
control plane, but traffic still reaches the legitimate network.
``SUB_PREFIX`` and ``ROUTE_LEAK`` are never gated: the operator's own
config says nobody else announces more-specifics, and a stub in transit
position is structurally impossible legitimately.  Without a probe the
function behaves exactly as the pre-taxonomy control-plane-only rules.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.core.alerts import AlertType

#: ``probe(prefix) -> bool`` — True when the prefix's data plane is
#: healthy (traffic reaches a legitimate origin), False when it diverged.
CorroborationProbe = Callable[[object], bool]

#: Verdicts suppressed by a healthy data plane (legit MOAS / new peering
#: look identical on the control plane).
GATED_TYPES = frozenset(
    {AlertType.EXACT_ORIGIN, AlertType.PATH, AlertType.PATH_N}
)


def classify_announcement(
    prefix,
    path: Sequence[int],
    vantage_asn: Optional[int],
    exact: bool,
    legit_origins: FrozenSet[int],
    legit_upstreams: Optional[FrozenSet[int]],
    neighbors: Optional[Mapping[int, FrozenSet[int]]] = None,
    leak_sentinels: Optional[FrozenSet[int]] = None,
    detect_subprefix: bool = True,
    detect_path: bool = True,
    detect_unchanged_path: bool = True,
    probe: Optional[CorroborationProbe] = None,
) -> Optional[Tuple[AlertType, Optional[int]]]:
    """Classify one announcement against one rule row.

    Returns ``(alert_type, offender_asn)`` or ``None`` (no incident).
    ``path`` is the announcement's AS path, nearest-to-vantage first,
    origin last.  ``probe`` is evaluated at most once.
    """
    if not path:
        return None
    origin = path[-1]

    def gate(verdict: Tuple[AlertType, Optional[int]]):
        """Suppress a low-confidence verdict when the data plane is healthy."""
        if probe is not None and verdict[0] in GATED_TYPES and probe(prefix):
            return None
        return verdict

    if origin not in legit_origins:
        if exact:
            return gate((AlertType.EXACT_ORIGIN, origin))
        if detect_subprefix:
            return (AlertType.SUB_PREFIX, origin)
        return None
    if not detect_path:
        return None
    # First hop (type-1).  Single-hop paths: the vantage claims direct
    # adjacency to the origin, so the vantage *is* the first hop.
    if legit_upstreams is not None:
        if len(path) == 1:
            if (
                vantage_asn is not None
                and vantage_asn != origin
                and vantage_asn not in legit_origins
                and vantage_asn not in legit_upstreams
            ):
                return gate((AlertType.PATH, vantage_asn))
        else:
            upstream = path[-2]
            if upstream not in legit_upstreams:
                return gate((AlertType.PATH, upstream))
    # Hop-N adjacency (type-N): every consecutive pair must be a known
    # link.  Pairs with an AS missing from the map are skipped — learned
    # adjacency maps are partial and a new AS is not evidence of forgery.
    if neighbors is not None and len(path) >= 2:
        for i in range(len(path) - 1, 0, -1):
            near, far = path[i - 1], path[i]
            far_neighbors = neighbors.get(far)
            if far_neighbors is None or near not in neighbors:
                continue
            if near not in far_neighbors:
                return gate((AlertType.PATH_N, near))
    # Route leak: a sentinel (stub) AS strictly interior to the path is
    # transiting between two networks, which a stub never does.
    if leak_sentinels and len(path) >= 3:
        for asn in path[1:-1]:
            if asn in leak_sentinels:
                return (AlertType.ROUTE_LEAK, asn)
    # Type-U: the control plane is indistinguishable from a legitimate
    # announcement; only data-plane divergence reveals the hijack.  Exact
    # announcements only — a type-U hijack announces the victim's own
    # prefix, and the victim's de-aggregated more-specifics mid-recovery
    # must not re-alert while the data plane is still converging back.
    if exact and detect_unchanged_path and probe is not None and not probe(prefix):
        return (AlertType.UNCHANGED_PATH, None)
    return None


def classify_squat(
    origin: Optional[int],
    legit_origins: FrozenSet[int],
) -> Optional[Tuple[AlertType, Optional[int]]]:
    """Squatting verdict for an announcement covered only by *owned space*.

    Owned space is address space the operator holds but does not announce
    (no covering owned-prefix rule matched).  Anyone originating inside it
    — other than the operator themselves — is squatting.  Never gated:
    unconfigured space has no legitimate data plane to corroborate.
    """
    if origin is not None and origin in legit_origins:
        return None
    return (AlertType.SQUATTING, origin)
