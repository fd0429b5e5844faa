"""The BGP decision process (best-path selection).

A deterministic total order over candidate :class:`~repro.bgp.route.Route`
objects, following RFC 4271 §9.1.2 restricted to the attributes this model
carries:

1. highest LOCAL_PREF (which encodes the Gao-Rexford preference);
2. shortest AS path;
3. oldest route (stability preference — keeps churn down during hijacks);
4. lowest neighbor ASN (the deterministic final tie-break).

Every route carries ORIGIN IGP, so the ORIGIN step never decides and is
left out.

Self-originated routes carry a LOCAL_PREF far above any learned route, so
they always win — an AS never prefers someone else's path to its own prefix.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.bgp.route import Route


def preference_key(route: Route) -> Tuple:
    """Sort key: smaller is better (usable with ``min``).

    Precomputed on the (immutable) route at construction time; this
    accessor exists for sorting call sites and API stability.
    """
    return route.pref_key


def better(a: Route, b: Route) -> bool:
    """True if route ``a`` is strictly preferred over ``b``."""
    return a.pref_key < b.pref_key


def select_best(candidates: Iterable[Route]) -> Optional[Route]:
    """Pick the best route among ``candidates`` (None if empty)."""
    best: Optional[Route] = None
    best_key = None
    for route in candidates:
        key = route.pref_key
        if best is None or key < best_key:
            best = route
            best_key = key
    return best


def rank(candidates: Iterable[Route]) -> List[Route]:
    """All candidates ordered best-first (for looking-glass 'show ip bgp')."""
    return sorted(candidates, key=preference_key)
