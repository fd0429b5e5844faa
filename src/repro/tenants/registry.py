"""Detection ground truth: compiled rule bundles per tenant.

Production ARTEMIS runs detection as a *service*: one deployment holds the
configuration of every operator (tenant) it protects, and a single shared
prefix table answers "whose rules match this announcement?" for the whole
feed fan-out.  This module is the configuration side of that plane (a
single operator's config is a one-tenant registry):

* :class:`TenantPolicy` — one tenant's name and detection settings, stored
  **once per tenant** and shared by every row that tenant owns.
* :class:`TenantRule` — one compiled, immutable bundle row: *tenant X
  (``policy``) monitors prefix P with these legit origins / upstreams*.
  A row names its prefix, so none is shared; the policy *material* rows and
  policies point at — origin/upstream/sentinel sets and adjacency maps — is
  **interned** per registry, so a thousand tenants with the same
  boilerplate policy reference the same frozensets.
* :class:`TenantRegistry` — compiles :class:`~repro.core.config.ArtemisConfig`
  style ground truth for N tenants into bundle rows, supports incremental
  tenant onboarding, and dumps to canonical plain-tuple rows.  It owns the
  deployment's one prefix table, :attr:`TenantRegistry.tree` (a
  :class:`~repro.tenants.flattree.FlatPrefixTree`): ``add_tenant`` links a
  tenant's rows into it in one batch, and every detection plane, every
  ``--detect-workers`` process and the worker router read it.  Workers are
  forked with the registry itself; nothing here is a wire format.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.config import ArtemisConfig
from repro.errors import ConfigError
from repro.net.prefix import Prefix
from repro.tenants.flattree import FlatPrefixTree


class TenantPolicy:
    """What is true of a tenant whichever of its prefixes matched.

    ``neighbors`` / ``leak_sentinels`` are its hop-N adjacency map and stub
    sentinels for the type-N and route-leak rules.  Hot readers take
    ``rule.policy`` once and read slots (a ``NamedTuple`` field reads 3×
    slower on CPython 3.11; a forwarding property slower still).
    """

    __slots__ = (
        "tenant", "detect_subprefix", "detect_path", "cooldown",
        "autoignore_visibility", "neighbors", "leak_sentinels",
        "detect_unchanged_path",
    )

    def __init__(
        self,
        tenant: str,
        detect_subprefix: bool,
        detect_path: bool,
        cooldown: float,
        autoignore_visibility: int,
        neighbors: Optional[Dict[int, FrozenSet[int]]],
        leak_sentinels: Optional[FrozenSet[int]],
        detect_unchanged_path: bool,
    ):
        self.tenant = tenant
        self.detect_subprefix = detect_subprefix
        self.detect_path = detect_path
        self.cooldown = cooldown
        self.autoignore_visibility = autoignore_visibility
        self.neighbors = neighbors
        self.leak_sentinels = leak_sentinels
        self.detect_unchanged_path = detect_unchanged_path


class TenantRule:
    """One tenant's compiled rule bundle for one monitored prefix.

    Immutable: construct only through :meth:`TenantRegistry.add_tenant`,
    which hands it the tenant's one :class:`TenantPolicy` and the
    registry's interned sets.

    ``squat_space`` rows compile an :class:`~repro.core.config.OwnedSpace`
    entry — held-but-unannounced space where *any* non-owner origin is
    squatting; the origin/path rule fields (and the policy's adjacency map
    and sentinels) are unused for those rows.
    """

    __slots__ = ("policy", "prefix", "legit_origins", "legit_upstreams", "squat_space")

    def __init__(
        self,
        policy: TenantPolicy,
        prefix: Prefix,
        legit_origins: FrozenSet[int],
        legit_upstreams: Optional[FrozenSet[int]] = None,
        squat_space: bool = False,
    ):
        self.policy = policy
        self.prefix = prefix
        self.legit_origins = legit_origins
        self.legit_upstreams = legit_upstreams
        self.squat_space = squat_space

    def to_row(self) -> Tuple:
        """The canonical plain-tuple form of this row."""
        policy = self.policy
        # Squat rows never reach the path rules: no map, no sentinels.
        neighbors = None if self.squat_space else policy.neighbors
        sentinels = None if self.squat_space else policy.leak_sentinels
        return (
            policy.tenant,
            str(self.prefix),
            tuple(sorted(self.legit_origins)),
            None
            if self.legit_upstreams is None
            else tuple(sorted(self.legit_upstreams)),
            policy.detect_subprefix,
            policy.detect_path,
            policy.cooldown,
            policy.autoignore_visibility,
            None
            if neighbors is None
            else tuple(
                (asn, tuple(sorted(peers)))
                for asn, peers in sorted(neighbors.items())
            ),
            None if sentinels is None else tuple(sorted(sentinels)),
            policy.detect_unchanged_path,
            self.squat_space,
        )

    def __repr__(self) -> str:
        origins = ",".join(str(a) for a in sorted(self.legit_origins))
        return f"TenantRule({self.policy.tenant} {self.prefix} origins=[{origins}])"


class TenantRegistry:
    """Compiled ground truth for every tenant the detection plane serves."""

    def __init__(self) -> None:
        #: tenant name -> its rule rows, in owned-prefix declaration order.
        self._tenants: Dict[str, Tuple[TenantRule, ...]] = {}
        #: Interning tables: identical policy material is stored once.
        self._asn_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._adjacency_maps: Dict[Tuple, Dict[int, FrozenSet[int]]] = {}
        #: The one prefix table over every row: each tenant's rows are
        #: linked once, in one batch (one epoch bump) per ``add_tenant``.
        self.tree = FlatPrefixTree()

    # ------------------------------------------------------------- interning

    def _intern_set(
        self, asns: Optional[Iterable[int]]
    ) -> Optional[FrozenSet[int]]:
        if asns is None:
            return None
        # The config classes coerce to ``frozenset`` of ``int`` where the
        # value enters; only what bypassed them is coerced here.
        key = asns if type(asns) is frozenset else frozenset(map(int, asns))
        return self._asn_sets.setdefault(key, key)

    def _intern_adjacencies(
        self, adjacencies: Optional[Dict[int, FrozenSet[int]]]
    ) -> Optional[Dict[int, FrozenSet[int]]]:
        """Intern a whole adjacency map: tenants sharing one learned graph
        (the common deployment: one BGP view feeds everyone) share one dict.
        """
        if adjacencies is None:
            return None
        key = tuple(
            (asn, tuple(sorted(peers))) for asn, peers in sorted(adjacencies.items())
        )
        interned = self._adjacency_maps.get(key)
        if interned is None:
            interned = {
                asn: self._intern_set(peers) for asn, peers in adjacencies.items()
            }
            self._adjacency_maps[key] = interned
        return interned

    # -------------------------------------------------------------- mutation

    def add_tenant(
        self,
        name: str,
        config: ArtemisConfig,
        autoignore_visibility: int = 0,
    ) -> Tuple[TenantRule, ...]:
        """Compile one tenant's config into rule rows and publish them.

        ``autoignore_visibility`` is the tenant's alert-suppression policy:
        a new incident is not surfaced to the notifier until at least that
        many distinct vantage ASes have witnessed it (0 = notify at once).
        """
        if name in self._tenants:
            raise ConfigError(f"tenant {name!r} already registered")
        policy = TenantPolicy(
            name,
            config.detect_subprefix,
            config.detect_path,
            config.alert_cooldown,
            int(autoignore_visibility),
            self._intern_adjacencies(config.adjacencies),
            self._intern_set(config.leak_sentinels),
            config.detect_unchanged_path,
        )
        intern, shared = self._intern_set, self._asn_sets.setdefault
        rows = tuple(
            TenantRule(
                policy,
                e.prefix,
                # Config entries hold frozensets: one dict call interns them.
                shared(o, o) if type(o := e.legit_origins) is frozenset else intern(o),
                None if (u := e.legit_upstreams) is None else intern(u),
            )
            for e in config.owned
        )
        if config.detect_squatting:
            rows += tuple(
                TenantRule(policy, s.prefix, intern(s.legit_origins), None, True)
                for s in config.owned_space
            )
        self._tenants[name] = rows
        self.tree.insert_rules(rows)
        return rows

    # ---------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def tenant_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tenants))

    def rules_for(self, name: str) -> Tuple[TenantRule, ...]:
        return self._tenants[name]

    def all_rules(self):
        """Every rule row, grouped by tenant in sorted-tenant order."""
        for name in sorted(self._tenants):
            yield from self._tenants[name]

    @property
    def num_rules(self) -> int:
        return sum(len(rows) for rows in self._tenants.values())

    def cooldown_for(self, name: str) -> float:
        rows = self._tenants[name]
        return rows[0].policy.cooldown if rows else 0.0

    # ------------------------------------------------------------------ dump

    def to_spec(self) -> List[Tuple]:
        """The canonical plain-tuple row dump (what determinism tests compare)."""
        return [rule.to_row() for rule in self.all_rules()]

    def __repr__(self) -> str:
        return f"<TenantRegistry {len(self._tenants)} tenants, {self.num_rules} rules>"
