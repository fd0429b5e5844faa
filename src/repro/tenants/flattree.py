"""The shared prefix tree: one flat radix trie answering for every tenant.

Keeping one :class:`~repro.core.config.ArtemisConfig` trie per tenant and
probing all N per feed event is O(N · bits) per announcement — the fan-out
cost the batched pipeline exists to kill.  :class:`FlatPrefixTree` stores
**all** tenants' rule rows in a single trie: one O(bits) covering walk per
announced prefix surfaces every tenant whose space it touches, and for each
tenant only its **most specific** covering rule (an exact owned entry, else
the deepest covering owned prefix or owned-space block).  A one-tenant tree
is the paper's single-operator rule selection.

A node-object trie (one ``_Node`` per radix level plus a ``list`` bucket
per stored prefix) is an acceptable tax at ~100k monitored prefixes; at
millions it dominates the plane's RSS.  So the layout is packed:

* **Trie nodes** are rows in parallel ``array('i')`` columns — ``left``
  child, ``right`` child, stored ``pid`` — 12 bytes per node instead of a
  ~200-byte object, with shared upper paths exactly like the radix trie.
* **Prefixes** are int-keyed ids (*pids*).  Per pid: the prefix length
  (for the exact-match test, one byte) and the head of its rule-row list.
  The :class:`~repro.net.prefix.Prefix` object itself is kept only for
  iteration APIs, by reference to the registry row's instance.
* **Rule rows** are packed ``(tenant, rule)`` pairs: an ``array('i')`` of
  tenant ids, an ``array('i')`` of next-row links, and one pointer per row
  to the registry's :class:`~repro.tenants.registry.TenantRule`.
* **Incremental add/remove** reuses freed pid/row/node slots through
  **epoch-stamped free lists**: a slot freed at epoch E is recycled only
  once the tree has moved past E, so any epoch-stamped consumer (the
  worker shipment protocol, the cross-batch verdict cache) can never
  observe a pid silently rebound within the epoch it knew.
* **Resolve** is index arithmetic with no per-lookup allocation beyond
  the returned match list: covering pids collect into a reusable scratch
  list, and most-specific-per-tenant dedup uses serial-stamped per-tenant
  mark/slot arrays instead of a fresh dict per lookup.  A prefix matching
  no tenant returns one shared empty list.

The resident cost is visible as the ``tree_bytes`` gauge in
:data:`repro.perf.COUNTERS` (refreshed on every mutation batch);
``benchmarks/test_tenants_million.py`` pins the RSS-per-prefix advantage
over a node-object tree (``tests/oracles.py``, the reference oracle), and
``tests/test_flattree_equivalence.py`` property-tests resolve equivalence
against it under randomized add/remove/resolve sequences.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Dict, Iterable, List, Tuple

from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _COUNTERS
from repro.tenants.registry import TenantRule

#: One resolved match: the rule that applies plus whether the announced
#: prefix equals the rule's monitored prefix (exact) or is a more-specific
#: inside it (the sub-prefix case).
Match = Tuple[TenantRule, bool]

#: Shared empty resolve result.  Most announced prefixes in a real feed
#: match no tenant at all, so the miss path returns this one list instead
#: of allocating a fresh empty one per lookup.  Callers must treat resolve
#: results as read-only (they already do: results are iterated or stored).
_NO_MATCHES: List[Match] = []

#: Null index for the int32 link columns (child / pid / row-head slots).
_NIL = -1


def _match_tenant(match: Match) -> str:
    """Sort key for resolve results (tenant name)."""
    return match[0].policy.tenant


class FlatPrefixTree:
    """Longest-match service over every tenant's monitored prefixes.

    Mutation is incremental — tenants onboard and retire without a rebuild
    (the registry's ``attach_tree`` sync calls ``insert_rules`` /
    ``remove_rules``) — and every mutation batch bumps ``epoch``.
    """

    def __init__(self, registry=None) -> None:
        # Trie node columns.  Node 0 is the IPv4 root, node 1 the IPv6 root.
        self._left = array("i", (_NIL, _NIL))
        self._right = array("i", (_NIL, _NIL))
        self._node_pid = array("i", (_NIL, _NIL))
        # Per-pid columns (index = pid).  Lengths reach 128 (IPv6), so the
        # length column is unsigned bytes.
        self._pid_length = array("B")
        self._pid_head = array("i")
        self._pid_prefix: List[Prefix] = []
        # No side index from prefix to pid: the trie itself answers exact
        # lookups in one walk, and a million-entry dict of wide-int keys
        # would cost more RSS than every array column combined.
        # Rule-row columns (index = row id).
        self._row_tenant = array("i")
        self._row_next = array("i")
        self._row_rule: List[TenantRule] = []
        # Tenant id space (never shrinks; bounded by distinct names seen).
        self._tid_of: Dict[str, int] = {}
        self._tenant_mark = array("q")
        self._tenant_slot = array("i")
        self._resolve_serial = 0
        # Epoch-stamped free lists: (epoch_freed, slot) pairs, reused only
        # strictly after their stamped epoch has passed.
        self._free_pids: List[Tuple[int, int]] = []
        self._free_rows: List[Tuple[int, int]] = []
        self._free_nodes: List[Tuple[int, int]] = []
        #: Bumped once per mutation batch; the verdict cache and the
        #: worker plane compare epochs to reject stale rules loudly.
        self.epoch = 0
        self.num_rules = 0
        self._size = 0
        if registry is not None:
            self.insert_rules(registry.all_rules())
            registry.attach_tree(self)

    def __len__(self) -> int:
        """Distinct monitored prefixes (not rules) stored."""
        return self._size

    # ------------------------------------------------------------ slot pools

    def _alloc(self, free_list: List[Tuple[int, int]]) -> int:
        """Pop a recyclable slot, or ``_NIL`` if none is safely reusable."""
        if free_list and free_list[-1][0] < self.epoch:
            return free_list.pop()[1]
        return _NIL

    def _new_node(self) -> int:
        if self._free_nodes:
            index = self._alloc(self._free_nodes)
            if index != _NIL:
                self._left[index] = _NIL
                self._right[index] = _NIL
                self._node_pid[index] = _NIL
                return index
        index = len(self._left)
        self._left.append(_NIL)
        self._right.append(_NIL)
        self._node_pid.append(_NIL)
        return index

    def _new_pid(self, prefix: Prefix) -> int:
        if self._free_pids:
            pid = self._alloc(self._free_pids)
            if pid != _NIL:
                self._pid_length[pid] = prefix.length
                self._pid_head[pid] = _NIL
                self._pid_prefix[pid] = prefix
                return pid
        pid = len(self._pid_head)
        self._pid_length.append(prefix.length)
        self._pid_head.append(_NIL)
        self._pid_prefix.append(prefix)
        return pid

    def _new_row(self, tid: int, rule: TenantRule, next_row: int) -> int:
        if self._free_rows:
            row = self._alloc(self._free_rows)
            if row != _NIL:
                self._row_tenant[row] = tid
                self._row_next[row] = next_row
                self._row_rule[row] = rule
                return row
        row = len(self._row_tenant)
        self._row_tenant.append(tid)
        self._row_next.append(next_row)
        self._row_rule.append(rule)
        return row

    def _tenant_id(self, name: str) -> int:
        tid = self._tid_of.get(name)
        if tid is None:
            tid = len(self._tid_of)
            self._tid_of[name] = tid
            self._tenant_mark.append(0)
            self._tenant_slot.append(0)
        return tid

    # -------------------------------------------------------------- mutation

    def _find_path(self, prefix: Prefix) -> List[int]:
        """Nodes from the root to ``prefix``'s node, or ``[]`` if absent."""
        left, right = self._left, self._right
        node = 0 if prefix.version == 4 else 1
        value = prefix.value
        shift = prefix.bits - 1
        path: List[int] = [node]
        for _ in range(prefix.length):
            node = right[node] if (value >> shift) & 1 else left[node]
            if node == _NIL:
                return []
            path.append(node)
            shift -= 1
        return path

    def _drop_pid(self, pid: int, path: List[int]) -> None:
        """Unbind ``pid`` and prune now-empty trie nodes bottom-up."""
        self._free_pids.append((self.epoch, pid))
        self._pid_prefix[pid] = None  # type: ignore[call-overload]
        self._size -= 1
        left, right, node_pid = self._left, self._right, self._node_pid
        node_pid[path[-1]] = _NIL
        # Prune childless, valueless nodes from the leaf upward (roots stay).
        for depth in range(len(path) - 1, 0, -1):
            current = path[depth]
            if (
                node_pid[current] != _NIL
                or left[current] != _NIL
                or right[current] != _NIL
            ):
                break
            parent = path[depth - 1]
            if left[parent] == current:
                left[parent] = _NIL
            else:
                right[parent] = _NIL
            self._free_nodes.append((self.epoch, current))

    def insert_rules(self, rules: Iterable[TenantRule]) -> None:
        """Add rule rows (a tenant's, or a registry's); one epoch bump per call.

        A sorted bulk load: in ``prefix.ikey`` order — trie bit order — each
        prefix's path starts with a stretch of the previous one's, so the
        walk keeps that path as a node stack and descends only from the
        common ancestor: a node is reached once per batch, not once per row
        under it.  The sort is stable, so one prefix's rows keep arrival
        order and "latest-inserted rule of a tenant wins" holds.
        """
        batch = sorted(rules, key=attrgetter("prefix.ikey"))
        left, right, node_pid = self._left, self._right, self._node_pid
        pid_head = self._pid_head
        new_node, new_row, tenant_id = self._new_node, self._new_row, self._tenant_id
        # The previous prefix (none yet: no real ikey is negative, no
        # version 0), its pid, and its node path from the root.
        ikey, value, length, version, bits, pid = -1, 0, 0, 0, 0, _NIL
        stack: List[int] = []
        added = 0
        try:
            for rule in batch:
                # Before any slot is taken: a row that cannot name its
                # tenant must not leave a prefix with no rows behind.
                tid = tenant_id(rule.policy.tenant)
                prefix = rule.prefix
                if prefix.ikey != ikey:
                    # Bits shared with the previous prefix: none across
                    # families, else its length less the bits from where
                    # the values part (a shorter prefix sorting *after* a
                    # longer one parts from it inside its own length).
                    if prefix.version == version:
                        shared = length - (
                            (prefix.value ^ value) >> (bits - length)
                        ).bit_length()
                        del stack[shared + 1:]
                    else:
                        shared = 0
                        version = prefix.version
                        bits = 32 if version == 4 else 128  # ``prefix.bits``
                        stack = [0 if version == 4 else 1]
                    ikey, value, length = prefix.ikey, prefix.value, prefix.length
                    node = stack[shared]
                    for shift in range(bits - 1 - shared, bits - 1 - length, -1):
                        side = right if (value >> shift) & 1 else left
                        child = side[node]
                        if child == _NIL:
                            child = new_node()
                            side[node] = child
                        stack.append(child)
                        node = child
                    pid = node_pid[node]
                    if pid == _NIL:
                        pid = self._new_pid(prefix)
                        node_pid[node] = pid
                        self._size += 1
                pid_head[pid] = new_row(tid, rule, pid_head[pid])
                added += 1
        finally:
            # Also when a row raised: what is already linked is counted
            # and the epoch moves, so no verdict cache outlives the change.
            if added:
                self.num_rules += added
                self.epoch += 1
                self._refresh_bytes_gauge()

    def remove_rules(self, rules: Iterable[TenantRule]) -> None:
        """Drop rule rows (a tenant retiring); one epoch bump per call."""
        removed = 0
        try:
            for rule in rules:
                path = self._find_path(rule.prefix)
                pid = self._node_pid[path[-1]] if path else _NIL
                if pid == _NIL:
                    raise KeyError(f"rule {rule!r} not present in the prefix tree")
                row_rule, row_next = self._row_rule, self._row_next
                row = self._pid_head[pid]
                previous = _NIL
                while row != _NIL and row_rule[row] is not rule:
                    previous = row
                    row = row_next[row]
                if row == _NIL:
                    raise KeyError(f"rule {rule!r} not present in the prefix tree")
                if previous == _NIL:
                    self._pid_head[pid] = row_next[row]
                else:
                    row_next[previous] = row_next[row]
                self._free_rows.append((self.epoch, row))
                row_rule[row] = None  # type: ignore[call-overload]
                if self._pid_head[pid] == _NIL:
                    self._drop_pid(pid, path)
                removed += 1
        finally:
            # A batch that raises on an absent rule unlinked those before it.
            if removed:
                self.num_rules -= removed
                self.epoch += 1
                self._refresh_bytes_gauge()

    # ---------------------------------------------------------------- lookup

    def resolve(self, prefix: Prefix) -> List[Match]:
        """Every tenant rule whose monitored space covers ``prefix``.

        One O(bits) covering walk.  For a tenant monitoring several
        nested prefixes covering the target, only the **most specific**
        rule wins.  Results are sorted by tenant name so downstream
        iteration order — and therefore alert IDs and digests — is
        deterministic regardless of insertion order.
        """
        _COUNTERS.pipeline_trie_walks += 1
        left, right, node_pid = self._left, self._right, self._node_pid
        node = 0 if prefix.version == 4 else 1
        value = prefix.value
        length = prefix.length
        shift = prefix.bits - 1
        # Collect covering pids root → target (least → most specific);
        # exactness can only hold for a pid stored at the target's depth.
        first = node_pid[node]
        pids = None
        if first != _NIL:
            pids = [first]
        for _ in range(length):
            node = right[node] if (value >> shift) & 1 else left[node]
            if node == _NIL:
                break
            shift -= 1
            pid = node_pid[node]
            if pid != _NIL:
                if pids is None:
                    pids = [pid]
                else:
                    pids.append(pid)
        if pids is None:
            return _NO_MATCHES
        serial = self._resolve_serial
        base = serial + 1
        mark, slot = self._tenant_mark, self._tenant_slot
        pid_length, pid_head = self._pid_length, self._pid_head
        row_tenant, row_next, row_rule = (
            self._row_tenant,
            self._row_next,
            self._row_rule,
        )
        out: List[Match] = []
        for pid in pids:
            # One serial per pid: rows iterate newest-insertion-first (head
            # insertion) and the latest-inserted rule of a tenant at one
            # prefix wins — so first-seen-in-this-pid wins here, while any
            # pid later in the chain (more specific) still overwrites
            # earlier pids' matches.
            serial += 1
            exact = pid_length[pid] == length
            row = pid_head[pid]
            while row != _NIL:
                tid = row_tenant[row]
                seen = mark[tid]
                if seen >= base:
                    if seen != serial:
                        out[slot[tid]] = (row_rule[row], exact)
                        mark[tid] = serial
                else:
                    mark[tid] = serial
                    slot[tid] = len(out)
                    out.append((row_rule[row], exact))
                row = row_next[row]
        self._resolve_serial = serial
        if len(out) > 1:
            out.sort(key=_match_tenant)
        return out

    def monitored_prefixes(self) -> List[Prefix]:
        """Distinct stored prefixes, in deterministic bit order."""
        live = [p for p in self._pid_prefix if p is not None]
        live.sort(key=attrgetter("ikey"))
        return live

    def tenants_at(self, prefix: Prefix) -> List[str]:
        """Tenant names monitoring exactly ``prefix``."""
        path = self._find_path(prefix)
        pid = self._node_pid[path[-1]] if path else _NIL
        if pid == _NIL:
            return []
        names = set()
        row = self._pid_head[pid]
        while row != _NIL:
            names.add(self._row_rule[row].policy.tenant)
            row = self._row_next[row]
        return sorted(names)

    # -------------------------------------------------------------- memory

    def nbytes(self) -> int:
        """Resident bytes of the tree's own storage.

        Array columns count their buffers; the Python-list columns
        (``Prefix``/``TenantRule`` references, owned by the registry) count
        one pointer per slot; the tenant-name index is estimated at a
        hash-table slot per distinct tenant.
        """
        columns = (
            self._left,
            self._right,
            self._node_pid,
            self._pid_length,
            self._pid_head,
            self._row_tenant,
            self._row_next,
            self._tenant_mark,
            self._tenant_slot,
        )
        total = sum(column.itemsize * len(column) for column in columns)
        total += 8 * (len(self._pid_prefix) + len(self._row_rule))
        total += 24 * len(self._tid_of)
        return total

    def _refresh_bytes_gauge(self) -> None:
        size = self.nbytes()
        if size > _COUNTERS.tree_bytes:
            _COUNTERS.tree_bytes = size

    def __repr__(self) -> str:
        return (
            f"<FlatPrefixTree {self._size} prefixes, {self.num_rules} rules, "
            f"{len(self._left)} nodes, epoch={self.epoch}>"
        )
