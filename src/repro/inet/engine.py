"""Compiled Gao–Rexford propagation engine for sweep-style experiments.

Every experiment the paper showcases (§2: LIFEGUARD-style poisoning,
PoiRoot-style selective announcement, anycast prepend engineering) is a
*sweep*: evaluate dozens-to-thousands of announcement configurations over
the same AS graph.  The reference :func:`repro.inet.routing.propagate`
re-derives everything per call: it materializes a full AS-path tuple per
reached AS and pays per-call set copies on every adjacency access.

:class:`PropagationEngine` instead **compiles** the :class:`ASGraph` once
into int-indexed, pre-sorted CSR-style adjacency arrays (invalidated by
the graph's version counter) and converges over a **parent-pointer route
table**: per AS an ``(kind, via, root-spec, pathlen)`` record.  AS paths
are reconstructed lazily on demand, so no path tuples are copied during
convergence.

The trick that makes the route table sufficient: in each propagation
phase, every AS on a candidate's path is already *finalized* (it either
originated the route or settled at a shorter path length), so the
reference's ``neighbor not in path`` loop check decomposes exactly into

* "neighbor already holds a route" — one bytearray read, and
* "neighbor's ASN appears in the origin's export path" (prepends, poison
  and leak suffixes) — folded into the same bytearray for one spec, one
  set membership test per spec otherwise.

Neither needs the path.  Path lengths are small integers, so phases 1
and 3 run as one **level-synchronous kernel** (Dial's bucket queue):
exporters are bucketed by the path length they export at, levels run in
ascending order, and within a level candidates come in (via index,
export-path rank, spec) order.  Index order is ASN order and the first
writer of a slot wins, which is exactly the reference heap's pop order —
the engine is route-for-route identical to ``propagate()`` for single,
multi-spec and secured announcements alike (property tests in
``tests/test_inet_engine.py`` and ``tests/test_secroute.py`` enforce
this).  Security filters are one more per-candidate test, with the
Peerlock path mask carried per slot.  Incremental reconvergence
(:meth:`PropagationEngine.propagate_delta`) reseeds on the same level
loop with the surviving entries frozen.

On top sit an LRU result cache keyed by ``(graph version, canonical
announcement)`` and :meth:`PropagationEngine.propagate_many`, which chains
a sweep through delta reconvergence or fans it out over a
``multiprocessing`` pool, shipping the compiled topology once per worker
and compact route tables back.
"""

from __future__ import annotations

import os
from array import array
from collections import OrderedDict
from time import perf_counter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterator, List, Optional,
    Sequence, Set, Tuple,
)

from ..telemetry.metrics import MetricsRegistry
from .routing import Announcement, ASRoute, OriginSpec, RouteKind, RoutingOutcome
from .topology import ASGraph, TopologyError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..secroute.policy import CompiledSecurity

__all__ = [
    "CompiledTopology",
    "CompiledOutcome",
    "OutcomeCache",
    "PropagationEngine",
    "canonical_key",
]

_ORIGIN = int(RouteKind.ORIGIN)
_CUSTOMER = int(RouteKind.CUSTOMER)
_PEER = int(RouteKind.PEER)
_PROVIDER = int(RouteKind.PROVIDER)

# One compiled origin spec: (origin_index, export_path, export_set,
# announce_to_set); and the parent-pointer route table (kind, via, root,
# plen) every converge function returns.
SpecT = Tuple[int, Tuple[int, ...], FrozenSet[int], Optional[FrozenSet[int]]]
TableT = Tuple[bytearray, List[int], List[int], List[int]]
# Security indexed against a topology, as _index_security returns it:
# (drops, omask, bit, rej_up, rej); and the (fmask, drops, omask, bit,
# rej) tuple one _settle_levels phase filters candidates with.
_SecT = Tuple[List[FrozenSet[int]], List[int], List[int], List[int], List[int]]
_SecLoopT = Tuple[List[int], List[FrozenSet[int]], List[int], List[int], List[int]]

# _converge_delta gives up (falls back to a full run) when the dirty cone
# exceeds n / _CONE_BAIL_DEN slots — incremental work on a region that
# large loses to the full converge.
_CONE_BAIL_DEN = 3


class _DeltaUnsupported(Exception):
    """An incremental convergence hit a corner whose reference semantics
    depend on state the delta keeps frozen (equal-key ties across specs,
    improvements into surviving entries under security filters).  The
    caller falls back to a full run — correctness over cleverness."""


class CompiledTopology:
    """An :class:`ASGraph` frozen into int-indexed adjacency arrays.

    ASes are renumbered ``0..n-1`` in ascending-ASN order (so comparing
    indices is comparing ASNs), and each relation is stored CSR-style as
    one flat neighbor array plus per-node offsets.  Per-node tuples are
    derived once for the hot loops; the CSR arrays are also the compact
    pickle form shipped to pool workers.
    """

    __slots__ = (
        "version", "n", "asns", "idx",
        "prov_off", "prov_adj", "cust_off", "cust_adj", "peer_off", "peer_adj",
        "providers", "customers", "peers", "peer_nodes", "cust_nodes",
        "_nbrs",
    )

    def __init__(self, graph: ASGraph) -> None:
        self.version = graph.version
        asns = sorted(graph.asns())
        self.asns: List[int] = asns
        self.n = len(asns)
        idx = {asn: i for i, asn in enumerate(asns)}
        self.idx: Dict[int, int] = idx

        def build(sorted_of: Callable[[int], Tuple[int, ...]]) -> Tuple[array, array]:
            adj = array("l")
            off = array("l", [0])
            for asn in asns:
                # sorted-by-ASN neighbors map to sorted indices (monotone).
                adj.extend(idx[nbr] for nbr in sorted_of(asn))
                off.append(len(adj))
            return off, adj

        self.prov_off, self.prov_adj = build(graph.sorted_providers)
        self.cust_off, self.cust_adj = build(graph.sorted_customers)
        self.peer_off, self.peer_adj = build(graph.sorted_peers)
        self._derive_views()

    def _derive_views(self) -> None:
        def views(off: array, adj: array) -> List[Tuple[int, ...]]:
            lst = adj.tolist()
            return [tuple(lst[off[i]:off[i + 1]]) for i in range(self.n)]

        self.providers = views(self.prov_off, self.prov_adj)
        self.customers = views(self.cust_off, self.cust_adj)
        self.peers = views(self.peer_off, self.peer_adj)
        # Ascending index lists of nodes that have peer / customer edges,
        # so phases 2 and 3 skip the (usually large) pure-stub remainder.
        self.peer_nodes = tuple(i for i, p in enumerate(self.peers) if p)
        self.cust_nodes = tuple(i for i, c in enumerate(self.customers) if c)
        self._nbrs: Optional[List[Tuple[int, ...]]] = None

    def children_index(self) -> List[Tuple[int, ...]]:
        """Per-node merged neighbor tuples — the reusable superset of any
        route table's dependence children.

        Whatever the route kind, ``via[i]`` is a topology neighbor of
        ``i``, so the dependence children of ``v`` (slots whose parent
        pointer is ``v``) are always found inside ``children_index()[v]``
        by checking ``via[child] == v``.  Built once per compiled
        topology (so invalidation rides the graph-version recompile) and
        shared by every delta run, letting withdraw/invalidate passes
        walk exactly the affected cone instead of scanning all n slots.
        """
        nbrs = self._nbrs
        if nbrs is None:
            nbrs = self._nbrs = [
                p + q + c
                for p, q, c in zip(self.providers, self.peers, self.customers)
            ]
        return nbrs

    # -- pickling (pool workers get the CSR arrays, not the tuple views) ------

    def __getstate__(self) -> Tuple:
        return (
            self.version, self.asns,
            self.prov_off, self.prov_adj,
            self.cust_off, self.cust_adj,
            self.peer_off, self.peer_adj,
        )

    def __setstate__(self, state: Tuple) -> None:
        (self.version, self.asns,
         self.prov_off, self.prov_adj,
         self.cust_off, self.cust_adj,
         self.peer_off, self.peer_adj) = state
        self.n = len(self.asns)
        self.idx = {asn: i for i, asn in enumerate(self.asns)}
        self._derive_views()


def canonical_key(announcement: Announcement) -> Tuple:
    """Hashable canonical form of an announcement for result caching.

    Spec order is preserved (it is semantically significant when one
    origin carries several specs); ``announce_to`` is normalized to a
    sorted unique tuple since only membership matters.  The prefix is
    deliberately *not* part of the key: propagation is prefix-agnostic,
    so announcements of different prefixes with identical steering share
    one converged outcome.  (Security-filtered runs key the prefix via
    the policy fingerprint instead — verdicts depend on it.)
    """
    return tuple(
        (
            spec.asn,
            spec.prepend,
            tuple(spec.poison),
            tuple(spec.path_suffix),
            None if spec.announce_to is None
            else tuple(sorted(set(spec.announce_to))),
        )
        for spec in announcement.origins
    )


def _affinity_key(announcement: Announcement) -> Tuple:
    """:func:`canonical_key` minus prepend counts.

    Two announcements with equal affinity keys differ only in prepend
    engineering, so consecutive sweep points within one affinity group
    classify as shift (or noop) deltas — the cheapest regimes.  Sweep
    chains are ordered by this key so workers see whole groups."""
    return tuple(
        (
            spec.asn,
            tuple(spec.poison),
            tuple(spec.path_suffix),
            None if spec.announce_to is None
            else tuple(sorted(set(spec.announce_to))),
        )
        for spec in announcement.origins
    )


def _partition_chains(
    keys: Sequence[Tuple], workers: int
) -> List[List[int]]:
    """Deal affinity groups onto ``workers`` delta chains.

    ``keys[pos]`` is the affinity key (plus security fingerprint) of
    miss ``pos``.  Groups are kept whole — splitting one would turn
    in-group shift deltas into cross-worker full converges — and
    assigned greedily, largest group to the least-loaded worker, so the
    chains stay balanced even when group sizes are skewed.  Group
    discovery order and the stable sort keep the result deterministic.
    Returns non-empty chains of positions (input order within a group)."""
    groups: Dict[Tuple, List[int]] = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    ordered = sorted(groups.values(), key=len, reverse=True)
    chains: List[List[int]] = [[] for _ in range(max(1, workers))]
    loads = [0] * len(chains)
    for grp in ordered:
        w = loads.index(min(loads))
        chains[w].extend(grp)
        loads[w] += len(grp)
    return [c for c in chains if c]


def _compile_specs(
    compiled: CompiledTopology, announcement: Announcement
) -> Tuple[SpecT, ...]:
    """Per-spec (origin_index, export_path, export_set, announce_to_set)."""
    specs: List[SpecT] = []
    for spec in announcement.origins:
        oi = compiled.idx.get(spec.asn)
        if oi is None:
            raise TopologyError(f"unknown AS{spec.asn}")
        epath = spec.export_path()
        ato = None if spec.announce_to is None else frozenset(spec.announce_to)
        specs.append((oi, epath, frozenset(epath), ato))
    return tuple(specs)


def _index_security(
    ct: CompiledTopology,
    specs: Sequence[SpecT],
    sec: "CompiledSecurity",
) -> _SecT:
    """Index a :class:`~repro.secroute.policy.CompiledSecurity` against
    this topology and spec tuple.

    * ``drops[si]`` — node indices whose ROV refuses spec ``si``'s
      (Invalid) origin.
    * ``omask[si]`` — Peerlock bits of spec ``si``'s export-path tail.
    * ``bit[i]`` — node i's own Peerlock bit (0 when untracked).
    * ``rej_up[i]`` / ``rej[i]`` — the bits that make node i refuse a
      path: its protected set, plus the tier-1 mask when Peerlock-lite
      applies (customer-learned routes only, hence phase 1 alone).

    Only tracked ASes get nonzero entries, so the arrays are filled from
    the (small) policy maps rather than by n dictionary lookups."""
    n = ct.n
    idx = ct.idx
    drops: List[FrozenSet[int]] = []
    omask: List[int] = []
    for _oi, epath, _eset, _ato in specs:
        droppers = sec.drops.get(epath[-1])
        drops.append(
            frozenset(idx[a] for a in droppers if a in idx)
            if droppers else frozenset()
        )
        omask.append(sec.path_mask(epath[1:]))
    bit = [0] * n
    for asn, b in sec.bits.items():
        i = idx.get(asn)
        if i is not None:
            bit[i] = b
    rej = [0] * n
    for asn, m in sec.pmask.items():
        i = idx.get(asn)
        if i is not None:
            rej[i] = m
    rej_up = rej
    if sec.t1mask and sec.lite:
        rej_up = list(rej)
        for asn in sec.lite:
            i = idx.get(asn)
            if i is not None:
                rej_up[i] |= sec.t1mask
    return drops, omask, bit, rej_up, rej


def _blocked_sets(
    ct: CompiledTopology, specs: Sequence[SpecT]
) -> List[Optional[FrozenSet[int]]]:
    """Per spec, the node indices its export path blocks by loop
    detection (poison and suffix ASNs present in the graph, the origin
    itself excluded), or None when there are none."""
    idx_get = ct.idx.get
    blocked: List[Optional[FrozenSet[int]]] = []
    for oi, _epath, eset, _ato in specs:
        blk = frozenset(
            i for i in map(idx_get, eset) if i is not None and i != oi
        )
        blocked.append(blk or None)
    return blocked


def _settle_levels(
    adj: List[Tuple[int, ...]],
    code: int,
    buckets: Dict[int, List[int]],
    seeds: Dict[int, List[int]],
    specs: Sequence[SpecT],
    blocked: Sequence[Optional[FrozenSet[int]]],
    asns: List[int],
    table: TableT,
    avail: bytearray,
    sec: Optional[_SecLoopT],
    fused: bool,
) -> None:
    """One Gao–Rexford shortest-path phase (1: ``adj`` = providers, 3:
    ``adj`` = customers) as Dial's bucket queue over path-length levels.

    ``buckets[L]`` holds the exporters (settled non-origin slots) whose
    routes reach their ``adj`` neighbors at path length ``L``;
    ``seeds[L]`` the specs whose origin exports at ``L``, in (origin,
    export path, spec) order.  Levels run in ascending order and a
    level's exporters in ascending index, so the first writer of a slot
    holds the minimum ``(pathlen, via)`` candidate — the reference
    heap's pop order, with no heap.  Origin seeds run after a level's
    exporters and take over a slot settled at the same level through a
    higher via: exactly the candidate the heap would have popped first.
    Specs of one origin with equal export-path lengths are seeded in
    export-path order, which is the reference's path tie-break.

    ``avail[t]`` is 1 iff t holds no route and no spec-independent rule
    blocks it; ``blocked[si]`` adds spec ``si``'s in-graph poison/suffix
    ASNs (None when empty or already folded into ``avail``).  With
    ``sec`` = ``(fmask, drops, omask, bit, rej)`` a candidate is also
    refused when the target drops the spec's origin or the candidate
    path's Peerlock mask hits ``rej[t]``; a refused candidate leaves the
    slot open for a worse one, as the reference's pop-time check does.
    ``fused`` marks an unsecured single spec: ``root`` is already 0
    everywhere and ``avail`` carries every block, so the per-edge work
    is one bytearray read.
    """
    kind, via, root, plen = table
    for lvl in seeds:
        buckets.setdefault(lvl, [])
    while buckets:
        lvl = min(buckets)
        frontier = buckets.pop(lvl)
        frontier.sort()
        nxt: List[int] = []
        push = nxt.append
        if fused:
            for e in frontier:
                for t in adj[e]:
                    if avail[t]:
                        avail[t] = 0
                        kind[t] = code
                        via[t] = e
                        plen[t] = lvl
                        push(t)
        elif sec is None:
            for e in frontier:
                si = root[e]
                blk = blocked[si]
                if blk is None:
                    for t in adj[e]:
                        if avail[t]:
                            avail[t] = 0
                            kind[t] = code
                            via[t] = e
                            root[t] = si
                            plen[t] = lvl
                            push(t)
                else:
                    for t in adj[e]:
                        if avail[t] and t not in blk:
                            avail[t] = 0
                            kind[t] = code
                            via[t] = e
                            root[t] = si
                            plen[t] = lvl
                            push(t)
        else:
            fmask, drops, _omask, bit, rej = sec
            for e in frontier:
                si = root[e]
                blk = blocked[si]
                drop = drops[si]
                m = fmask[e]
                fm = m | bit[e]
                for t in adj[e]:
                    if (
                        avail[t]
                        and (blk is None or t not in blk)
                        and t not in drop
                        and not m & rej[t]
                    ):
                        avail[t] = 0
                        kind[t] = code
                        via[t] = e
                        root[t] = si
                        plen[t] = lvl
                        fmask[t] = fm
                        push(t)
        for si in seeds.get(lvl, ()):
            oi, _epath, _eset, ato = specs[si]
            if sec is not None:
                fmask, drops, omask, bit, rej = sec
            blk = blocked[si]
            for t in adj[oi]:
                if ato is not None and asns[t] not in ato:
                    continue
                if blk is not None and t in blk:
                    continue
                fresh = avail[t]
                if not fresh and not (
                    kind[t] == code and plen[t] == lvl and via[t] > oi
                ):
                    continue
                if sec is not None:
                    if t in drops[si] or omask[si] & rej[t]:
                        continue
                    fmask[t] = omask[si] | bit[oi]
                if fresh:
                    avail[t] = 0
                    kind[t] = code
                    plen[t] = lvl
                    push(t)
                via[t] = oi
                root[t] = si
        if nxt:
            bucket = buckets.get(lvl + 1)
            if bucket is None:
                buckets[lvl + 1] = nxt
            else:
                bucket.extend(nxt)


def _converge(
    ct: CompiledTopology,
    specs: Sequence[SpecT],
    security: Optional["CompiledSecurity"] = None,
) -> TableT:
    """Run the three Gao–Rexford phases over the compiled topology.

    Returns the parent-pointer route table ``(kind, via, root, plen)``:
    ``kind[i]`` is the RouteKind value (0 = unreached; nonzero doubles as
    the "has a route" bitmap), ``via[i]`` the neighbor index forwarded to
    (-1 at origins), ``root[i]`` the spec index whose export path
    terminates i's parent chain, ``plen[i]`` the AS-path length.  An
    unsecured single-spec table has ``root`` 0 everywhere; otherwise
    origins and unreached slots hold -1.

    Phases 1 and 3 are :func:`_settle_levels`; phase 2 is one pass over
    the peer-edge exporters.  With one spec its poison/suffix ASNs fold
    into ``avail``, so the per-edge test is one bytearray read.
    """
    n = ct.n
    asns = ct.asns
    peers = ct.peers
    single = len(specs) == 1

    kind = bytearray(n)
    via: List[int] = [-1] * n
    root: List[int] = [0 if single and security is None else -1] * n
    plen: List[int] = [0] * n
    table: TableT = (kind, via, root, plen)
    avail = bytearray(b"\x01") * n

    blocked = _blocked_sets(ct, specs)
    specs_of_origin: Dict[int, List[int]] = {}
    for si, (oi, _epath, _eset, _ato) in enumerate(specs):
        kind[oi] = _ORIGIN
        avail[oi] = 0
        specs_of_origin.setdefault(oi, []).append(si)
    fused = single and security is None
    if single and blocked[0] is not None:
        for i in blocked[0]:
            avail[i] = 0
        blocked[0] = None
    seed_order = sorted(
        range(len(specs)), key=lambda si: (specs[si][0], specs[si][1], si)
    )
    seeds: Dict[int, List[int]] = {}
    for si in seed_order:
        seeds.setdefault(len(specs[si][1]), []).append(si)

    sec: Optional[_SecLoopT] = None
    sec3 = sec
    drops: List[FrozenSet[int]] = []
    omask: List[int] = []
    bit: List[int] = []
    rej: List[int] = []
    fmask: List[int] = []
    if security is not None:
        drops, omask, bit, rej_up, rej = _index_security(ct, specs, security)
        fmask = [0] * n
        sec = (fmask, drops, omask, bit, rej_up)
        sec3 = (fmask, drops, omask, bit, rej)

    # ---- Phase 1: customer routes climb provider edges ---------------------
    _settle_levels(
        ct.providers, _CUSTOMER, {}, seeds, specs, blocked, asns,
        table, avail, sec, fused,
    )

    # ---- Phase 2: one hop across peer edges --------------------------------
    # Exporters run in ascending index and each offers a peer at most one
    # route, so the first candidate at a path length already has the
    # lowest via: the incumbent test is the strict length comparison.
    cand: Dict[int, Tuple[int, int, int]] = {}
    cand_get = cand.get
    for e in ct.peer_nodes:
        k = kind[e]
        if not k:
            continue
        if k == _ORIGIN:
            # Later specs of the same origin overwrite earlier ones per
            # peer (reference dict-comprehension semantics).
            offer: Dict[int, int] = {}
            for si in specs_of_origin[e]:
                ato = specs[si][3]
                for p in peers[e]:
                    if ato is None or asns[p] in ato:
                        offer[p] = si
            for p, si in offer.items():
                blk = blocked[si]
                if not avail[p] or (blk is not None and p in blk):
                    continue
                if security is not None and (p in drops[si] or omask[si] & rej[p]):
                    continue
                pl = len(specs[si][1])
                inc = cand_get(p)
                if inc is None or pl < inc[0]:
                    cand[p] = (pl, e, si)
            continue
        pl = plen[e] + 1
        si = root[e]
        blk = blocked[si]
        if security is None and blk is None:
            for p in peers[e]:
                if avail[p]:
                    inc = cand_get(p)
                    if inc is None or pl < inc[0]:
                        cand[p] = (pl, e, si)
            continue
        drop = drops[si] if security is not None else frozenset()
        m = fmask[e] if security is not None else 0
        for p in peers[e]:
            if (
                avail[p]
                and (blk is None or p not in blk)
                and p not in drop
                and (not m or not m & rej[p])
            ):
                inc = cand_get(p)
                if inc is None or pl < inc[0]:
                    cand[p] = (pl, e, si)
    for t, (pl, v, si) in cand.items():
        avail[t] = 0
        kind[t] = _PEER
        via[t] = v
        root[t] = si
        plen[t] = pl
        if security is not None:
            fmask[t] = (omask[si] if kind[v] == _ORIGIN else fmask[v]) | bit[v]

    # ---- Phase 3: routes descend provider->customer edges ------------------
    buckets: Dict[int, List[int]] = {}
    for e in ct.cust_nodes:
        k = kind[e]
        if k and k != _ORIGIN:
            lvl = plen[e] + 1
            bucket = buckets.get(lvl)
            if bucket is None:
                buckets[lvl] = [e]
            else:
                bucket.append(e)
    _settle_levels(
        ct.customers, _PROVIDER, buckets, seeds, specs, blocked, asns,
        table, avail, sec3, fused,
    )
    return table


def _spec_diff(
    old_specs: Sequence[SpecT], new_specs: Sequence[SpecT]
) -> Tuple[Dict[int, int], List[int], List[int]]:
    """Monotone content matching between two compiled spec tuples.

    Returns ``(remap, dirty_old, dirty_new)``: ``remap`` maps each
    *stable* old spec index to its new index, the dirty lists hold the
    unmatched remainder on either side.  Matching is order-preserving
    (greedy, in-order) because spec order is semantically significant —
    same-origin overwrite semantics and heap tie-breaks both read it — so
    a reordered spec counts as withdrawn-plus-reannounced.
    """
    remap: Dict[int, int] = {}
    j = 0
    for osi, ospec in enumerate(old_specs):
        for nsi in range(j, len(new_specs)):
            if new_specs[nsi] == ospec:
                remap[osi] = nsi
                j = nsi + 1
                break
    matched = set(remap.values())
    dirty_old = [i for i in range(len(old_specs)) if i not in remap]
    dirty_new = [i for i in range(len(new_specs)) if i not in matched]
    return remap, dirty_old, dirty_new


# Reseed work for one delta phase, per path-length level: exporters whose
# every ``adj`` neighbor is a candidate; boundary offers (exporter ->
# specific targets); origin offers (origin -> {spec: targets, None = all
# ``adj`` neighbors its announce_to admits}).
_ExpT = Dict[int, List[int]]
_PairT = Dict[int, Dict[int, List[int]]]
_OriginT = Dict[int, Dict[int, Dict[int, Optional[List[int]]]]]


def _seed_boundary(
    targets: Sequence[int],
    adj: List[Tuple[int, ...]],
    min_kind: int,
    skip: Sequence[int],
    stable_of: Dict[int, List[int]],
    specs: Sequence[SpecT],
    blocked: Sequence[Optional[FrozenSet[int]]],
    asns: List[int],
    table: TableT,
    sec: Optional[_SecLoopT],
    pairs: _PairT,
    origins: _OriginT,
) -> None:
    """Seed each empty slot in ``targets`` with the offers that can
    still settle it: of the routes its ``adj`` neighbors export (kind
    ``>= min_kind``, not marked in ``skip`` — those re-expand on their
    own), only the minimum ``(pathlen, via)`` one the security filter
    accepts.  Every other offer would reach the slot after it settled
    and lose.  The exception is an origin's specs tied at that minimum,
    which all stay so the reseed meets the same cross-spec tie the
    full run does.  ``stable_of`` lists each origin's unchanged specs
    in export-path order."""
    kind, via, root, plen = table
    fmask: List[int] = []
    drops: List[FrozenSet[int]] = []
    rej: List[int] = []
    if sec is not None:
        fmask, drops, _omask, _bit, rej = sec
    none = 1 << 30
    best_v = -1
    best_grp: Optional[List[int]] = None
    for t in targets:
        if kind[t]:
            continue
        best_pl = none
        for v in adj[t]:  # ascending: the first offer at a length wins
            kv = kind[v]
            if kv < min_kind:
                continue
            if kv == _ORIGIN:
                grp = _origin_offer(
                    t, stable_of.get(v, ()), best_pl, specs, blocked, asns,
                    sec,
                )
                if grp:
                    best_pl = len(specs[grp[0]][1])
                    best_v = v
                    best_grp = grp
                continue
            if skip[v]:
                continue
            pl = plen[v] + 1
            if pl >= best_pl:
                continue
            si = root[v]
            blk = blocked[si]
            if blk is not None and t in blk:
                continue
            if sec is not None and (t in drops[si] or fmask[v] & rej[t]):
                continue
            best_pl = pl
            best_v = v
            best_grp = None
        if best_pl == none:
            continue
        if best_grp is None:
            level = pairs.get(best_pl)
            if level is None:
                level = pairs[best_pl] = {}
            lst = level.get(best_v)
            if lst is None:
                level[best_v] = [t]
            else:
                lst.append(t)
        else:
            by_spec = origins.setdefault(best_pl, {}).setdefault(best_v, {})
            for si in best_grp:
                lst2 = by_spec.get(si)
                if lst2 is None:
                    by_spec[si] = [t]
                else:
                    lst2.append(t)


def _origin_offer(
    t: int,
    stable: Sequence[int],
    below: int,
    specs: Sequence[SpecT],
    blocked: Sequence[Optional[FrozenSet[int]]],
    asns: List[int],
    sec: Optional[_SecLoopT],
) -> List[int]:
    """The specs (in ``stable`` order) through which one origin offers
    slot t its shortest route the security filter accepts, if that is
    shorter than ``below``: every spec tied at that length, accepted or
    not, as the reference meets them all at one heap key."""
    tasn = asns[t]
    offers: List[Tuple[int, int]] = []
    best = below
    for si in stable:
        _oi, epath, _eset, ato = specs[si]
        blk = blocked[si]
        if (ato is not None and tasn not in ato) or (
            blk is not None and t in blk
        ):
            continue
        pl = len(epath)
        offers.append((pl, si))
        if pl < best:
            if sec is not None:
                _fmask, drops, omask, _bit, rej = sec
                if t in drops[si] or omask[si] & rej[t]:
                    continue
            best = pl
    return [si for pl, si in offers if pl == best] if best < below else []


def _reseed_levels(
    adj: List[Tuple[int, ...]],
    code: int,
    exp: _ExpT,
    pairs: _PairT,
    origins: _OriginT,
    rank_of: Sequence[int],
    specs: Sequence[SpecT],
    blocked: Sequence[Optional[FrozenSet[int]]],
    asns: List[int],
    table: TableT,
    touched: bytearray,
    settled: List[int],
    sec: Optional[_SecLoopT],
) -> None:
    """One delta phase over a partly frozen table, on the same level loop
    as :func:`_settle_levels`: levels ascend, and within a level the
    vias ascend (an origin's specs in ``rank_of`` order), which is the
    order the reference heap pops candidates in.

    Each candidate ``(level, via, spec)`` at slot t follows the
    frozen-entry rules.  A slot of a better kind ignores it.  An empty
    or worse-kind slot takes it (after the security filter).  A slot of
    the same kind compares ``(pathlen, via)``: an equal key from another
    spec, or any improvement under security, raises
    :class:`_DeltaUnsupported`; an equal length with a lower via
    reroutes in place (the children's keys do not move); a strictly
    shorter path settles and re-expands.  An exporter whose path got
    shorter after it was queued is skipped at its old level: its new
    expansion already reached every target with a better key.

    Slots settled here are appended to ``settled``."""
    kind, via, root, plen = table
    fmask: List[int] = []
    drops: List[FrozenSet[int]] = []
    omask: List[int] = []
    bit: List[int] = []
    rej: List[int] = []
    if sec is not None:
        fmask, drops, omask, bit, rej = sec
    while exp or pairs or origins:
        lvl = min(min(exp, default=1 << 30), min(pairs, default=1 << 30),
                  min(origins, default=1 << 30))
        frontier = exp.pop(lvl, [])
        pair_at = pairs.pop(lvl, None)
        origin_at = origins.pop(lvl, None)
        expanding: Optional[Set[int]] = None
        if pair_at or origin_at:
            expanding = set(frontier)
            order = sorted(expanding.union(pair_at or (), origin_at or ()))
        else:
            frontier.sort()
            order = frontier
        nxt: List[int] = []
        for v in order:
            jobs: List[Tuple[int, int, Sequence[int]]] = []
            if origin_at is not None and v in origin_at:
                by_spec = origin_at[v]
                for si in sorted(by_spec, key=rank_of.__getitem__):
                    only = by_spec[si]
                    ato = specs[si][3]
                    jobs.append((
                        si,
                        omask[si] if sec is not None else 0,
                        [t for t in adj[v] if ato is None or asns[t] in ato]
                        if only is None else only,
                    ))
            else:
                if plen[v] + 1 != lvl:
                    continue
                si = root[v]
                tg: Sequence[int] = adj[v]
                if expanding is not None and v not in expanding:
                    tg = pair_at[v] if pair_at is not None else ()
                jobs.append((si, fmask[v] if sec is not None else 0, tg))
            for si, m, targets in jobs:
                blk = blocked[si]
                for t in targets:
                    kt = kind[t]
                    if kt > code or (blk is not None and t in blk):
                        continue
                    if kt == code:
                        pt = plen[t]
                        if lvl > pt:
                            continue
                        if lvl == pt:
                            vt = via[t]
                            if v > vt:
                                continue
                            if v == vt:
                                if root[t] != si:
                                    # equal (plen, via) across specs: the
                                    # reference breaks it on export-path
                                    # content the frozen entry predates
                                    raise _DeltaUnsupported
                                continue
                        if sec is not None:
                            # improving a frozen entry would stale the
                            # path masks of its subtree
                            raise _DeltaUnsupported
                        if lvl == pt:
                            if si != root[t]:
                                raise _DeltaUnsupported
                            via[t] = v
                            touched[t] = 1
                            continue
                    elif sec is not None:
                        if t in drops[si] or m & rej[t]:
                            continue
                        fmask[t] = m | bit[v]
                    kind[t] = code
                    via[t] = v
                    root[t] = si
                    plen[t] = lvl
                    touched[t] = 1
                    settled.append(t)
                    if adj[t]:
                        nxt.append(t)
        if nxt:
            bucket = exp.get(lvl + 1)
            if bucket is None:
                exp[lvl + 1] = nxt
            else:
                bucket.extend(nxt)


def _converge_delta(
    ct: CompiledTopology,
    old_specs: Sequence[SpecT],
    old_table: TableT,
    new_specs: Sequence[SpecT],
    sec: Optional["CompiledSecurity"] = None,
) -> Optional[Tuple[TableT, int]]:
    """Incrementally re-converge ``new_specs`` starting from the table of
    ``old_specs`` on the *same* compiled topology.

    The route table makes withdrawal exact: ``root`` is constant along
    every via chain, so the cone of a changed spec is precisely the slots
    whose root is that spec — clear them, remap surviving roots, and
    re-run the three phases from the boundary only:

    * dirty specs announce fresh from their origins,
    * each cleared slot is offered the best route its surviving
      neighbors export,
    * phase 2 pull-recomputes exactly the peers of changed exporters,
    * phase 3 first invalidates the provider-route subtrees hanging off
      any changed exporter (old-children walk), then reseeds.

    Phases 1 and 3 run on :func:`_reseed_levels`, the level loop of the
    full converge with surviving entries *frozen*: a candidate only
    touches one when it strictly beats it, and every improvement
    re-expands so the cascade rewrites the affected subtree.  Because
    levels ascend, any candidate that beats a stored entry is beating
    frozen (old-run) state — new-run settles are already minimal.  Two
    corners where exact reference semantics would need more than the
    frozen table offers raise :class:`_DeltaUnsupported` (caller falls
    back to a full run): equal ``(plen, via)`` ties resolved on
    export-path content across different specs, and improvements into
    frozen entries while security filters are active (downstream path
    masks would go stale).

    Returns ``((kind, via, root, plen), touched)`` with ``touched`` the
    number of slots examined/rewritten, or ``None`` when no old spec
    survives (a full run does the same work) or the dirty region
    outgrows the cone bail.
    """
    remap, dirty_old, dirty_new = _spec_diff(old_specs, new_specs)
    if not remap:
        return None

    n = ct.n
    asns = ct.asns
    providers = ct.providers
    customers = ct.customers
    peers = ct.peers

    kind0, via0, root0, plen0 = old_table
    kind = bytearray(kind0)
    via = list(via0)
    plen = list(plen0)
    dirty_old_set = set(dirty_old)
    dirty_new_set = set(dirty_new)

    # Root remap: the common sweep case keeps every stable spec at its
    # old index (identity remap), so the new root array is a C-level copy
    # of the old one — stale values on cleared slots are never read
    # before being rewritten at settle time.  Only a genuinely reordered
    # spec list pays the O(n) per-slot remap pass.
    if all(o == m for o, m in remap.items()):
        root = list(root0)
    else:
        root = [-1] * n
        for i, k in enumerate(kind0):
            if k and k != _ORIGIN:
                m = remap.get(root0[i])
                if m is not None:
                    root[i] = m
    table: TableT = (kind, via, root, plen)

    touched = bytearray(n)
    # Every slot that went route->empty, in clearing order.  Only kind
    # is reset when a slot clears; via/root/plen of slots still empty at
    # the end are reset then (nothing reads them while kind is 0).
    cleared: List[int] = []
    # A dirty cone covering a third of the graph can't be meaningfully
    # cheaper than full re-convergence (and the odds that some candidate
    # collides with a frozen tie — forcing a late _DeltaUnsupported
    # fallback after real work — grow with the region).  The walks below
    # discover the cone incrementally, so the bail trips as soon as the
    # region is provably too large — cost sunk scales with the bail
    # threshold, not with n.  Tests widen the denominator to force cone
    # attempts on large regions.
    bail_at = n // _CONE_BAIL_DEN
    # Old dependence children of v are among its neighbors; a peer or
    # provider route is exported to customers only, so those slots'
    # children are among their customers.
    nbrs = ct.children_index()

    # ---- Withdraw: root is constant along via chains, so the slots
    # rooted in a dirty spec are exactly the old dependence subtree of
    # its origin, restricted to dirty roots at the first hop.  Relations
    # are exclusive, so each slot is met once, from its old via.
    for o in {old_specs[si][0] for si in dirty_old}:
        for t in nbrs[o]:
            if via0[t] == o and root0[t] in dirty_old_set:
                kind[t] = 0
                touched[t] = 1
                cleared.append(t)
    size = len(cleared)
    if size > bail_at:
        return None
    for v2 in cleared:  # iteration picks up the slots appended below
        for t in nbrs[v2] if kind0[v2] == _CUSTOMER else customers[v2]:
            if via0[t] == v2:
                kind[t] = 0
                touched[t] = 1
                cleared.append(t)
                size += 1
                if size > bail_at:
                    return None

    # ---- Origin status changes invalidate whole dependence subtrees:
    # an AS that gains or loses origin status changes every route whose
    # via chain passes through it, whatever the root.  Same walk, not
    # restricted by root.
    old_orig = {s[0] for s in old_specs}
    new_orig = {s[0] for s in new_specs}
    osc = old_orig ^ new_orig
    if osc:
        for o in osc:
            kind[o] = 0
            if not touched[o]:
                touched[o] = 1
                cleared.append(o)
        stack = list(osc)
        while stack:
            v2 = stack.pop()
            for d in nbrs[v2] if kind0[v2] >= _CUSTOMER else customers[v2]:
                if via0[d] == v2 and kind[d]:
                    kind[d] = 0
                    touched[d] = 1
                    cleared.append(d)
                    stack.append(d)
            if len(cleared) > bail_at:
                return None
        for o in new_orig:
            if kind[o] != _ORIGIN:
                kind[o] = _ORIGIN
                via[o] = -1
                plen[o] = 0
                root[o] = -1
    # The withdraw and origin-status walks clear whole old dependence
    # subtrees, so these slots have no old children left to invalidate.
    gone = bytes(touched)

    # ---- Security tables (as _converge indexes them) and path-mask
    # reconstruction for survivors, parents before children.
    blocked = _blocked_sets(ct, new_specs)
    sec_up: Optional[_SecLoopT] = None
    sec_down: Optional[_SecLoopT] = None
    drops: List[FrozenSet[int]] = []
    omask: List[int] = []
    bit: List[int] = []
    rej: List[int] = []
    fmask: List[int] = []
    if sec is not None:
        drops, omask, bit, rej_up, rej = _index_security(ct, new_specs, sec)
        fmask = [0] * n
        for i in sorted(
            (i for i, k in enumerate(kind) if k and k != _ORIGIN),
            key=plen.__getitem__,
        ):
            v2 = via[i]
            base = omask[root[i]] if kind[v2] == _ORIGIN else fmask[v2]
            fmask[i] = base | bit[v2]
        sec_up = (fmask, drops, omask, bit, rej_up)
        sec_down = (fmask, drops, omask, bit, rej)

    specs_of_origin: Dict[int, List[int]] = {}
    stable_of: Dict[int, List[int]] = {}
    rank_of = [0] * len(new_specs)
    for r, si in enumerate(sorted(
        range(len(new_specs)),
        key=lambda si: (new_specs[si][0], new_specs[si][1], si),
    )):
        rank_of[si] = r
        soi = new_specs[si][0]
        if si not in dirty_new_set:
            stable_of.setdefault(soi, []).append(si)
    for si, (soi, _e, _s, _a) in enumerate(new_specs):
        specs_of_origin.setdefault(soi, []).append(si)

    def origin_seeds() -> _OriginT:
        seeded: _OriginT = {}
        for si in dirty_new:
            soi, epath, _eset, _ato = new_specs[si]
            seeded.setdefault(len(epath), {}).setdefault(soi, {})[si] = None
        return seeded

    # ---- Phase 1 delta: dirty specs seed at their origins; survivors at
    # the withdrawal boundary re-offer routes into cleared slots.
    origins = origin_seeds()
    pairs: _PairT = {}
    # A cleared slot whose old route was not a customer route refused
    # every surviving customer's offer in the old run, for reasons
    # (export set, security filter) that still hold.
    _seed_boundary(
        [t for t in cleared if kind0[t] >= _CUSTOMER], customers, _CUSTOMER,
        gone, stable_of, new_specs, blocked, asns, table, sec_up, pairs,
        origins,
    )
    settled_p1: List[int] = []
    _reseed_levels(
        providers, _CUSTOMER, {}, pairs, origins, rank_of, new_specs,
        blocked, asns, table, touched, settled_p1, sec_up,
    )

    # ---- Phase 2 delta: pull-recompute exactly the peers of changed
    # exporters (and changed slots themselves).  Pulls read only
    # phase-1/origin state, so they are order-independent.
    dirty_origins = {old_specs[si][0] for si in dirty_old}
    dirty_origins.update(new_specs[si][0] for si in dirty_new)
    # Exporters whose offers may differ: cleared, newly settled, and
    # dirty origins (phase-2 changes join below).
    changed = bytearray(gone)
    offering = list(settled_p1)
    for e in dirty_origins:
        changed[e] = 1
        if kind[e] == _ORIGIN:
            offering.append(e)
    for e in settled_p1:
        changed[e] = 1
    # Per-target lists of *changed* exporters that offer something now.
    # Offers from unchanged exporters are literally unchanged (exporter
    # state, spec content, and security masks all survive), so most
    # recomputes only need the old incumbent plus these lists — an IXP
    # member with thousands of peers does not rescan the whole mesh
    # because one of them changed.  A changed exporter that offers
    # nothing now only matters where it was the incumbent, and such a
    # peer route was rooted with it and is cleared too.  Cleared slots
    # whose old route shadowed or came from the peer mesh (customer,
    # origin, peer) rescan in full.
    cand_of: Dict[int, List[int]] = {}
    for e in offering:
        for p in peers[e]:
            if kind[p] < _CUSTOMER:
                lst = cand_of.get(p)
                if lst is None:
                    cand_of[p] = [e]
                else:
                    lst.append(e)
    for e in cleared:
        if not kind[e] and kind0[e] >= _PEER and peers[e]:
            cand_of.setdefault(e, [])
    changed_p2: List[int] = []
    for t, cands in cand_of.items():
        k0t = kind0[t]
        dense = 4 * len(cands) >= len(peers[t])
        scan: Sequence[int]
        if k0t == _PEER:
            e0 = via0[t]
            # incumbent unchanged: it still beats every unchanged rival
            # (it won the old run), so only it and the changed exporters
            # can produce the new minimum.  Dense candidate lists fall
            # back to the plain mesh scan — cheaper than set + sort.
            scan = (
                peers[t]
                if dense or changed[e0]
                else sorted({e0, *cands})
            )
        elif not k0t or k0t == _PROVIDER:
            # old run found no valid peer offer for t, and unchanged
            # exporters still offer nothing — only changed ones can.
            scan = peers[t] if dense else sorted(cands)
        else:
            scan = peers[t]
        tasn = asns[t]
        best_pl = -1
        best_e = -1
        best_si = -1
        best_m = 0
        for e in scan:  # ascending e: first win at a length is lowest via
            ke = kind[e]
            if ke < _CUSTOMER:  # only customer routes and origins export
                continue
            if ke == _ORIGIN:
                sel = -1
                for si in specs_of_origin.get(e, ()):
                    ato = new_specs[si][3]
                    if ato is None or tasn in ato:
                        sel = si  # later specs overwrite, as in reference
                if sel < 0:
                    continue
                blk = blocked[sel]
                if blk is not None and t in blk:
                    continue
                pl = len(new_specs[sel][1])
                m = 0
                if sec is not None:
                    m = omask[sel]
                    if t in drops[sel] or m & rej[t]:
                        continue
                si2 = sel
            else:
                si2 = root[e]
                blk = blocked[si2]
                if blk is not None and t in blk:
                    continue
                pl = plen[e] + 1
                m = 0
                if sec is not None:
                    m = fmask[e]
                    if t in drops[si2] or m & rej[t]:
                        continue
            if best_pl < 0 or pl < best_pl:
                best_pl = pl
                best_e = e
                best_si = si2
                best_m = m
        if best_pl < 0:
            if kind[t] == _PEER:
                kind[t] = 0
                touched[t] = 1
                changed_p2.append(t)
                cleared.append(t)
        else:
            if (kind[t] != _PEER or via[t] != best_e
                    or root[t] != best_si or plen[t] != best_pl):
                kind[t] = _PEER
                via[t] = best_e
                root[t] = best_si
                plen[t] = best_pl
                touched[t] = 1
                changed_p2.append(t)
            if sec is not None:
                fmask[t] = best_m | bit[best_e]

    # ---- Phase 3 delta: provider-route subtrees hanging off any changed
    # exporter are stale.  A slot still holding _PROVIDER here is an old
    # survivor (via == via0), and provider routes only ever point at a
    # topology customer — so walking customers[v2] and filtering on
    # kind/via visits exactly the old via0-children.  Slots in `gone`
    # have no old children left.
    for e in changed_p2:
        changed[e] = 1
    resettled = settled_p1 + changed_p2
    stack2 = [e for e in resettled if not gone[e]]
    stack2.extend(dirty_origins)
    while stack2:
        v2 = stack2.pop()
        for d in customers[v2]:
            if kind[d] == _PROVIDER and via[d] == v2:
                kind[d] = 0
                touched[d] = 1
                cleared.append(d)
                stack2.append(d)

    # Every cleared slot (withdraw, origin-status, phase-2 removal,
    # phase-3 invalidation) still empty takes the best offer of its
    # providers, so the reseed only visits the dirty region.  A changed
    # exporter re-expands to all its customers, unless its offer got no
    # shorter under export-set blocks at least as strict and no security
    # filter: every customer that kept its old route refused the old
    # offer (on key, kind or block) and refuses this one, so it is just
    # one more offer to the cleared slots.
    old_blocked = _blocked_sets(ct, old_specs)
    expand = bytearray(n)
    exp: _ExpT = {}
    for e in resettled:
        ke = kind[e]
        if not ke or not customers[e]:
            continue
        k0e = kind0[e]
        if sec is None and k0e and k0e != _ORIGIN and plen[e] >= plen0[e]:
            ob = old_blocked[root0[e]]
            nb = blocked[root[e]]
            if ob is None or (nb is not None and ob <= nb):
                continue
        expand[e] = 1
        exp.setdefault(plen[e] + 1, []).append(e)
    origins = origin_seeds()
    pairs = {}
    _seed_boundary(
        cleared, providers, _PROVIDER, expand, stable_of, new_specs,
        blocked, asns, table, sec_down, pairs, origins,
    )
    _reseed_levels(
        customers, _PROVIDER, exp, pairs, origins, rank_of, new_specs,
        blocked, asns, table, touched, [], sec_down,
    )

    for t in cleared:
        if not kind[t]:
            via[t] = -1
            root[t] = -1
            plen[t] = 0
    return table, touched.count(1)


class CompiledOutcome(RoutingOutcome):
    """A :class:`RoutingOutcome` backed by the compact parent-pointer
    table.  AS paths (and :class:`ASRoute` objects) materialize lazily
    and are memoized; everything else reads the arrays directly."""

    def __init__(
        self,
        graph: ASGraph,
        compiled: CompiledTopology,
        table: TableT,
        spec_paths: Tuple[Tuple[int, ...], ...],
        specs: Optional[Tuple[SpecT, ...]] = None,
        security_fp: Optional[Tuple] = None,
        plen_shift: int = 0,
    ) -> None:
        self._graph = graph
        self._compiled = compiled
        self._kind, self._via, self._root, self._plen = table
        # A pure prepend change shifts every selected route's path length
        # by the same amount; the shift is recorded here instead of
        # copying the 50k-entry plen array (accessors reconstruct paths
        # from via pointers and never read plen, so materialization —
        # see _table() — is deferred until a cone delta needs it).
        self._plen_shift = plen_shift
        self._spec_paths = spec_paths
        # Delta-propagation provenance: the compiled specs this table was
        # converged for and the security fingerprint in effect (None =
        # unsecured).  propagate_delta only reuses a table whose
        # provenance matches the new request's.
        self._specs = specs
        self._security_fp = security_fp
        self._memo: Dict[int, ASRoute] = {}

    def _table(self) -> TableT:
        """The parent-pointer table with any pending plen shift applied.

        Materializes at most once (rebinding ``self._plen`` to a fresh
        list — the shared predecessor array is never mutated); origin
        and unreached slots keep their plen untouched, matching what an
        eager shift would have produced."""
        s = self._plen_shift
        if s:
            self._plen = [
                p + s if (k and k != _ORIGIN) else p
                for k, p in zip(self._kind, self._plen)
            ]
            self._plen_shift = 0
        return (self._kind, self._via, self._root, self._plen)

    # -- core accessors -------------------------------------------------------

    def route(self, asn: int) -> Optional[ASRoute]:
        memo = self._memo
        route = memo.get(asn)
        if route is not None:
            return route
        i = self._compiled.idx.get(asn)
        if i is None:
            return None
        k = self._kind[i]
        if not k:
            return None
        route = ASRoute(kind=RouteKind(k), path=self._path_of(i), via=self._via_asn(i))
        memo[asn] = route
        return route

    def _via_asn(self, i: int) -> Optional[int]:
        v = self._via[i]
        return None if v < 0 else self._compiled.asns[v]

    def _path_of(self, i: int) -> Tuple[int, ...]:
        """Reconstruct the AS path by walking parent pointers to the
        originating spec's export path."""
        if self._kind[i] == _ORIGIN:
            return ()
        asns = self._compiled.asns
        via = self._via
        kind = self._kind
        parts: List[int] = []
        cur = via[i]
        while kind[cur] != _ORIGIN:
            parts.append(asns[cur])
            cur = via[cur]
        return tuple(parts) + self._spec_paths[self._root[i]]

    def reaches(self, asn: int) -> bool:
        i = self._compiled.idx.get(asn)
        return i is not None and bool(self._kind[i])

    def reachable_asns(self) -> Set[int]:
        asns = self._compiled.asns
        return {asns[i] for i, k in enumerate(self._kind) if k}

    def __len__(self) -> int:
        # kind-code 0 is "not reached"; bytearray.count is C-speed, and
        # telemetry stamps len(outcome) onto every convergence span.
        return len(self._kind) - self._kind.count(0)

    def items(self) -> Iterator[Tuple[int, ASRoute]]:
        asns = self._compiled.asns
        for i, k in enumerate(self._kind):
            if k:
                asn = asns[i]
                yield asn, self.route(asn)

    def forwarding_chain(self, asn: int, max_hops: int = 64) -> List[int]:
        # Same semantics as the base class, but walks the via array
        # without materializing ASRoute objects.
        chain = [asn]
        idx = self._compiled.idx
        asns = self._compiled.asns
        kind = self._kind
        via = self._via
        i = idx.get(asn)
        for _ in range(max_hops):
            if i is None or not kind[i]:
                return chain  # blackhole
            if kind[i] == _ORIGIN:
                return chain
            i = via[i]
            chain.append(asns[i])
        return chain

    def as_path(self, asn: int) -> Optional[Tuple[int, ...]]:
        route = self.route(asn)
        return route.path if route is not None else None

    # -- anycast fast path ----------------------------------------------------

    def origin_spec_index(self, asn: int) -> Optional[int]:
        """Which origin spec's export terminates ``asn``'s forwarding
        chain — the index into the announcement's ``origins`` tuple, or
        None when unreached.  For a multi-site anycast announcement (one
        spec per site) this *is* the catchment identity: the site whose
        announcement front won ``asn``, answered from the root array
        without materializing a route."""
        i = self._compiled.idx.get(asn)
        if i is None or not self._kind[i]:
            return None
        return self._root[i]

    def spec_table(self) -> Tuple[Dict[int, int], bytearray, List[int], List[int]]:
        """The raw per-AS arrays ``(index_of, kind, root, plen)`` with any
        pending path-length shift applied.

        ``index_of`` maps ASN to slot; ``kind[slot]`` is the RouteKind
        code (0 = unreached), ``root[slot]`` the winning origin-spec
        index, ``plen[slot]`` the selected path length.  This is the bulk
        interface population-scale catchment mapping reads — millions of
        clients collapse to two array lookups each instead of per-AS
        route materialization.  Callers must not mutate the arrays."""
        kind, _via, root, plen = self._table()
        return self._compiled.idx, kind, root, plen


class OutcomeCache:
    """LRU cache of converged outcomes keyed by
    ``(graph version, canonical announcement)``.

    Hit/miss/eviction stats live in a :class:`MetricsRegistry` (labelled
    ``peering_cache_*_total{cache=...}``) — the testbed passes its shared
    registry in so every cache shows up in one export; a standalone cache
    gets a private registry.  The ``hits``/``misses``/``evictions``
    attributes remain readable as plain ints for existing callers."""

    def __init__(
        self,
        maxsize: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "propagation",
    ) -> None:
        self.maxsize = maxsize
        self.name = name
        self._data: "OrderedDict[Tuple, RoutingOutcome]" = OrderedDict()
        # Keys bucketed by their graph-version component (key[0]), so
        # prune_version touches only stale entries instead of scanning
        # the whole cache on every graph mutation.
        self._by_version: Dict[object, Set[Tuple]] = {}
        registry = metrics if metrics is not None else MetricsRegistry()
        self._hits = registry.counter(
            "peering_cache_hits_total", "Outcome cache hits", ("cache",)
        ).labels(name)
        self._misses = registry.counter(
            "peering_cache_misses_total", "Outcome cache misses", ("cache",)
        ).labels(name)
        self._evictions = registry.counter(
            "peering_cache_evictions_total", "Outcome cache LRU evictions", ("cache",)
        ).labels(name)
        self._entries = registry.gauge(
            "peering_cache_entries", "Outcome cache current size", ("cache",)
        ).labels(name)

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    def get(self, key: Tuple) -> Optional[RoutingOutcome]:
        outcome = self._data.get(key)
        if outcome is None:
            self._misses.value += 1.0
            return None
        self._data.move_to_end(key)
        self._hits.value += 1.0
        return outcome

    def put(self, key: Tuple, outcome: RoutingOutcome) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = outcome
        self._by_version.setdefault(key[0], set()).add(key)
        if len(data) > self.maxsize:
            old_key, _ = data.popitem(last=False)
            bucket = self._by_version.get(old_key[0])
            if bucket is not None:
                bucket.discard(old_key)
                if not bucket:
                    del self._by_version[old_key[0]]
            self._evictions.value += 1.0
        self._entries.value = float(len(data))

    def prune_version(self, version: int) -> None:
        """Drop entries computed against any graph version but ``version``.

        O(stale entries) via the per-version key buckets — a graph
        mutation no longer pays a full cache scan to invalidate."""
        buckets = self._by_version
        data = self._data
        for ver in [v for v in buckets if v != version]:
            for key in buckets.pop(ver):
                del data[key]
        self._entries.value = float(len(data))

    def clear(self) -> None:
        self._data.clear()
        self._by_version.clear()
        self._entries.value = 0.0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


# -- multiprocessing worker plumbing ------------------------------------------
# The compiled topology (and any compiled security masks, deduped) are
# shipped once per worker via the pool initializer; tasks then carry
# whole *chains* of (tiny) canonical spec blobs ordered for delta
# affinity, and results carry one compact entry per chain point: either
# a route table or a reference to an earlier table plus a pending plen
# shift.  Workers converge incrementally exactly like the serial sweep
# path, so the 10x delta-chaining win survives the fan-out.

_WORKER_TOPOLOGY: Optional[CompiledTopology] = None
_WORKER_SECURITIES: Tuple["CompiledSecurity", ...] = ()

_DELTA_MODES = ("noop", "shift", "cone", "fallback", "full")

# Chain-result entries: ("table", kind, via, root, plen) ships a full
# route table; ("shift", base_pos, pending) references the table entry
# at base_pos in the same chain, sharing all four arrays with a pending
# uniform plen shift (0 for a pure noop).  The two shapes differ in
# arity, so the alias is a variadic tuple dispatched on entry[0].
ChainEntryT = Tuple[Any, ...]
ChainBlobT = Tuple[Tuple[int, Tuple[int, ...], Optional[Tuple[int, ...]]], ...]
ChainResultT = Tuple[List[ChainEntryT], Dict[str, int], int]


def _pool_init(
    compiled: CompiledTopology,
    securities: Sequence["CompiledSecurity"] = (),
) -> None:
    global _WORKER_TOPOLOGY, _WORKER_SECURITIES
    _WORKER_TOPOLOGY = compiled
    _WORKER_SECURITIES = tuple(securities)


def _pool_run_chain(chain: Sequence[Tuple[ChainBlobT, int]]) -> ChainResultT:
    """Converge one delta-affinity chain of (spec_blob, sec_slot) items.

    Mirrors the serial sweep loop: each point reuses the previous
    point's route table when the regime allows (noop/shift/cone), and
    only regime transitions or security-fingerprint changes pay a full
    converge.  Shift points ship no arrays at all — just a reference to
    the chain's last full table and the accumulated plen offset."""
    ct = _WORKER_TOPOLOGY
    assert ct is not None  # set by the pool initializer
    secs = _WORKER_SECURITIES
    n = ct.n
    entries: List[ChainEntryT] = []
    counts = dict.fromkeys(_DELTA_MODES, 0)
    counts["unsupported"] = 0  # fallbacks caused by _DeltaUnsupported
    saved = 0
    prev_specs: Optional[Tuple[SpecT, ...]] = None
    prev_slot = -2  # sec slot of the previous point (-1 = unsecured)
    table: Optional[TableT] = None
    pending = 0  # un-materialized plen shift carried by `table`
    base_pos = -1  # entries index of the table backing shift references
    for spec_blob, sec_slot in chain:
        specs = tuple(
            (ct.idx[asn], epath, frozenset(epath),
             None if ato is None else frozenset(ato))
            for asn, epath, ato in spec_blob
        )
        sec = None if sec_slot < 0 else secs[sec_slot]
        mode = "full"
        if prev_specs is not None and sec_slot == prev_slot:
            assert table is not None
            if specs == prev_specs:
                counts["noop"] += 1
                saved += n
                entries.append(("shift", base_pos, pending))
                continue
            shift = PropagationEngine._shift_delta(prev_specs, specs, sec)
            if shift is not None:
                pending += shift
                counts["shift"] += 1
                saved += n
                entries.append(("shift", base_pos, pending))
                prev_specs = specs
                continue
            if pending:
                # cone deltas need real plen values; materialize like
                # CompiledOutcome._table (origins/unreached untouched)
                kind0, via0, root0, plen0 = table
                plen0 = [
                    p + pending if (k and k != _ORIGIN) else p
                    for k, p in zip(kind0, plen0)
                ]
                table = (kind0, via0, root0, plen0)
                pending = 0
            try:
                res = _converge_delta(ct, prev_specs, table, specs, sec)
            except _DeltaUnsupported:
                res = None
                counts["unsupported"] += 1
            if res is not None:
                table, frontier = res
                mode = "cone"
                saved += max(0, n - frontier)
            else:
                mode = "fallback"
                table = None
        else:
            table = None
            pending = 0
        if table is None:
            table = _converge(ct, specs, sec)
            pending = 0
        counts[mode] += 1
        kind, via, root, plen = table
        entries.append((
            "table", bytes(kind),
            array("l", via), array("l", root), array("l", plen),
        ))
        base_pos = len(entries) - 1
        prev_specs = specs
        prev_slot = sec_slot
    return entries, counts, saved


class PropagationEngine:
    """Compiled, cached, batched route propagation over one ``ASGraph``.

    The graph stays mutable: the engine recompiles automatically when
    ``graph.version`` moves, and the result cache never returns an
    outcome computed against a stale topology.
    """

    def __init__(
        self,
        graph: ASGraph,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.graph = graph
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = OutcomeCache(cache_size, metrics=self.metrics)
        self._compiled: Optional[CompiledTopology] = None
        self._compiles = self.metrics.counter(
            "peering_propagation_compiles_total",
            "Topology compilations (graph version changes)",
        ).labels()
        self._runs = self.metrics.counter(
            "peering_propagation_runs_total",
            "Full convergence runs (cache misses)",
        ).labels()
        self._seconds = self.metrics.histogram(
            "peering_propagation_seconds",
            "Wall-clock convergence time per in-process run",
        ).labels()
        # Incremental-convergence instrumentation: runs by regime (noop /
        # shift / cone / fallback / full), the per-run recomputed-frontier
        # histogram, and a running total of table slots reused as-is —
        # the looking glass reads these to show work saved.
        self._delta_runs = self.metrics.counter(
            "peering_propagation_delta_runs_total",
            "Incremental propagation runs by regime",
            ("mode",),
        )
        self._delta_frontier = self.metrics.histogram(
            "peering_propagation_delta_frontier_size",
            "AS slots recomputed per incremental convergence",
            buckets=(0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0),
        ).labels()
        self._delta_saved = self.metrics.counter(
            "peering_propagation_delta_saved_total",
            "AS slots reused from the previous route table by delta runs",
        ).labels()
        # The share of fallbacks that hit an exact-semantics corner
        # (_DeltaUnsupported) rather than the cone-size bail.
        self._delta_unsupported = self.metrics.counter(
            "peering_propagation_delta_unsupported_total",
            "Delta fallbacks forced by an exact-semantics corner",
        ).labels()
        # Parallel-sweep instrumentation: chains dispatched to pool
        # workers, worker-side regime counts (also folded into the
        # overall delta counters above), and pool degradations — spawn
        # (no fork on this platform) or serial (pool creation failed).
        self._par_chains = self.metrics.counter(
            "peering_propagation_parallel_chains_total",
            "Delta chains dispatched to pool workers",
        ).labels()
        self._par_delta_runs = self.metrics.counter(
            "peering_propagation_parallel_delta_runs_total",
            "Worker-side incremental propagation runs by regime",
            ("mode",),
        )
        self._pool_fallbacks = self.metrics.counter(
            "peering_propagation_pool_fallbacks_total",
            "Parallel sweeps degraded to a spawn context or serial runs",
            ("kind",),
        )

    @property
    def compile_count(self) -> int:
        return int(self._compiles.value)

    # -- compilation ----------------------------------------------------------

    def compiled(self) -> CompiledTopology:
        """The compiled topology for the graph's *current* version."""
        compiled = self._compiled
        if compiled is None or compiled.version != self.graph.version:
            compiled = CompiledTopology(self.graph)
            self._compiled = compiled
            self._compiles.inc()
            self.cache.prune_version(compiled.version)
        return compiled

    # -- single announcement --------------------------------------------------

    def propagate(
        self,
        announcement: Announcement,
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> RoutingOutcome:
        """Converged routes for ``announcement``; drop-in for
        :func:`repro.inet.routing.propagate`.

        ``security`` applies per-AS import filters (ROV drop-invalid,
        Peerlock) exactly as the reference path does; a ``SecurityPolicy``
        is compiled against the announcement automatically.  The cache
        key gains the policy fingerprint, so outcomes computed under
        different security configurations (or ROA registry versions)
        never alias."""
        compiled = self.compiled()
        if security is not None and hasattr(security, "compile_for"):
            security = security.compile_for(announcement)  # type: ignore[attr-defined]
        if security is not None and not security.active:
            security = None
        key = (
            compiled.version,
            canonical_key(announcement),
            None if security is None else security.fingerprint,
        )
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        outcome = self._run(compiled, announcement, security)
        if use_cache:
            self.cache.put(key, outcome)
        return outcome

    def propagate_delta(
        self,
        prev_outcome: Optional[RoutingOutcome],
        announcement: Announcement,
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> RoutingOutcome:
        """Converged routes for ``announcement``, reusing the route table
        of ``prev_outcome`` where the change cannot have moved it.

        The result is route-for-route identical to :meth:`propagate` —
        incrementality is purely an optimization, picked per change:

        * **noop** — identical steering: the previous outcome *is* the
          answer.
        * **shift** — same origin/export-set/targets, only the export
          path length changed (prepend engineering): every surviving
          route keeps its (kind, via) and shifts ``plen`` uniformly.
        * **cone** — general case: withdraw exactly the cones rooted in
          changed specs, re-seed the frontier at the changed origin and
          the withdrawal boundary, and converge only ASes whose best
          route could change.
        * **fallback / full** — no reusable previous table (different
          graph version or security fingerprint, no stable specs, or an
          exact-semantics corner): a normal full convergence.  A cone
          attempt that hits an exact-semantics corner also counts in
          ``stats()["delta_unsupported"]``.

        ``prev_outcome`` may be any outcome this engine produced for the
        *current* graph version under the same security fingerprint;
        anything else degrades gracefully to a full run.  Cache keys are
        identical to :meth:`propagate`'s, so delta-produced outcomes
        compose with fingerprinted security lookups and never alias."""
        compiled = self.compiled()
        if security is not None and hasattr(security, "compile_for"):
            security = security.compile_for(announcement)  # type: ignore[attr-defined]
        if security is not None and not security.active:
            security = None
        sec_fp = None if security is None else security.fingerprint
        key = (compiled.version, canonical_key(announcement), sec_fp)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        outcome = self._run_delta(
            compiled, announcement, prev_outcome, security, sec_fp
        )
        if use_cache:
            self.cache.put(key, outcome)
        return outcome

    @staticmethod
    def _shift_delta(
        old_specs: Tuple[SpecT, ...],
        new_specs: Tuple[SpecT, ...],
        security: Optional["CompiledSecurity"],
    ) -> Optional[int]:
        """Path-length delta if the change is a pure prepend adjustment
        (single spec, same origin/export-set/targets): acceptance
        decisions depend only on those plus — under security — the
        export path's tail mask and last hop, so (kind, via) is
        preserved exactly and plen shifts uniformly.  None otherwise."""
        if len(old_specs) != 1 or len(new_specs) != 1:
            return None
        ooi, oepath, oeset, oato = old_specs[0]
        noi, nepath, neset, nato = new_specs[0]
        if noi != ooi or neset != oeset or nato != oato:
            return None
        if security is not None:
            if nepath[-1] != oepath[-1]:
                return None
            if security.path_mask(nepath[1:]) != security.path_mask(oepath[1:]):
                return None
        return len(nepath) - len(oepath)

    def _run_delta(
        self,
        compiled: CompiledTopology,
        announcement: Announcement,
        prev: Optional[RoutingOutcome],
        security: Optional["CompiledSecurity"],
        sec_fp: Optional[Tuple],
    ) -> RoutingOutcome:
        started = perf_counter()
        new_specs = _compile_specs(compiled, announcement)
        base: Optional[CompiledOutcome] = None
        if (
            isinstance(prev, CompiledOutcome)
            and prev._compiled is compiled
            and prev._specs is not None
            and prev._security_fp == sec_fp
        ):
            base = prev
        mode = "full"
        table: Optional[TableT] = None
        frontier = 0
        plen_shift = 0
        if base is not None:
            old_specs = base._specs
            assert old_specs is not None
            if new_specs == old_specs:
                self._observe_delta("noop", 0, compiled.n, started)
                return base
            shift = self._shift_delta(old_specs, new_specs, security)
            if shift is not None:
                # Tables are never mutated after construction, so all
                # four arrays are shared with the previous outcome; the
                # uniform plen shift stays pending (composing with any
                # shift the base itself still carries) until someone
                # actually needs plen values.
                table = (base._kind, base._via, base._root, base._plen)
                plen_shift = base._plen_shift + shift
                mode = "shift"
            else:
                old_table = base._table()
                try:
                    res = _converge_delta(
                        compiled, old_specs, old_table, new_specs, security
                    )
                except _DeltaUnsupported:
                    res = None
                    self._delta_unsupported.inc()
                if res is not None:
                    table, frontier = res
                    mode = "cone"
                else:
                    mode = "fallback"
        if table is None:
            table = _converge(compiled, new_specs, security)
            frontier = compiled.n
        spec_paths = tuple(s[1] for s in new_specs)
        outcome = CompiledOutcome(
            self.graph, compiled, table, spec_paths,
            specs=new_specs, security_fp=sec_fp, plen_shift=plen_shift,
        )
        self._runs.inc()
        self._observe_delta(mode, frontier, compiled.n, started)
        return outcome

    def _observe_delta(
        self, mode: str, frontier: int, n: int, started: float
    ) -> None:
        self._delta_runs.labels(mode).inc()
        if mode in ("noop", "shift", "cone"):
            self._delta_frontier.observe(float(frontier))
            self._delta_saved.inc(float(max(0, n - frontier)))
        self._seconds.observe(perf_counter() - started)

    def _run(
        self,
        compiled: CompiledTopology,
        announcement: Announcement,
        security: Optional["CompiledSecurity"] = None,
    ) -> CompiledOutcome:
        started = perf_counter()
        specs = _compile_specs(compiled, announcement)
        table = _converge(compiled, specs, security)
        spec_paths = tuple(s[1] for s in specs)
        outcome = CompiledOutcome(
            self.graph, compiled, table, spec_paths,
            specs=specs,
            security_fp=None if security is None else security.fingerprint,
        )
        self._runs.inc()
        self._seconds.observe(perf_counter() - started)
        return outcome

    # -- sweeps ---------------------------------------------------------------

    def propagate_many(
        self,
        announcements: Sequence[Announcement],
        parallel: Optional[int] = None,
        use_cache: bool = True,
        security: Optional["CompiledSecurity"] = None,
    ) -> List[RoutingOutcome]:
        """Converge a whole sweep; with ``parallel=N`` fan the cache
        misses out over N worker processes sharing one compiled topology.

        Misses are reordered for delta affinity (same steering group —
        and same security fingerprint — adjacent) and chained through
        incremental reconvergence both serially and inside each pool
        worker, so a steering sweep pays full converges only at group
        boundaries.  Secured sweeps compile the policy per announcement
        (verdicts depend on prefix and origins) and ship the deduped
        compiled masks to workers alongside the topology.
        """
        announcements = list(announcements)
        compiled = self.compiled()
        secs: List[Optional["CompiledSecurity"]]
        if security is None:
            secs = [None] * len(announcements)
        elif hasattr(security, "compile_for"):
            secs = [
                security.compile_for(a)  # type: ignore[attr-defined]
                for a in announcements
            ]
            secs = [s if s is not None and s.active else None for s in secs]
        else:
            one = security if security.active else None
            secs = [one] * len(announcements)
        fps = [None if s is None else s.fingerprint for s in secs]

        results: List[Optional[RoutingOutcome]] = [None] * len(announcements)
        miss_idx: List[int] = []
        keys: List[Tuple] = []
        for i, announcement in enumerate(announcements):
            key = (compiled.version, canonical_key(announcement), fps[i])
            keys.append(key)
            cached = self.cache.get(key) if use_cache else None
            if cached is not None:
                results[i] = cached
            else:
                miss_idx.append(i)

        if miss_idx:
            aff = [
                (_affinity_key(announcements[i]), fps[i]) for i in miss_idx
            ]
            workers = 0 if not parallel else min(int(parallel), len(miss_idx))
            outcomes: Optional[List[CompiledOutcome]] = None
            if workers > 1:
                outcomes = self._run_parallel_chains(
                    compiled,
                    [announcements[i] for i in miss_idx],
                    [secs[i] for i in miss_idx],
                    [fps[i] for i in miss_idx],
                    _partition_chains(aff, workers),
                )
            if outcomes is not None:
                for pos, outcome in enumerate(outcomes):
                    i = miss_idx[pos]
                    results[i] = outcome
                    if use_cache:
                        self.cache.put(keys[i], outcome)
            else:
                # Serial (or pool-degraded) sweeps chain through delta
                # propagation in affinity order: every miss reuses the
                # previous miss's route table where the regime allows.
                prev: Optional[RoutingOutcome] = None
                [chain] = _partition_chains(aff, 1)
                for pos in chain:
                    i = miss_idx[pos]
                    outcome = self._run_delta(
                        compiled, announcements[i], prev, secs[i], fps[i]
                    )
                    results[i] = outcome
                    if use_cache:
                        self.cache.put(keys[i], outcome)
                    prev = outcome
        return results  # type: ignore[return-value]

    def _run_parallel_chains(
        self,
        compiled: CompiledTopology,
        announcements: Sequence[Announcement],
        secs: Sequence[Optional["CompiledSecurity"]],
        fps: Sequence[Optional[Tuple]],
        chains: List[List[int]],
    ) -> Optional[List[CompiledOutcome]]:
        """Run delta chains in a worker pool; None = degrade to serial.

        Ships the compiled topology plus the *unique* compiled-security
        objects once per worker; each task is one chain of canonical
        spec blobs with a slot index into that security table.  Workers
        return one compact entry per point (a table, or a reference to
        an earlier in-chain table plus a pending plen shift) and their
        per-regime counts, which fold into the engine's delta metrics."""
        import multiprocessing

        all_specs: List[Tuple[SpecT, ...]] = []
        blobs: List[Tuple] = []
        for announcement in announcements:
            specs = _compile_specs(compiled, announcement)  # validates origins
            all_specs.append(specs)
            blobs.append(
                tuple(
                    (spec.asn, spec.export_path(), spec.announce_to)
                    for spec in announcement.origins
                )
            )
        # Dedupe shipped securities: (fingerprint, drop-sets) pins the
        # converge-relevant state, so sweeps under one policy ship each
        # distinct mask table once instead of once per announcement.
        sec_objs: List["CompiledSecurity"] = []
        slot_of: Dict[Tuple, int] = {}
        slots: List[int] = []
        for sec in secs:
            if sec is None:
                slots.append(-1)
                continue
            skey = (
                sec.fingerprint,
                tuple(sorted(
                    (o, tuple(sorted(d))) for o, d in sec.drops.items()
                )),
            )
            slot = slot_of.get(skey)
            if slot is None:
                slot = len(sec_objs)
                sec_objs.append(sec)
                slot_of[skey] = slot
            slots.append(slot)
        payloads = [
            [(blobs[pos], slots[pos]) for pos in chain] for chain in chains
        ]
        ctx: multiprocessing.context.BaseContext
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: pickle the topology
            ctx = multiprocessing.get_context("spawn")
            self._pool_fallbacks.labels("spawn").inc()
        try:
            with ctx.Pool(
                processes=len(payloads),
                initializer=_pool_init,
                initargs=(compiled, sec_objs),
            ) as pool:
                raw = pool.map(_pool_run_chain, payloads)
        except (OSError, PermissionError):
            # Sandboxed/locked-down hosts without working semaphores:
            # degrade to serial delta chaining rather than failing.
            self._pool_fallbacks.labels("serial").inc()
            return None
        outcomes: List[Optional[CompiledOutcome]] = [None] * len(announcements)
        for chain, (entries, counts, saved) in zip(chains, raw):
            chain_outcomes: List[CompiledOutcome] = []
            for pos, entry in zip(chain, entries):
                specs = all_specs[pos]
                spec_paths = tuple(s[1] for s in specs)
                if entry[0] == "table":
                    _tag, kind_b, via_a, root_a, plen_a = entry
                    table = (
                        bytearray(kind_b), via_a.tolist(),
                        root_a.tolist(), plen_a.tolist(),
                    )
                    outcome = CompiledOutcome(
                        self.graph, compiled, table, spec_paths,
                        specs=specs, security_fp=fps[pos],
                    )
                else:
                    _tag2, base_pos, pending = entry
                    base = chain_outcomes[base_pos]
                    outcome = CompiledOutcome(
                        self.graph, compiled,
                        (base._kind, base._via, base._root, base._plen),
                        spec_paths, specs=specs, security_fp=fps[pos],
                        plen_shift=pending,
                    )
                chain_outcomes.append(outcome)
                outcomes[pos] = outcome
            self._delta_unsupported.inc(counts.pop("unsupported"))
            for mode, count in counts.items():
                if count:
                    self._delta_runs.labels(mode).inc(count)
                    self._par_delta_runs.labels(mode).inc(count)
            self._delta_saved.inc(float(saved))
            # noops return the prior table and are not "runs" serially
            self._runs.inc(sum(counts.values()) - counts["noop"])
            self._par_chains.inc()
        return outcomes  # type: ignore[return-value]

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        compiled = self._compiled
        return {
            "graph_version": self.graph.version,
            "compiled_version": None if compiled is None else compiled.version,
            "compile_count": self.compile_count,
            "cache": self.cache.stats(),
            "delta": {
                mode: int(self._delta_runs.labels(mode).value)
                for mode in _DELTA_MODES
            },
            "delta_saved_slots": int(self._delta_saved.value),
            "delta_unsupported": int(self._delta_unsupported.value),
            "parallel": {
                "chains": int(self._par_chains.value),
                "delta": {
                    mode: int(self._par_delta_runs.labels(mode).value)
                    for mode in _DELTA_MODES
                },
                "pool_fallbacks": {
                    kind: int(self._pool_fallbacks.labels(kind).value)
                    for kind in ("spawn", "serial")
                },
            },
        }


def default_parallelism() -> int:
    """Worker count for sweep fan-out (leave one CPU for the driver)."""
    return max(1, (os.cpu_count() or 1) - 1)
