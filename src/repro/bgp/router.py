"""A complete BGP router: sessions + RIB stages + decision + export.

This is the library's Quagga: PEERING servers are built from it, the
MinineXt emulation runs one per PoP, and Figure 2 measures its table
memory.  It implements:

* per-peer Adj-RIB-In (post import policy), Loc-RIB, per-peer Adj-RIB-Out;
* the decision process from :mod:`repro.bgp.decision`;
* eBGP export rules (prepend own ASN, next-hop-self, strip LOCAL_PREF and
  non-local MED), iBGP rules (no iBGP-to-iBGP re-advertisement unless
  acting as an RFC 4456 route reflector), NO_EXPORT/NO_ADVERTISE handling;
* receive-side loop rejection (own ASN in AS_PATH — the mechanism that
  makes AS-path poisoning work);
* ADD-PATH transmit: up to ``add_path_limit`` ranked paths per prefix for
  peers that negotiated it (the BIRD-mode mux in §3);
* optional MRAI batching per peer and max-prefix limits.

Routes travel the way real speakers send them.  Work triggered by one
received UPDATE, one full-table export or one session loss is queued per
peer and flushed once at the end, so NLRI sharing attributes are packed
into UPDATEs of at most 4096 bytes.  On receipt, the checks that depend
only on the attributes run once per UPDATE, and every route from it
shares one :class:`PathAttributes`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..net.addr import IPAddress, Prefix
from ..net.channel import ChannelPair, Endpoint
from ..sim.engine import Engine, Timer
from .attributes import (
    NO_ADVERTISE,
    NO_EXPORT,
    Community,
    Origin,
    PathAttributes,
    ASPath,
)
from .decision import select_best
from .errors import BGPError
from .policy import RouteMap
from .rib import AdjRIBIn, AdjRIBOut, LocRIB, Route
from .session import BGPSession, SessionConfig
from .messages import UpdateMessage, split_routes

__all__ = ["PeerConfig", "BGPRouter", "connect_routers"]


@dataclass
class PeerConfig:
    """Configuration of one neighbor."""

    peer_id: str
    remote_asn: int
    local_address: IPAddress
    import_policy: RouteMap = field(default_factory=lambda: RouteMap.PERMIT_ALL)
    export_policy: RouteMap = field(default_factory=lambda: RouteMap.PERMIT_ALL)
    add_path: bool = False
    add_path_limit: int = 4
    passive: bool = False
    hold_time: int = 90
    mrai: float = 0.0
    max_prefixes: Optional[int] = None
    route_reflector_client: bool = False
    next_hop_self_ibgp: bool = False
    # Resilience knobs, passed through to the session (see SessionConfig).
    auto_reconnect: bool = False
    idle_hold_time: float = 5.0
    idle_hold_max: float = 300.0
    graceful_restart: bool = False
    restart_time: int = 120
    description: str = ""


class _Peer:
    """Runtime state for one neighbor."""

    def __init__(self, config: PeerConfig, session: BGPSession) -> None:
        self.config = config
        self.session = session
        self.adj_in = AdjRIBIn(config.peer_id)
        self.adj_out = AdjRIBOut(config.peer_id)
        self.pending_announce: Dict[Tuple[Prefix, Optional[int]], Route] = {}
        self.pending_withdraw: Set[Tuple[Prefix, Optional[int]]] = set()
        self.mrai_timer: Optional[Timer] = None
        # Set while _flush sends, so a flush re-entered from a delivery
        # leaves what it finds queued to the running one (wire order).
        self.flushing = False
        self.prefix_limit_hit = False
        # RFC 4724: armed when the peer goes down gracefully; flushes the
        # stale-retained routes if the peer does not come back in time.
        self.restart_deadline: Optional[Timer] = None
        self.graceful_downs = 0
        self.stale_flushes = 0
        self._path_ids = itertools.count(1)
        self._assigned_ids: Dict[Tuple[str, Optional[int]], int] = {}

    def path_id_for(self, route: Route) -> int:
        """Stable ADD-PATH id for a (source peer, source path id) route."""
        key = route.key()
        if key not in self._assigned_ids:
            self._assigned_ids[key] = next(self._path_ids)
        return self._assigned_ids[key]


class BGPRouter:
    """A BGP speaker with an arbitrary number of neighbors.

    Hooks:

    * ``on_best_change(prefix, old_route, new_route)`` — Loc-RIB change.
    * ``on_update_received(peer_id, UpdateMessage)`` — raw feed (used by the
      measurement collectors).
    """

    def __init__(
        self,
        engine: Engine,
        asn: int,
        router_id: IPAddress,
        cluster_id: Optional[int] = None,
        always_compare_med: bool = False,
    ) -> None:
        self.engine = engine
        self.asn = asn
        self.router_id = router_id
        self.cluster_id = cluster_id if cluster_id is not None else router_id.value
        self.always_compare_med = always_compare_med
        self.loc_rib = LocRIB()
        self._peers: Dict[str, _Peer] = {}
        self._local_routes: Dict[Prefix, Route] = {}
        self.on_best_change: Optional[
            Callable[[Prefix, Optional[Route], Optional[Route]], None]
        ] = None
        self.on_update_received: Optional[Callable[[str, UpdateMessage], None]] = None
        # Hook for IGP integration: maps a route's next hop to its IGP
        # metric (step 8 of the decision process).  Installed by the
        # emulation layer; None means all metrics are 0.
        self.resolve_igp_metric: Optional[Callable[[IPAddress], int]] = None
        self.rejected_loops = 0
        self.rejected_policy = 0
        # Deferred flush: while a batch is open, peers with queued
        # updates wait here (insertion-ordered) instead of flushing.
        self._batch_depth = 0
        self._dirty: Dict[_Peer, None] = {}

    # -- peer management -----------------------------------------------------

    def add_peer(self, config: PeerConfig, endpoint: Optional[Endpoint]) -> BGPSession:
        """Register a neighbor reachable over ``endpoint``; returns its session.

        ``endpoint`` may be ``None`` when the transport will be supplied
        later through the session's ``transport_factory`` (mux failover,
        fault-injection links).
        """
        if config.peer_id in self._peers:
            raise BGPError(f"duplicate peer id {config.peer_id!r}")
        session = BGPSession(
            self.engine,
            SessionConfig(
                local_asn=self.asn,
                peer_asn=config.remote_asn,
                local_id=self.router_id,
                hold_time=config.hold_time,
                add_path=config.add_path,
                passive=config.passive,
                auto_reconnect=config.auto_reconnect,
                idle_hold_time=config.idle_hold_time,
                idle_hold_max=config.idle_hold_max,
                graceful_restart=config.graceful_restart,
                restart_time=config.restart_time,
                description=config.description or config.peer_id,
            ),
            endpoint,
        )
        peer = _Peer(config, session)
        session.on_update = lambda _s, update: self._handle_update(peer, update)
        session.on_established = lambda _s: self._handle_established(peer)
        session.on_down = lambda _s, reason: self._handle_down(peer, reason)
        session.on_route_refresh = lambda _s: self._full_export(peer)
        self._peers[config.peer_id] = peer
        return session

    def peer(self, peer_id: str) -> _Peer:
        return self._peers[peer_id]

    def peers(self) -> List[str]:
        return list(self._peers)

    def established_peers(self) -> List[str]:
        return [pid for pid, p in self._peers.items() if p.session.established]

    def start(self) -> None:
        """Start every non-passive session."""
        for peer in self._peers.values():
            if not peer.config.passive:
                peer.session.start()

    def remove_peer(self, peer_id: str) -> None:
        peer = self._peers.pop(peer_id, None)
        if peer is None:
            return
        peer.session.stop("peer deconfigured")
        self._flush_peer_routes(peer)

    # -- local origination -----------------------------------------------------

    def originate(
        self,
        prefix: Prefix,
        communities: Iterable[Community] = (),
        med: Optional[int] = None,
        origin: Origin = Origin.IGP,
    ) -> None:
        """Originate ``prefix`` locally (a ``network`` statement)."""
        attributes = PathAttributes(
            origin=origin,
            as_path=ASPath(),
            next_hop=None,
            med=med,
            communities=frozenset(communities),
        )
        route = Route(
            prefix=prefix,
            attributes=attributes,
            peer_id="",
            ebgp=False,
            local=True,
            weight=32768,
            learned_at=self.engine.now,
        )
        self._local_routes[prefix] = route
        self._reselect(prefix)

    def withdraw_local(self, prefix: Prefix) -> None:
        if self._local_routes.pop(prefix, None) is not None:
            self._reselect(prefix)

    def local_prefixes(self) -> List[Prefix]:
        return list(self._local_routes)

    # -- inbound -----------------------------------------------------------------

    def _handle_update(self, peer: _Peer, update: UpdateMessage) -> None:
        if self.on_update_received is not None:
            self.on_update_received(peer.config.peer_id, update)
        if update.is_end_of_rib:
            # RFC 4724: the recovered peer finished re-advertising; any
            # route it did not refresh is gone for real.
            self._flush_stale_routes(peer)
            return
        with self._batch():
            # Insertion-ordered: prefixes are reselected in UPDATE order.
            touched: Dict[Prefix, None] = {}
            for path_id, prefix in update.withdrawn:
                if peer.adj_in.remove(prefix, path_id) is not None:
                    touched[prefix] = None
            if update.attributes is not None and update.nlri:
                self._accept(peer, update.nlri, update.attributes, touched)
            for prefix in touched:
                self._reselect(prefix)

    def _accept(
        self,
        peer: _Peer,
        nlri: Sequence[Tuple[Optional[int], Prefix]],
        attributes: PathAttributes,
        touched: Dict[Prefix, None],
    ) -> None:
        """Validate + apply import policy + install one UPDATE's NLRI into
        Adj-RIB-In, adding every prefix whose Adj-RIB-In changed to
        ``touched``.

        The loop, originator and cluster checks and the eBGP LOCAL_PREF
        strip depend only on the attributes, so they run once; import
        policy and the max-prefix limit run per NLRI, and the counters
        count NLRI.
        """
        adj_in = peer.adj_in
        if attributes.as_path.contains(self.asn):
            self.rejected_loops += len(nlri)
            rejected = True
        else:
            rejected = (
                attributes.originator_id == self.router_id
                or self.cluster_id in attributes.cluster_list
            )
        if rejected:
            for path_id, prefix in nlri:
                if adj_in.remove(prefix, path_id) is not None:
                    touched[prefix] = None
            return
        config = peer.config
        ebgp = config.remote_asn != self.asn
        if ebgp and attributes.local_pref is not None:
            # LOCAL_PREF is not accepted across AS boundaries.
            attributes = replace(attributes, local_pref=None)
        igp_metric = 0
        if self.resolve_igp_metric is not None and attributes.next_hop is not None:
            igp_metric = self.resolve_igp_metric(attributes.next_hop)
        import_policy = config.import_policy
        max_prefixes = config.max_prefixes
        now = self.engine.now
        for path_id, prefix in nlri:
            route = Route(
                prefix=prefix,
                attributes=attributes,
                peer_asn=config.remote_asn,
                peer_id=config.peer_id,
                path_id=path_id,
                ebgp=ebgp,
                igp_metric=igp_metric,
                learned_at=now,
            )
            result = import_policy.apply(route)
            if not result.permitted:
                self.rejected_policy += 1
                if adj_in.remove(prefix, path_id) is not None:
                    touched[prefix] = None
                continue
            if (
                max_prefixes is not None
                and prefix not in adj_in
                and len(adj_in) >= max_prefixes
            ):
                peer.prefix_limit_hit = True
                continue
            adj_in.add(result.route)
            touched[prefix] = None

    def _handle_established(self, peer: _Peer) -> None:
        self._full_export(peer)
        if peer.session.gr_active:
            # End-of-RIB: tells a gracefully-restarted peer it may flush
            # whatever stale routes we did not just re-advertise.
            peer.session.send_end_of_rib()

    def _handle_down(self, peer: _Peer, reason: str) -> None:
        if peer.session.last_down_graceful:
            self._retain_peer_routes(peer)
        else:
            self._flush_peer_routes(peer)

    def _flush_peer_routes(self, peer: _Peer) -> None:
        dropped = peer.adj_in.clear()
        # The peer lost our advertisements too: forget Adj-RIB-Out so the
        # next full export is not suppressed as "already sent".
        peer.adj_out.clear()
        peer.pending_announce.clear()
        peer.pending_withdraw.clear()
        if peer.restart_deadline is not None:
            peer.restart_deadline.stop()
        with self._batch():
            for route in dropped:
                self._reselect(route.prefix)

    def _retain_peer_routes(self, peer: _Peer) -> None:
        """RFC 4724 graceful restart: keep the peer's routes, stale-marked,
        until it re-advertises, sends End-of-RIB, or the deadline passes."""
        peer.graceful_downs += 1
        peer.adj_in.mark_all_stale()
        peer.adj_out.clear()
        peer.pending_announce.clear()
        peer.pending_withdraw.clear()
        deadline = peer.session.peer_restart_time
        if not deadline:
            deadline = peer.session.config.restart_time
        if peer.restart_deadline is None:
            peer.restart_deadline = self.engine.timer(
                deadline,
                lambda: self._flush_stale_routes(peer),
                label=f"gr-deadline:{peer.config.peer_id}",
            )
        peer.restart_deadline.start(deadline)

    def _flush_stale_routes(self, peer: _Peer) -> None:
        if peer.restart_deadline is not None:
            peer.restart_deadline.stop()
        dropped = peer.adj_in.flush_stale()
        if dropped:
            peer.stale_flushes += len(dropped)
        with self._batch():
            for route in dropped:
                self._reselect(route.prefix)

    # -- decision + export ---------------------------------------------------------

    def _candidates(self, prefix: Prefix) -> List[Route]:
        routes: List[Route] = []
        local = self._local_routes.get(prefix)
        if local is not None:
            routes.append(local)
        for peer in self._peers.values():
            routes.extend(peer.adj_in.routes_for(prefix))
        return routes

    def _reselect(self, prefix: Prefix) -> None:
        old = self.loc_rib.best(prefix)
        best, ranked = select_best(
            self._candidates(prefix), always_compare_med=self.always_compare_med
        )
        changed = self.loc_rib.set(prefix, best, ranked)
        if changed and self.on_best_change is not None:
            self.on_best_change(prefix, old, best)
        # ADD-PATH peers see alternates, so their export runs even when
        # only the alternate set changed (a withdrawn alternate needs a
        # withdraw).  Other peers see only the best: while it stands,
        # their Adj-RIB-Out already holds what an export would produce.
        for peer in self._peers.values():
            session = peer.session
            if session.established and (changed or session.add_path_active):
                self._export_prefix(peer, prefix)

    def _exportable(self, peer: _Peer, route: Route) -> Optional[Route]:
        """Apply export rules + policy; None means do not advertise."""
        config = peer.config
        ebgp_peer = config.remote_asn != self.asn
        attributes = route.attributes

        if NO_ADVERTISE in attributes.communities:
            return None
        if not route.local and not route.ebgp and not ebgp_peer:
            # iBGP-learned route to an iBGP peer: only a route reflector
            # may re-advertise, and only per RFC 4456 client rules.
            if not self._may_reflect(peer, route):
                return None
            attributes = attributes.reflected(
                _originator_of(route, self.router_id), self.cluster_id
            )
        if ebgp_peer:
            # NO_EXPORT stops *re-export* of learned routes at the AS edge.
            # A locally-originated route carrying the community is still
            # announced: the originator attached it for downstream ASes to
            # honor (how PEERING clients scope announcements to one peer).
            if NO_EXPORT in attributes.communities and not route.local:
                return None
            # Don't advertise a route back into the AS it came from: the
            # receiver would reject it anyway (loop detection).
            if attributes.as_path.contains(config.remote_asn):
                return None
            attributes = PathAttributes(
                origin=attributes.origin,
                as_path=attributes.as_path.prepend(self.asn),
                next_hop=config.local_address,
                # MED is non-transitive: only the originating neighbor
                # AS's MED crosses one AS boundary.
                med=attributes.med if route.local else None,
                communities=attributes.communities,
                atomic_aggregate=attributes.atomic_aggregate,
                aggregator=attributes.aggregator,
                # LOCAL_PREF and reflection state are iBGP-internal.
            )
        else:
            next_hop = attributes.next_hop
            if route.local or config.next_hop_self_ibgp or next_hop is None:
                next_hop = config.local_address
            local_pref = 100 if attributes.local_pref is None else attributes.local_pref
            if next_hop != attributes.next_hop or local_pref != attributes.local_pref:
                attributes = replace(attributes, next_hop=next_hop, local_pref=local_pref)

        result = config.export_policy.apply(route.with_attributes(attributes))
        return result.route

    def _may_reflect(self, peer: _Peer, route: Route) -> bool:
        """RFC 4456: reflect client routes to everyone, non-client routes
        only to clients."""
        source = self._peers.get(route.peer_id)
        if source is None:
            return False
        if source.config.route_reflector_client:
            return True
        return peer.config.route_reflector_client

    def _export_prefix(self, peer: _Peer, prefix: Prefix) -> None:
        """Bring peer's Adj-RIB-Out for ``prefix`` in sync with Loc-RIB."""
        peer_id = peer.config.peer_id
        desired: Dict[Optional[int], Route] = {}
        if peer.session.add_path_active:
            ranked = [
                r for r in self.loc_rib.candidates(prefix) if r.peer_id != peer_id
            ][: peer.config.add_path_limit]
            for route in ranked:
                exported = self._exportable(peer, route)
                if exported is not None:
                    pid = peer.path_id_for(route)
                    desired[pid] = _advertised(exported, pid)
        else:
            best = self.loc_rib.best(prefix)
            if best is not None and best.peer_id != peer_id:
                exported = self._exportable(peer, best)
                if exported is not None:
                    desired[None] = _advertised(exported, None)

        for pid in peer.adj_out.path_ids(prefix):
            if pid not in desired:
                peer.adj_out.withdraw(prefix, pid)
                self._queue_withdraw(peer, prefix, pid)
        for route in desired.values():
            if peer.adj_out.advertise(route):
                self._queue_announce(peer, route)

    def _full_export(self, peer: _Peer) -> None:
        with self._batch():
            for prefix in list(self.loc_rib.prefixes()):
                self._export_prefix(peer, prefix)

    # -- update transmission (with optional MRAI batching) ----------------------

    def _queue_announce(self, peer: _Peer, route: Route) -> None:
        key = (route.prefix, route.path_id)
        peer.pending_withdraw.discard(key)
        peer.pending_announce[key] = route
        self._maybe_flush(peer)

    def _queue_withdraw(self, peer: _Peer, prefix: Prefix, path_id: Optional[int]) -> None:
        key = (prefix, path_id)
        peer.pending_announce.pop(key, None)
        peer.pending_withdraw.add(key)
        self._maybe_flush(peer)

    def _maybe_flush(self, peer: _Peer) -> None:
        if peer.config.mrai > 0:
            if peer.mrai_timer is None:
                peer.mrai_timer = self.engine.timer(
                    peer.config.mrai,
                    lambda: self._flush(peer),
                    label=f"mrai:{peer.config.peer_id}",
                )
            if not peer.mrai_timer.running:
                peer.mrai_timer.start()
        elif self._batch_depth:
            self._dirty[peer] = None
        else:
            self._flush(peer)

    @contextmanager
    def _batch(self) -> Iterator[None]:
        """Defer flushes until the outermost batch ends, then flush each
        dirty peer once, so its queued routes leave packed."""
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if not self._batch_depth:
                while self._dirty:
                    peer = next(iter(self._dirty))
                    del self._dirty[peer]
                    self._flush(peer)

    def _flush(self, peer: _Peer) -> None:
        if peer.flushing:
            return  # the running flush sends what was queued meanwhile
        peer.flushing = True
        try:
            while peer.pending_withdraw or peer.pending_announce:
                withdrawn, peer.pending_withdraw = peer.pending_withdraw, set()
                announced, peer.pending_announce = peer.pending_announce, {}
                if not self._send_pending(peer, withdrawn, announced):
                    peer.pending_announce.clear()
                    peer.pending_withdraw.clear()
        finally:
            peer.flushing = False

    def _send_pending(
        self,
        peer: _Peer,
        withdrawn: Set[Tuple[Prefix, Optional[int]]],
        announced: Dict[Tuple[Prefix, Optional[int]], Route],
    ) -> bool:
        """Send withdrawals, then announcements grouped by identical
        attributes, each split into UPDATEs that fit 4096 bytes; False if
        the session is (or goes) down first."""
        session = peer.session
        add_path = session.add_path_active

        def entries(
            keys: Iterable[Tuple[Prefix, Optional[int]]]
        ) -> List[Tuple[Optional[int], Prefix]]:
            ordered = sorted(keys, key=lambda k: (k[0].key(), k[1] or 0))
            if add_path:
                return [(pid or 0, prefix) for prefix, pid in ordered]
            return [(None, prefix) for prefix, _ in ordered]

        updates: List[UpdateMessage] = []
        if withdrawn:
            for run in split_routes(entries(withdrawn)):
                updates.append(UpdateMessage(withdrawn=run, add_path=add_path))
        groups: Dict[PathAttributes, List[Tuple[Prefix, Optional[int]]]] = {}
        for key, route in announced.items():
            groups.setdefault(route.attributes, []).append(key)
        for attributes, keys in groups.items():
            for run in split_routes(entries(keys), attributes):
                updates.append(
                    UpdateMessage(nlri=run, attributes=attributes, add_path=add_path)
                )
        for update in updates:
            if not session.established:
                return False
            session.send_update(update)
        return True

    # -- introspection -------------------------------------------------------------

    def table_size(self) -> int:
        return len(self.loc_rib)

    def adj_in_size(self) -> int:
        return sum(len(p.adj_in) for p in self._peers.values())

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        return self.loc_rib.best(prefix)

    def routes_received_from(self, peer_id: str) -> List[Route]:
        return list(self._peers[peer_id].adj_in.routes())

    def routes_sent_to(self, peer_id: str) -> List[Route]:
        return list(self._peers[peer_id].adj_out.routes())


def _originator_of(route: Route, default: IPAddress) -> IPAddress:
    if route.attributes.originator_id is not None:
        return route.attributes.originator_id
    # Best effort: use the route's peer id when it parses as an address.
    try:
        return IPAddress(route.peer_id)
    except Exception:
        return default


def _advertised(exported: Route, path_id: Optional[int]) -> Route:
    """The Adj-RIB-Out entry for a post-policy route: the outgoing path id,
    without receive-side state (IGP metric, staleness, validation)."""
    return Route(
        prefix=exported.prefix,
        attributes=exported.attributes,
        peer_asn=exported.peer_asn,
        peer_id=exported.peer_id,
        path_id=path_id,
        ebgp=exported.ebgp,
        local=exported.local,
        weight=exported.weight,
        learned_at=exported.learned_at,
    )


def connect_routers(
    engine: Engine,
    left: BGPRouter,
    left_config: PeerConfig,
    right: BGPRouter,
    right_config: PeerConfig,
    start: bool = True,
) -> ChannelPair:
    """Wire two routers together with a fresh channel pair and (optionally)
    start the sessions immediately."""
    pair = ChannelPair(f"{left_config.peer_id}<->{right_config.peer_id}")
    left_session = left.add_peer(left_config, pair.a)
    right_session = right.add_peer(right_config, pair.b)
    if start:
        left_session.start()
        right_session.start()
    return pair
