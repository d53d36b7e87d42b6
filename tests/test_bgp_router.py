"""Integration tests for the full BGP router."""

import pytest

from repro.faults import Link
from repro.net.addr import IPAddress, Prefix
from repro.sim import Engine
from repro.bgp.attributes import Community, NO_EXPORT, ASPath, PathAttributes
from repro.bgp.messages import MAX_MESSAGE_LEN, UpdateMessage
from repro.bgp.policy import (
    AsPathFilter,
    MatchConditions,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapTerm,
    SetActions,
)
from repro.bgp.router import BGPRouter, PeerConfig, connect_routers

P1 = Prefix("184.164.224.0/24")
P2 = Prefix("184.164.225.0/24")


def make_router(engine, asn, rid):
    return BGPRouter(engine, asn=asn, router_id=IPAddress(rid))


def ebgp_pair(engine, r1, r2, **kwargs):
    """Connect two routers with default configs (eBGP or iBGP by ASN)."""
    c1 = PeerConfig(
        peer_id=f"to-{r2.router_id}",
        remote_asn=r2.asn,
        local_address=r1.router_id,
        **kwargs,
    )
    c2 = PeerConfig(
        peer_id=f"to-{r1.router_id}",
        remote_asn=r1.asn,
        local_address=r2.router_id,
        **kwargs,
    )
    connect_routers(engine, r1, c1, r2, c2)
    return c1, c2


class TestOrigination:
    def test_originate_and_propagate(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        a.originate(P1)
        best = b.best_route(P1)
        assert best is not None
        assert best.attributes.as_path.asns() == (65001,)
        assert best.attributes.next_hop == IPAddress("10.0.0.1")

    def test_withdraw_propagates(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        a.originate(P1)
        assert b.best_route(P1) is not None
        a.withdraw_local(P1)
        assert b.best_route(P1) is None

    def test_transit_chain(self):
        """Routes propagate A -> B -> C with the path growing."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1)
        best = c.best_route(P1)
        assert best is not None
        assert best.attributes.as_path.asns() == (65002, 65001)
        assert best.attributes.next_hop == IPAddress("10.0.0.2")

    def test_established_peer_gets_existing_table(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        a.originate(P1)
        a.originate(P2)
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        assert b.best_route(P1) is not None and b.best_route(P2) is not None


class TestLoopPrevention:
    def test_own_asn_rejected(self):
        """A route whose path contains our ASN is dropped (poisoning)."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        # Originate with a poisoned path by using export policy prepend of
        # the victim's ASN.
        poisoned = RouteMap(
            [RouteMapTerm("poison", actions=SetActions(prepend=(65003,)))],
        )
        # Rewire: a's export to b poisons AS 65003.
        a.peer("to-10.0.0.2").config.export_policy = poisoned
        a.originate(P1)
        assert b.best_route(P1) is not None
        # b's sender-side loop check suppresses the export entirely, so c
        # never sees the poisoned route.
        assert c.best_route(P1) is None

    def test_no_advertise_back_to_source_as(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        a.originate(P1)
        # b must not advertise the route back to a: a's adj-in from b is empty.
        assert b.best_route(P1) is not None
        assert a.routes_received_from("to-10.0.0.2") == []


class TestCommunities:
    def test_no_export_stops_at_as_boundary(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1, communities=[NO_EXPORT])
        assert b.best_route(P1) is not None
        assert c.best_route(P1) is None

    def test_community_propagates(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        ebgp_pair(engine, a, b)
        tag = Community(65001, 42)
        a.originate(P1, communities=[tag])
        assert tag in b.best_route(P1).attributes.communities


class TestPolicies:
    def test_import_filter(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        deny_p1 = RouteMap(
            [
                RouteMapTerm(
                    "deny",
                    permit=False,
                    match=MatchConditions(
                        prefix_list=PrefixList([PrefixListEntry(P1)])
                    ),
                ),
                RouteMapTerm("rest", permit=True),
            ]
        )
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"))
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), import_policy=deny_p1)
        connect_routers(engine, a, c1, b, c2)
        a.originate(P1)
        a.originate(P2)
        assert b.best_route(P1) is None
        assert b.best_route(P2) is not None
        assert b.rejected_policy >= 1

    def test_export_local_pref_stripped_on_ebgp(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        set_lp = RouteMap([RouteMapTerm("lp", actions=SetActions(local_pref=500))])
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"))
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), import_policy=set_lp)
        connect_routers(engine, a, c1, b, c2)
        a.originate(P1)
        # b imported with LP 500 but c (eBGP from b) must not see it.
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, b, c)
        assert c.best_route(P1).attributes.local_pref is None

    def test_med_not_propagated_beyond_neighbor(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c = make_router(engine, 65003, "10.0.0.3")
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1, med=50)
        assert b.best_route(P1).attributes.med == 50
        assert c.best_route(P1).attributes.med is None


class TestBestPathSelection:
    def test_prefers_shorter_path_across_peers(self):
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        middle = make_router(engine, 65009, "10.0.0.9")
        listener = make_router(engine, 65010, "10.0.0.10")
        ebgp_pair(engine, dest, middle)
        ebgp_pair(engine, dest, listener)
        ebgp_pair(engine, middle, listener)
        dest.originate(P1)
        best = listener.best_route(P1)
        assert best.attributes.as_path.asns() == (65000,)
        # And the alternate (via middle) exists among candidates.
        candidates = listener.loc_rib.candidates(P1)
        assert len(candidates) == 2

    def test_reconverges_on_withdrawal(self):
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        middle = make_router(engine, 65009, "10.0.0.9")
        listener = make_router(engine, 65010, "10.0.0.10")
        ebgp_pair(engine, dest, middle)
        ebgp_pair(engine, dest, listener)
        ebgp_pair(engine, middle, listener)
        dest.originate(P1)
        # Kill the direct session: listener must fall back to the long path.
        listener.peer("to-10.0.0.0").session.stop()
        best = listener.best_route(P1)
        assert best is not None
        assert best.attributes.as_path.asns() == (65009, 65000)


class TestIBGP:
    def test_ibgp_no_transit_without_reflection(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65001, "10.0.0.2")
        c = make_router(engine, 65001, "10.0.0.3")
        # chain a - b - c, all iBGP
        ebgp_pair(engine, a, b)
        ebgp_pair(engine, b, c)
        a.originate(P1)
        assert b.best_route(P1) is not None
        assert c.best_route(P1) is None  # b won't reflect without RR

    def test_route_reflector(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        rr = make_router(engine, 65001, "10.0.0.2")
        c = make_router(engine, 65001, "10.0.0.3")
        connect_routers(
            engine,
            a,
            PeerConfig("to-rr", 65001, IPAddress("10.0.0.1")),
            rr,
            PeerConfig("10.0.0.1", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
        )
        connect_routers(
            engine,
            rr,
            PeerConfig("10.0.0.3", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
            c,
            PeerConfig("to-rr", 65001, IPAddress("10.0.0.3")),
        )
        a.originate(P1)
        best = c.best_route(P1)
        assert best is not None
        assert best.attributes.originator_id is not None
        assert len(best.attributes.cluster_list) == 1
        # iBGP: path stays empty, local pref set.
        assert best.attributes.as_path.asns() == ()
        assert best.attributes.local_pref == 100

    def test_reflection_loop_prevented(self):
        """Two RRs in a cycle must not loop a route forever."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        rr1 = make_router(engine, 65001, "10.0.0.2")
        rr2 = make_router(engine, 65001, "10.0.0.3")
        connect_routers(
            engine,
            a,
            PeerConfig("to-rr1", 65001, IPAddress("10.0.0.1")),
            rr1,
            PeerConfig("10.0.0.1", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
        )
        connect_routers(
            engine,
            rr1,
            PeerConfig("10.0.0.3", 65001, IPAddress("10.0.0.2"), route_reflector_client=True),
            rr2,
            PeerConfig("10.0.0.2", 65001, IPAddress("10.0.0.3"), route_reflector_client=True),
        )
        a.originate(P1)
        engine.run(until=10)
        assert rr2.best_route(P1) is not None


class TestAddPath:
    def test_multiple_paths_advertised(self):
        """An ADD-PATH peer receives alternates, not just the best."""
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        m1 = make_router(engine, 65001, "10.0.0.1")
        m2 = make_router(engine, 65002, "10.0.0.2")
        mux = make_router(engine, 47065, "10.0.0.47")
        client = make_router(engine, 65100, "10.0.1.1")
        ebgp_pair(engine, dest, m1)
        ebgp_pair(engine, dest, m2)
        ebgp_pair(engine, m1, mux)
        ebgp_pair(engine, m2, mux)
        ebgp_pair(engine, mux, client, add_path=True)
        dest.originate(P1)
        routes = client.routes_received_from("to-10.0.0.47")
        paths = {r.attributes.as_path.asns() for r in routes if r.prefix == P1}
        assert (47065, 65001, 65000) in paths
        assert (47065, 65002, 65000) in paths

    def test_add_path_withdrawal(self):
        engine = Engine()
        dest = make_router(engine, 65000, "10.0.0.0")
        m1 = make_router(engine, 65001, "10.0.0.1")
        mux = make_router(engine, 47065, "10.0.0.47")
        client = make_router(engine, 65100, "10.0.1.1")
        ebgp_pair(engine, dest, m1)
        ebgp_pair(engine, m1, mux)
        ebgp_pair(engine, dest, mux)
        ebgp_pair(engine, mux, client, add_path=True)
        dest.originate(P1)
        assert len([r for r in client.routes_received_from("to-10.0.0.47") if r.prefix == P1]) == 2
        dest.withdraw_local(P1)
        assert client.routes_received_from("to-10.0.0.47") == []


class TestMRAI:
    def test_updates_batched(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"), mrai=30.0)
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"))
        connect_routers(engine, a, c1, b, c2)
        a.originate(P1)
        a.originate(P2)
        assert b.best_route(P1) is None  # MRAI holds them back
        engine.run(until=31)
        assert b.best_route(P1) is not None and b.best_route(P2) is not None
        # Both prefixes share attributes -> a single batched UPDATE.
        session = a.peer("to-b").session
        assert session.updates_sent == 1


class TestMaxPrefixes:
    def test_limit_enforced(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        c1 = PeerConfig("to-b", 65002, IPAddress("10.0.0.1"))
        c2 = PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), max_prefixes=2)
        connect_routers(engine, a, c1, b, c2)
        for i in range(5):
            a.originate(Prefix(f"184.164.{224 + i}.0/24"))
        assert len(list(b.peer("to-a").adj_in.routes())) == 2
        assert b.peer("to-a").prefix_limit_hit


def slash24s(count, first="184.0.0.0"):
    base = IPAddress(first)
    return [Prefix(base + (i << 8), 24) for i in range(count)]


def record_wire(pair):
    """Record the size of every message sent from ``pair.a``."""
    sizes = []

    def transit(data, forward):
        sizes.append(len(data))
        forward(data)

    pair.a.transit = transit
    return sizes


class TestPacking:
    def test_full_table_leaves_packed_per_attribute_group(self):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        prefixes = slash24s(300)
        for i, prefix in enumerate(prefixes):
            a.originate(prefix, med=i % 3)
        ebgp_pair(engine, a, b)
        assert b.table_size() == 300
        # One UPDATE per MED group; each NLRI run shares one attribute object.
        assert a.peer("to-10.0.0.2").session.updates_sent == 3
        received = b.routes_received_from("to-10.0.0.1")
        assert len({id(r.attributes) for r in received}) == 3

    @pytest.mark.parametrize("add_path", [False, True])
    def test_mrai_flush_splits_oversize_update(self, add_path):
        """2,000 /24s sharing attributes queue behind MRAI; the flush must
        split them into UPDATEs within the RFC 4271 4096-byte limit."""
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        pair = connect_routers(
            engine,
            a,
            PeerConfig("to-b", 65002, IPAddress("10.0.0.1"), mrai=5.0, add_path=add_path),
            b,
            PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), add_path=add_path),
            start=False,
        )
        sizes = record_wire(pair)
        a.peer("to-b").session.start()
        b.peer("to-a").session.start()
        prefixes = slash24s(2000)
        for prefix in prefixes:
            a.originate(prefix)
        engine.run(until=6)
        assert b.table_size() == 2000
        assert max(sizes) <= MAX_MESSAGE_LEN
        for prefix in prefixes[:1500]:
            a.withdraw_local(prefix)
        engine.run(until=12)
        assert b.table_size() == 500
        assert max(sizes) <= MAX_MESSAGE_LEN
        # 2,000 NLRI + 1,500 withdrawals need at least 2 + 2 UPDATEs.
        assert a.peer("to-b").session.updates_sent >= 4


class TestReceiveCounters:
    """The attribute checks run once per UPDATE; the counters still count
    NLRI."""

    def _pair(self, **b_config):
        engine = Engine()
        a = make_router(engine, 65001, "10.0.0.1")
        b = make_router(engine, 65002, "10.0.0.2")
        connect_routers(
            engine,
            a,
            PeerConfig("to-b", 65002, IPAddress("10.0.0.1")),
            b,
            PeerConfig("to-a", 65001, IPAddress("10.0.0.2"), **b_config),
        )
        return a.peer("to-b").session, b

    @staticmethod
    def _attrs(*path):
        return PathAttributes(as_path=ASPath.from_asns(path), next_hop=IPAddress("10.0.0.1"))

    def test_loop_rejections_count_per_nlri(self):
        session, b = self._pair()
        prefixes = slash24s(10)
        session.send_update(UpdateMessage.announce(prefixes[:4], self._attrs(65001)))
        assert b.table_size() == 4
        # One UPDATE, 10 NLRI, B's own ASN in the path: 10 rejections, and
        # the 4 installed routes are implicitly withdrawn.
        session.send_update(UpdateMessage.announce(prefixes, self._attrs(65001, 65002)))
        assert b.rejected_loops == 10
        assert b.table_size() == 0

    def test_policy_rejections_count_per_nlri(self):
        prefixes = slash24s(10)
        deny = RouteMap(
            [
                RouteMapTerm(
                    "deny",
                    permit=False,
                    match=MatchConditions(
                        prefix_list=PrefixList([PrefixListEntry(p) for p in prefixes[:4]])
                    ),
                ),
                RouteMapTerm("rest", permit=True),
            ]
        )
        session, b = self._pair(import_policy=deny)
        session.send_update(UpdateMessage.announce(prefixes, self._attrs(65001)))
        assert b.rejected_policy == 4
        assert b.table_size() == 6

    def test_prefix_limit_checked_per_nlri(self):
        session, b = self._pair(max_prefixes=8)
        prefixes = slash24s(12)
        session.send_update(UpdateMessage.announce(prefixes[:6], self._attrs(65001)))
        assert not b.peer("to-a").prefix_limit_hit
        session.send_update(UpdateMessage.announce(prefixes[6:], self._attrs(65001)))
        assert b.peer("to-a").prefix_limit_hit
        assert {r.prefix for r in b.routes_received_from("to-a")} == set(prefixes[:8])
        # Replacing an installed prefix is not a new one: still accepted.
        session.send_update(UpdateMessage.announce(prefixes[:2], self._attrs(65001, 65009)))
        assert b.best_route(prefixes[0]).attributes.as_path.asns() == (65001, 65009)


def _one_nlri_per_update(session):
    """Make ``session`` send every UPDATE as one UPDATE per withdrawn
    route and per NLRI, in the same order: the unpacked reference."""
    send = session.send_update

    def send_each(update):
        if update.is_end_of_rib:
            send(update)
            return
        for entry in update.withdrawn:
            send(UpdateMessage(withdrawn=(entry,), add_path=update.add_path))
        for entry in update.nlri:
            send(
                UpdateMessage(
                    nlri=(entry,), attributes=update.attributes, add_path=update.add_path
                )
            )

    session.send_update = send_each


class TestPackedDeliveryEquivalence:
    """Packed delivery leaves every RIB byte-for-byte equal to
    one-NLRI-per-UPDATE delivery of the same updates.

    Topology (AS 65000 is the iBGP core)::

        U1 (65001) -eBGP- C1 -iBGP- RR -iBGP- C2 -eBGP- D (65200, max-prefix 150)
                                    |  |
            U2 (65002, GR link) eBGP   eBGP ADD-PATH X (65100)

    C1 and C2 are route-reflector clients of RR.  U1 and U2 originate
    overlapping tables in mixed (MED, community) groups.
    """

    def _world(self, unpacked):
        engine = Engine(seed=7)
        routers = {
            "u1": make_router(engine, 65001, "10.1.0.1"),
            "u2": make_router(engine, 65002, "10.1.0.2"),
            "c1": make_router(engine, 65000, "10.0.0.1"),
            "rr": make_router(engine, 65000, "10.0.0.100"),
            "c2": make_router(engine, 65000, "10.0.0.2"),
            "x": make_router(engine, 65100, "10.2.0.1"),
            "d": make_router(engine, 65200, "10.3.0.1"),
        }

        def link(left, right, left_extra=None, right_extra=None, graceful=False):
            a, b = routers[left], routers[right]
            extra = {}
            if graceful:
                extra = dict(auto_reconnect=True, idle_hold_time=2.0, graceful_restart=True)
            a_config = PeerConfig(right, b.asn, a.router_id, **{**extra, **(left_extra or {})})
            b_config = PeerConfig(left, a.asn, b.router_id, **{**extra, **(right_extra or {})})
            a_session, b_session = a.add_peer(a_config, None), b.add_peer(b_config, None)
            if unpacked:
                _one_nlri_per_update(a_session)
                _one_nlri_per_update(b_session)
            return Link(engine, a_session, b_session, name=f"{left}-{right}")

        # Per-NLRI policy: RR prefers U2's group-1 routes; D drops a slice.
        prefer = RouteMap(
            [
                RouteMapTerm(
                    "prefer",
                    match=MatchConditions(communities_any=frozenset({Community(65002, 1)})),
                    actions=SetActions(local_pref=200),
                ),
                RouteMapTerm("rest"),
            ]
        )
        drop = RouteMap(
            [
                RouteMapTerm(
                    "drop",
                    permit=False,
                    match=MatchConditions(prefix_list=PrefixList(
                        [PrefixListEntry(p) for p in slash24s(480)[::7]]
                    )),
                ),
                RouteMapTerm("rest"),
            ]
        )
        links = {
            "u1-c1": link("u1", "c1"),
            "c1-rr": link("c1", "rr", right_extra=dict(route_reflector_client=True)),
            "rr-c2": link("rr", "c2", left_extra=dict(route_reflector_client=True)),
            "u2-rr": link(
                "u2", "rr", right_extra=dict(passive=True, import_policy=prefer), graceful=True
            ),
            "rr-x": link(
                "rr", "x", left_extra=dict(add_path=True), right_extra=dict(add_path=True)
            ),
            "c2-d": link("c2", "d", right_extra=dict(max_prefixes=150, import_policy=drop)),
        }
        return engine, routers, links

    @staticmethod
    def _originate(router, prefixes, salt):
        for i, prefix in enumerate(prefixes):
            group = (i * 7 + salt) % 5
            router.originate(
                prefix,
                med=group * 10,
                communities=[Community(router.asn, group)] if group % 2 else [],
            )

    @staticmethod
    def _snapshot(routers):
        def key(route):
            return (route.prefix.key(), route.peer_id, route.path_id or 0)

        out = []
        for name, router in sorted(routers.items()):
            out.append(f"== {name}")
            for prefix in sorted(router.loc_rib.prefixes(), key=Prefix.key):
                out.append(repr(router.best_route(prefix)))
                out.extend("  " + repr(r) for r in router.loc_rib.candidates(prefix))
            for peer_id in sorted(router.peers()):
                peer = router.peer(peer_id)
                out.append(f"-- {peer_id} in (limit hit: {peer.prefix_limit_hit})")
                out.extend(repr(r) for r in sorted(peer.adj_in.routes(), key=key))
                out.append(f"-- {peer_id} out")
                out.extend(repr(r) for r in sorted(peer.adj_out.routes(), key=key))
        return "\n".join(out)

    def _run(self, unpacked):
        engine, routers, links = self._world(unpacked)
        u1_table, u2_table = slash24s(240), slash24s(240, first="184.0.120.0")
        # Tables exist before the sessions come up: full exports, packed.
        self._originate(routers["u1"], u1_table, salt=0)
        self._originate(routers["u2"], u2_table[:120], salt=1)
        for each in links.values():
            each.start()
        engine.run_for(5)
        snapshots = [self._snapshot(routers)]
        # The scenario exercises what it claims to.
        assert routers["d"].peer("c2").prefix_limit_hit
        assert routers["d"].rejected_policy > 0
        assert any(r.attributes.local_pref == 200 for r in routers["rr"].routes_received_from("u2"))
        assert any(r.path_id for r in routers["x"].routes_received_from("rr"))
        assert any(r.attributes.cluster_list for r in routers["c2"].routes_received_from("rr"))
        # Live updates, then churn with changed attributes.
        self._originate(routers["u2"], u2_table[120:], salt=2)
        for prefix in u1_table[::3]:
            routers["u1"].withdraw_local(prefix)
        self._originate(routers["u1"], u1_table[::6], salt=3)
        engine.run_for(5)
        snapshots.append(self._snapshot(routers))
        # Graceful restart of U2's session: stale routes kept, the
        # re-advertised table (some prefixes gone) refreshes them, and
        # End-of-RIB sweeps the rest.
        links["u2-rr"].sever()
        for prefix in u2_table[::4]:
            routers["u2"].withdraw_local(prefix)
        snapshots.append(self._snapshot(routers))
        engine.run_for(30)
        assert links["u2-rr"].established
        snapshots.append(self._snapshot(routers))
        # A plain session loss withdraws a whole table at once.
        links["u1-c1"].cut()
        engine.run_for(5)
        snapshots.append(self._snapshot(routers))
        return routers, snapshots

    @staticmethod
    def _updates_sent(routers):
        return sum(
            router.peer(peer_id).session.updates_sent
            for router in routers.values()
            for peer_id in router.peers()
        )

    def test_ribs_equal_to_one_nlri_per_update(self):
        routers, packed = self._run(unpacked=False)
        unpacked_routers, unpacked = self._run(unpacked=True)
        assert 2 * self._updates_sent(routers) < self._updates_sent(unpacked_routers)
        assert len(packed) == len(unpacked)
        for phase, (got, want) in enumerate(zip(packed, unpacked)):
            assert got == want, f"phase {phase} differs"
        assert routers["rr"].peer("u2").graceful_downs == 1
        assert routers["rr"].peer("u2").stale_flushes > 0


class TestWireConsistency:
    """After convergence, what every router holds as sent to a peer
    (Adj-RIB-Out) is exactly what that peer holds as received from it.

    Random eBGP meshes with ADD-PATH on some sessions: an ADD-PATH peer's
    answer to an UPDATE can make the sender re-export to it while the
    sender is still flushing to it.  These seeds hit that re-entry; the
    re-entered flush must leave its queue to the running one, or an older
    queued announcement overtakes a newer update on the wire.
    """

    @pytest.mark.parametrize("seed", [47, 125, 131, 181, 182, 227])
    def test_adj_rib_out_matches_peer_adj_rib_in(self, seed):
        import random

        rng = random.Random(seed)
        engine = Engine()
        routers = [make_router(engine, 65001 + i, f"10.0.0.{i + 1}") for i in range(5)]
        for i, left in enumerate(routers):
            for j in range(i + 1, len(routers)):
                if rng.random() < 0.8:
                    add_path = rng.random() < 0.5
                    right = routers[j]
                    connect_routers(
                        engine,
                        left,
                        PeerConfig(f"to-{j}", right.asn, left.router_id, add_path=add_path),
                        right,
                        PeerConfig(f"to-{i}", left.asn, right.router_id, add_path=add_path),
                    )
        prefixes = [Prefix(f"184.164.{k}.0/24") for k in range(12)]
        for _ in range(40):
            router, prefix = rng.choice(routers), rng.choice(prefixes)
            if rng.random() < 0.6:
                router.originate(prefix, med=rng.randrange(3))
            else:
                router.withdraw_local(prefix)
        engine.run_for(5)

        def wire_view(routes):
            return sorted((r.prefix.key(), r.path_id or 0, repr(r.attributes)) for r in routes)

        for i, router in enumerate(routers):
            for peer_id in router.peers():
                other = routers[int(peer_id.split("-")[1])]
                sent = router.peer(peer_id).adj_out.routes()
                received = other.peer(f"to-{i}").adj_in.routes()
                assert wire_view(sent) == wire_view(received), (i, peer_id)
