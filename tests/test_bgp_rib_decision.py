"""Tests for RIB stages and the decision process."""

from dataclasses import fields

import pytest

from repro.net.addr import IPAddress, Prefix
from repro.bgp.attributes import ASPath, Origin, PathAttributes
from repro.bgp.decision import best_path, select_best
from repro.bgp.rib import AdjRIBIn, AdjRIBOut, LocRIB, Route

P = Prefix("184.164.224.0/24")


def route(
    path=(1,),
    peer="peer-a",
    local_pref=None,
    med=None,
    origin=Origin.IGP,
    ebgp=True,
    weight=0,
    igp_metric=0,
    learned_at=0.0,
    path_id=None,
    local=False,
    prefix=P,
):
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            origin=origin,
            as_path=ASPath.from_asns(path),
            next_hop=IPAddress("10.0.0.1"),
            med=med,
            local_pref=local_pref,
        ),
        peer_asn=path[0] if path else None,
        peer_id=peer,
        path_id=path_id,
        ebgp=ebgp,
        local=local,
        weight=weight,
        igp_metric=igp_metric,
        learned_at=learned_at,
    )


def test_with_attributes_keeps_every_other_field():
    from repro.secroute.rpki import ValidationState

    original = Route(
        prefix=P,
        attributes=PathAttributes(as_path=ASPath.from_asns((1,))),
        peer_asn=1,
        peer_id="peer-a",
        path_id=3,
        ebgp=False,
        local=True,
        weight=5,
        igp_metric=7,
        learned_at=9.0,
        stale=True,
        validation=ValidationState.VALID,
    )
    replacement = PathAttributes(as_path=ASPath.from_asns((2,)))
    copy = original.with_attributes(replacement)
    assert copy.attributes is replacement
    for f in fields(Route):
        if f.name != "attributes":
            assert getattr(copy, f.name) == getattr(original, f.name), f.name


class TestAdjRIBIn:
    def test_add_and_replace(self):
        rib = AdjRIBIn("p")
        assert rib.add(route()) is None
        replaced = rib.add(route(path=(2, 1)))
        assert replaced is not None
        assert len(rib) == 1

    def test_add_path_multiple(self):
        rib = AdjRIBIn("p")
        rib.add(route(path_id=1))
        rib.add(route(path_id=2, path=(2, 1)))
        assert len(rib) == 2
        assert len(rib.routes_for(P)) == 2

    def test_remove(self):
        rib = AdjRIBIn("p")
        rib.add(route())
        assert rib.remove(P) is not None
        assert len(rib) == 0
        assert rib.remove(P) is None

    def test_clear(self):
        rib = AdjRIBIn("p")
        rib.add(route())
        rib.add(route(prefix=Prefix("10.0.0.0/8")))
        dropped = rib.clear()
        assert len(dropped) == 2 and len(rib) == 0


class TestLocRIB:
    def test_set_and_change_detection(self):
        rib = LocRIB()
        r1, r2 = route(), route(path=(2, 1), peer="peer-b")
        assert rib.set(P, r1, [r1, r2]) is True
        assert rib.set(P, r1, [r1, r2]) is False  # same best
        assert rib.set(P, r2, [r2, r1]) is True
        assert rib.best(P) == r2
        assert rib.candidates(P) == [r2, r1]

    def test_remove_via_none(self):
        rib = LocRIB()
        r = route()
        rib.set(P, r, [r])
        assert rib.set(P, None, []) is True
        assert rib.best(P) is None
        assert P not in rib


class TestAdjRIBOut:
    def test_duplicate_suppression(self):
        rib = AdjRIBOut("p")
        r = route()
        assert rib.advertise(r) is True
        assert rib.advertise(r) is False  # identical: no update needed
        assert rib.advertise(route(path=(2, 1))) is True

    def test_withdraw(self):
        rib = AdjRIBOut("p")
        rib.advertise(route())
        assert rib.withdraw(P) is not None
        assert P not in rib


class TestDecisionLadder:
    def test_weight_wins(self):
        lo, hi = route(weight=0), route(weight=100, peer="peer-b", path=(1, 2, 3))
        assert best_path([lo, hi])[0] is hi

    def test_local_pref_wins(self):
        lo = route(local_pref=100)
        hi = route(local_pref=200, peer="peer-b", path=(1, 2, 3))
        assert best_path([lo, hi])[0] is hi

    def test_default_local_pref_is_100(self):
        unset = route()  # defaults to 100
        lower = route(local_pref=99, peer="peer-b")
        assert best_path([unset, lower])[0] is unset

    def test_local_route_beats_learned(self):
        learned = route()
        local = route(local=True, peer="", ebgp=False, path=())
        # both weight 0 and same local-pref: local origination wins
        assert best_path([learned, local])[0] is local

    def test_shorter_path_wins(self):
        short = route(path=(1,))
        long = route(path=(2, 1), peer="peer-b")
        assert best_path([short, long])[0] is short

    def test_origin_tiebreak(self):
        igp = route(origin=Origin.IGP)
        egp = route(origin=Origin.EGP, peer="peer-b")
        inc = route(origin=Origin.INCOMPLETE, peer="peer-c")
        assert best_path([inc, egp, igp])[0] is igp

    def test_med_same_neighbor_only(self):
        a = route(path=(7, 1), med=10)
        b = route(path=(7, 2), med=5, peer="peer-b")
        assert best_path([a, b])[0] is b  # same neighbor AS 7: lower MED
        c = route(path=(8, 2), med=50, peer="peer-c")
        # Different neighbor AS: MED not compared; falls to later tiebreaks
        ranked = best_path([a, c])
        assert ranked[0].peer_id == "peer-a"  # peer-id tiebreak, not MED

    def test_always_compare_med(self):
        a = route(path=(7, 1), med=10)
        c = route(path=(8, 2), med=5, peer="peer-z")
        assert best_path([a, c], always_compare_med=True)[0] is c

    def test_med_intransitivity_is_order_insensitive(self):
        # The classic deterministic-MED triple: a beats b on MED (same
        # neighbor), but c interleaves on a MED-blind tiebreak.  A naive
        # comparison sort ranks these differently depending on input
        # order; the grouped ranking must not.
        a = route(path=(7, 1), med=5, learned_at=1.0)
        b = route(path=(7, 2), med=50, peer="peer-b", learned_at=0.0)
        c = route(path=(8, 3), med=0, peer="peer-c", learned_at=0.5)
        triple = [a, b, c]
        expected = best_path(triple)
        assert best_path(list(reversed(triple))) == expected
        assert best_path([b, a, c]) == expected
        assert best_path([c, a, b]) == expected
        # Same-neighbor MED still decides within the group.
        assert expected.index(a) < expected.index(b)

    def test_ebgp_over_ibgp(self):
        e = route(ebgp=True)
        i = route(ebgp=False, peer="peer-b")
        assert best_path([i, e])[0] is e

    def test_igp_metric(self):
        near = route(ebgp=False, igp_metric=5)
        far = route(ebgp=False, igp_metric=50, peer="peer-b")
        assert best_path([far, near])[0] is near

    def test_oldest_wins(self):
        old = route(learned_at=1.0)
        new = route(learned_at=2.0, peer="peer-b")
        assert best_path([new, old])[0] is old

    def test_peer_id_tiebreak(self):
        a = route(peer="10.0.0.1")
        b = route(peer="10.0.0.2")
        assert best_path([b, a])[0] is a

    def test_empty(self):
        best, ranked = select_best([])
        assert best is None and ranked == []

    def test_deterministic_total_order(self):
        routes = [
            route(peer=f"peer-{i}", path=tuple(range(1, 2 + i % 3)), med=i % 4)
            for i in range(8)
        ]
        ranked1 = best_path(routes)
        ranked2 = best_path(list(reversed(routes)))
        assert ranked1 == ranked2
