"""Delta propagation: incremental convergence must be indistinguishable
from full re-convergence.

The load-bearing guarantee is *route-for-route identity* between
``PropagationEngine.propagate_delta`` chains and the reference
:func:`repro.inet.routing.propagate` across random announcement-change
sequences — withdrawals, prepend/poison/announce-to changes, origin
additions — with and without active :mod:`repro.secroute` policies.
Regimes (noop / shift / cone / fallback) are exercised explicitly, and
the version-bucketed :class:`OutcomeCache` bookkeeping is checked at the
structure level.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.inet.engine as engine_mod
from repro.inet.engine import OutcomeCache, PropagationEngine
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import (
    Announcement,
    OriginSpec,
    propagate,
    propagate_sequence,
)
from repro.inet.topology import ASGraph, ASNode
from repro.net.addr import Prefix
from repro.secroute import Roa, RoaRegistry, RovMode, SecurityPolicy

V20 = Prefix("198.18.0.0/20")


def graph_from_edges(c2p=(), p2p=()):
    g = ASGraph()
    asns = {a for e in list(c2p) + list(p2p) for a in e}
    for asn in sorted(asns):
        g.add_as(ASNode(asn=asn))
    for customer, provider in c2p:
        g.add_provider(customer, provider)
    for a, b in p2p:
        g.add_peering(a, b)
    return g


def mutate_announcement(announcement, graph, rng):
    """One steering-sweep step: a related announcement differing from the
    previous one the way real experiments differ — tweak one spec's
    prepend/poison/announce-to, add an origin, withdraw one, or repeat
    the announcement verbatim (a no-op re-announce)."""
    asns = sorted(graph.asns())
    origins = list(announcement.origins)
    op = rng.choice(
        ["noop", "prepend", "poison", "announce_to", "add", "drop", "prepend"]
    )
    if op == "prepend" and origins:
        i = rng.randrange(len(origins))
        s = origins[i]
        origins[i] = OriginSpec(
            asn=s.asn,
            prepend=rng.randint(0, 4),
            poison=s.poison,
            announce_to=s.announce_to,
        )
    elif op == "poison" and origins:
        i = rng.randrange(len(origins))
        s = origins[i]
        origins[i] = OriginSpec(
            asn=s.asn,
            prepend=s.prepend,
            poison=tuple(rng.sample(asns, rng.randint(0, 2))),
            announce_to=s.announce_to,
        )
    elif op == "announce_to" and origins:
        i = rng.randrange(len(origins))
        s = origins[i]
        neighbors = sorted(graph.neighbors(s.asn))
        announce_to = None
        if neighbors and rng.random() < 0.7:
            announce_to = tuple(
                rng.sample(neighbors, rng.randint(0, min(4, len(neighbors))))
            )
        origins[i] = OriginSpec(
            asn=s.asn, prepend=s.prepend, poison=s.poison, announce_to=announce_to
        )
    elif op == "add" and len(origins) < 4:
        origins.append(OriginSpec(asn=rng.choice(asns)))
    elif op == "drop" and len(origins) > 1:
        origins.pop(rng.randrange(len(origins)))
    return Announcement(origins=tuple(origins), prefix=announcement.prefix)


def assert_same_routes(reference, outcome):
    assert dict(reference.items()) == dict(outcome.items())


class _wide_cone:
    """Temporarily lift the cone-size bail so delta chains exercise the
    cone machinery even when a change's catchment is large relative to
    these (small) test graphs."""

    def __enter__(self):
        self._saved = engine_mod._CONE_BAIL_DEN
        engine_mod._CONE_BAIL_DEN = 1_000_000
        return self

    def __exit__(self, *exc):
        engine_mod._CONE_BAIL_DEN = self._saved
        return False


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_delta_chain_matches_reference(seed):
    """Seeded random internet x random change sequence: every chained
    delta outcome is route-for-route identical to a fresh full run."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=80, seed=seed)).graph
    engine = PropagationEngine(graph)
    announcement = Announcement.single(rng.choice(sorted(graph.asns())))
    announcements = [announcement]
    with _wide_cone():
        prev = engine.propagate(announcement, use_cache=False)
        assert_same_routes(propagate(graph, announcement), prev)
        for _ in range(6):
            announcement = mutate_announcement(announcement, graph, rng)
            announcements.append(announcement)
            prev = engine.propagate_delta(prev, announcement, use_cache=False)
            assert_same_routes(propagate(graph, announcement), prev)
    # The end state equals the reference sequence helper's end state.
    references = propagate_sequence(graph, announcements)
    assert_same_routes(references[-1], prev)
    # The chain actually took incremental paths, not just fallbacks.
    modes = engine.stats()["delta"]
    assert sum(modes.values()) == len(announcements) - 1


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_delta_chain_matches_reference_secured(seed):
    """Same identity under active RPKI ROV and Peerlock policies: the
    security fingerprint keys table reuse, and mask reconstruction for
    surviving entries must reproduce the reference filters exactly."""
    rng = random.Random(seed)
    graph = build_internet(InternetConfig(n_ases=70, seed=seed)).graph
    asns = sorted(graph.asns())
    victim = rng.choice(sorted(graph.stub_asns()) or asns)
    policy = SecurityPolicy(roas=RoaRegistry((Roa(V20, victim),)))
    policy.deploy_rov(
        rng.sample(asns, rng.randint(1, len(asns) // 2)),
        rng.choice([RovMode.DROP_INVALID, RovMode.DEPREFER_INVALID]),
    )
    clique = sorted(graph.tier1_clique())
    if clique and rng.random() < 0.7:
        policy.lock_clique(rng.sample(clique, rng.randint(1, len(clique))))
    attacker = rng.choice([a for a in asns if a != victim])
    announcement = Announcement(
        origins=(OriginSpec(asn=victim), OriginSpec(asn=attacker)), prefix=V20
    )
    engine = PropagationEngine(graph)
    with _wide_cone():
        prev = engine.propagate(
            announcement, use_cache=False, security=policy.compile_for(announcement)
        )
        for _ in range(5):
            announcement = mutate_announcement(announcement, graph, rng)
            prev = engine.propagate_delta(
                prev, announcement, use_cache=False, security=policy
            )
            reference = propagate(
                graph, announcement, security=policy.compile_for(announcement)
            )
            assert_same_routes(reference, prev)


class TestDeltaRegimes:
    @pytest.fixture
    def hierarchy(self):
        return graph_from_edges(
            c2p=[(3, 1), (4, 2), (5, 3), (6, 4), (7, 5), (8, 5)],
            p2p=[(1, 2), (3, 4)],
        )

    def test_noop_returns_previous_outcome(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        again = engine.propagate_delta(
            base, Announcement.single(7), use_cache=False
        )
        assert again is base
        assert engine.stats()["delta"]["noop"] == 1

    def test_shift_shares_table_arrays(self, hierarchy):
        """A pure prepend change must not copy any table array: kind,
        via, root, and plen are shared; the plen shift stays pending."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        shifted = engine.propagate_delta(
            base, Announcement.single(7, prepend=2), use_cache=False
        )
        assert shifted._kind is base._kind
        assert shifted._via is base._via
        assert shifted._plen is base._plen
        assert shifted._plen_shift == 2
        assert engine.stats()["delta"]["shift"] == 1
        assert_same_routes(
            propagate(hierarchy, Announcement.single(7, prepend=2)), shifted
        )

    def test_shift_materializes_plen_for_later_delta(self, hierarchy):
        """Chaining past a shift outcome must see real plen values: the
        pending shift materializes (without mutating the shared array)
        and the chained outcome still matches a fresh full run."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        shifted = engine.propagate_delta(
            base, Announcement.single(7, prepend=3), use_cache=False
        )
        follow = Announcement(
            origins=(OriginSpec(asn=7, prepend=3), OriginSpec(asn=8))
        )
        with _wide_cone():
            chained = engine.propagate_delta(shifted, follow, use_cache=False)
        assert shifted._plen_shift == 0  # materialized exactly once
        assert shifted._plen is not base._plen
        assert base._plen_shift == 0  # the original was never touched
        full = propagate(hierarchy, follow)
        assert_same_routes(full, chained)
        eager = engine.propagate(follow, use_cache=False)
        selected = [
            (k, v, r, p)
            for k, v, r, p in zip(
                chained._kind, chained._via, chained._root,
                chained._table()[3],
            )
            if k
        ]
        eager_sel = [
            (k, v, r, p)
            for k, v, r, p in zip(
                eager._kind, eager._via, eager._root, eager._table()[3]
            )
            if k
        ]
        assert selected == eager_sel

    def test_cone_engages_on_small_catchment(self, hierarchy):
        """Changing one spec of a multi-origin announcement while the
        other survives goes through the cone path (withdraw + boundary
        re-seed), not a full run."""
        engine = PropagationEngine(hierarchy)
        base_ann = Announcement(
            origins=(OriginSpec(asn=7), OriginSpec(asn=8, prepend=1))
        )
        base = engine.propagate(base_ann, use_cache=False)
        new_ann = Announcement(
            origins=(OriginSpec(asn=7), OriginSpec(asn=8, prepend=1, poison=(4,)))
        )
        with _wide_cone():
            out = engine.propagate_delta(base, new_ann, use_cache=False)
        assert engine.stats()["delta"]["cone"] == 1
        assert_same_routes(propagate(hierarchy, new_ann), out)

    def test_withdrawal_via_delta(self, hierarchy):
        """Dropping an origin (withdrawal) through the delta path clears
        exactly its cone."""
        engine = PropagationEngine(hierarchy)
        both = Announcement(origins=(OriginSpec(asn=7), OriginSpec(asn=8)))
        base = engine.propagate(both, use_cache=False)
        only7 = Announcement(origins=(OriginSpec(asn=7),))
        with _wide_cone():
            out = engine.propagate_delta(base, only7, use_cache=False)
        assert_same_routes(propagate(hierarchy, only7), out)

    def test_single_spec_content_change_falls_back(self, hierarchy):
        """A poison change on a single-origin announcement leaves no
        stable spec — the engine must fall back to a full run and still
        be correct."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        new_ann = Announcement.single(7, poison=(4,))
        out = engine.propagate_delta(base, new_ann, use_cache=False)
        assert engine.stats()["delta"]["fallback"] == 1
        assert_same_routes(propagate(hierarchy, new_ann), out)

    def test_cone_bails_to_full_when_region_is_large(self, hierarchy):
        """At the default threshold a dirty cone spanning most of this
        8-AS graph is not attempted incrementally."""
        engine = PropagationEngine(hierarchy)
        both = Announcement(origins=(OriginSpec(asn=1), OriginSpec(asn=3)))
        base = engine.propagate(both, use_cache=False)
        moved = Announcement(origins=(OriginSpec(asn=1), OriginSpec(asn=2)))
        out = engine.propagate_delta(base, moved, use_cache=False)
        assert engine.stats()["delta"]["fallback"] == 1
        assert_same_routes(propagate(hierarchy, moved), out)

    def test_fallback_causes_counted_apart(self, hierarchy):
        """Both fallback causes count as `fallback`; only the
        exact-semantics corner counts as `delta_unsupported` (and in
        its own metric), so a size bail is never mistaken for one."""
        engine = PropagationEngine(hierarchy)
        # Cone too large for the default bail: fallback, not unsupported.
        both = Announcement(origins=(OriginSpec(asn=1), OriginSpec(asn=3)))
        moved = Announcement(origins=(OriginSpec(asn=1), OriginSpec(asn=2)))
        base = engine.propagate(both, use_cache=False)
        engine.propagate_delta(base, moved, use_cache=False)
        stats = engine.stats()
        assert stats["delta"]["fallback"] == 1
        assert stats["delta_unsupported"] == 0
        # A new spec of AS7 ties the surviving one at AS5 with an equal
        # (plen, via) key: the reference breaks that tie on export-path
        # content, so the delta gives up.
        old = Announcement(
            origins=(OriginSpec(asn=7), OriginSpec(asn=7, prepend=1))
        )
        tie = Announcement(
            origins=(OriginSpec(asn=7), OriginSpec(asn=7, announce_to=(5,)))
        )
        base = engine.propagate(old, use_cache=False)
        with _wide_cone():
            out = engine.propagate_delta(base, tie, use_cache=False)
        assert_same_routes(propagate(hierarchy, tie), out)
        stats = engine.stats()
        assert stats["delta"]["fallback"] == 2
        assert stats["delta_unsupported"] == 1
        counter = engine.metrics.get("peering_propagation_delta_unsupported_total")
        assert counter.labels().value == 1

    def test_stale_prev_outcome_degrades_to_full(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        hierarchy.add_peering(2, 3)  # bump the graph version
        out = engine.propagate_delta(
            base, Announcement.single(7, prepend=1), use_cache=False
        )
        assert engine.stats()["delta"]["full"] == 1
        assert_same_routes(
            propagate(hierarchy, Announcement.single(7, prepend=1)), out
        )

    def test_none_prev_outcome_is_full_run(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        out = engine.propagate_delta(
            None, Announcement.single(7), use_cache=False
        )
        assert engine.stats()["delta"]["full"] == 1
        assert_same_routes(propagate(hierarchy, Announcement.single(7)), out)

    def test_security_fingerprint_gates_reuse(self, hierarchy):
        """An unsecured previous outcome must not seed a secured delta
        (and vice versa): the fingerprints differ, so it runs full."""
        engine = PropagationEngine(hierarchy)
        ann = Announcement.single(7, prefix=V20)
        policy = SecurityPolicy(roas=RoaRegistry((Roa(V20, 5),))).deploy_rov(
            [3], RovMode.DROP_INVALID
        )
        plain = engine.propagate(ann, use_cache=False)
        secured = engine.propagate_delta(
            plain,
            Announcement.single(7, prefix=V20, prepend=1),
            use_cache=False,
            security=policy,
        )
        assert engine.stats()["delta"]["full"] == 1
        reference = propagate(
            hierarchy,
            Announcement.single(7, prefix=V20, prepend=1),
            security=policy.compile_for(ann),
        )
        assert_same_routes(reference, secured)

    def test_delta_results_enter_the_shared_cache(self, hierarchy):
        """propagate_delta uses propagate's exact cache key, so a delta
        result satisfies a later full-propagate lookup."""
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7))
        shifted_ann = Announcement.single(7, prepend=2)
        shifted = engine.propagate_delta(base, shifted_ann)
        assert engine.propagate(shifted_ann) is shifted
        assert engine.cache.hits >= 1

    def test_sweep_chains_deltas_serially(self, hierarchy):
        """propagate_many routes consecutive specs through the delta path
        automatically: a prepend sweep is all shifts after the first."""
        engine = PropagationEngine(hierarchy)
        sweep = [Announcement.single(7, prepend=p) for p in range(6)]
        outcomes = engine.propagate_many(sweep, parallel=False)
        modes = engine.stats()["delta"]
        assert modes["shift"] == 5
        for announcement, outcome in zip(sweep, outcomes):
            assert_same_routes(propagate(hierarchy, announcement), outcome)

    def test_delta_saved_slots_reported(self, hierarchy):
        engine = PropagationEngine(hierarchy)
        base = engine.propagate(Announcement.single(7), use_cache=False)
        engine.propagate_delta(
            base, Announcement.single(7, prepend=1), use_cache=False
        )
        stats = engine.stats()
        assert stats["delta_saved_slots"] >= len(hierarchy) - 1


class TestOutcomeCacheVersionBuckets:
    def test_prune_version_drops_only_stale_versions(self):
        cache = OutcomeCache(maxsize=10)
        marker = object()
        cache.put((1, "a"), marker)
        cache.put((1, "b"), marker)
        cache.put((2, "c"), marker)
        cache.prune_version(2)
        assert set(cache._data) == {(2, "c")}
        assert set(cache._by_version) == {2}

    def test_buckets_key_on_first_component_generically(self):
        cache = OutcomeCache(maxsize=10)
        marker = object()
        cache.put((("v", 1), "a"), marker)
        cache.put((("v", 2), "b"), marker)
        cache.prune_version(("v", 2))
        assert set(cache._data) == {(("v", 2), "b")}

    def test_eviction_keeps_buckets_consistent(self):
        cache = OutcomeCache(maxsize=2)
        marker = object()
        cache.put((1, "a"), marker)
        cache.put((2, "b"), marker)
        cache.put((2, "c"), marker)  # evicts (1, "a"), emptying bucket 1
        assert set(cache._data) == {(2, "b"), (2, "c")}
        assert set(cache._by_version) == {2}
        assert cache._by_version[2] == {(2, "b"), (2, "c")}
        assert cache.evictions == 1

    def test_reput_same_key_does_not_duplicate(self):
        cache = OutcomeCache(maxsize=10)
        marker = object()
        cache.put((1, "a"), marker)
        cache.put((1, "a"), marker)
        assert len(cache) == 1
        assert cache._by_version[1] == {(1, "a")}

    def test_clear_resets_buckets(self):
        cache = OutcomeCache(maxsize=10)
        cache.put((1, "a"), object())
        cache.clear()
        assert len(cache) == 0
        assert cache._by_version == {}

    def test_prune_after_eviction_of_last_version_entry(self):
        cache = OutcomeCache(maxsize=1)
        cache.put((1, "a"), object())
        cache.put((2, "b"), object())  # evicts version 1 entirely
        cache.prune_version(2)  # must not KeyError on the gone bucket
        assert set(cache._data) == {(2, "b")}
