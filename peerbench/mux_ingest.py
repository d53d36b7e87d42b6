"""Workload ``mux_ingest``: the paper's Figure 2 load over real wire
sessions, then seeded churn.

One listener router (the mux) has four upstream eBGP sessions.  Each
upstream originates ``prefixes`` /24s in seeded attribute groups (shared
MED and communities, as in real tables).  The listener exports nothing
(deny-all), as in the Figure 2 measurement.

* Phase 1 (ingest): bring the sessions up until the listener's Loc-RIB
  holds every prefix and its Adj-RIBs-In hold every path; three times,
  each on a freshly built world.
* Phase 2 (churn): rounds that withdraw a seeded sample of prefixes at
  every upstream and re-originate them with changed attributes; each
  round runs until the listener has converged.

Only ``repro.bgp`` (and the simulator and addresses it runs on) is
touched: no engine, anycast or testbed code.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from harness import Run
from layers import LayerProbes

from repro.bgp.attributes import Community
from repro.bgp.decision import select_best
from repro.bgp.policy import RouteMap
from repro.bgp.router import BGPRouter, PeerConfig, connect_routers
from repro.net.addr import IPAddress, Prefix
from repro.sim import Engine

UPSTREAMS = 4
LISTENER_ASN = 65000
REFERENCE_EVERY = 10  # churn rounds between host-speed samples


@dataclass(frozen=True)
class Size:
    prefixes: int = 5000  # per upstream
    groups: int = 64  # attribute groups per upstream
    churn_per_upstream: int = 12  # prefixes withdrawn + re-originated per round
    rounds_per_second: float = 8.0  # churn rounds per --seconds of budget
    sample: int = 200  # prefixes whose best path is re-derived per check
    setups: int = 3


@dataclass
class World:
    engine: Engine
    listener: BGPRouter
    senders: List[BGPRouter]
    prefixes: List[Prefix]
    attrs: List[Dict[Prefix, Tuple[int, Tuple[Community, ...]]]]


def _group_attrs(rng: random.Random, asn: int, groups: int) -> List[Tuple[int, Tuple[Community, ...]]]:
    out = []
    for _ in range(groups):
        med = rng.randrange(0, 1000)
        tags = tuple(
            sorted({Community(asn, rng.randrange(1, 4000)) for _ in range(rng.randint(0, 4))},
                   key=lambda c: c.value)
        )
        out.append((med, tags))
    return out


def build(seed: int, size: Size) -> World:
    """The listener and the upstreams, each upstream's table originated
    locally; no session exists yet."""
    rng = random.Random(seed)
    engine = Engine()
    listener = BGPRouter(engine, asn=LISTENER_ASN, router_id=IPAddress("10.255.0.1"))
    base = IPAddress("10.0.0.0").value
    prefixes = [Prefix(IPAddress(base + (i << 8)), 24) for i in range(size.prefixes)]
    senders = []
    attrs = []
    for i in range(UPSTREAMS):
        sender = BGPRouter(engine, asn=65001 + i, router_id=IPAddress(f"10.254.0.{i + 1}"))
        groups = _group_attrs(rng, sender.asn, size.groups)
        table = {}
        for prefix in prefixes:
            med, tags = groups[rng.randrange(size.groups)]
            table[prefix] = (med, tags)
            sender.originate(prefix, communities=tags, med=med)
        senders.append(sender)
        attrs.append(table)
    return World(engine, listener, senders, prefixes, attrs)


def ingest(world: World) -> None:
    """Bring up the four sessions: each upstream sends its full table
    over the wire; then run the simulator until nothing is pending."""
    deny_all = RouteMap(name="deny-all")  # the listener re-exports nothing
    listener = world.listener
    for i, sender in enumerate(world.senders):
        connect_routers(
            world.engine,
            listener,
            PeerConfig(
                peer_id=f"peer-{i}",
                remote_asn=sender.asn,
                local_address=listener.router_id,
                export_policy=deny_all,
            ),
            sender,
            PeerConfig(peer_id="to-listener", remote_asn=listener.asn, local_address=sender.router_id),
        )
    converge(world)


def converge(world: World) -> None:
    """Run the simulator one sim second: channels deliver synchronously,
    so this only drains events scheduled with no delay (MRAI is off)."""
    world.engine.run_for(1.0)


def check_tables(run: Run, world: World, rng: random.Random, size: Size, when: str) -> None:
    listener = world.listener
    n = len(world.prefixes)
    run.check(listener.table_size() == n, f"{when}: Loc-RIB {listener.table_size()} != {n}")
    run.check(
        listener.adj_in_size() == UPSTREAMS * n,
        f"{when}: Adj-RIB-In {listener.adj_in_size()} != {UPSTREAMS * n}",
    )
    by_peer = {pid: {r.prefix: r for r in listener.routes_received_from(pid)} for pid in listener.peers()}
    for prefix in rng.sample(world.prefixes, min(size.sample, n)):
        candidates = [table[prefix] for table in by_peer.values() if prefix in table]
        best, _ranked = select_best(candidates, always_compare_med=listener.always_compare_med)
        got = listener.best_route(prefix)
        ok = best is not None and got is not None and best.key() == got.key()
        # Attributes learned must be the ones the upstream originated.
        if ok:
            sender = world.senders[int(got.peer_id.split("-")[1])]
            med, tags = world.attrs[world.senders.index(sender)][prefix]
            ok = got.attributes.med == med and set(got.attributes.communities) == set(tags)
        run.check(ok, f"{when}: best path of {prefix}")


def deep_sizeof(obj: Any, seen: set) -> int:
    """Recursive ``sys.getsizeof`` over an object graph, ids deduplicated."""
    stack = [obj]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
        elif hasattr(item, "__slots__"):
            stack.extend(getattr(item, s) for s in item.__slots__ if hasattr(item, s))
    return total


def rib_bytes(listener: BGPRouter) -> int:
    """Adj-RIBs-In, Loc-RIB and Adj-RIBs-Out: Figure 2's quantity."""
    seen: set = set()
    total = deep_sizeof(listener.loc_rib, seen)
    for peer_id in listener.peers():
        peer = listener.peer(peer_id)
        total += deep_sizeof(peer.adj_in, seen) + deep_sizeof(peer.adj_out, seen)
    return total


def churn_round(world: World, rng: random.Random, size: Size) -> int:
    """Withdraw a seeded sample at every upstream, converge, re-originate
    it with fresh attributes, converge.  Returns routes changed."""
    picks = []
    for i, sender in enumerate(world.senders):
        chosen = rng.sample(world.prefixes, size.churn_per_upstream)
        picks.append(chosen)
        for prefix in chosen:
            sender.withdraw_local(prefix)
    converge(world)
    for i, sender in enumerate(world.senders):
        for prefix in picks[i]:
            med = rng.randrange(0, 1000)
            tags = (Community(sender.asn, rng.randrange(1, 4000)),)
            world.attrs[i][prefix] = (med, tags)
            sender.originate(prefix, communities=tags, med=med)
    converge(world)
    return 2 * UPSTREAMS * size.churn_per_upstream


def run(run: Run, seconds: float, size: Size = Size(), tracer: Optional[LayerProbes] = None) -> None:
    rng = random.Random(run.seed * 7919 + 1)
    setup_times = []
    ingest_times = []
    world = None
    measure_start = 0.0
    # Each set-up is followed by its ingest, so the ingest time is a
    # median over three bring-ups spread across the run.
    for i in range(size.setups):
        if tracer is not None and i == size.setups - 1:
            tracer.install()
        world = None  # release the previous world before building the next
        gc.collect()  # ...and its garbage, which is not this set-up's cost
        run.host.sample()
        start = time.perf_counter()
        world = build(run.seed, size)
        setup_times.append(time.perf_counter() - start)
        if tracer is not None and i == size.setups - 1:
            tracer.watch_router(world.listener)
        gc.collect()
        start = time.perf_counter()
        if i == 0:
            measure_start = start
        ingest(world)
        ingest_times.append(time.perf_counter() - start)
        run.host.sample()
        run.op(world.listener.adj_in_size() == UPSTREAMS * size.prefixes, "ingest incomplete")
        check_tables(run, world, rng, size, "ingest")
    assert world is not None

    rounds = max(1, round(size.rounds_per_second * seconds))
    latencies = []
    updates = 0
    for k in range(rounds):
        if k % REFERENCE_EVERY == 0:
            run.host.sample()
        start = time.perf_counter()
        updates += churn_round(world, rng, size)
        latencies.append(time.perf_counter() - start)
        run.op(world.listener.table_size() == len(world.prefixes), "churn round lost routes")
    check_tables(run, world, rng, size, "churn")
    run.measured_seconds = time.perf_counter() - measure_start

    routes = UPSTREAMS * size.prefixes
    ingest_s = statistics.median(ingest_times)
    rib_mb = rib_bytes(world.listener) / 2**20
    run.record("setup_s", statistics.median(setup_times), "s", samples=len(setup_times),
               scale="time")
    run.record("batch_s", ingest_s, "s", samples=len(ingest_times), scale="time")
    run.record("rate_per_s", updates / sum(latencies), "1/s", samples=rounds, scale="rate",
               alias="churn_updates_per_s")
    run.timing("op_p50_ms", latencies, 50.0)
    run.timing("op_p90_ms", latencies, 90.0)
    run.record("ingest_routes_per_s", routes / ingest_s, "1/s", layer="workload", scale="rate")
    run.record("rib_mb", rib_mb, "MB", layer="workload")
    if tracer is not None:
        tracer.rib_mb = rib_mb
