"""Workload ``testbed_ops``: the paper's own path at small scale —
client -> mux safety -> testbed -> propagation engine -> data plane.

``Testbed.build_default`` (4,000 ASes, 9 muxes) with 16 experiments: a
quarter attach over real BIRD-mode BGP sessions, the rest use the
programmatic API.  A FlowSpec distributor on the data plane holds a
discard rule (UDP port 53) for every announced experiment prefix.

Each operation advances the sim clock far enough that the safety damper
and rate limiter admit it, then makes one write — an announce from 1-4
muxes (seeded prepend, poison and peer subset) or a withdraw — timed up
to the return of ``outcome_for`` (so the deferred convergence is charged
to the write), then a read: a burst of probe packets from random ingress
ASes, a fixed share of which match the FlowSpec rules.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from harness import Run
from layers import LayerProbes

from repro.core import Testbed
from repro.core.server import MuxMode
from repro.inet.dataplane import DeliveryStatus
from repro.inet.gen import InternetConfig
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import Packet
from repro.secroute.flowspec import FlowSpecAction, FlowSpecDistributor, FlowSpecRule

EXPERIMENTS = 16
BGP_CLIENTS = 4  # the first quarter attach over BIRD-mode sessions
BGP_MUXES = 4  # muxes each BGP client holds sessions with
# Sim seconds before every write.  Each client writes once per
# EXPERIMENTS operations, 4,800 sim seconds apart: over five damping
# half-lives, so no penalty accumulates, and far past the limiter window.
ADVANCE = 300.0
SETTLE = 5.0  # sim seconds for a BGP client's UPDATEs to reach the mux
MATCH_SHARE = 0.25  # probe packets aimed at the FlowSpec rules
WITHDRAW_SHARE = 0.3
REFERENCE_EVERY = 25  # operations between host-speed samples


@dataclass(frozen=True)
class Size:
    config: InternetConfig = field(default_factory=InternetConfig)
    ops_per_second: float = 35.0  # operations per --seconds of budget
    probes_per_op: int = 64
    setups: int = 3


@dataclass
class Experiment:
    client: Any
    prefix: Prefix
    routers: Dict[str, Any]  # mux -> client router (BGP clients only)
    muxes: Tuple[str, ...]  # muxes announcing now; () = withdrawn
    outcome: Any = None  # converged routes after the last write


@dataclass
class World:
    testbed: Testbed
    experiments: List[Experiment]
    flowspec: FlowSpecDistributor
    ingress: List[int]
    poison_pool: List[int]


def rule_for(prefix: Prefix, asn: int) -> FlowSpecRule:
    return FlowSpecRule(
        dst_prefix=prefix,
        originator=asn,
        action=FlowSpecAction.discard(),
        protos=("udp",),
        dst_ports=((53, 53),),
    )


def build(seed: int, size: Size) -> World:
    """Testbed, experiments, attachments and the FlowSpec distributor."""
    rng = random.Random(seed)
    testbed = Testbed.build_default(size.config)
    muxes = sorted(testbed.servers)
    experiments = []
    for i in range(EXPERIMENTS):
        client = testbed.register_client(f"exp{i:02d}")
        routers = {}
        if i < BGP_CLIENTS:
            for mux in sorted(rng.sample(muxes, BGP_MUXES)):
                routers[mux] = client.attach_bgp(mux, mode=MuxMode.BIRD)
        else:
            for mux in muxes:
                client.attach(mux)
        experiments.append(Experiment(client, client.prefixes[0], routers, ()))
    testbed.engine.run_for(SETTLE)

    def resolve(asn: int, prefix: Prefix) -> Any:
        # Allocations are disjoint /24s, so the best match is the prefix.
        outcome = testbed.outcome_for(prefix)
        route = None if outcome is None else outcome.route(asn)
        return None if route is None else (prefix, route)

    upstreams = sorted({a for s in testbed.servers.values() for a in s.site.upstream_asns})
    # The testbed is the only rule originator, so its churn budget is the
    # whole breaker window: rule churn here is the operator's, not a flood.
    flowspec = FlowSpecDistributor(
        [testbed.asn] + upstreams, resolve, churn_budget=100, churn_window=100.0
    )
    testbed.dataplane.attach_flowspec(flowspec)
    ingress = sorted(a for a in testbed.graph.asns() if a != testbed.asn)
    transits = sorted(n.asn for n in testbed.graph.nodes() if n.kind.value == "transit")
    poison_pool = transits[::max(1, len(transits) // 20)][:20]
    return World(testbed, experiments, flowspec, ingress, poison_pool)


def _choose_muxes(rng: random.Random, exp: Experiment, testbed: Testbed) -> Tuple[str, ...]:
    pool = sorted(exp.routers) if exp.routers else sorted(testbed.servers)
    return tuple(sorted(rng.sample(pool, rng.randint(1, min(4, len(pool))))))


def announce(world: World, exp: Experiment, rng: random.Random) -> bool:
    """Announce ``exp``'s prefix from a fresh seeded mux set.  Returns
    whether every mux admitted it."""
    testbed = world.testbed
    muxes = _choose_muxes(rng, exp, testbed)
    ok = True
    for mux in muxes:
        if exp.routers:
            # No steering communities: the BIRD-mode mux would not retract
            # a community-steered announcement on withdrawal (see README).
            exp.routers[mux].originate(exp.prefix)
            continue
        neighbors = sorted(testbed.servers[mux].neighbor_asns)
        peers = None
        if rng.random() < 0.5:
            peers = rng.sample(neighbors, rng.randint(1, min(4, len(neighbors))))
        decision = exp.client.announce(
            exp.prefix,
            servers=[mux],
            peers=peers,
            prepend=rng.randint(0, 4),
            poison=rng.sample(world.poison_pool, rng.randint(0, 2)),
        )
        ok = ok and all(d.allowed for d in decision.values())
    stale = [m for m in exp.muxes if m not in muxes]
    if stale:
        withdraw_from(world, exp, stale)
    if exp.routers:
        testbed.engine.run_for(SETTLE)
        ok = all(
            exp.prefix in testbed.servers[m].announcements_for(exp.client.client_id)
            for m in muxes
        )
    exp.muxes = muxes
    return ok


def withdraw_from(world: World, exp: Experiment, muxes: List[str]) -> None:
    if exp.routers:
        for mux in muxes:
            exp.routers[mux].withdraw_local(exp.prefix)
        world.testbed.engine.run_for(SETTLE)
    else:
        exp.client.withdraw(exp.prefix, servers=muxes)


def probe(world: World, rng: random.Random, run: Run, count: int) -> Tuple[int, float]:
    """A burst of probes at random experiment prefixes; every delivery
    status must match what the control plane predicts.  Returns the
    packets sent and the seconds spent sending them."""
    testbed = world.testbed
    burst = []
    for _ in range(count):
        exp = rng.choice(world.experiments)
        ingress = rng.choice(world.ingress)
        match = rng.random() < MATCH_SHARE
        packet = Packet(
            src=IPAddress("198.18.0.1"),
            dst=exp.prefix.first_address() + 1 + rng.randrange(250),
            proto="udp" if match else "tcp",
            src_port=rng.randrange(1024, 65535),
            dst_port=53 if match else 80,
        )
        outcome = exp.outcome
        if outcome is None or outcome.route(ingress) is None:
            expected = DeliveryStatus.BLACKHOLE
        elif match:
            expected = DeliveryStatus.FLOWSPEC_DROPPED
        else:
            expected = DeliveryStatus.DELIVERED
        burst.append((ingress, packet, expected))
    start = time.perf_counter()
    deliveries = [testbed.send_from(ingress, packet) for ingress, packet, _ in burst]
    elapsed = time.perf_counter() - start
    for (ingress, packet, expected), delivery in zip(burst, deliveries):
        run.op(
            delivery.status is expected,
            f"probe {packet.dst} from AS{ingress}: {delivery.status.value} != {expected.value}",
        )
    for exp in world.experiments:
        exp.client.received_packets.clear()
    return len(burst), elapsed


def write(world: World, exp: Experiment, rng: random.Random, run: Run) -> Tuple[str, float]:
    """One timed write, ending when ``outcome_for`` has returned and the
    FlowSpec rules agree with the new unicast state."""
    testbed = world.testbed
    withdraw = bool(exp.muxes) and rng.random() < WITHDRAW_SHARE
    start = time.perf_counter()
    if withdraw:
        withdraw_from(world, exp, list(exp.muxes))
        exp.muxes = ()
        exp.outcome = outcome = testbed.outcome_for(exp.prefix)
        world.flowspec.revalidate()
        ok = outcome is None
    else:
        ok = announce(world, exp, rng)
        exp.outcome = outcome = testbed.outcome_for(exp.prefix)
        world.flowspec.revalidate()
        world.flowspec.announce(rule_for(exp.prefix, testbed.asn))
        ok = ok and outcome is not None
    elapsed = time.perf_counter() - start
    run.op(ok, f"{'withdraw' if withdraw else 'announce'} of {exp.prefix} refused or lost")
    if not withdraw:
        run.check(
            rule_for(exp.prefix, testbed.asn) in world.flowspec.rules_at(testbed.asn),
            f"FlowSpec rule for {exp.prefix} not installed at the testbed",
        )
    return ("withdraw" if withdraw else "announce"), elapsed


def bring_up(world: World, rng: random.Random, run: Run) -> None:
    """Announce every experiment once (the batch the workload starts from)."""
    for exp in world.experiments:
        run.op(announce(world, exp, rng), f"bring-up of {exp.prefix} refused")
        exp.outcome = world.testbed.outcome_for(exp.prefix)
        world.flowspec.announce(rule_for(exp.prefix, world.testbed.asn))


def run(run: Run, seconds: float, size: Size = Size(), tracer: Optional[LayerProbes] = None) -> None:
    setup_times = []
    bring_up_times = []
    world = None
    for i in range(size.setups):
        if tracer is not None and i == size.setups - 1:
            tracer.install()
        world = None
        rng = random.Random(run.seed * 15485863 + 5)
        gc.collect()  # the previous world's garbage is not this set-up's cost
        run.host.sample()
        start = time.perf_counter()
        world = build(run.seed, size)
        setup_times.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        bring_up(world, rng, run)
        bring_up_times.append(time.perf_counter() - start)
    assert world is not None
    measure_start = time.perf_counter()
    sampling_before = run.host.spent_s

    order = list(range(EXPERIMENTS))
    rng.shuffle(order)
    ops = max(1, round(size.ops_per_second * seconds))
    announce_times: List[float] = []
    withdraw_times: List[float] = []
    probe_s = 0.0
    packets = 0
    for k in range(ops):
        if k % REFERENCE_EVERY == 0:
            run.host.sample()
        world.testbed.engine.run_for(ADVANCE)
        exp = world.experiments[order[k % EXPERIMENTS]]
        kind, elapsed = write(world, exp, rng, run)
        (announce_times if kind == "announce" else withdraw_times).append(elapsed)
        sent, elapsed = probe(world, rng, run, size.probes_per_op)
        packets += sent
        probe_s += elapsed
    run.measured_seconds = (
        time.perf_counter() - measure_start - (run.host.spent_s - sampling_before)
    )

    run.record("setup_s", statistics.median(setup_times), "s", samples=len(setup_times),
               scale="time")
    run.record("batch_s", run.measured_seconds, "s", samples=ops, scale="time",
               alias="session_s")
    run.record("bring_up_s", statistics.median(bring_up_times), "s", layer="workload",
               samples=len(bring_up_times), scale="time")
    run.record("rate_per_s", packets / probe_s, "1/s", samples=packets, scale="rate",
               alias="probe_packets_per_s")
    run.timing("op_p50_ms", announce_times, 50.0)
    run.timing("op_p90_ms", announce_times, 90.0)
    if withdraw_times:
        run.timing("withdraw_p50_ms", withdraw_times, 50.0, layer="workload")
