"""Workload ``whatif_50k``: anycast catchment and hijack what-ifs at
Internet scale.

A CAIDA-calibrated 50k-AS graph, a Zipf client population (1.2M clients
over 20k ASes) and a 3-site anycast service with 3 transit uplinks per
site.  One run has four parts:

1. a seeded random walk of steering steps (prepend 0-4, poison, uplink
   subset, fail/restore keeping two sites live), each changing the
   announcement and followed by an uncached converge and
   ``CatchmentMap.compute``;
2. ``CatchmentMap.compute_many`` over 8 prepend variants of the default
   steering, uncached, five times spread over the walk;
3. one ``TrafficEngineer.rebalance`` toward skewed targets, run twice on
   fresh engines (the two reports must be byte-identical);
4. one ``run_campaign(rates=(0, .5, 1), trials=1)`` on the same graph.

Only ``repro.inet``, ``repro.anycast`` and ``repro.secroute`` run here:
no wire BGP.  Every call uses default (serial) arguments.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from harness import Run
from layers import LayerProbes

from repro.anycast import (
    AnycastService,
    AnycastSite,
    CatchmentMap,
    EngineerConfig,
    SiteSteering,
    TrafficEngineer,
)
from repro.inet.engine import PropagationEngine
from repro.inet.gen import build_caida_like
from repro.inet.topology import ASKind
from repro.secroute.campaign import CampaignConfig, run_campaign
from repro.workloads import zipf_clients

SITES = 3
UPLINKS = 3
TARGET_SKEW = (0.5, 0.3, 0.2)
WORLD_SEED = 5
# The walk keeps two sites live: with one, every announcement is
# single-spec and converges an order of magnitude faster, and how long a
# seed's walk stays there would decide the median step time.
MIN_LIVE_SITES = 2
REFERENCE_EVERY = 5  # walk steps between host-speed samples


@dataclass(frozen=True)
class Size:
    ases: int = 50_000
    pop_ases: int = 20_000
    clients: int = 1_200_000
    steps_per_second: float = 3.5  # walk steps per --seconds of budget
    sweep_variants: int = 8
    sweeps: int = 5  # sweeps spread over the walk
    reference_every: int = 25  # walk steps between reference-map checks
    engineer_iterations: int = 6
    campaign_rates: Tuple[float, ...] = (0.0, 0.5, 1.0)
    setups: int = 3


@dataclass
class World:
    graph: Any
    sites: List[AnycastSite]
    service: AnycastService
    population: Any
    poison_pool: List[int]


def build(size: Size) -> World:
    """Graph, service, population, and the first catchment (which
    compiles the topology).  The world — graph, population, sites — is
    fixed and the seed draws only the steering walk, so every seed costs
    the same kind of work."""
    graph = build_caida_like(size.ases).graph
    transits = sorted(
        (n for n in graph.nodes() if n.kind == ASKind.TRANSIT),
        key=lambda n: (-n.prefix_count, n.asn),
    )
    picks = [n.asn for n in transits[: SITES * UPLINKS]]
    sites = [
        AnycastSite(name=f"site{i:02d}", transits=tuple(picks[i * UPLINKS:(i + 1) * UPLINKS]))
        for i in range(SITES)
    ]
    service = AnycastService.deploy(graph, sites)
    population = zipf_clients(graph, ases=size.pop_ases, clients=size.clients, seed=WORLD_SEED)
    poison_pool = [n.asn for n in transits[SITES * UPLINKS: SITES * UPLINKS + 24]]
    CatchmentMap.compute(service, population)
    return World(graph, sites, service, population, poison_pool)


def steer(world: World, rng: random.Random) -> str:
    """Apply one seeded steering change that alters the announcement;
    returns its kind.  Draws that would leave the announcement as it was
    (the same prepend, poison set or uplinks) are redrawn."""
    service = world.service
    before = service.announcement()
    while True:
        kind = _steer_once(world, rng)
        if service.announcement() != before:
            return kind


def _steer_once(world: World, rng: random.Random) -> str:
    service = world.service
    kind = rng.choice(("prepend", "prepend", "poison", "uplinks", "fail"))
    if kind == "fail":
        site = rng.choice(world.sites)
        if site.name in service.down_sites():
            service.restore_site(site.name)
            return "restore"
        if len(service.active_site_names()) > MIN_LIVE_SITES:
            service.fail_site(site.name)
            return "fail"
        # At the floor of live sites (the service itself refuses to fail
        # the last one): restore a failed site instead.
        service.restore_site(rng.choice(service.down_sites()))
        return "restore"
    name = rng.choice(service.active_site_names())
    site = service.site(name)
    if kind == "prepend":
        service.adjust(name, prepend=rng.randint(0, 4))
    elif kind == "poison":
        count = rng.randint(0, 2)
        service.adjust(name, poison=tuple(sorted(rng.sample(world.poison_pool, count))))
    else:
        k = rng.randint(1, len(site.uplinks))
        chosen = tuple(sorted(rng.sample(list(site.uplinks), k)))
        service.adjust(name, uplinks=None if k == len(site.uplinks) else chosen)
    return kind


def total_ok(cmap: CatchmentMap, population: Any) -> bool:
    return sum(cmap.volume_by_site.values()) + cmap.unserved_volume == population.total_clients


def same_map(a: CatchmentMap, b: CatchmentMap, population: Any) -> bool:
    if a.volume_by_site != b.volume_by_site or a.unserved_volume != b.unserved_volume:
        return False
    return all(a.site_of(asn) == b.site_of(asn) for asn, _ in population.items())


def check_sweep(run: Run, service: AnycastService, population: Any,
                variants: Sequence[Any], maps: Sequence[CatchmentMap]) -> None:
    run.op(len(maps) == len(variants), "sweep returned the wrong number of maps")
    for depth, cmap in enumerate(maps, 1):
        run.check(total_ok(cmap, population), f"sweep variant {depth}: volumes")
    reference = CatchmentMap.from_outcome(
        service, population, service.engine.propagate(variants[-1]), prefer_arrays=False
    )
    run.check(same_map(maps[-1], reference, population), "sweep map != chain reference")


def rebalance(world: World, size: Size) -> Tuple[Any, float]:
    """A rebalance from default steering on a fresh engine (compiled
    before the clock starts), so both reruns start from equal state."""
    engine = PropagationEngine(world.graph)
    engine.compiled()
    service = AnycastService(engine, world.service.asn, world.sites)
    gc.collect()
    targets = {name: TARGET_SKEW[i] for i, name in enumerate(service.active_site_names())}
    engineer = TrafficEngineer(
        service,
        world.population,
        targets,
        EngineerConfig(max_iterations=size.engineer_iterations, seed=WORLD_SEED),
    )
    start = time.perf_counter()
    report = engineer.rebalance()
    return report, time.perf_counter() - start


def run(run: Run, seconds: float, size: Size = Size(), tracer: Optional[LayerProbes] = None) -> None:
    rng = random.Random(run.seed * 104729 + 3)
    setup_times = []
    world = None
    for i in range(size.setups):
        if tracer is not None and i == size.setups - 1:
            tracer.install()
        world = None
        gc.collect()  # the previous world's garbage is not this set-up's cost
        run.host.sample()
        start = time.perf_counter()
        world = build(size)
        setup_times.append(time.perf_counter() - start)
    assert world is not None
    service, population = world.service, world.population
    measure_start = time.perf_counter()

    # 1./2. the sweep over prepend variants of the first site, from
    # default steering (a second service on the same engine, which the
    # walk does not steer), repeated between stretches of the walk so
    # that its median samples the whole run.
    sweeper = AnycastService(service.engine, service.asn, world.sites)
    site0 = sweeper.active_site_names()[0]
    variants = [
        sweeper.announcement({site0: SiteSteering(prepend=depth)})
        for depth in range(1, size.sweep_variants + 1)
    ]
    steps = max(1, round(size.steps_per_second * seconds))
    stretch = -(-steps // size.sweeps)
    sweep_times = []
    latencies = []
    maps = []
    for step in range(steps):
        if step % REFERENCE_EVERY == 0:
            run.host.sample()
        if step % stretch == 0:
            gc.collect()
            start = time.perf_counter()
            maps = CatchmentMap.compute_many(sweeper, population, variants, use_cache=False)
            sweep_times.append(time.perf_counter() - start)
            check_sweep(run, sweeper, population, variants, maps)
        start = time.perf_counter()
        steer(world, rng)
        # Uncached: a revisited steering state would otherwise be a cache
        # hit, and the median would fall between hits and converges.
        outcome = service.outcome(use_cache=False)
        cmap = CatchmentMap.compute(service, population, outcome=outcome)
        latencies.append(time.perf_counter() - start)
        run.op(total_ok(cmap, population), f"step {step}: volumes do not sum to the population")
        if step % size.reference_every == 0:
            reference = CatchmentMap.from_outcome(
                service, population, outcome, prefer_arrays=False
            )
            run.check(same_map(cmap, reference, population), f"step {step}: map != chain reference")

    # 3. the traffic engineer, twice
    run.host.sample()
    first, first_s = rebalance(world, size)
    second, second_s = rebalance(world, size)
    run.op(first.imbalance_after <= first.imbalance_before + 1e-9, "rebalance worsened imbalance")
    run.check(first.to_json() == second.to_json(), "rebalance reports differ between reruns")
    rebalance_s = statistics.median((first_s, second_s))

    # 4. the attack campaign
    run.host.sample()
    gc.collect()
    start = time.perf_counter()
    campaign = run_campaign(
        CampaignConfig(seed=WORLD_SEED, rates=size.campaign_rates, trials=1), graph=world.graph
    )
    campaign_s = time.perf_counter() - start
    for name, result in campaign.scenarios.items():
        curves = (result.coverage,) + tuple(result.trial_curves)
        run.check(
            all(b >= a - 1e-12 for curve in curves for a, b in zip(curve, curve[1:])),
            f"campaign {name}: coverage curve not monotone",
        )
    run.measured_seconds = time.perf_counter() - measure_start

    clients_per_s = population.total_clients * len(maps) * len(sweep_times) / sum(sweep_times)
    run.record("setup_s", statistics.median(setup_times), "s", samples=len(setup_times),
               scale="time")
    run.record("batch_s", rebalance_s + campaign_s, "s", scale="time")
    run.record("rate_per_s", clients_per_s, "1/s", samples=len(sweep_times), scale="rate",
               alias="sweep_clients_per_s")
    run.timing("op_p50_ms", latencies, 50.0)
    run.timing("op_p90_ms", latencies, 90.0)
    run.record("rebalance_s", rebalance_s, "s", layer="workload", samples=2, scale="time")
    run.record("campaign_s", campaign_s, "s", layer="workload", scale="time")
