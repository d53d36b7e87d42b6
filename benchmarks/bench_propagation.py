"""Benchmark: compiled propagation engine vs the reference propagator.

Standalone script (no pytest-benchmark dependency) so CI can run it as a
smoke step and gate on regressions:

    PYTHONPATH=src python benchmarks/bench_propagation.py \\
        --output BENCH_propagation.json --check

Measures four regimes on a seeded internet:

* **single_shot** — one cold announcement, reference ``propagate()`` vs
  ``PropagationEngine.propagate(use_cache=False)``;
* **cached** — the same announcement served repeatedly from the LRU
  result cache;
* **delta** — a single-announcement steering change (prepend bump)
  recomputed via ``propagate_delta`` against a full reconvergence;
* **sweep** — a 100-point steering sweep (a handful of steering configs
  x prepend levels, shuffled — the shape the engine's affinity
  partitioner is built to recover), reference serial vs engine serial
  (delta-chained) vs ``propagate_many(parallel=N)`` worker chains.

``--scale`` switches to the Internet-scale harness: a CAIDA-calibrated
50k-AS topology from ``build_caida_like`` (or an ingested serial
snapshot via ``--topology``), timing graph build, compile + first
convergence, the delta regimes, the **cone** regime (a poison change
whose catchment is ~5% of the topology, the mid-size-cone case the
incremental reconverger targets), and a 100-point sweep serial vs
parallel.  Results go to ``BENCH_propagation_scale.json`` and are gated
against ``BENCH_propagation_scale_baseline.json``.

``--check`` compares measured speedups against the committed baseline
and fails when one degrades by more than 2x — a ratio-of-ratios gate, so
it tolerates slow CI machines but catches real regressions in the
compiled kernel.  The delta gate additionally enforces the hard 10x
floor for single-announcement incremental reconvergence; the scale run
adds a 3x floor for the cone regime, a 2x floor for the parallel sweep
over serial delta chaining (enforced only on machines with >= 4 CPUs —
the fan-out cannot win on a 1-core box), and bounds the 50k sweep
wall-clock relative to its baseline.  The scale run also times full
converges of four announcement shapes (3-origin anycast, 2-origin
hijack, poisoned single spec, Peerlock-secured 3-origin) against the
same run's single-spec converge, and caps multi-spec at 3x and secured
at 5x of it: every shape runs on the one propagation kernel, so none
may fall back to a slow path.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from repro.inet.engine import PropagationEngine, default_parallelism
from repro.inet.gen import (
    InternetConfig,
    build_caida_like,
    build_internet,
    degree_stats,
    load_caida_serial,
)
from repro.inet.routing import Announcement, OriginSpec, propagate
from repro.net.addr import Prefix
from repro.secroute import SecurityPolicy

BASELINE = Path(__file__).with_name("BENCH_propagation_baseline.json")
SCALE_BASELINE = Path(__file__).with_name(
    "BENCH_propagation_scale_baseline.json"
)

# Hard floor for the delta regime: a single-announcement steering change
# must reconverge at least this much faster than a full recompute.
DELTA_FLOOR = 10.0
# Hard floor for the cone regime at scale: a mid-size (~5%) catchment
# change must beat a full reconvergence by at least this much.
CONE_FLOOR = 3.0
# Hard floor for the parallel sweep at scale: worker delta chains must
# beat the serial delta chain by at least this much — only meaningful
# with real cores to fan out over.
PARALLEL_FLOOR = 2.0
PARALLEL_GATE_MIN_CPUS = 4
# Ceilings for full converges of other announcement shapes relative to
# the single-spec converge measured in the same run.
MULTI_CEIL = 3.0
SECURE_CEIL = 5.0


def build_world(quick: bool):
    if quick:
        config = InternetConfig(n_ases=300, total_prefixes=5000, seed=99)
    else:
        config = InternetConfig(n_ases=1500, total_prefixes=150_000, seed=99)
    inet = build_internet(config)
    return inet.graph


def pick_origin(graph):
    """The best-connected AS — worst case for propagation fan-out."""
    return max(
        sorted(graph.asns()),
        key=lambda a: len(graph.providers(a)) + len(graph.peers(a)),
    )


def steering_sweep(graph, origin, points, groups=None):
    """Announcement variations a steering experiment would sweep over:
    a handful of steering *configs* (announce-to + poison choices), each
    swept across prepend levels, then shuffled.  Points sharing a config
    differ only by prepend — the shift regime — so a delta chain pays
    one full converge per config; the shuffle makes sure nothing gets
    that for free from input order (the engine's affinity partitioner
    has to regroup them)."""
    rng = random.Random(1)
    neighbors = sorted(graph.neighbors(origin))
    asns = sorted(graph.asns())
    if groups is None:
        groups = max(1, points // 10)
    configs = []
    for _ in range(groups):
        announce_to = None
        if neighbors and rng.random() < 0.7:
            announce_to = tuple(
                n for n in neighbors if rng.random() < 0.5
            )
        poison = ()
        if rng.random() < 0.3:
            poison = (rng.choice(asns),)
        configs.append((poison, announce_to))
    sweep = []
    for i in range(points):
        poison, announce_to = configs[i % groups]
        spec = OriginSpec(
            asn=origin,
            prepend=(i // groups) % 8,
            poison=poison,
            announce_to=announce_to,
        )
        sweep.append(Announcement(origins=(spec,)))
    rng.shuffle(sweep)
    return sweep


def timed(fn, repeat=1):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def delta_regime(engine, origin, repeat=5):
    """Single-announcement steering change: full vs incremental.

    A prepend bump is the canonical steering knob (PEERING §3) and the
    cheapest delta class — same origin/export sets, uniform path-length
    shift — so this measures the engine's best-case incremental
    reconvergence against a cold full converge of the same variant.
    """
    base = Announcement.single(origin)
    variant = Announcement(origins=(OriginSpec(asn=origin, prepend=2),))
    prev = engine.propagate(base, use_cache=False)

    full_s = timed(
        lambda: engine.propagate(variant, use_cache=False), repeat
    )
    delta_s = timed(
        lambda: engine.propagate_delta(prev, variant, use_cache=False),
        repeat,
    )
    return {
        "full_s": round(full_s, 6),
        "delta_s": round(delta_s, 6),
        "speedup": round(full_s / delta_s, 1),
    }


def cone_regime(engine, graph, target_frac=0.045, repeat=5):
    """Mid-size-cone steering change: full vs incremental reconvergence.

    The announcement anycasts from a stable tier-1 origin and a *dirty*
    transit origin that prepends itself unattractive: the dirty origin's
    customers still prefer its route (customer routes win regardless of
    length), everyone else prefers the tier-1 — so the dirty catchment
    tracks the transit AS's customer cone.  The measured change poisons
    one AS inside that catchment, which reclassifies as the cone regime:
    withdraw + reseed work proportional to the catchment, not to n.
    The transit origin is chosen so the catchment lands near
    ``target_frac`` of the topology (~5% by default, the middle of the
    1-10% band the cone reconverger targets; the default sits just
    under the midpoint because the speedup curve is steep there and the
    gate needs headroom over its 3x floor).
    """
    n = len(graph)
    target = max(2, int(n * target_frac))
    stable = min(graph.tier1_clique())
    # Cheap screen first (direct customer count), then the real cone
    # size for the shortlist only — full rank_by_cone() walks every
    # AS's cone, which at 50k costs more than the bench itself.
    shortlist = sorted(
        (
            a for a in graph.asns()
            if graph.customers(a) and graph.providers(a)
        ),
        key=lambda a: -len(graph.customers(a)),
    )[:200]
    shortlist.sort(key=lambda a: abs(len(graph.customer_cone(a)) - target))

    def catchment_of(cand):
        """One converge; count slots routed toward the dirty spec (1)."""
        ann = Announcement(
            origins=(OriginSpec(asn=stable), OriginSpec(asn=cand, prepend=3))
        )
        out = engine.propagate(ann, use_cache=False)
        return ann, out, sum(
            1 for k, r in zip(out._kind, out._root) if k and r == 1
        )

    # Cone size only bounds the catchment from below: peer-rich
    # candidates attract far more (peer routes beat the provider path
    # to the stable tier-1 regardless of prepend), so measure the real
    # catchment for a few near-target cones and keep the closest.
    dirty = base_ann = base = catchment = None
    for cand in shortlist[:8]:
        ann, out, caught = catchment_of(cand)
        if catchment is None or abs(caught - target) < abs(catchment - target):
            dirty, base_ann, base, catchment = cand, ann, out, caught
    cone = graph.customer_cone(dirty)
    poison_target = max(a for a in cone if a != dirty)
    variant = Announcement(
        origins=(
            OriginSpec(asn=stable),
            OriginSpec(asn=dirty, prepend=3, poison=(poison_target,)),
        )
    )
    cones_before = engine.stats()["delta"]["cone"]
    full_s = timed(
        lambda: engine.propagate(variant, use_cache=False), repeat
    )
    delta_s = timed(
        lambda: engine.propagate_delta(base, variant, use_cache=False),
        repeat,
    )
    cone_runs = engine.stats()["delta"]["cone"] - cones_before
    return {
        "dirty_origin": dirty,
        "cone_size": len(cone),
        "catchment": catchment,
        "catchment_frac": round(catchment / n, 4),
        "cone_runs": cone_runs,
        "full_s": round(full_s, 6),
        "delta_s": round(delta_s, 6),
        "speedup": round(full_s / delta_s, 2),
    }


def shape_regimes(engine, graph, origin, repeat=5):
    """Full converges per announcement shape, as ratios to a single-spec
    converge timed in the same interleaved rounds.

    Anycast sites and the hijack pair are drawn from a fixed seed: three
    transit ASes, and two stubs (victim, attacker).  The poisoned single
    spec poisons one of ``origin``'s providers (a neighbor if it has
    none).  The secured shape is the anycast announcement under Peerlock
    on the tier-1 clique plus Peerlock-lite at a third of the transit
    ASes, compiled once so only the converge is timed."""
    rng = random.Random(7)
    asns = sorted(graph.asns())
    transit = [a for a in asns if graph.customers(a) and graph.providers(a)]
    stubs = sorted(graph.stub_asns())
    sites = rng.sample(transit, 3)
    victim, attacker = rng.sample(stubs, 2)
    anycast = Announcement(
        origins=tuple(OriginSpec(asn=a) for a in sites),
        prefix=Prefix("198.18.0.0/24"),
    )
    policy = SecurityPolicy().lock_clique(graph.tier1_clique())
    policy.peerlock_lite = frozenset(rng.sample(transit, len(transit) // 3))
    shapes = {
        "single": (Announcement.single(origin), None),
        "anycast3": (anycast, None),
        "hijack2": (
            Announcement(
                origins=(OriginSpec(asn=victim), OriginSpec(asn=attacker))
            ),
            None,
        ),
        "poisoned": (
            Announcement.single(
                origin,
                poison=(min(graph.providers(origin) or graph.neighbors(origin)),),
            ),
            None,
        ),
        "secure3": (anycast, policy.compile_for(anycast)),
    }
    best = dict.fromkeys(shapes, float("inf"))
    for _ in range(repeat):
        for name, (ann, sec) in shapes.items():
            start = time.perf_counter()
            engine.propagate(ann, use_cache=False, security=sec)
            best[name] = min(best[name], time.perf_counter() - start)
    single = best["single"]
    result = {f"{name}_s": round(t, 6) for name, t in best.items()}
    for name in shapes:
        if name != "single":
            result[f"{name}_vs_single"] = round(best[name] / single, 2)
    return result


def run_benchmarks(quick: bool, parallel: int):
    graph = build_world(quick)
    origin = pick_origin(graph)
    announcement = Announcement.single(origin)
    engine = PropagationEngine(graph)
    engine.compiled()  # compile outside the timed region

    repeat = 3
    single_ref = timed(lambda: propagate(graph, announcement), repeat)
    single_eng = timed(
        lambda: engine.propagate(announcement, use_cache=False), repeat
    )

    engine.cache.clear()
    engine.propagate(announcement)  # warm the cache

    def cached_run():
        for _ in range(100):
            engine.propagate(announcement)

    cached_100 = timed(cached_run, repeat)

    delta = delta_regime(engine, origin)

    points = 20 if quick else 100
    sweep = steering_sweep(graph, origin, points)

    def ref_sweep():
        for item in sweep:
            propagate(graph, item)

    def eng_sweep():
        engine.propagate_many(sweep, use_cache=False)

    def eng_sweep_parallel():
        engine.propagate_many(sweep, parallel=parallel, use_cache=False)

    sweep_repeat = 1 if quick else 2
    sweep_ref = timed(ref_sweep, sweep_repeat)
    sweep_eng = timed(eng_sweep, sweep_repeat)
    sweep_par = timed(eng_sweep_parallel, sweep_repeat)

    return {
        "config": {
            "quick": quick,
            "n_ases": len(graph),
            "sweep_points": points,
            "origin": origin,
            "parallel_workers": parallel,
        },
        "single_shot": {
            "reference_s": round(single_ref, 6),
            "engine_s": round(single_eng, 6),
            "speedup": round(single_ref / single_eng, 3),
        },
        "cached": {
            "per_hit_us": round(cached_100 / 100 * 1e6, 3),
            "speedup_vs_reference": round(single_ref / (cached_100 / 100), 1),
        },
        "delta": delta,
        "sweep": {
            "reference_s": round(sweep_ref, 6),
            "engine_serial_s": round(sweep_eng, 6),
            "engine_parallel_s": round(sweep_par, 6),
            "serial_speedup": round(sweep_ref / sweep_eng, 3),
            "parallel_speedup": round(sweep_ref / sweep_par, 3),
        },
        "engine_stats": engine.stats(),
    }


def run_scale_benchmarks(n_ases: int, workers: int, topology: str = None):
    """Internet-scale regime: CAIDA-calibrated topology, delta sweeps.

    No reference-propagator comparison here — at 50k ASes the reference
    run would dominate the whole benchmark; the gates are the delta and
    cone speedups (machine-independent ratios), the parallel-vs-serial
    sweep ratio (on machines with enough cores), and the sweep
    wall-clock relative to the committed baseline.  ``topology`` swaps
    the generator for :func:`load_caida_serial` on a published (or
    fixture) AS-relationship snapshot.
    """
    build_start = time.perf_counter()
    if topology:
        world = load_caida_serial(topology)
    else:
        world = build_caida_like(n_ases)
    build_s = time.perf_counter() - build_start
    graph = world.graph

    engine = PropagationEngine(graph)
    origin = pick_origin(graph)
    announcement = Announcement.single(origin)

    compile_start = time.perf_counter()
    engine.compiled()
    engine.propagate(announcement, use_cache=False)
    first_converge_s = time.perf_counter() - compile_start

    repeat_converge_s = timed(
        lambda: engine.propagate(announcement, use_cache=False), 3
    )

    delta = delta_regime(engine, origin)
    cone = cone_regime(engine, graph)
    regimes = shape_regimes(engine, graph, origin)

    sweep = steering_sweep(graph, origin, 100)
    serial_s = timed(lambda: engine.propagate_many(sweep, use_cache=False))
    parallel_s = timed(
        lambda: engine.propagate_many(
            sweep, parallel=workers, use_cache=False
        )
    )
    stats = engine.stats()

    return {
        "config": {
            "scale": True,
            "n_ases": len(graph),
            "sweep_points": len(sweep),
            "origin": origin,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "topology": topology,
        },
        "topology": {
            "build_s": round(build_s, 3),
            "source": topology or "build_caida_like",
            **{k: round(v, 4) for k, v in degree_stats(graph).items()},
        },
        "converge": {
            "compile_and_first_s": round(first_converge_s, 3),
            "repeat_full_s": round(repeat_converge_s, 6),
        },
        "delta": delta,
        "cone": cone,
        "regimes": regimes,
        "sweep": {
            "total_s": round(serial_s, 3),
            "per_point_ms": round(serial_s / len(sweep) * 1e3, 3),
            "parallel_s": round(parallel_s, 3),
            "parallel_vs_serial": round(serial_s / parallel_s, 3),
        },
        "engine_stats": stats,
    }


def _gate(label, now, floor, failures):
    status = "ok" if now >= floor else "FAIL"
    print(f"regression gate [{label}]: {now:.2f} (floor {floor:.2f}) {status}")
    if now < floor:
        failures.append(label)


def _ceiling(label, now, ceil, failures):
    status = "ok" if now <= ceil else "FAIL"
    print(f"regression gate [{label}]: {now:.2f} (ceiling {ceil:.2f}) {status}")
    if now > ceil:
        failures.append(label)


def check_regression(results, quick: bool = False) -> int:
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; skipping regression check")
        return 0
    baseline = json.loads(BASELINE.read_text())
    failures: list = []
    # Quick smoke runs use a 300-AS world but the committed baseline is
    # recorded at full size, where the compiled engine's advantage is
    # larger; give them 4x headroom instead of 2x.
    div = 4 if quick else 2
    _gate(
        "single-shot speedup",
        results["single_shot"]["speedup"],
        baseline["single_shot"]["speedup"] / div,
        failures,
    )
    _gate(
        "sweep serial speedup",
        results["sweep"]["serial_speedup"],
        baseline["sweep"]["serial_speedup"] / div,
        failures,
    )
    if quick:
        # The delta ratio grows with topology size (fixed per-call cost
        # vs O(n) full reconvergence), so a 300-AS smoke run can't be
        # held to a floor derived from the full-size baseline.
        print("regression gate [delta speedup]: skipped in --quick "
              "(gated in full and --scale runs)")
    else:
        base_delta = baseline.get("delta", {}).get("speedup", DELTA_FLOOR)
        _gate(
            "delta speedup",
            results["delta"]["speedup"],
            max(DELTA_FLOOR, base_delta / 2),
            failures,
        )
    if failures:
        print(f"FAIL: regressed vs committed baseline: {', '.join(failures)}")
        return 1
    return 0


def check_scale_regression(results) -> int:
    if not SCALE_BASELINE.exists():
        print(f"no baseline at {SCALE_BASELINE}; skipping regression check")
        return 0
    baseline = json.loads(SCALE_BASELINE.read_text())
    failures: list = []
    base_delta = baseline["delta"]["speedup"]
    _gate(
        "scale delta speedup",
        results["delta"]["speedup"],
        max(DELTA_FLOOR, base_delta / 2),
        failures,
    )
    base_cone = baseline.get("cone", {}).get("speedup", CONE_FLOOR)
    _gate(
        "scale cone speedup",
        results["cone"]["speedup"],
        max(CONE_FLOOR, base_cone / 2),
        failures,
    )
    regimes = results["regimes"]
    for shape in ("anycast3", "hijack2"):
        _ceiling(
            f"scale multi/single ({shape})",
            regimes[f"{shape}_vs_single"], MULTI_CEIL, failures,
        )
    _ceiling(
        "scale secure/single (secure3)",
        regimes["secure3_vs_single"], SECURE_CEIL, failures,
    )
    # The parallel fan-out can only beat the serial delta chain with
    # real cores behind it; a 1-core box timeshares the workers and
    # adds pure overhead, so the gate keys off the measuring machine.
    cpus = results["config"].get("cpu_count") or 0
    workers = results["config"].get("workers") or 0
    if cpus >= PARALLEL_GATE_MIN_CPUS and workers >= 2:
        base_par = baseline["sweep"].get("parallel_vs_serial", PARALLEL_FLOOR)
        _gate(
            "scale parallel sweep vs serial",
            results["sweep"]["parallel_vs_serial"],
            max(PARALLEL_FLOOR, base_par / 2),
            failures,
        )
    else:
        print(
            "regression gate [scale parallel sweep vs serial]: skipped "
            f"({cpus} CPUs, {workers} workers; needs >= "
            f"{PARALLEL_GATE_MIN_CPUS} CPUs)"
        )
    # Absolute wall-clock bound, but relative to the committed baseline
    # (which itself records a single-digit-second sweep) so slow CI
    # machines get 3x headroom before this trips.  Only comparable when
    # the topology matches the one the baseline was recorded on.
    same_world = (
        results["config"].get("topology") == baseline["config"].get("topology")
        and results["config"]["n_ases"] == baseline["config"]["n_ases"]
    )
    if same_world:
        sweep_budget = baseline["sweep"]["total_s"] * 3
        _gate(
            "scale sweep budget (inverted, s)",
            sweep_budget - results["sweep"]["total_s"],
            0.0,
            failures,
        )
    else:
        print(
            "regression gate [scale sweep budget]: skipped "
            "(topology differs from baseline)"
        )
    if failures:
        print(f"FAIL: regressed vs committed baseline: {', '.join(failures)}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small config for CI smoke runs"
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="Internet-scale regime: 50k-AS CAIDA-like topology",
    )
    parser.add_argument(
        "--n-ases",
        type=int,
        default=50_000,
        help="topology size for --scale (default 50000)",
    )
    parser.add_argument(
        "--topology",
        default=None,
        help="CAIDA AS-relationship serial snapshot to ingest for "
        "--scale instead of generating one (.gz/.bz2 ok); e.g. the "
        "checked-in tests/data/caida-as-rel-150.txt fixture",
    )
    parser.add_argument(
        "--output", default=None, help="result JSON path"
    )
    parser.add_argument(
        "--workers",
        "--parallel",
        dest="workers",
        type=int,
        default=None,
        help="workers for the parallel sweep (default: cpu_count - 1)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on >2x regression vs committed baseline "
        "(single-shot, sweep, and delta gates; 10x delta floor)",
    )
    args = parser.parse_args(argv)

    workers = args.workers or default_parallelism()
    if args.scale:
        results = run_scale_benchmarks(
            args.n_ases, workers, topology=args.topology
        )
        output = args.output or "BENCH_propagation_scale.json"
    else:
        results = run_benchmarks(args.quick, workers)
        output = args.output or "BENCH_propagation.json"
    Path(output).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    if args.check:
        if args.scale:
            return check_scale_regression(results)
        return check_regression(results, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
