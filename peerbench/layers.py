"""The per-layer metrics of the traced run: which public callables are
wrapped, which public counters are read, and how both become metrics.

Every traced run installs every probe, so every workload reports every
per-layer metric; a layer a workload does not exercise reads 0.  The
README maps each metric to the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from harness import Run
from probes import Probes

SAFETY_VERDICTS = (
    "allowed", "prefix-not-allocated", "prefix-outside-testbed",
    "prefix-too-coarse", "prefix-squat", "route-leak", "bad-origin",
    "rpki-invalid", "damped", "rate-limited", "spoofed-source",
    "quarantined", "breaker-open",
)
DELIVERY_STATUSES = (
    "delivered", "blackhole", "ttl-expired", "source-filtered",
    "intercepted", "flowspec-dropped", "rate-limited", "scrubbed",
)
DELTA_MODES = ("noop", "shift", "cone", "fallback", "full")

# (span name, wrapped target); the span name is also the metric stem.
TIMED = (
    ("bgp.messages.decode", "repro.bgp.session:decode"),
    ("bgp.messages.encode", "repro.bgp.messages:UpdateMessage.encode"),
    ("bgp.policy.apply", "repro.bgp.policy:RouteMap.apply"),
    ("bgp.rib.adj_in_add", "repro.bgp.rib:AdjRIBIn.add"),
    ("bgp.decision.select_best", "repro.bgp.router:select_best"),
    ("inet.engine.compile", "repro.inet.engine:PropagationEngine.compiled"),
    ("inet.engine.propagate", "repro.inet.engine:PropagationEngine.propagate"),
    ("inet.engine.propagate_delta", "repro.inet.engine:PropagationEngine.propagate_delta"),
    ("anycast.catchment.map", "repro.anycast.catchment:CatchmentMap.from_outcome"),
    ("anycast.engineer.rebalance", "repro.anycast.engineer:TrafficEngineer.rebalance"),
    ("secroute.policy.compile_for", "repro.secroute.policy:SecurityPolicy.compile_for"),
    ("secroute.flowspec.decide", "repro.secroute.flowspec:FlowSpecDistributor.decide"),
    ("secroute.flowspec.revalidate", "repro.secroute.flowspec:FlowSpecDistributor.revalidate"),
    ("core.server.announce", "repro.core.server:PeeringServer.announce"),
    ("core.safety.check", "repro.core.safety:SafetyEnforcer.check_announcement"),
    ("core.testbed.outcome_for", "repro.core.testbed:Testbed.outcome_for"),
    ("inet.dataplane.install", "repro.inet.dataplane:DataPlane.install"),
    ("inet.dataplane.send", "repro.inet.dataplane:DataPlane.send"),
)

# metric name -> unit, in report order (the list BENCHMARK.json names).
PER_LAYER: Dict[str, str] = {
    "bgp.messages.decode_s": "s",
    "bgp.messages.decode_calls": "count",
    "bgp.messages.encode_s": "s",
    "bgp.messages.wire_bytes_per_route": "B",
    "bgp.messages.nlri_per_update": "count",
    "bgp.policy.apply_s": "s",
    "bgp.rib.adj_in_add_s": "s",
    "bgp.rib.best_changes_per_select": "count",
    "bgp.rib.rib_mb": "MB",
    "bgp.decision.select_best_s": "s",
    "bgp.decision.select_best_calls": "count",
    "py.gc_s": "s",
    "py.gc_collections": "count",
    "inet.engine.compile_s": "s",
    "inet.engine.converge_runs": "count",
    "inet.engine.converge_s": "s",
    "inet.engine.full_ms.single": "ms",
    "inet.engine.full_ms.multi": "ms",
    "inet.engine.full_ms.secure": "ms",
    **{f"inet.engine.delta.{mode}": "count" for mode in DELTA_MODES},
    "inet.engine.delta_fallback_ratio": "ratio",
    "inet.engine.cache_hit_ratio": "ratio",
    "inet.engine.pool_fallbacks": "count",
    "anycast.catchment.map_s": "s",
    "anycast.catchment.clients_mapped": "count",
    "anycast.engineer.iterations": "count",
    "anycast.engineer.shift_iterations": "count",
    "secroute.policy.compile_for_s": "s",
    "secroute.flowspec.decide_s": "s",
    "secroute.flowspec.decide_calls": "count",
    "secroute.flowspec.match_ratio": "ratio",
    "secroute.flowspec.revalidate_s": "s",
    "core.server.announce_s": "s",
    "core.safety.check_s": "s",
    **{f"core.safety.verdicts.{v}": "count" for v in SAFETY_VERDICTS},
    "core.testbed.outcome_for_s": "s",
    "inet.dataplane.install_s": "s",
    "inet.dataplane.send_s": "s",
    "inet.dataplane.hops_per_packet": "count",
    **{f"inet.dataplane.status.{s}": "count" for s in DELIVERY_STATUSES},
    "trace_overhead_frac": "ratio",
}

# Metrics that depend on a wrapped callable: absent if it is missing.
NEEDS_SPAN = {
    "bgp.messages.decode_s": "bgp.messages.decode",
    "bgp.messages.decode_calls": "bgp.messages.decode",
    "bgp.messages.encode_s": "bgp.messages.encode",
    "bgp.messages.wire_bytes_per_route": "bgp.messages.encode",
    "bgp.policy.apply_s": "bgp.policy.apply",
    "bgp.rib.adj_in_add_s": "bgp.rib.adj_in_add",
    "bgp.rib.best_changes_per_select": "bgp.decision.select_best",
    "bgp.decision.select_best_s": "bgp.decision.select_best",
    "bgp.decision.select_best_calls": "bgp.decision.select_best",
    "inet.engine.compile_s": "inet.engine.compile",
    **{
        name: "inet.engine.init"  # engines are found through their constructor
        for name in (
            "inet.engine.converge_runs", "inet.engine.converge_s",
            "inet.engine.delta_fallback_ratio", "inet.engine.cache_hit_ratio",
            "inet.engine.pool_fallbacks",
            *(f"inet.engine.delta.{mode}" for mode in DELTA_MODES),
        )
    },
    "inet.engine.full_ms.single": "inet.engine.propagate",
    "inet.engine.full_ms.multi": "inet.engine.propagate",
    "inet.engine.full_ms.secure": "inet.engine.propagate",
    "anycast.catchment.map_s": "anycast.catchment.map",
    "anycast.catchment.clients_mapped": "anycast.catchment.map",
    "anycast.engineer.iterations": "anycast.engineer.rebalance",
    "anycast.engineer.shift_iterations": "anycast.engineer.rebalance",
    "secroute.policy.compile_for_s": "secroute.policy.compile_for",
    "secroute.flowspec.decide_s": "secroute.flowspec.decide",
    "secroute.flowspec.decide_calls": "secroute.flowspec.decide",
    "secroute.flowspec.match_ratio": "secroute.flowspec.decide",
    "secroute.flowspec.revalidate_s": "secroute.flowspec.revalidate",
    "core.server.announce_s": "core.server.announce",
    "core.safety.check_s": "core.safety.check",
    **{f"core.safety.verdicts.{v}": "core.safety.check" for v in SAFETY_VERDICTS},
    "core.testbed.outcome_for_s": "core.testbed.outcome_for",
    "inet.dataplane.install_s": "inet.dataplane.install",
    "inet.dataplane.send_s": "inet.dataplane.send",
    "inet.dataplane.hops_per_packet": "inet.dataplane.send",
    **{f"inet.dataplane.status.{s}": "inet.dataplane.send" for s in DELIVERY_STATUSES},
}


def _engine_counts(engine: Any) -> Tuple[int, Dict[str, int]]:
    stats = engine.stats()
    return int(stats["cache"]["hits"]), dict(stats["delta"])


class LayerProbes:
    """All per-layer probes of one traced run."""

    def __init__(self) -> None:
        self.probes = Probes()
        self.engines: List[Any] = []
        self.full_ms: Dict[str, List[float]] = {"single": [], "multi": [], "secure": []}
        self.rib_mb: Optional[float] = None

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        p = self.probes
        posts = {
            "bgp.messages.encode": self._on_encode,
            "inet.engine.propagate": self._on_propagate(announcement_at=1),
            "inet.engine.propagate_delta": self._on_propagate(announcement_at=2),
            "anycast.catchment.map": self._on_map,
            "anycast.engineer.rebalance": self._on_rebalance,
            "secroute.flowspec.decide": self._on_decide,
            "core.safety.check": self._on_verdict,
            "inet.dataplane.send": self._on_send,
        }
        pres = {
            "inet.engine.propagate": self._before_propagate,
            "inet.engine.propagate_delta": self._before_propagate,
        }
        for span, target in TIMED:
            p.wrap(target, span, post=posts.get(span), pre=pres.get(span))
        # Engines are found through their constructor, so engines built
        # inside library calls (the attack campaign's) are read too.
        p.wrap(
            "repro.inet.engine:PropagationEngine.__init__",
            "inet.engine.init",
            post=lambda args, kwargs, result, state, dt: self.engines.append(args[0]),
        )
        p.start_gc()

    def watch_router(self, router: Any) -> None:
        """Count UPDATEs and NLRI through the router's public hooks."""
        p = self.probes

        def on_update(peer_id: str, update: Any) -> None:
            if update.nlri:
                p.count("updates_with_nlri")
                p.count("nlri", len(update.nlri))

        def on_best(prefix: Any, old: Any, new: Any) -> None:
            p.count("best_changes")

        router.on_update_received = on_update
        router.on_best_change = on_best

    def restore(self) -> None:
        self.probes.restore()

    # -- post hooks ------------------------------------------------------------

    def _on_encode(self, args: tuple, kwargs: dict, wire: bytes, state: Any, dt: float) -> None:
        update = args[0]
        self.probes.count("encoded_bytes", len(wire))
        self.probes.count("encoded_routes", len(update.nlri) + len(update.withdrawn))

    def _before_propagate(self, args: tuple, kwargs: dict) -> Tuple[int, Dict[str, int]]:
        return _engine_counts(args[0])

    def _on_propagate(self, announcement_at: int) -> Any:
        def post(args: tuple, kwargs: dict, result: Any, before: Any, dt: float) -> None:
            engine = args[0]
            hits, delta = _engine_counts(engine)
            if hits > before[0]:
                return  # served from the outcome cache
            if announcement_at == 2:
                moved = {m for m in DELTA_MODES if delta[m] > before[1][m]}
                if not moved & {"full", "fallback"}:
                    return  # an incremental regime, not a full converge
            announcement = kwargs.get("announcement", args[announcement_at] if len(args) > announcement_at else None)
            security = kwargs.get("security", args[announcement_at + 2] if len(args) > announcement_at + 2 else None)
            if security is not None:
                kind = "secure"
            elif announcement is not None and len(announcement.origins) > 1:
                kind = "multi"
            else:
                kind = "single"
            self.full_ms[kind].append(dt * 1e3)

        return post

    def _on_map(self, args: tuple, kwargs: dict, result: Any, state: Any, dt: float) -> None:
        population = kwargs.get("population", args[2] if len(args) > 2 else None)
        self.probes.count("clients_mapped", population.total_clients)

    def _on_rebalance(self, args: tuple, kwargs: dict, report: Any, state: Any, dt: float) -> None:
        self.probes.count("engineer_iterations", len(report.iterations))
        self.probes.count("engineer_shift_iterations", report.shift_iterations)

    def _on_decide(self, args: tuple, kwargs: dict, decision: Any, state: Any, dt: float) -> None:
        if decision is not None:
            self.probes.count("flowspec_matches")

    def _on_verdict(self, args: tuple, kwargs: dict, decision: Any, state: Any, dt: float) -> None:
        self.probes.count("verdict." + decision.verdict.value)

    def _on_send(self, args: tuple, kwargs: dict, delivery: Any, state: Any, dt: float) -> None:
        self.probes.count("hops", delivery.hops)
        self.probes.count("status." + delivery.status.value)

    # -- reporting -------------------------------------------------------------

    def report(self, run: Run, measured_seconds: float, wrapper_cost: float) -> None:
        p = self.probes
        own = p.spans.self_times()
        calls = p.calls
        c = p.counters
        values: Dict[str, float] = {}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for span, _target in TIMED:
            values[span + "_s"] = own.get(span, 0.0)
        values["bgp.messages.decode_calls"] = calls.get("bgp.messages.decode", 0)
        values["bgp.messages.wire_bytes_per_route"] = ratio(
            c.get("encoded_bytes", 0), c.get("encoded_routes", 0)
        )
        values["bgp.messages.nlri_per_update"] = ratio(
            c.get("nlri", 0), c.get("updates_with_nlri", 0)
        )
        values["bgp.rib.best_changes_per_select"] = ratio(
            c.get("best_changes", 0), calls.get("bgp.decision.select_best", 0)
        )
        values["bgp.rib.rib_mb"] = self.rib_mb or 0.0
        values["bgp.decision.select_best_calls"] = calls.get("bgp.decision.select_best", 0)
        values["py.gc_s"] = p.gc_seconds
        values["py.gc_collections"] = p.gc_collections

        runs = 0
        seconds = 0.0
        hits = misses = pool = 0
        delta = {mode: 0 for mode in DELTA_MODES}
        for engine in self.engines:
            hist = engine.metrics.get("peering_propagation_seconds")
            if hist is not None:
                child = hist.labels()
                runs += child.count
                seconds += child.sum
            stats = engine.stats()
            hits += stats["cache"]["hits"]
            misses += stats["cache"]["misses"]
            pool += sum(stats["parallel"]["pool_fallbacks"].values())
            for mode in DELTA_MODES:
                delta[mode] += stats["delta"][mode]
        values["inet.engine.converge_runs"] = runs
        values["inet.engine.converge_s"] = seconds
        for kind, samples in self.full_ms.items():
            values[f"inet.engine.full_ms.{kind}"] = (
                statistics.median(samples) if samples else 0.0
            )
        for mode in DELTA_MODES:
            values[f"inet.engine.delta.{mode}"] = delta[mode]
        values["inet.engine.delta_fallback_ratio"] = ratio(
            delta["fallback"], delta["shift"] + delta["cone"] + delta["fallback"]
        )
        values["inet.engine.cache_hit_ratio"] = ratio(hits, hits + misses)
        values["inet.engine.pool_fallbacks"] = pool

        values["anycast.catchment.clients_mapped"] = c.get("clients_mapped", 0)
        values["anycast.engineer.iterations"] = c.get("engineer_iterations", 0)
        values["anycast.engineer.shift_iterations"] = c.get("engineer_shift_iterations", 0)
        decides = calls.get("secroute.flowspec.decide", 0)
        values["secroute.flowspec.decide_calls"] = decides
        values["secroute.flowspec.match_ratio"] = ratio(c.get("flowspec_matches", 0), decides)
        for verdict in SAFETY_VERDICTS:
            values[f"core.safety.verdicts.{verdict}"] = c.get("verdict." + verdict, 0)
        sends = calls.get("inet.dataplane.send", 0)
        values["inet.dataplane.hops_per_packet"] = ratio(c.get("hops", 0), sends)
        for status in DELIVERY_STATUSES:
            values[f"inet.dataplane.status.{status}"] = c.get("status." + status, 0)

        traced_calls = sum(calls.values())
        values["trace_overhead_frac"] = ratio(traced_calls * wrapper_cost, measured_seconds)

        absent = set(p.absent)
        for name, unit in PER_LAYER.items():
            needs = NEEDS_SPAN.get(name)
            if needs is not None and needs in absent:
                run.absent.append(name)
                continue
            if name not in values:
                continue
            value = values[name]
            if unit == "count" and float(value).is_integer():
                value = int(value)
            layer = name.rsplit(".", 1)[0] if not name.startswith("trace") else "trace"
            run.record(name, value, unit, layer=layer, samples=_samples(name, calls))


def _samples(name: str, calls: Dict[str, int]) -> int:
    for span, _target in TIMED:
        if name.startswith(span):
            return calls.get(span, 0)
    return 1

