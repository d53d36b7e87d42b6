"""Exact counts repeat for a fixed seed: each workload, shrunk, runs
traced twice with one seed, and every count it reports — decode calls,
NLRI per update, delta-regime counts, safety verdicts, delivery
statuses, operations attempted — must be identical byte for byte.  A
later change may then cite one of these counts as a measurement.

    python3 -m pytest peerbench/tests -q
"""

import json

import pytest

import layers
import mux_ingest
import testbed_ops
import whatif
from harness import Run
from repro.inet.gen import InternetConfig

TINY = {
    "mux_ingest": (
        mux_ingest,
        mux_ingest.Size(prefixes=150, groups=6, churn_per_upstream=3, rounds_per_second=4,
                        sample=20, setups=1),
    ),
    "whatif_50k": (
        whatif,
        whatif.Size(ases=1500, pop_ases=300, clients=30_000, steps_per_second=6,
                    sweep_variants=3, reference_every=4, engineer_iterations=2,
                    campaign_rates=(0.0, 1.0), setups=1),
    ),
    "testbed_ops": (
        testbed_ops,
        testbed_ops.Size(config=InternetConfig(n_ases=600, total_prefixes=30_000, seed=7),
                         ops_per_second=12, probes_per_op=16, setups=1),
    ),
}

# Counts that depend on the interpreter's allocation history, not on
# the workload's inputs.
NOT_EXACT = {"py.gc_collections"}


def traced_counts(name: str, seed: int) -> str:
    module, size = TINY[name]
    run = Run(name, seed, trace=True)
    tracer = layers.LayerProbes()
    try:
        module.run(run, 2.0, size=size, tracer=tracer)
    finally:
        tracer.restore()
    tracer.report(run, run.measured_seconds, wrapper_cost=0.0)
    assert run.failed == 0, run.failures
    counts = {
        r["metric"]: r["value"]
        for r in run.records
        if r["unit"] == "count" and r["metric"] not in NOT_EXACT
    }
    counts["attempted"] = run.attempted
    return json.dumps(counts, sort_keys=True)


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_for_a_seed(name):
    first = traced_counts(name, seed=11)
    assert first == traced_counts(name, seed=11)


def test_counts_cover_the_named_layers():
    counts = json.loads(traced_counts("mux_ingest", seed=3))
    assert counts["bgp.messages.decode_calls"] > 0
    assert counts["bgp.messages.nlri_per_update"] >= 1
    counts = json.loads(traced_counts("whatif_50k", seed=3))
    assert sum(counts[f"inet.engine.delta.{m}"] for m in layers.DELTA_MODES) > 0
    assert counts["inet.engine.pool_fallbacks"] == 0
    counts = json.loads(traced_counts("testbed_ops", seed=3))
    assert counts["core.safety.verdicts.allowed"] > 0
    assert counts["inet.dataplane.status.delivered"] > 0
    assert counts["inet.dataplane.status.flowspec-dropped"] > 0
