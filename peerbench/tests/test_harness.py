"""Harness rules: the tail-percentile rule, percentiles, self time, the
record schema, and absent probes.

    python3 -m pytest peerbench/tests -q
"""

import statistics

import pytest

import harness
import layers
from harness import Run, Spans, percentile, samples_beyond, tail_percentile
from probes import Probes


class TestTailRule:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (19, None),
            (20, 50.0),
            (39, 50.0),
            (40, 75.0),
            (99, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 95.0),
            (999, 95.0),
            (1000, 99.0),
            (10_000, 99.9),
        ],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_ten_samples_beyond_at_the_boundary(self):
        assert samples_beyond(200, 95.0) == 10
        assert samples_beyond(199, 95.0) == 9
        assert samples_beyond(100, 90.0) == 10


class TestPercentile:
    def test_linear_interpolation(self):
        assert percentile([5, 1, 3, 2, 4], 50) == 3
        assert percentile(range(1, 11), 90) == pytest.approx(9.1)
        assert percentile([7.0], 95) == 7.0

    def test_matches_statistics_inclusive_quartiles(self):
        values = [0.3, 1.7, 2.2, 9.0, 4.4, 5.1, 0.9, 3.3]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert percentile(values, 25) == pytest.approx(q1)
        assert percentile(values, 50) == pytest.approx(q2)
        assert percentile(values, 75) == pytest.approx(q3)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSelfTime:
    def test_duration_minus_children(self):
        spans = Spans()
        root = spans.add("root", 0.0, 10.0)
        spans.add("a", 1.0, 3.0, parent=root)
        b = spans.add("b", 4.0, 8.0, parent=root)
        spans.add("c", 5.0, 6.0, parent=b)
        own = spans.self_times()
        assert own["root"] == pytest.approx(4.0)
        assert own["a"] == pytest.approx(2.0)
        assert own["b"] == pytest.approx(3.0)
        assert own["c"] == pytest.approx(1.0)

    def test_same_name_sums(self):
        spans = Spans()
        spans.add("x", 0.0, 1.0)
        spans.add("x", 2.0, 4.5)
        assert spans.self_times()["x"] == pytest.approx(3.5)

    def test_stack_spans_nest_and_close_returns_self_time(self):
        spans = Spans()
        outer = spans.open("outer")
        inner = spans.open("inner")
        inner_own = spans.close(inner)
        outer_own = spans.close(outer)
        assert spans.parents[inner] == outer
        assert spans.parents[outer] == -1
        own = spans.self_times()
        assert own["inner"] == pytest.approx(inner_own)
        assert own["outer"] == pytest.approx(outer_own)
        total = spans.ends[outer] - spans.starts[outer]
        assert own["outer"] + own["inner"] == pytest.approx(total)


class TestRecords:
    def test_one_schema(self, tmp_path):
        run = Run("mux_ingest", seed=4, trace=False)
        run.record("setup_s", 1.5, "s", samples=3)
        run.timing("op_p50_ms", [0.001] * 30, 50.0)
        keys = {"workload", "metric", "layer", "value", "unit", "samples", "seed", "git_sha", "machine"}
        for rec in run.records:
            assert keys <= set(rec)
            assert set(rec["machine"]) == {"nproc", "python", "cpu"}
        timing = run.records[1]
        assert timing["value"] == pytest.approx(1.0)
        assert timing["samples"] == 30 and timing["rule_percentile"] == 50.0
        assert run.write_records(tmp_path).exists()

    def test_failures_make_the_run_incorrect(self):
        run = Run("testbed_ops", seed=1, trace=False)
        run.op(True)
        run.check(False, "wrong status")
        result = run.result(["setup_s"])
        assert result["attempted"] == 2 and result["failed"] == 1
        assert result["correct"] is False
        assert set(result) == {"correct", "attempted", "failed", "metrics"}

    def test_finish_puts_times_and_rates_at_reference_speed(self):
        run = Run("whatif_50k", seed=2, trace=False)
        run.host.samples_ms = [30.0, 40.0, 50.0]  # median 40: twice as slow as nominal
        run.record("batch_s", 8.0, "s", scale="time")
        run.record("rate_per_s", 100.0, "1/s", scale="rate")
        run.record("peak_rss_mb", 300.0, "MB")
        run.finish()
        run.finish()  # idempotent
        by = {r["metric"]: r for r in run.records}
        slowdown = 40.0 / harness.REFERENCE_MS
        assert by["batch_s"]["value"] == pytest.approx(8.0 / slowdown)
        assert by["batch_s"]["raw_value"] == 8.0
        assert by["rate_per_s"]["value"] == pytest.approx(100.0 * slowdown)
        assert by["peak_rss_mb"]["value"] == 300.0 and "raw_value" not in by["peak_rss_mb"]

    def test_host_reference_samples_with_the_collector_restored(self):
        import gc

        reference = harness.HostReference()
        reference.sample()
        assert gc.isenabled()
        assert len(reference.samples_ms) == 1 and reference.samples_ms[0] > 0
        assert reference.spent_s > 0

    def test_git_sha_outside_a_repository(self, tmp_path):
        assert harness.git_sha(tmp_path) == "unknown"


class TestProbes:
    def test_missing_callable_is_absent_not_an_error(self):
        probes = Probes()
        assert not probes.wrap("repro.bgp.session:no_such_function", "gone")
        assert not probes.wrap("repro.no_such_module:f", "gone_too")
        assert probes.absent == ["gone", "gone_too"]

    def test_wrap_times_calls_and_restores(self):
        from repro.bgp import policy

        original = policy.RouteMap.__dict__["apply"]
        probes = Probes()
        assert probes.wrap("repro.bgp.policy:RouteMap.apply", "apply")
        assert policy.RouteMap.__dict__["apply"] is not original
        probes.restore()
        assert policy.RouteMap.__dict__["apply"] is original

    def test_wrapping_an_inherited_method_restores_the_base(self):
        from repro.inet.engine import CompiledOutcome

        assert "__repr__" not in vars(CompiledOutcome)
        probes = Probes()
        assert probes.wrap("repro.inet.engine:CompiledOutcome.__repr__", "repr")
        assert "__repr__" in vars(CompiledOutcome)
        probes.restore()
        assert "__repr__" not in vars(CompiledOutcome)

    def test_metrics_of_an_absent_layer_are_left_out(self, monkeypatch):
        timed = tuple(
            (span, "repro.bgp.session:decode_was_inlined" if span == "bgp.messages.decode" else target)
            for span, target in layers.TIMED
        )
        monkeypatch.setattr(layers, "TIMED", timed)
        probe = layers.LayerProbes()
        probe.install()
        probe.restore()
        run = Run("mux_ingest", seed=1, trace=True)
        probe.report(run, measured_seconds=1.0, wrapper_cost=0.0)
        reported = {r["metric"] for r in run.records}
        assert "bgp.messages.decode_s" not in reported
        assert "bgp.messages.decode_calls" not in reported
        assert "bgp.messages.decode_s" in run.absent
        assert "bgp.messages.encode_s" in reported
        assert set(reported) | set(run.absent) == set(layers.PER_LAYER)
