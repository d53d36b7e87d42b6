"""Benchmark entry point: one workload, one seed, one run.

    python3 peerbench/run.py --workload mux_ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--seconds`` sets the amount of work: each workload converts it into a
fixed operation count, so counts repeat exactly for a seed.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of the traced run.  Every run also
writes its records (one schema for every metric) to
``peerbench/out/<workload>-seed<seed>-trace<0|1>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

END_TO_END = ("setup_s", "peak_rss_mb", "op_p50_ms", "op_p90_ms", "rate_per_s", "batch_s")


def workloads():
    """Workload name -> module; imported lazily so a missing program
    fails here, after argument parsing, with a non-zero exit."""
    import mux_ingest
    import testbed_ops
    import whatif

    return {"mux_ingest": mux_ingest, "whatif_50k": whatif, "testbed_ops": testbed_ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from harness import Run, log, peak_rss_mb
    from layers import PER_LAYER, LayerProbes
    from probes import wrapper_cost

    try:
        table = workloads()
    except ImportError as error:
        log(f"cannot import the program from {ROOT / 'src'}: {error}")
        return 2
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    run = Run(args.workload, args.seed, bool(args.trace))
    tracer = LayerProbes() if args.trace else None
    try:
        table[args.workload].run(run, args.seconds, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    run.record("peak_rss_mb", peak_rss_mb(), "MB")
    run.finish()
    if tracer is not None:
        tracer.report(run, run.measured_seconds, wrapper_cost())
        metric_names = list(PER_LAYER)
    else:
        metric_names = END_TO_END
    path = run.write_records(HERE / "out")
    for failure in run.failures:
        log(f"FAILED {failure}")
    if run.absent:
        log("absent (wrapped callable not found): " + ", ".join(run.absent))
    log(f"records: {path.relative_to(ROOT)}")
    print(json.dumps(run.result(metric_names), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
