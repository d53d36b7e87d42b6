"""Measurement primitives shared by every workload.

* :func:`percentile` / :func:`tail_percentile` — linear-interpolated
  percentiles and the reporting rule: a tail is reported at the highest
  percentile of :data:`PERCENTILE_LADDER` that has at least
  :data:`MIN_TAIL_SAMPLES` samples beyond it.
* :class:`Spans` — name/start/end/parent spans kept in memory, with
  :meth:`Spans.self_times` (a span's duration minus the part of it its
  child spans cover; spans nest on one stack, so children never overlap
  and that part is the sum of their durations).
* :class:`HostReference` — a fixed kernel timed through each run, whose
  median puts times and rates at reference host speed.
* :class:`Run` — the per-run recorder: metrics in the one record schema
  (workload, metric, layer, value, unit, samples, seed, git sha, machine
  fingerprint), operation/check accounting, and the final result line.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 10

ROOT = Path(__file__).resolve().parent.parent

# Nominal time of the host reference kernel: times are reported as if the
# kernel had taken this long (rates likewise), see HostReference.
REFERENCE_MS = 20.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` by linear interpolation
    between closest ranks (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


class Spans:
    """In-memory spans: ``(name, start, end, parent index)``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.child_seconds: List[float] = []  # summed durations of direct children
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_seconds.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End span ``index``; returns its self time (children are
        nested and sequential on one stack, so they never overlap)."""
        end = self.ends[index] = time.perf_counter()
        self._stack.pop()
        duration = end - self.starts[index]
        parent = self.parents[index]
        if parent >= 0:
            self.child_seconds[parent] += duration
        return duration - self.child_seconds[index]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (a child after its parent)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.child_seconds.append(0.0)
        if parent >= 0:
            self.child_seconds[parent] += end - start
        return len(self.names) - 1

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its direct children."""
        totals: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - self.child_seconds[i]
            totals[name] = totals.get(name, 0.0) + own
        return totals


def git_sha(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> Dict[str, object]:
    """``nproc``, Python version and CPU model (from the kernel's CPU
    description where there is one, else the architecture)."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu or "unknown",
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bfs(adjacency: List[Tuple[int, ...]]) -> int:
    seen: Dict[int, Tuple[int, int]] = {0: (0, 0)}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen[nxt] = (node, len(seen))
                queue.append(nxt)
    return len(seen)


class HostReference:
    """How fast the host runs Python right now, sampled through a run.

    Shared machines drift in speed by tens of percent over minutes, far
    more than the changes the benchmark must resolve.  The kernel is a
    fixed breadth-first search over a seeded 20,000-node graph (dict,
    deque and tuple work like the program's), timed with the garbage
    collector paused so that its time does not depend on the program's
    heap.  The median of its samples over the nominal
    :data:`REFERENCE_MS` is the run's slowdown; scaled metrics are
    divided (times) or multiplied (rates) by it."""

    NODES = 20_000

    def __init__(self) -> None:
        rng = random.Random(20141027)
        self._adjacency = [
            tuple(rng.randrange(self.NODES) for _ in range(4)) for _ in range(self.NODES)
        ]
        self.samples_ms: List[float] = []
        self.spent_s = 0.0  # wall time spent sampling, to exclude from loops

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _bfs(self._adjacency)
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples_ms.append(elapsed * 1e3)
        self.spent_s += elapsed

    def slowdown(self) -> float:
        if not self.samples_ms:
            self.sample()
        return statistics.median(self.samples_ms) / REFERENCE_MS


class Run:
    """Recorder for one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.sha = git_sha()
        self.machine = machine()
        self.records: List[Dict[str, object]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.absent: List[str] = []
        self.measured_seconds = 0.0  # wall time of the measured phase
        self.host = HostReference()

    # -- accounting ------------------------------------------------------------

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a refused or failed one counts
        as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """An output check: counted as an operation, so a wrong output
        shows in the failed count and makes the run incorrect."""
        return self.op(bool(ok), "check: " + what)

    # -- records ---------------------------------------------------------------

    def record(
        self,
        metric: str,
        value: float,
        unit: str,
        layer: str = "end_to_end",
        samples: int = 1,
        scale: Optional[str] = None,
        **extra: object,
    ) -> None:
        """Add one record.  ``scale`` is ``"time"`` or ``"rate"`` for a
        metric reported at reference host speed (see :meth:`finish`)."""
        rec: Dict[str, object] = {
            "workload": self.workload,
            "metric": metric,
            "layer": layer,
            "value": value,
            "unit": unit,
            "samples": samples,
            "seed": self.seed,
            "git_sha": self.sha,
            "machine": self.machine,
        }
        if scale is not None:
            rec["scale"] = scale
        rec.update(extra)
        self.records.append(rec)

    def timing(
        self, metric: str, seconds: Sequence[float], p: float, layer: str = "end_to_end"
    ) -> None:
        """Record the ``p``-th percentile (in ms) of per-operation
        timings, with the sample count and the percentile the tail rule
        allows at that count."""
        if not seconds:
            raise ValueError(f"no samples for {metric}")
        self.record(
            metric,
            percentile(seconds, p) * 1e3,
            "ms",
            layer=layer,
            samples=len(seconds),
            scale="time",
            percentile=p,
            rule_percentile=tail_percentile(len(seconds)),
        )

    def finish(self) -> None:
        """Put every scaled metric at reference host speed; the measured
        value stays in the record as ``raw_value``."""
        slowdown = self.host.slowdown()
        for rec in self.records:
            kind = rec.get("scale")
            if kind is None or "raw_value" in rec:
                continue
            raw = float(rec["value"])  # type: ignore[arg-type]
            rec["raw_value"] = raw
            rec["value"] = raw / slowdown if kind == "time" else raw * slowdown
            rec["host_slowdown"] = slowdown
            rec["reference_samples"] = len(self.host.samples_ms)

    # -- output ----------------------------------------------------------------

    def result(self, metric_names: Sequence[str]) -> Dict[str, object]:
        by_name = {r["metric"]: r for r in self.records}
        metrics = {
            name: {"value": by_name[name]["value"], "unit": by_name[name]["unit"]}
            for name in metric_names
            if name in by_name
        }
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def write_records(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.jsonl"
        with path.open("w") as handle:
            for rec in self.records:
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
            handle.write(
                json.dumps(
                    {
                        "workload": self.workload,
                        "seed": self.seed,
                        "attempted": self.attempted,
                        "failed": self.failed,
                        "failures": self.failures,
                        "absent": self.absent,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
