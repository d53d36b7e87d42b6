"""Per-layer tracing from outside the program.

The traced run wraps public callables of the ``repro`` packages (module
functions and class attributes) so that every call opens a span on a
shared :class:`~harness.Spans` stack, and reads public counters and
hooks.  Nothing under ``src/`` is edited: :meth:`Probes.wrap` replaces
an attribute for the duration of the run and :meth:`Probes.restore` puts
the original back.

A callable that no longer exists is reported as *absent* (its metrics
are left out of the result) instead of failing the run, so a later
change that inlines or merges a function does not break the benchmark.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Spans

PreHook = Callable[[tuple, dict], Any]
PostHook = Callable[[tuple, dict, Any, Any, float], None]


class Probes:
    """Installed wrappers plus the spans and counters they feed."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.absent: List[str] = []
        # (owner, attr, original or None when the attribute was inherited)
        self._restore: List[Tuple[Any, str, Any]] = []
        self._gc_start = 0.0
        self.gc_seconds = 0.0
        self.gc_collections = 0

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        target: str,
        span: str,
        post: Optional[PostHook] = None,
        pre: Optional[PreHook] = None,
    ) -> bool:
        """Wrap ``module:attr`` or ``module:Class.attr`` so each call is a
        span named ``span``.  ``pre(args, kwargs)`` runs before the span
        opens and its value reaches ``post(args, kwargs, result, state,
        self_seconds)``, which runs after the span closes.  Returns False, and
        records the span as absent, when the target cannot be found."""
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(span)
            return False
        spans = self.spans
        calls = self.calls
        calls.setdefault(span, 0)

        def timed(func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            state = pre(args, kwargs) if pre is not None else None
            index = spans.open(span)
            try:
                result = func(*args, **kwargs)
            finally:
                own = spans.close(index)
            calls[span] += 1
            if post is not None:
                post(args, kwargs, result, state, own)
            return result

        if isinstance(static, classmethod):
            func = static.__func__
            replacement: Any = classmethod(
                lambda cls, *a, **k: timed(func, cls, *a, **k)
            )
        elif isinstance(static, staticmethod):
            func = static.__func__
            replacement = staticmethod(lambda *a, **k: timed(func, *a, **k))
        elif callable(static):
            func = static

            def replacement(*a: Any, **k: Any) -> Any:
                return timed(func, *a, **k)

        else:
            self.absent.append(span)
            return False
        own = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, static if own else None))
        return True

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- garbage collector -----------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- teardown --------------------------------------------------------------

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)  # was inherited: uncover the base's
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


class Calibration:
    """A no-op target for :func:`wrapper_cost`."""

    def noop(self) -> None:
        return None


def wrapper_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, measured on a
    no-op method; multiplied by the traced call count it estimates the
    tracing overhead of a run."""
    target = Calibration()
    start = time.perf_counter()
    for _ in range(n):
        target.noop()
    plain = time.perf_counter() - start
    probes = Probes()
    probes.wrap(f"{__name__}:Calibration.noop", "calibration")
    try:
        start = time.perf_counter()
        for _ in range(n):
            target.noop()
        wrapped = time.perf_counter() - start
    finally:
        probes.restore()
    return max(0.0, (wrapped - plain) / n)
