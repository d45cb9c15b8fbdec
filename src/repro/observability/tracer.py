"""Span-based structured tracer.

The tracer is the timeline half of :mod:`repro.observability`: it records
named spans - ``(name, category, start, duration, track, args)`` - that
the exporters (:mod:`repro.observability.export`) turn into Chrome
trace-event JSON for Perfetto / ``chrome://tracing``.

Two clock domains coexist:

- *wall-clock spans* from :meth:`Tracer.span` (a context manager) or the
  :func:`traced` decorator, timed with ``time.perf_counter`` relative to
  the tracer's epoch - used around real work such as a functional
  bootstrap;
- *simulated-time spans* from :meth:`Tracer.add_span`, where the caller
  supplies start/duration in microseconds of modelled time - used by the
  performance simulator and the HW-scheduler, whose events never happen
  in wall time at all.

Both kinds land in the same buffer; the ``track`` field (rendered as a
thread in trace viewers) keeps engines, pipeline stages and wall-clock
code on separate rows.

Wall-clock spans participate in distributed tracing: entering
:meth:`Tracer.span` activates a child of the ambient
:class:`~repro.observability.context.TraceContext` (or an explicit
``ctx=``), so bus events published inside the span - including the
span's own ``"span"`` event - carry its ``trace_id/span_id/parent_id``,
and nested spans parent to it.  A worker process that entered an
extracted carrier context therefore produces spans whose ``parent_id``
resolves to the driver's submitting span.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

from . import context as _context
from .bus import BUS as _BUS

__all__ = ["Span", "Tracer", "traced"]

@dataclass(frozen=True)
class Span:
    """One completed span on the trace timeline (times in microseconds)."""

    name: str
    ts_us: float
    dur_us: float
    category: str = ""
    track: str = "main"
    args: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us


class Tracer:
    """Append-only span buffer, recording while telemetry is on.

    Like the metrics registry, the disabled path is a single read of the
    telemetry switch (``BUS.enabled``) and a branch; nothing is allocated
    and ``perf_counter`` is never called.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._epoch = time.perf_counter()

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._epoch = time.perf_counter()

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "", track: str = "main",
             ctx: Optional[_context.TraceContext] = None,
             **args: Any) -> Iterator[Optional["Tracer"]]:
        """Context manager timing a wall-clock span (no-op when disabled).

        While the span is open, a child of the ambient trace context is
        active (so everything published inside carries this span's
        identity).  Pass ``ctx=`` to record with an explicit context
        instead - the driver uses this to emit the *root* span with the
        root context's own ids, giving remote children a span to resolve
        their ``parent_id`` against.  Outside any trace, spans record
        without trace identity, exactly as before.
        """
        if not _BUS.enabled:
            yield None
            return
        span_ctx = ctx if ctx is not None else _context.child_of(_context.current())
        token = None if span_ctx is None else _context.activate(span_ctx)
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            try:
                # Publish while the span's context is still active so the
                # "span" bus event carries its own span_id/parent_id.
                self.add_span(
                    name,
                    ts_us=(start - self._epoch) * 1e6,
                    dur_us=(end - start) * 1e6,
                    category=category,
                    track=track,
                    args=args,
                )
            finally:
                if token is not None:
                    _context.deactivate(token)

    def add_span(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        category: str = "",
        track: str = "sim",
        args: Optional[dict] = None,
    ) -> None:
        """Record a span with explicit timestamps (simulated-time friendly)."""
        if not _BUS.enabled:
            return
        span = Span(name, float(ts_us), float(dur_us), category, track,
                    dict(args or {}))
        with self._lock:
            self._spans.append(span)
        _BUS.publish("span", name, value=span.dur_us, ts_us=span.ts_us,
                     dur_us=span.dur_us, category=category, track=track,
                     args=span.args)

    # -- reads ----------------------------------------------------------
    def spans(self) -> List[Span]:
        """Copy of all recorded spans, in recording order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def traced(name: Optional[str] = None, category: str = "", track: str = "main",
           tracer: Optional[Tracer] = None) -> Callable[[Callable], Callable]:
    """Decorator recording one span per call on the (global) tracer.

    ``@traced()`` uses the function's qualified name; pass ``name=`` to
    override and ``tracer=`` to target a non-global tracer (tests).
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _BUS.enabled:
                return fn(*args, **kwargs)
            active = tracer if tracer is not None else _global_tracer()
            with active.span(span_name, category=category, track=track):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _global_tracer() -> Tracer:
    from . import TRACER

    return TRACER
