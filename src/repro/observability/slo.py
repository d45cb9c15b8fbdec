"""Request-level SLO engine: objectives, error budgets, burn-rate alerts.

The paper quotes Morphling's results as the two numbers a serving
deployment would state as objectives - bootstraps/s (Table 5) and
application latency (Table 6) - and the related work (MATCHA, FPT)
frames throughput as *sustained under a bounded decryption-failure
rate*.  This module turns those quantities into a declarative,
evaluated contract:

- an :class:`SLORegistry` holds named objectives of three kinds:
  latency quantiles (``p99 of request latency <= threshold``),
  throughput floors, and the decryption-failure budget the analysis
  layer already computes (:mod:`repro.analysis.failprob`);
- :func:`price_slos` derives default thresholds from the perf-counter
  cycle model (:func:`repro.core.simulator.simulate_bootstrap`), so the
  objectives are the paper's own numbers with an explicit slack
  multiplier, not hand-tuned constants;
- an :class:`SLOMonitor` subscribes to the telemetry bus, folds every
  ``"request"`` event into a mergeable
  :class:`~repro.observability.sketch.QuantileSketch`, and evaluates
  each latency objective with **multi-window burn-rate** math (Google
  SRE style): the error budget of a ``q``-quantile objective is
  ``1 - q``; the burn rate over a window is the fraction of bad
  requests divided by that budget; when both a short and a long window
  exceed a factor, the monitor fires an ``slo_burn`` anomaly through
  the flight recorder, freezing the event window that produced the
  breach exactly like a noise-drift trigger does;
- :meth:`SLOMonitor.evaluate` renders the whole contract as a
  schema-versioned :class:`SLOReport` (the ``repro slo --json``
  surface, golden-pinned in ``tests/observability/test_slo.py``).

Request semantics: a ``"request"`` bus event carries one latency sample
in ``value`` (seconds) weighted by ``fields["count"]`` requests.  The
scheduler publishes completion times since workload start (so the
max observed sample is the makespan and throughput can be derived from
the sketch), the batched TFHE pipeline publishes wall-clock per-batch
latency, and the simulator publishes its modelled bootstrap latency.

Import discipline: this module is imported by ``repro.core`` through
the observability package, so everything core-side
(``simulate_bootstrap``) is imported lazily inside the pricing helpers.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from .bus import BUS, TelemetryBus, TelemetryEvent
from .flightrec import report_anomaly
from .sketch import DEFAULT_QUANTILES, DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "SLO_REPORT_SCHEMA_VERSION",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_SLACK",
    "LatencyObjective",
    "ThroughputObjective",
    "FailureBudgetObjective",
    "SLORegistry",
    "price_slos",
    "ObjectiveStatus",
    "SLOReport",
    "SLOMonitor",
]

#: Bump on any incompatible change to the ``repro slo --json`` shape.
SLO_REPORT_SCHEMA_VERSION = 1

#: Multi-window burn-rate alert pairs ``(short_s, long_s, factor)`` in
#: bus seconds - the classic (5m, 1h, 14.4x) / (30m, 6h, 6x) pages
#: scaled to run-length windows.  An alert needs BOTH windows of a pair
#: over the factor: the long window proves sustained burn, the short
#: window proves it is still happening.
DEFAULT_BURN_WINDOWS: Tuple[Tuple[float, float, float], ...] = (
    (5.0, 60.0, 14.4),
    (30.0, 300.0, 6.0),
)

#: Default pricing slack: objectives sit at ``slack x`` the modelled
#: value, so ordinary model/schedule divergence never pages while a
#: reuse-disabled (~3.5x slower) run blows straight through.
DEFAULT_SLACK = 2.0


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyObjective:
    """``quantile`` of request latency must stay <= ``threshold_s``.

    The error budget is ``1 - quantile``: a p99 objective tolerates 1%
    of requests over the threshold before the budget is spent.
    """

    name: str
    quantile: float
    threshold_s: float
    description: str = ""

    kind = "latency"

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"latency quantile must be in (0, 1), got {self.quantile}")
        if self.threshold_s <= 0.0:
            raise ValueError(f"latency threshold must be positive, got {self.threshold_s}")

    @property
    def budget_fraction(self) -> float:
        return 1.0 - self.quantile


@dataclass(frozen=True)
class ThroughputObjective:
    """Sustained request throughput must stay >= ``floor_per_s``."""

    name: str
    floor_per_s: float
    description: str = ""

    kind = "throughput"

    def __post_init__(self) -> None:
        if self.floor_per_s <= 0.0:
            raise ValueError(f"throughput floor must be positive, got {self.floor_per_s}")


@dataclass(frozen=True)
class FailureBudgetObjective:
    """Workload decryption-failure probability must stay <= 2**budget."""

    name: str
    log2_budget: float = -20.0
    description: str = ""

    kind = "failure"


class SLORegistry:
    """Named, ordered collection of objectives (one name, one objective)."""

    def __init__(self) -> None:
        self._objectives: "collections.OrderedDict[str, Any]" = collections.OrderedDict()

    def add(self, objective: Any) -> Any:
        if objective.name in self._objectives:
            raise ValueError(f"objective {objective.name!r} already registered")
        self._objectives[objective.name] = objective
        return objective

    def latency(self, name: str, quantile: float, threshold_s: float,
                description: str = "") -> LatencyObjective:
        return self.add(LatencyObjective(name, quantile, threshold_s, description))

    def throughput(self, name: str, floor_per_s: float,
                   description: str = "") -> ThroughputObjective:
        return self.add(ThroughputObjective(name, floor_per_s, description))

    def failure_budget(self, name: str, log2_budget: float = -20.0,
                       description: str = "") -> FailureBudgetObjective:
        return self.add(FailureBudgetObjective(name, log2_budget, description))

    def objectives(self) -> Tuple[Any, ...]:
        return tuple(self._objectives.values())

    @property
    def latency_objectives(self) -> Tuple[LatencyObjective, ...]:
        return tuple(o for o in self._objectives.values()
                     if isinstance(o, LatencyObjective))

    def get(self, name: str) -> Optional[Any]:
        return self._objectives.get(name)

    def __len__(self) -> int:
        return len(self._objectives)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._objectives.values())


def price_slos(config: Any, params: Any, total_bootstraps: Optional[int] = None,
               slack: float = DEFAULT_SLACK,
               quantiles: Tuple[float, ...] = DEFAULT_QUANTILES,
               log2_budget: float = -20.0) -> SLORegistry:
    """Price a default SLO contract from the cycle model.

    Runs :func:`repro.core.simulator.simulate_bootstrap` on ``(config,
    params)`` and derives:

    - per-quantile request-latency thresholds.  With ``total_bootstraps``
      the request population is a scheduled workload whose samples are
      *completion times since start*; requests retire at the modelled
      throughput, so the ``q``-quantile completion time is about
      ``q * total / throughput + bootstrap_latency`` and the threshold is
      ``slack`` times that.  Without it, thresholds price a single
      bootstrap: ``slack * bootstrap_latency``.
    - a throughput floor of ``throughput / slack``;
    - the standard ``2**-20`` decryption-failure budget.

    Call this *before* enabling telemetry: the pricing run publishes its
    own simulator events, which must not contaminate the monitored run.
    """
    from ..core.simulator import simulate_bootstrap  # lazy: core imports us

    if slack < 1.0:
        raise ValueError(f"slack must be >= 1.0, got {slack}")
    report = simulate_bootstrap(config, params)
    slos = SLORegistry()
    service_s = (total_bootstraps / report.throughput_bs
                 if total_bootstraps else 0.0)
    for q in quantiles:
        threshold = slack * (q * service_s + report.bootstrap_latency_s)
        slos.latency(
            f"request_p{q * 100:g}", q, threshold,
            description=(f"p{q * 100:g} request latency priced from "
                         f"{config.name}@{params.name} at {slack:g}x slack"),
        )
    slos.throughput(
        "throughput_floor", report.throughput_bs / slack,
        description=(f"modelled {report.throughput_bs:,.0f} bootstraps/s "
                     f"at 1/{slack:g} slack"),
    )
    slos.failure_budget(
        "decrypt_failure", log2_budget,
        description="union-bound decryption-failure probability budget",
    )
    return slos


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveStatus:
    """One objective's verdict inside an :class:`SLOReport`.

    ``budget_remaining`` is the fraction of the error budget left (1.0 =
    untouched, 0.0 = exactly spent, negative = overspent); ``None`` for
    objective kinds without a fractional budget (throughput floors).
    """

    name: str
    kind: str
    target: float
    observed: Optional[float]
    budget_remaining: Optional[float]
    ok: bool
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "observed": self.observed,
            "budget_remaining": self.budget_remaining,
            "ok": self.ok,
            "fields": {k: self.fields[k] for k in sorted(self.fields)},
        }


@dataclass(frozen=True)
class SLOReport:
    """Schema-versioned evaluation of a full SLO contract."""

    schema_version: int
    requests: int
    makespan_s: Optional[float]
    objectives: Tuple[ObjectiveStatus, ...]
    breaches: Tuple[Dict[str, Any], ...]
    latency: Dict[str, Optional[float]]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.objectives)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "ok": self.ok,
            "requests": self.requests,
            "makespan_s": self.makespan_s,
            "latency": {k: self.latency[k] for k in sorted(self.latency)},
            "objectives": [o.to_jsonable() for o in self.objectives],
            "breaches": [dict(sorted(b.items())) for b in self.breaches],
        }

    def render_text(self, width: int = 72) -> str:
        lines = [" SLO report ".center(width, "=")]
        lines.append(f"requests: {self.requests:,}"
                     + (f"   makespan: {self.makespan_s:.4f} s"
                        if self.makespan_s is not None else ""))
        quantile_bits = ", ".join(
            f"{name}={value * 1e3:.2f} ms" if value is not None else f"{name}=-"
            for name, value in sorted(self.latency.items())
        )
        lines.append(f"latency: {quantile_bits}")
        lines.append("-" * width)
        header = (f"{'objective':<22s} {'kind':<10s} {'target':>12s} "
                  f"{'observed':>12s} {'budget left':>11s}  verdict")
        lines.append(header)
        for o in self.objectives:
            target = _fmt(o.kind, o.target)
            observed = _fmt(o.kind, o.observed) if o.observed is not None else "-"
            budget = (f"{o.budget_remaining:+.1%}"
                      if o.budget_remaining is not None else "-")
            verdict = "ok" if o.ok else "BREACH"
            lines.append(f"{o.name:<22.22s} {o.kind:<10s} {target:>12s} "
                         f"{observed:>12s} {budget:>11s}  {verdict}")
        if self.breaches:
            lines.append("-" * width)
            lines.append(f"burn-rate alerts ({len(self.breaches)}):")
            for b in self.breaches:
                lines.append(
                    f"  !! {b['objective']}: burn {b['burn_short']:.1f}x/"
                    f"{b['burn_long']:.1f}x over {b['window_short_s']:g}s/"
                    f"{b['window_long_s']:g}s (factor {b['factor']:g})"
                )
        lines.append(("breached" if not self.ok else "all objectives met")
                     .center(width, "="))
        return "\n".join(lines)


def _fmt(kind: str, value: float) -> str:
    if kind == "latency":
        return f"{value * 1e3:.2f} ms"
    if kind == "throughput":
        return f"{value:,.0f}/s"
    return f"2^{value:.0f}"


# ---------------------------------------------------------------------------
# Monitor
# ---------------------------------------------------------------------------
class _LatencyWindow:
    """Sliding-window good/bad accounting for one latency objective."""

    __slots__ = ("events", "total", "bad")

    def __init__(self) -> None:
        self.events: Deque[Tuple[float, int, int]] = collections.deque()
        self.total = 0  # lifetime requests (never evicted)
        self.bad = 0    # lifetime requests over threshold

    def push(self, t: float, count: int, bad: int, horizon_s: float) -> None:
        self.events.append((t, count, bad))
        self.total += count
        self.bad += bad
        cutoff = t - horizon_s
        while self.events and self.events[0][0] < cutoff:
            self.events.popleft()

    def window_fractions(self, now: float, window_s: float) -> Tuple[int, int]:
        """(requests, bad requests) inside the trailing ``window_s``."""
        total = bad = 0
        cutoff = now - window_s
        for t, count, b in reversed(self.events):
            if t < cutoff:
                break
            total += count
            bad += b
        return total, bad


class SLOMonitor:
    """Bus subscriber evaluating an SLO contract over ``"request"`` events.

    Folds every request sample into one mergeable quantile sketch plus
    per-objective sliding windows, firing ``slo_burn`` anomalies through
    :func:`repro.observability.flightrec.report_anomaly` when a
    multi-window burn-rate pair trips.  Attach around a run::

        monitor = SLOMonitor(slos)
        monitor.attach()
        try:
            run_workload(...)
        finally:
            monitor.detach()
        report = monitor.evaluate(failure=failure_report)
    """

    def __init__(self, slos: SLORegistry, bus: Optional[TelemetryBus] = None,
                 windows: Tuple[Tuple[float, float, float], ...] = DEFAULT_BURN_WINDOWS,
                 cooldown_s: float = 30.0,
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        self.slos = slos
        self.bus = bus if bus is not None else BUS
        self.windows = tuple(windows)
        self.cooldown_s = cooldown_s
        self.sketch = QuantileSketch(relative_accuracy)
        self.requests = 0
        self.breaches: List[Dict[str, Any]] = []
        self._horizon_s = max((w[1] for w in self.windows), default=0.0)
        self._lock = threading.Lock()
        self._state: Dict[str, _LatencyWindow] = {
            o.name: _LatencyWindow() for o in slos.latency_objectives
        }
        self._last_fire: Dict[str, float] = {}

    # -- wiring ---------------------------------------------------------
    def attach(self) -> "SLOMonitor":
        self.bus.subscribe(self._on_event)
        return self

    def detach(self) -> None:
        self.bus.unsubscribe(self._on_event)

    def __enter__(self) -> "SLOMonitor":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- folding --------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        if event.kind != "request":
            return
        latency = float(event.value or 0.0)
        count = int(event.fields.get("count", 1) or 1)
        fired: List[Dict[str, Any]] = []
        with self._lock:
            self.sketch.add(latency, count)
            self.requests += count
            for objective in self.slos.latency_objectives:
                state = self._state[objective.name]
                bad = count if latency > objective.threshold_s else 0
                state.push(event.t_s, count, bad, self._horizon_s)
                if bad:
                    alert = self._check_burn(objective, state, event.t_s)
                    if alert is not None:
                        fired.append(alert)
        # Anomalies publish back onto the bus; fire outside the lock so a
        # recorder/dashboard subscriber can never deadlock against us.
        for alert in fired:
            report_anomaly("slo_burn", **alert)

    def _check_burn(self, objective: LatencyObjective, state: _LatencyWindow,
                    now: float) -> Optional[Dict[str, Any]]:
        last = self._last_fire.get(objective.name)
        if last is not None and now - last < self.cooldown_s:
            return None
        budget = objective.budget_fraction
        for short_s, long_s, factor in self.windows:
            n_short, bad_short = state.window_fractions(now, short_s)
            n_long, bad_long = state.window_fractions(now, long_s)
            if not n_short or not n_long:
                continue
            burn_short = (bad_short / n_short) / budget
            burn_long = (bad_long / n_long) / budget
            if burn_short >= factor and burn_long >= factor:
                self._last_fire[objective.name] = now
                alert = {
                    "objective": objective.name,
                    "quantile": objective.quantile,
                    "threshold_s": objective.threshold_s,
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                    "window_short_s": short_s,
                    "window_long_s": long_s,
                    "factor": factor,
                    "t_s": now,
                }
                self.breaches.append(alert)
                return alert
        return None

    # -- evaluation -----------------------------------------------------
    def evaluate(self, throughput_per_s: Optional[float] = None,
                 failure: Optional[Any] = None) -> SLOReport:
        """Render the contract's current verdict as an :class:`SLOReport`.

        ``throughput_per_s`` overrides the derived throughput (requests
        divided by the max observed sample - correct when samples are
        completion times since start, as the scheduler publishes).
        ``failure`` is an :class:`repro.analysis.failprob.AppFailureReport`
        (or anything with ``total_log2_prob``) backing the failure-budget
        objectives; without one they report unevaluated-but-ok.
        """
        with self._lock:
            sketch = self.sketch.copy()
            requests = self.requests
            state = {name: (s.total, s.bad) for name, s in self._state.items()}
            breaches = tuple(dict(b) for b in self.breaches)
        makespan = sketch.max
        if throughput_per_s is None and makespan and requests:
            throughput_per_s = requests / makespan
        statuses: List[ObjectiveStatus] = []
        for objective in self.slos:
            if isinstance(objective, LatencyObjective):
                total, bad = state[objective.name]
                observed = sketch.quantile(objective.quantile)
                budget = objective.budget_fraction
                bad_fraction = bad / total if total else 0.0
                remaining = 1.0 - bad_fraction / budget
                ok = remaining >= 0.0 and not any(
                    b["objective"] == objective.name for b in breaches
                )
                statuses.append(ObjectiveStatus(
                    name=objective.name, kind=objective.kind,
                    target=objective.threshold_s, observed=observed,
                    budget_remaining=remaining, ok=ok,
                    fields={"quantile": objective.quantile,
                            "requests": total, "bad": bad},
                ))
            elif isinstance(objective, ThroughputObjective):
                observed = throughput_per_s
                ok = observed is None or observed >= objective.floor_per_s
                statuses.append(ObjectiveStatus(
                    name=objective.name, kind=objective.kind,
                    target=objective.floor_per_s, observed=observed,
                    budget_remaining=None, ok=ok,
                    fields={"requests": requests},
                ))
            elif isinstance(objective, FailureBudgetObjective):
                observed = (float(failure.total_log2_prob)
                            if failure is not None else None)
                # Budget used is a probability ratio: the workload spends
                # 2^(observed - budget) of its failure budget.
                remaining = (1.0 - 2.0 ** min(observed - objective.log2_budget, 64.0)
                             if observed is not None else None)
                ok = observed is None or observed <= objective.log2_budget
                statuses.append(ObjectiveStatus(
                    name=objective.name, kind=objective.kind,
                    target=objective.log2_budget, observed=observed,
                    budget_remaining=remaining, ok=ok,
                    fields={"evaluated": observed is not None},
                ))
        return SLOReport(
            schema_version=SLO_REPORT_SCHEMA_VERSION,
            requests=requests,
            makespan_s=makespan,
            objectives=tuple(statuses),
            breaches=breaches,
            latency={f"p{q * 100:g}": sketch.quantile(q)
                     for q in DEFAULT_QUANTILES},
        )
