"""Runtime noise telemetry: per-ciphertext provenance and drift detection.

The perf-counter bank (:mod:`repro.observability.counters`) made the
*performance* model observable; this module is its counterpart on the
*correctness* axis.  A :class:`NoiseTracker` attaches a provenance record
to every LWE ciphertext the functional TFHE path produces, carrying

- the **predicted** noise variance of the value (propagated through the
  same CGGI algebra as :mod:`repro.tfhe.noise` - the instrumented sites
  compute the per-op formulas and hand the result in, so no tfhe import
  happens here);
- the exact **plaintext shadow** (the noise-free torus numerator the
  ciphertext should decrypt to), maintained without any secret key by
  replaying each op's arithmetic on the expected values;
- optionally, with a **debug secret key** registered, the **measured**
  centered phase error of the ciphertext right after the op - the
  predicted-vs-measured pair every drift check needs.

On top of the records the module provides :func:`drift_report` (flag op
classes whose measured noise leaves the analytic envelope - a model
miscalibration or an implementation bug) and the raw **failure points**
(decision margins at bootstraps and decode points) that
:mod:`repro.analysis.failprob` turns into a decryption-failure
probability.

Discipline is identical to the counters: one process-wide singleton
(:data:`NOISE`) that records only while telemetry is on, every
instrumented site is a single read of the telemetry switch
(``BUS.enabled``) and a branch when off, and nothing is allocated on
the disabled path (``benchmarks/bench_observability_overhead.py`` holds
the tfhe layer to that with a ``tracemalloc`` guard).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .bus import BUS as _BUS

__all__ = [
    "NoiseRecord",
    "FailurePoint",
    "OpClassDrift",
    "NoiseTracker",
    "NOISE",
    "noise_tracking",
    "drift_report",
]

_Q = float(1 << 32)
_MASK = (1 << 32) - 1

@dataclass
class NoiseRecord:
    """Provenance of one tracked ciphertext: one record per producing op.

    ``expected`` is the noise-free torus numerator (the plaintext
    shadow); ``measured`` is the centered phase error in torus units when
    a debug key was registered at tracking time, else ``None``.
    """

    op_id: int
    op: str
    predicted_variance: float
    expected: int
    parents: Tuple[int, ...] = ()
    measured: Optional[float] = None
    label: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def predicted_std(self) -> float:
        return math.sqrt(max(self.predicted_variance, 0.0))

    @property
    def predicted_std_log2(self) -> float:
        return 0.5 * math.log2(max(self.predicted_variance, 1e-300))

    @property
    def sigma(self) -> Optional[float]:
        """|measured| in units of the predicted stddev (None if unmeasured)."""
        if self.measured is None:
            return None
        return abs(self.measured) / max(self.predicted_std, 1e-300)

    def to_jsonable(self) -> dict:
        return {
            "op_id": self.op_id,
            "op": self.op,
            "label": self.label,
            "predicted_variance": self.predicted_variance,
            "predicted_std_log2": self.predicted_std_log2,
            "expected": self.expected,
            "parents": list(self.parents),
            "measured": self.measured,
            "sigma": self.sigma,
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class FailurePoint:
    """One place a workload can silently fail: a rounding decision.

    ``margin`` is the distance (torus units) from the noise-free value to
    the nearest decision boundary - a decode grid edge, a sign boundary,
    or the nearest test-polynomial bucket whose output differs.  The
    Gaussian tail of ``variance`` past ``margin`` is the per-point
    failure probability (:mod:`repro.analysis.failprob`).
    """

    op_id: int
    kind: str  # "decode" | "sign_decode" | "bootstrap_decision"
    margin: float
    variance: float
    label: str = ""

    def to_jsonable(self) -> dict:
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "margin": self.margin,
            "variance": self.variance,
            "label": self.label,
        }


@dataclass(frozen=True)
class OpClassDrift:
    """Drift verdict for one op class (all records sharing ``op``)."""

    op: str
    count: int
    measured_count: int
    predicted_std_rms: float
    measured_rms: float
    worst_sigma: float
    sigmas: float

    @property
    def within_envelope(self) -> bool:
        """True when every measured sample stayed inside the envelope."""
        return self.measured_count == 0 or self.worst_sigma <= self.sigmas

    def to_jsonable(self) -> dict:
        return {
            "op": self.op,
            "count": self.count,
            "measured_count": self.measured_count,
            "predicted_std_rms": self.predicted_std_rms,
            "measured_rms": self.measured_rms,
            "worst_sigma": self.worst_sigma,
            "sigmas": self.sigmas,
            "within_envelope": self.within_envelope,
        }


class NoiseTracker:
    """Per-ciphertext noise provenance with optional debug-key measurement.

    All mutating methods are no-ops while telemetry is off.  The
    tracker never imports the tfhe layer at module scope; instrumented
    sites compute predicted variances themselves and measurement lazily
    imports the phase decryptor only when a debug key is registered.
    """

    #: Attribute name used to attach provenance to ciphertext objects.
    ATTR = "_noise_record"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[NoiseRecord] = []
        self._failure_points: List[FailurePoint] = []
        self._labels: List[str] = []
        self._debug_key: Any = None
        self._next_id = 0

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Drop every record and failure point (the debug key stays)."""
        with self._lock:
            self._records.clear()
            self._failure_points.clear()
            self._labels.clear()
            self._next_id = 0

    # -- debug key ------------------------------------------------------
    def register_debug_key(self, lwe_key: Any) -> None:
        """Register the client LWE secret key for measured-noise mode.

        Measurement decrypts every tracked ciphertext's phase and records
        the centered error against the plaintext shadow - debug only, the
        key never leaves the tracker.
        """
        self._debug_key = lwe_key

    def clear_debug_key(self) -> None:
        self._debug_key = None

    @property
    def measuring(self) -> bool:
        return self._debug_key is not None

    # -- labels ---------------------------------------------------------
    @contextmanager
    def labelled(self, label: str) -> Iterator[None]:
        """Tag every record produced inside the block with ``label``."""
        if not _BUS.enabled:
            yield
            return
        with self._lock:
            self._labels.append(label)
        try:
            yield
        finally:
            with self._lock:
                if self._labels:
                    self._labels.pop()

    def _current_label(self) -> str:
        return self._labels[-1] if self._labels else ""

    # -- recording ------------------------------------------------------
    def track(
        self,
        ct: Any,
        op: str,
        variance: float,
        expected: int,
        parents: Sequence[Any] = (),
        **meta: Any,
    ) -> Optional[NoiseRecord]:
        """Attach a provenance record to ``ct`` after op ``op``.

        ``parents`` are ciphertext objects (their records, if tracked,
        become the provenance edges).  Returns the record, or None when
        disabled.
        """
        if not _BUS.enabled:
            return None
        parent_ids = tuple(
            r.op_id for r in (self.record_of(p) for p in parents) if r is not None
        )
        measured = self._measure(ct, expected)
        with self._lock:
            record = NoiseRecord(
                op_id=self._next_id,
                op=op,
                predicted_variance=float(variance),
                expected=int(expected) & _MASK,
                parents=parent_ids,
                measured=measured,
                label=self._current_label(),
                meta=dict(meta),
            )
            self._next_id += 1
            self._records.append(record)
        try:
            setattr(ct, self.ATTR, record)
        except AttributeError:
            pass  # slotted/foreign objects simply stay untracked downstream
        self._export(record)
        _BUS.publish(
            "noise", record.op, value=record.predicted_std_log2,
            op_id=record.op_id, label=record.label,
            predicted_std_log2=record.predicted_std_log2,
            measured=record.measured, sigma=record.sigma,
        )
        return record

    def track_linear(
        self,
        out: Any,
        op: str,
        terms: Sequence[Tuple[int, Any]],
        plain_offset: int = 0,
    ) -> Optional[NoiseRecord]:
        """Track a plaintext-weighted sum ``out = sum w_i * ct_i + offset``.

        Repeated ciphertext objects merge their weights first, so
        ``x + x`` correctly quadruples (not doubles) the variance.  If
        any operand carries no record the output stays untracked -
        provenance would be a guess.
        """
        if not _BUS.enabled:
            return None
        merged: Dict[int, Tuple[Any, int]] = {}
        for weight, ct in terms:
            key = id(ct)
            if key in merged:
                merged[key] = (ct, merged[key][1] + int(weight))
            else:
                merged[key] = (ct, int(weight))
        variance = 0.0
        expected = int(plain_offset)
        parent_cts = []
        for ct, weight in merged.values():
            record = self.record_of(ct)
            if record is None:
                return None
            variance += float(weight) * float(weight) * record.predicted_variance
            expected += weight * record.expected
            parent_cts.append(ct)
        return self.track(out, op, variance, expected & _MASK, parents=parent_cts)

    def record_failure_point(
        self, kind: str, margin: float, variance: float,
        op_id: Optional[int] = None,
    ) -> None:
        """Record one decision whose Gaussian tail can fail the workload."""
        if not _BUS.enabled:
            return
        with self._lock:
            point = FailurePoint(
                op_id=self._next_id - 1 if op_id is None else op_id,
                kind=kind,
                margin=float(margin),
                variance=float(variance),
                label=self._current_label(),
            )
            self._failure_points.append(point)
        _BUS.publish("failure_point", point.kind, value=point.margin,
                     op_id=point.op_id, variance=point.variance,
                     label=point.label)

    # -- measurement ----------------------------------------------------
    def _measure(self, ct: Any, expected: int) -> Optional[float]:
        """Centered phase error in torus units (None without a debug key)."""
        if self._debug_key is None:
            return None
        # Lazy import: keeps this module tfhe-free and the disabled path
        # allocation-free; only debug-mode tracking pays for it.
        from ..tfhe.lwe import lwe_decrypt_phase

        if getattr(ct, "a", None) is None or getattr(self._debug_key, "bits", None) is None:
            return None
        if ct.n != self._debug_key.n:
            return None
        phase = int(lwe_decrypt_phase(ct, self._debug_key))
        diff = (phase - int(expected)) & _MASK
        if diff >= 1 << 31:
            diff -= 1 << 32
        return diff / _Q

    def _export(self, record: NoiseRecord) -> None:
        """Mirror one record into the registry quantiles and the tracer.

        Called only from :meth:`track`, after its telemetry check.
        """
        from . import REGISTRY, TRACER

        predicted = REGISTRY.quantile(
            "tfhe_noise_predicted_std",
            "Predicted per-op noise stddev (torus units), by op",
        )
        predicted.observe(record.predicted_std, op=record.op)
        if record.measured is not None:
            measured = REGISTRY.quantile(
                "tfhe_noise_measured_abs",
                "Measured |centered phase error| (torus units), by op",
            )
            measured.observe(abs(record.measured), op=record.op)
        TRACER.add_span(
            f"noise/{record.op}",
            ts_us=float(record.op_id),
            dur_us=1.0,
            category="noise",
            track="noise" if not record.label else f"noise/{record.label}",
            args={
                "predicted_std_log2": record.predicted_std_log2,
                "measured": record.measured,
                "sigma": record.sigma,
            },
        )

    # -- reads ----------------------------------------------------------
    def record_of(self, ct: Any) -> Optional[NoiseRecord]:
        """The provenance record attached to ``ct`` (None if untracked)."""
        return getattr(ct, self.ATTR, None)

    def records(self) -> List[NoiseRecord]:
        with self._lock:
            return list(self._records)

    def failure_points(self) -> List[FailurePoint]:
        with self._lock:
            return list(self._failure_points)

    def records_for(self, op: str) -> List[NoiseRecord]:
        with self._lock:
            return [r for r in self._records if r.op == op]

    def op_classes(self) -> List[str]:
        with self._lock:
            return sorted({r.op for r in self._records})

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def snapshot(self) -> dict:
        """Deterministic plain-dict view (the noise-waterfall JSON export)."""
        with self._lock:
            return {
                "measured": self._debug_key is not None,
                "records": [r.to_jsonable() for r in self._records],
                "failure_points": [p.to_jsonable() for p in self._failure_points],
            }


#: Process-wide noise tracker (records while telemetry is on).
NOISE = NoiseTracker()


@contextmanager
def noise_tracking(lwe_key: Any = None) -> Iterator[NoiseTracker]:
    """Switch telemetry on for a ``with`` block, as
    :func:`repro.observability.telemetry` does, and yield :data:`NOISE`.

    Pass ``lwe_key`` (the client secret key) to measure real phase errors
    alongside the predictions; the key is dropped again on exit.
    """
    from . import telemetry

    prior_key = NOISE._debug_key
    if lwe_key is not None:
        NOISE.register_debug_key(lwe_key)
    try:
        with telemetry():
            yield NOISE
    finally:
        NOISE._debug_key = prior_key


def drift_report(
    tracker: Optional[NoiseTracker] = None, sigmas: float = 6.0
) -> List[OpClassDrift]:
    """Per-op-class drift verdicts: measured noise vs the analytic envelope.

    An op class drifts when any measured sample exceeded ``sigmas``
    predicted standard deviations - either the variance algebra is
    miscalibrated for that op or the implementation leaks extra noise.
    Classes without measured samples report ``within_envelope`` (nothing
    contradicts the model) but ``measured_count == 0`` flags them.
    """
    active = tracker if tracker is not None else NOISE
    by_op: Dict[str, List[NoiseRecord]] = {}
    for record in active.records():
        by_op.setdefault(record.op, []).append(record)
    out = []
    for op in sorted(by_op):
        records = by_op[op]
        measured = [r for r in records if r.measured is not None]
        mean_var = sum(r.predicted_variance for r in records) / len(records)
        rms = (
            math.sqrt(sum(r.measured * r.measured for r in measured) / len(measured))  # type: ignore[operator]
            if measured else 0.0
        )
        worst = max((r.sigma for r in measured), default=0.0)
        out.append(OpClassDrift(
            op=op,
            count=len(records),
            measured_count=len(measured),
            predicted_std_rms=math.sqrt(mean_var),
            measured_rms=rms,
            worst_sigma=float(worst or 0.0),
            sigmas=sigmas,
        ))
    return out
