"""Compare a collected bench document against the committed baseline.

Usage (what the CI bench-regression job runs)::

    python -m pytest benchmarks/bench_core_perf.py --bench-json BENCH_core.json
    python benchmarks/check_bench_regression.py \
        --baseline benchmarks/baselines/BENCH_core.json \
        --current BENCH_core.json

Per-metric policy:

- float metrics (``throughput_bs``, ``bootstrap_latency_ms``) compare
  within a relative tolerance (default 1%) - the models are analytic, so
  anything beyond numeric noise is a real behaviour change;
- floor metrics (``speedup_batch16``) treat the baseline as a minimum the
  current run must meet or beat - wall-clock speedups vary by machine, so
  only a drop below the floor is a regression;
- scaling floors (``scaling_*``, e.g. the pool's ``scaling_workers4``)
  are floors that only apply when the current run measured them: a
  ``null`` current value means the run could not enforce scaling on
  that machine (informational mode, or fewer CPUs than workers) and is
  reported as a note, never a violation;
- informational metrics (anything ending in ``_per_s`` or ``_wall_ms``,
  and the machine's ``cpu_count``) are collected for trend-watching but
  never compared - absolute wall-clock throughput and latency
  percentiles are machine-dependent.
  One newly *added* informational metric (present in the run, absent
  from the baseline) is listed as a note so baseline refreshes are
  visible, not a failure;
- structural metrics (``bottleneck``, ``group_size``, reuse factors,
  ``backend``) and the perf-counter ``counters_digest`` must match
  exactly;
- any *non-informational* metric missing from one side is a violation
  with an explicit which-side message - a baseline entry lacking a
  metric the run now produces means the baseline needs a deliberate
  refresh;
- the entry sets and ``schema_version`` must match exactly (a missing or
  extra entry is a harness change that needs a deliberate baseline
  refresh, not a silent pass).

Exit status 0 when everything matches, 1 with a per-violation report
otherwise.  Refresh the baseline with ``benchmarks/refresh_baseline.sh``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

#: Relative tolerance for float-valued metrics.
DEFAULT_REL_TOL = 0.01

#: Metrics compared within the relative tolerance; everything else in an
#: entry (strings, counts, digests) must match exactly.
TOLERANT_METRICS = ("throughput_bs", "bootstrap_latency_ms")

#: Metrics where the baseline is a floor: current must be >= baseline.
FLOOR_METRICS = ("speedup_batch16",)

#: Name prefixes of *conditional* floor metrics: floors that a run may
#: record as null when the machine cannot enforce them (see module doc).
CONDITIONAL_FLOOR_PREFIXES = ("scaling_",)

#: Metrics recorded for trend-watching only; values are never compared
#: (wall-clock throughput and latency percentiles are machine-dependent).
#: New wall-clock metrics must use ``_wall_ms``, never bare ``_ms`` - the
#: informational check runs before the tolerant one, so a ``_ms`` suffix
#: would silently demote tolerant metrics like ``bootstrap_latency_ms``.
INFORMATIONAL_SUFFIXES = ("_per_s", "_wall_ms")

#: Descriptions of the machine a run measured on, recorded next to its
#: wall-clock metrics and, like them, never compared.
INFORMATIONAL_METRICS = ("cpu_count",)


def _is_informational(metric: str) -> bool:
    return metric.endswith(INFORMATIONAL_SUFFIXES) or metric in INFORMATIONAL_METRICS


def _is_conditional_floor(metric: str) -> bool:
    return metric.startswith(CONDITIONAL_FLOOR_PREFIXES)


def _as_float(value: object) -> Optional[float]:
    """Float value of a metric, or None when absent/non-numeric."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def compare_documents(
    baseline: dict, current: dict, rel_tol: float = DEFAULT_REL_TOL
) -> Tuple[List[str], List[str]]:
    """Compare two bench documents: ``(violations, notes)``.

    ``violations`` fail the check; ``notes`` are printed for visibility
    (newly-added informational metrics, unenforceable scaling floors).
    """
    violations: List[str] = []
    notes: List[str] = []
    if baseline.get("schema_version") != current.get("schema_version"):
        violations.append(
            f"schema_version: baseline {baseline.get('schema_version')} "
            f"!= current {current.get('schema_version')}"
        )
        return violations, notes

    base_entries: Dict[str, dict] = baseline.get("entries", {})
    cur_entries: Dict[str, dict] = current.get("entries", {})
    for name in sorted(set(base_entries) - set(cur_entries)):
        violations.append(f"{name}: missing from current run")
    for name in sorted(set(cur_entries) - set(base_entries)):
        violations.append(f"{name}: not in baseline (refresh it deliberately)")

    for name in sorted(set(base_entries) & set(cur_entries)):
        base, cur = base_entries[name], cur_entries[name]
        if not isinstance(base, dict) or not isinstance(cur, dict):
            violations.append(f"{name}: malformed entry (expected an object)")
            continue
        for metric in sorted(set(base) | set(cur)):
            label = f"{name}.{metric}"
            if metric not in cur:
                violations.append(
                    f"{label}: present in the baseline but missing from the "
                    f"current run (bench no longer records it? refresh the "
                    f"baseline deliberately)"
                )
                continue
            if metric not in base:
                if _is_informational(metric):
                    notes.append(
                        f"{label}: newly-added informational metric "
                        f"(value {cur[metric]!r}); refresh the baseline to "
                        f"start recording it"
                    )
                else:
                    violations.append(
                        f"{label}: present in the current run but missing "
                        f"from the baseline entry - refresh the baseline to "
                        f"adopt the new metric"
                    )
                continue
            b, c = base[metric], cur[metric]
            if _is_informational(metric):
                continue
            if _is_conditional_floor(metric):
                bf, cf = _as_float(b), _as_float(c)
                if cf is None:
                    notes.append(
                        f"{label}: floor {b} not enforceable on this machine "
                        f"(informational mode or too few CPUs); skipped"
                    )
                elif bf is None:
                    notes.append(
                        f"{label}: baseline records no floor ({b!r}); "
                        f"current measured {c}"
                    )
                elif cf < bf:
                    violations.append(f"{label}: {c} below the {b} floor")
                continue
            if metric in FLOOR_METRICS:
                bf, cf = _as_float(b), _as_float(c)
                if bf is None or cf is None:
                    violations.append(
                        f"{label}: floor metric is not numeric "
                        f"(baseline {b!r}, current {c!r})"
                    )
                elif cf < bf:
                    violations.append(f"{label}: {c} below the {b} floor")
            elif metric in TOLERANT_METRICS:
                bf, cf = _as_float(b), _as_float(c)
                if bf is None or cf is None:
                    violations.append(
                        f"{label}: tolerant metric is not numeric "
                        f"(baseline {b!r}, current {c!r})"
                    )
                    continue
                scale = max(abs(bf), 1e-12)
                rel = abs(cf - bf) / scale
                if rel > rel_tol:
                    violations.append(
                        f"{label}: {b} -> {c} "
                        f"({rel:.2%} > {rel_tol:.2%} tolerance)"
                    )
            elif b != c:
                violations.append(f"{label}: {b!r} != {c!r}")
    return violations, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON document")
    parser.add_argument("--current", required=True,
                        help="freshly collected JSON document")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                        help="relative tolerance for float metrics "
                             f"(default {DEFAULT_REL_TOL})")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)

    violations, notes = compare_documents(baseline, current, rel_tol=args.rel_tol)
    for note in notes:
        print(f"note: {note}")
    if violations:
        print(f"bench regression: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        print("intentional change?  refresh with benchmarks/refresh_baseline.sh")
        return 1
    entries = len(baseline.get("entries", {}))
    print(f"bench regression: {entries} entries match the baseline "
          f"(rel tol {args.rel_tol:.2%} on {', '.join(TOLERANT_METRICS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
