#!/usr/bin/env python3
"""Set-I functional benchmark of the TFHE bootstrap stack.

Run from the repository root::

    python3 perfbench/run.py --workload batch16 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload adder4 --seed 1 --seconds 16 --trace 1
    python3 perfbench/run.py --smoke

One closed-loop caller drives the workload: it sets up (key generation,
BSK pre-transform, pool start, one warm call), then issues requests back
to back for ``--seconds`` and checks every output against a plaintext
model.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
installs the layer wrappers of :mod:`layertrace`, traces every second
request of the window, and reports the per-layer metrics plus the
tracing overhead (traced against the interleaved untraced requests).
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "bootstraps_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "cpu_ms_per_bootstrap": "ms",
    "mem_pss_mb": "MB",
}

PER_LAYER = {
    "keys.keygen_s": "s",
    "keys.bsk_transform_s": "s",
    "bootstrap.calls": "count",
    "bootstrap.mean_batch": "count",
    "bootstrap.ms_s": "s",
    "bootstrap.br_s": "s",
    "bootstrap.se_s": "s",
    "bootstrap.ks_s": "s",
    "bootstrap.self_s": "s",
    "br.rows": "count",
    "br.steps": "count",
    "br.rotate_s": "s",
    "br.decompose_s": "s",
    "br.fwd_fft_s": "s",
    "br.mac_s": "s",
    "br.inv_fft_s": "s",
    "br.self_s": "s",
    "fft.forward_polys": "count",
    "fft.inverse_polys": "count",
    "mac.cmacs": "count",
    "mac.bytes": "bytes",
    "pool.start_s": "s",
    "pool.call_s": "s",
    "pool.lane_compute_s": "s",
    "pool.overhead_s": "s",
    "pool.lane_imbalance": "ratio",
    "pool.bytes_sent": "bytes",
    "pool.bytes_returned": "bytes",
    "telemetry.events": "count",
    "telemetry.publish_s": "s",
    "telemetry.shard_bytes": "bytes",
    "circuit.levels": "count",
    "circuit.driver_s": "s",
    "trace.requests": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.violations": "count",
}

#: BR sub-stages; together with br.self_s they partition bootstrap.br_s.
BR_STAGES = ("rotate", "decompose", "fwd_fft", "mac", "inv_fft")

#: Key generation + BSK transform is repeated this often per run and the
#: median reported: the first one in a fresh process is much slower than
#: the rest and swings with the host.
KEY_SAMPLES = 3


@dataclass
class Window:
    """One closed-loop measuring window."""

    latencies: List[float] = field(default_factory=list)
    plain_latencies: List[float] = field(default_factory=list)  # untraced, in a traced run
    wall_s: float = 0.0
    outputs: int = 0
    failed: int = 0
    bootstraps: int = 0
    cpu_s: float = 0.0
    pss_mb: float = 0.0
    last: Any = None
    traced: List[dict] = field(default_factory=list)

    @property
    def correct_bootstraps(self) -> float:
        return self.bootstraps * (1.0 - self.failed / self.outputs)


def measure(wl, seconds: float, tracer=None, lane_dir: str = "",
            lane_flag: str = "") -> Window:
    """Issue requests back to back until the next would overrun ``seconds``.

    With a tracer, odd-numbered requests are traced (in the lanes too,
    while ``lane_flag`` exists) and even-numbered ones are not, so host
    drift over the window hits both sets alike.
    """
    from layertrace import fold, read_lane_records
    from procstat import tree_cpu_seconds, tree_pss_mb

    win = Window()
    pids = wl.pids()
    offsets: Dict[str, int] = {}
    cpu0 = tree_cpu_seconds(pids)
    start = time.perf_counter()
    while True:
        request = wl.new_request()
        traced = tracer is not None and len(win.latencies) % 2 == 1
        if traced:
            open(lane_flag, "w").close()
            tracer.request = len(win.latencies)
            tracer.active = True
            span = tracer.begin("request")
        t0 = time.perf_counter()
        try:
            outputs = wl.run(request)
        except Exception:  # a failed call counts against failed_fraction
            traceback.print_exc(file=sys.stderr)
            outputs = None
        latency = time.perf_counter() - t0
        win.latencies.append(latency)
        if traced:
            tracer.end(span)
            tracer.active = False
            os.remove(lane_flag)
            spans, counts = tracer.take()
            win.traced.append({
                "fold": fold(spans), "counts": dict(counts), "latency": latency,
                "lanes": read_lane_records(lane_dir, offsets),
            })
        elif tracer is not None:
            win.plain_latencies.append(latency)
        win.outputs += wl.outputs_per_request
        win.bootstraps += wl.bootstraps_per_request
        win.failed += wl.outputs_per_request if outputs is None else wl.wrong(request, outputs)
        win.last = (request, outputs)
        elapsed = time.perf_counter() - start
        if (len(win.latencies) >= 2
                and elapsed + statistics.median(win.latencies) > seconds):
            break
    win.wall_s = time.perf_counter() - start
    win.cpu_s = tree_cpu_seconds(pids) - cpu0
    win.pss_mb = tree_pss_mb(pids)
    return win


def layer_metrics(traced: List[dict]) -> Dict[str, float]:
    """Per-request means of the per-layer metrics over the traced requests."""
    sums: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for req in traced:
        folds = [req["fold"]] + [lane["fold"] for lane in req["lanes"]]
        counts: Dict[str, float] = dict(req["counts"])
        for lane in req["lanes"]:
            for key, value in lane["counts"].items():
                counts[key] = counts.get(key, 0.0) + value

        def total(name: str) -> float:
            return sum(f["total"].get(name, 0.0) for f in folds)

        def self_s(name: str) -> float:
            return sum(f["self"].get(name, 0.0) for f in folds)

        def calls(name: str) -> int:
            return sum(f["calls"].get(name, 0) for f in folds)

        lane_walls = [lane["fold"]["total"].get("bootstrap", 0.0) for lane in req["lanes"]]
        m = {
            "bootstrap.calls": calls("bootstrap"),
            "bootstrap.mean_batch": (counts.get("bootstrap.rows", 0.0) / calls("bootstrap")
                                     if calls("bootstrap") else 0.0),
            "bootstrap.ms_s": total("ms"),
            "bootstrap.br_s": total("br"),
            "bootstrap.se_s": total("se"),
            "bootstrap.ks_s": total("ks"),
            "bootstrap.self_s": self_s("bootstrap"),
            "br.self_s": self_s("br"),
            "pool.call_s": total("pool_call"),
            "pool.lane_compute_s": statistics.mean(lane_walls) if lane_walls else 0.0,
            "pool.overhead_s": total("pool_call") - max(lane_walls) if lane_walls else 0.0,
            "pool.lane_imbalance": (max(lane_walls) / statistics.mean(lane_walls)
                                    if lane_walls else 0.0),
            "telemetry.events": calls("publish"),
            "telemetry.publish_s": total("publish"),
            "circuit.levels": calls("bootstrap") if calls("circuit") else 0,
            "circuit.driver_s": self_s("circuit"),
            "trace.coverage": 1.0 - self_s("request") / total("request"),
            "trace.violations": sum(f["violations"] for f in folds),
        }
        for stage in BR_STAGES:
            m[f"br.{stage}_s"] = total(stage)
        for key in ("br.rows", "br.steps", "fft.forward_polys", "fft.inverse_polys",
                    "mac.cmacs", "mac.bytes", "pool.bytes_sent", "pool.bytes_returned"):
            m[key] = counts.get(key, 0.0)
        for key, value in m.items():
            sums[key] += value
    n = max(len(traced), 1)
    means = {key: value / n for key, value in sums.items()}
    means["trace.violations"] = sums["trace.violations"]
    means["trace.requests"] = float(len(traced))
    return means


def tail_line(latencies: List[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return f"tail: none reported ({n} requests; a percentile needs 10 samples beyond it)"
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    value = statistics.quantiles(latencies, n=100)[pct - 1]
    beyond = sum(1 for x in latencies if x > value)
    return f"tail: p{pct} = {value * 1000:.1f} ms ({n} requests, {beyond} beyond)"


def provenance(args, wl, win: Window) -> Dict[str, Any]:
    import numpy

    from repro.transforms.backends import BACKEND_ENV_VAR, active_backend_name

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "backend": active_backend_name(),
        BACKEND_ENV_VAR: os.environ.get(BACKEND_ENV_VAR),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "params": wl.params.describe(),
        "workload": wl.name,
        "bootstraps_per_request": wl.bootstraps_per_request,
        "outputs_per_request": wl.outputs_per_request,
        "lanes": wl.lanes,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(win.latencies),
        "traced_requests": len(win.traced),
        "bootstraps": win.bootstraps,
        "outputs": win.outputs,
        "key_samples": KEY_SAMPLES,
    }


def print_table(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:>14.6g} {unit}")


def run(args) -> int:
    import numpy as np

    from layertrace import Tracer, install
    from repro.params import get_params
    from repro.tfhe import generate_keyset
    from workloads import WORKLOADS

    work_dir = str(HERE.parent / ".perfbench_work" / f"{args.workload}-{os.getpid()}")
    lane_dir = os.path.join(work_dir, "lanes")
    lane_flag = os.path.join(work_dir, "trace-on")
    os.makedirs(lane_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, lane_dir, lane_flag)  # before the pool forks its lanes

    params = get_params(args.params)
    key_seed, input_seed = np.random.SeedSequence(args.seed).spawn(2)
    problems: List[str] = []
    wl = None
    closed = False
    try:
        keygen_s, transform_s = [], []

        def make_keys(seq):
            t0 = time.perf_counter()
            keyset = generate_keyset(params, np.random.default_rng(seq))
            t1 = time.perf_counter()
            keyset.bsk_spectrum_table()
            keygen_s.append(t1 - t0)
            transform_s.append(time.perf_counter() - t1)
            return keyset

        key_seeds = key_seed.spawn(KEY_SAMPLES)
        keyset = make_keys(key_seeds[0])  # the keyset the workload uses
        t2 = time.perf_counter()
        wl = WORKLOADS[args.workload](keyset, np.random.default_rng(input_seed), work_dir)
        wl.open()
        t3 = time.perf_counter()
        warm = wl.new_request()
        if wl.wrong(warm, wl.run(warm)):
            problems.append("warm-up call returned a wrong output")
        t4 = time.perf_counter()

        shard0 = wl.shard_bytes()
        win = measure(wl, args.seconds, tracer, lane_dir, lane_flag)
        shard1 = wl.shard_bytes()
        last_request, last_outputs = win.last
        problems += wl.close()
        closed = True
        if last_outputs is not None:
            spot = wl.spot_check(last_request, last_outputs)
            if spot:
                problems.append(spot)
        # The other key samples run last, so that the memory they leave
        # with the allocator does not count in mem_pss_mb.
        for seq in key_seeds[1:]:
            make_keys(seq)
        keys_s = statistics.median(a + b for a, b in zip(keygen_s, transform_s))
        setup_s = keys_s + (t4 - t2)
    finally:
        if wl is not None and not closed:
            wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    print(f"workload {args.workload} on {params.describe()}, seed {args.seed}")
    print("provenance: " + json.dumps(provenance(args, wl, win), sort_keys=True))
    if tracer is None:
        metrics = {
            "bootstraps_per_s": win.correct_bootstraps / win.wall_s,
            "latency_p50_ms": statistics.median(win.latencies) * 1000.0,
            "setup_s": setup_s,
            "cpu_ms_per_bootstrap": win.cpu_s * 1000.0 / win.bootstraps,
            "mem_pss_mb": win.pss_mb,
        }
        units = END_TO_END
        print_table("end-to-end (untraced):", metrics, units)
        print(f"  {'failed_fraction':<24} {win.failed / win.outputs:>14.6g} ratio")
        print("  " + tail_line(win.latencies))
        print(f"  setup split: keygen + bsk transform {keys_s:.3f} s (median of "
              + ", ".join(f"{a:.3f} + {b:.3f}" for a, b in zip(keygen_s, transform_s))
              + f"), open {t3 - t2:.3f} s, warm call {t4 - t3:.3f} s")
    else:
        metrics = layer_metrics(win.traced)
        metrics["keys.keygen_s"] = statistics.median(keygen_s)
        metrics["keys.bsk_transform_s"] = statistics.median(transform_s)
        metrics["pool.start_s"] = t3 - t2 if wl.lanes else 0.0
        metrics["telemetry.shard_bytes"] = (shard1 - shard0) / len(win.latencies)
        traced_s = statistics.mean(req["latency"] for req in win.traced)
        metrics["trace.overhead"] = traced_s / statistics.mean(win.plain_latencies) - 1.0
        units = PER_LAYER
        print_table("per layer (traced; per request unless a set-up figure):", metrics, units)
        stages = sum(metrics[f"br.{s}_s"] for s in BR_STAGES) + metrics["br.self_s"]
        print(f"  BR sub-stages + br.self_s = {stages:.6f} s vs bootstrap.br_s = "
              f"{metrics['bootstrap.br_s']:.6f} s")
        print(f"  request wall covered by named layers: {metrics['trace.coverage']:.1%}")
        print(f"  tracing overhead: {metrics['trace.overhead']:+.1%} per bootstrap "
              f"({len(win.traced)} traced vs {len(win.plain_latencies)} interleaved "
              f"untraced requests)")
        if metrics["trace.violations"]:
            problems.append(f"{metrics['trace.violations']:.0f} spans whose children "
                            f"outlast them")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": win.failed == 0 and not problems,
        "attempted": win.outputs,
        "failed": win.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload, untraced and traced, on the insecure ``test`` set."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--params", "test"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            errors = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                errors.append(f"no JSON result (exit {proc.returncode})")
            if result is not None:
                if proc.returncode != 0:
                    errors.append(f"exit {proc.returncode}")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    errors.append(f"correct={result['correct']} failed={result['failed']} "
                                  f"attempted={result['attempted']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != units:
                    errors.append(f"metrics/units differ: {sorted(set(got.items()) ^ set(units.items()))}")
            print(f"smoke {name} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
            if errors:
                ok = False
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    print("smoke: " + ("all ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("batch16", "pool2-telemetry", "adder4"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--params", default="I",
                        help="parameter set (default I; the smoke test uses 'test')")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload and the traced run on the test set")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
