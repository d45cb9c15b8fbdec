"""Layer-by-layer tracing of the bootstrap stack, from outside the program.

Nothing here edits ``src/``.  :func:`install` rebinds the public
functions of each layer *where their callers look them up* (module
globals and class attributes) to thin wrappers that record a span per
call while the tracer is active.  Installing happens before any pool
forks, so forked lanes inherit the wrappers too.

A span is ``[name, start, end, parent, request]``; ``parent`` is the
enclosing span on the same thread (``None`` for a root).  Self time is a
span's duration minus the time its children cover.  Spans stay in memory.
A forked lane cannot rely on atexit, so after every bootstrap call it
appends that call's folded spans to a JSON-lines file the parent reads.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Wrapped callables: (dotted owner, attribute, span name).  The owner is a
#: module or a class; every entry is a public function the next layer up
#: calls through that owner.
WRAPPED = (
    ("repro.tfhe.bootstrap", "modswitch", "ms"),
    ("repro.tfhe.bootstrap", "blind_rotate_batch", "br"),
    ("repro.tfhe.bootstrap", "sample_extract_batch", "se"),
    ("repro.tfhe.bootstrap", "key_switch_batch", "ks"),
    ("repro.tfhe.bootstrap", "monomial_rotate_batch", "rotate"),
    ("repro.tfhe.ggsw", "decompose", "decompose"),
    ("repro.tfhe.ggsw", "negacyclic_fft", "fwd_fft"),
    ("repro.tfhe.polynomial", "negacyclic_ifft", "inv_fft"),
    ("repro.tfhe.boolean:Circuit", "evaluate_encrypted", "circuit"),
    ("repro.pool.pool:BootstrapPool", "bootstrap_batch", "pool_call"),
    ("repro.observability.bus:TelemetryBus", "publish", "publish"),
)

#: Every place ``programmable_bootstrap_batch`` is looked up: the defining
#: module (pool lanes import it from there at call time), the ops layer
#: (circuits) and the package re-export.
BOOTSTRAP_OWNERS = ("repro.tfhe.bootstrap", "repro.tfhe.ops", "repro.tfhe")


class Tracer:
    """In-memory span recorder for one process (lanes reset it after fork)."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.request]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def take(self) -> tuple:
        """Hand over and clear the recorded spans and counts."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, defaultdict(float)
        return spans, counts

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None,
             when: Optional[Callable] = None) -> Callable:
        """Span ``fn`` while active (and ``when(args)`` holds, if given)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced


def fold(spans: List[list]) -> Dict[str, Any]:
    """Totals, self times and call counts per span name, plus checks.

    ``violations`` counts spans whose children cover more time than the
    span itself lasted (impossible for correctly nested spans).
    Unfinished spans (a heartbeat thread caught mid-publish) are skipped.
    """
    done = [s for s in spans if s[2] > 0.0]
    child_time: Dict[int, float] = defaultdict(float)
    for s in done:
        if s[3] is not None:
            child_time[id(s[3])] += s[2] - s[1]
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    violations = 0
    for s in done:
        dur = s[2] - s[1]
        covered = child_time.get(id(s), 0.0)
        if covered > dur + 1e-9:
            violations += 1
        total[s[0]] += dur
        self_time[s[0]] += dur - covered
        calls[s[0]] += 1
    return {"total": dict(total), "self": dict(self_time), "calls": dict(calls),
            "violations": violations}


def _resolve(owner: str):
    import importlib

    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


def _count_decompose(tracer: Tracer, args: tuple) -> None:
    # One decompose call per BSK row that has active samples; its leading
    # axis is the number of samples stepping through that row.
    tracer.count("br.rows", 1)
    tracer.count("br.steps", args[0].shape[0])


def _count_polys(key: str) -> Callable:
    def on_call(tracer: Tracer, args: tuple) -> None:
        tracer.count(key, math.prod(args[0].shape[:-1]))

    return on_call


def _count_bootstrap(tracer: Tracer, args: tuple) -> None:
    tracer.count("bootstrap.rows", len(args[0]))


def _count_pool_bytes(tracer: Tracer, args: tuple) -> None:
    # Computed payload: ciphertext arrays go out and the same shapes come
    # back; a shared (N,) LUT is sent to every shard, a (B, N) stack is split.
    pool, cts, test_polys = args[:3]
    ct_bytes = sum(ct.a.nbytes + 4 for ct in cts)
    tps = np.asarray(test_polys)
    shards = min(pool.workers, len(cts))
    tracer.count("pool.bytes_sent", ct_bytes + (tps.nbytes if tps.ndim == 2 else tps.nbytes * shards))
    tracer.count("pool.bytes_returned", ct_bytes)


class _TimedBackend:
    """Proxy over the active compute backend that times its einsum (MAC)."""

    def __init__(self, tracer: Tracer, backend: Any) -> None:
        self._tracer = tracer
        self._backend = backend

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._backend, attr)

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        tracer = self._tracer
        span = tracer.begin("mac")
        try:
            out = self._backend.einsum(subscripts, *operands)
        finally:
            tracer.end(span)
        if subscripts == "aijf,ijcf->acf":
            digits, rows = operands
            a, i, j, f = digits.shape
            tracer.count("mac.cmacs", a * i * j * rows.shape[2] * f)
        tracer.count("mac.bytes", sum(op.nbytes for op in operands) + out.nbytes)
        return out


def install(tracer: Tracer, lane_dir: str, lane_flag: str) -> None:
    """Rebind every traced function; call once, before any pool forks.

    In a forked lane (pid differs from the installing process) the
    bootstrap wrapper turns tracing on only while ``lane_flag`` exists,
    and after each traced call appends the call's folded spans and counts
    to ``lane_dir/lane-<pid>.jsonl``.
    """
    import repro.tfhe.bootstrap as bootstrap_mod
    import repro.tfhe.ggsw as ggsw_mod

    hooks = {
        "decompose": _count_decompose,
        "fwd_fft": _count_polys("fft.forward_polys"),
        "inv_fft": _count_polys("fft.inverse_polys"),
        "pool_call": _count_pool_bytes,
    }
    # A disabled bus returns at once; only publishes that do work are spans.
    when = {"publish": lambda args: args[0].enabled}
    for owner, attr, name in WRAPPED:
        target = _resolve(owner)
        setattr(target, attr, tracer.wrap(name, getattr(target, attr), hooks.get(name),
                                          when.get(name)))

    real_active_backend = ggsw_mod.active_backend

    def active_backend() -> Any:
        backend = real_active_backend()
        return _TimedBackend(tracer, backend) if tracer.active else backend

    ggsw_mod.active_backend = active_backend

    parent_pid = tracer.pid
    traced_batch = tracer.wrap("bootstrap", bootstrap_mod.programmable_bootstrap_batch,
                               _count_bootstrap)

    @functools.wraps(traced_batch)
    def programmable_bootstrap_batch(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() == parent_pid:
            return traced_batch(*args, **kwargs)
        return _lane_call(tracer, traced_batch, lane_dir, lane_flag, args, kwargs)

    for owner in BOOTSTRAP_OWNERS:
        setattr(_resolve(owner), "programmable_bootstrap_batch", programmable_bootstrap_batch)


def _lane_call(tracer: Tracer, traced_batch: Callable, lane_dir: str, lane_flag: str,
               args: tuple, kwargs: dict) -> Any:
    if tracer.pid != os.getpid():  # first call after fork: drop the parent's spans
        tracer.pid = os.getpid()
        tracer.take()
        tracer.request = 0
    tracer.active = os.path.exists(lane_flag)
    if not tracer.active:
        return traced_batch(*args, **kwargs)
    try:
        return traced_batch(*args, **kwargs)
    finally:
        tracer.active = False
        spans, counts = tracer.take()
        record = {"pid": tracer.pid, "call": tracer.request, "fold": fold(spans),
                  "counts": dict(counts)}
        tracer.request += 1
        with open(os.path.join(lane_dir, f"lane-{tracer.pid}.jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")


def read_lane_records(lane_dir: str, offsets: Dict[str, int]) -> List[dict]:
    """New lane records since the last read; ``offsets`` tracks file positions."""
    records = []
    if not os.path.isdir(lane_dir):
        return records
    for fname in sorted(os.listdir(lane_dir)):
        path = os.path.join(lane_dir, fname)
        with open(path) as fh:
            fh.seek(offsets.get(fname, 0))
            for line in fh:
                records.append(json.loads(line))
            offsets[fname] = fh.tell()
    return records
