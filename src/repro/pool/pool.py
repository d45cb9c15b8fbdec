"""Process-pool sharding of the batched bootstrap pipeline.

:class:`BootstrapPool` is the multi-lane execution layer over
:func:`repro.tfhe.bootstrap.programmable_bootstrap_batch`: a batch of
``B`` ciphertexts is split into contiguous shards, one per worker
process, and every worker runs the full MS -> BR -> SE -> KS pipeline on
its shard.  Because the batched kernel is elementwise along the batch
axis with a fixed einsum reduction order, a sharded run is bit-identical
to the single-process batch in the default ``complex128`` precision -
the pool changes *where* samples run, never *what* they compute.

Key-material economics (the whole point): the driver publishes the
pre-transformed BSK spectrum table once into shared memory
(:mod:`repro.pool.shm`); each worker maps it zero-copy and adopts it
into its keyset cache.  No worker ever runs the FFT-heavy table
pre-transform - asserted in tests via the ``transforms_fft_total``
counter each worker reports with its results.

Workers are forked (the keyset rides fork inheritance; platforms
without fork get a clear error), each drains its own task queue, and
all report into one result queue.  With ``telemetry_dir`` set, the
driver opens a telemetry shard and a root trace, injects the trace
carrier, and every worker runs under
:func:`repro.observability.distrib.worker_telemetry` - so ``repro
fleet`` aggregates the pool's shards into one causally-linked trace
with exact fleet percentiles, the same machinery as the fleet demo.

Crash safety: a worker dying (e.g. SIGKILL) is detected while waiting
for its results; the pool shuts down and the shared segment is
unlinked - on clean exits, on crashes, and from an ``atexit`` hook.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_mod
import signal
from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..tfhe.batch import LweBatch
from ..tfhe.bootstrap import check_batch_inputs
from ..tfhe.keys import KeySet
from ..tfhe.lwe import LweCiphertext
from ..transforms import backends as _backends
from .shm import SharedSpectrumTable, SpectrumHandle

__all__ = ["BootstrapPool", "PoolWorkerLost", "DEFAULT_TASK_TIMEOUT_S"]

#: Ceiling on waiting for one shard result before declaring the worker
#: lost even though the process object still looks alive.
DEFAULT_TASK_TIMEOUT_S = 120.0

_POLL_S = 0.05


class PoolWorkerLost(RuntimeError):
    """A worker process died before returning its shard."""

    def __init__(self, worker_id: str, message: str) -> None:
        super().__init__(message)
        self.worker_id = worker_id


def _counter_value(name: str, **labels: Any) -> float:
    """Current value of a registry counter series (0.0 when absent)."""
    from ..observability import REGISTRY

    metric = REGISTRY.get(name)
    if metric is None:
        return 0.0
    try:
        return float(metric.value(**labels))
    except Exception:
        return 0.0


def _worker_stats() -> Dict[str, float]:
    """Telemetry counters a worker ships back with every result."""
    return {
        "pid": float(os.getpid()),
        "fft_forward": _counter_value("transforms_fft_total", direction="forward"),
        "fft_inverse": _counter_value("transforms_fft_total", direction="inverse"),
        "bootstraps": _counter_value("tfhe_bootstraps_total"),
    }


def _pool_worker_main(
    worker_id: str,
    keyset: KeySet,
    handle: SpectrumHandle,
    backend_name: str,
    precision: str,
    task_q: Any,
    result_q: Any,
    shard_dir: Optional[str],
    carrier: Optional[str],
    heartbeat_s: float,
    kill_after_jobs: Optional[int],
) -> None:
    """One pool lane: map the shared table, then drain the task queue.

    Module-level so it is importable in children; runs under
    ``worker_telemetry`` when the pool has a telemetry directory.  Tasks
    are ``(job_id, shard_idx, shard, tps)`` tuples, ``shard`` an
    :class:`LweBatch`; ``None`` stops the lane.  ``kill_after_jobs`` is
    the crash drill: after that many completed jobs the lane SIGKILLs itself (no cleanup), exercising
    the driver's crash detection and segment unlink.
    """
    from contextlib import nullcontext

    from ..observability.distrib import worker_telemetry
    from ..tfhe.bootstrap import programmable_bootstrap_batch

    _backends.set_backend(backend_name)
    # Drop everything inherited over fork so the *only* transform-domain
    # image this process holds is the shared mapping.
    keyset.drop_spectrum_cache()
    shared = SharedSpectrumTable.attach(handle)
    shared.install(keyset)

    telem = (
        worker_telemetry(worker_id, shard_dir, carrier=carrier,
                         heartbeat_interval_s=heartbeat_s)
        if shard_dir is not None
        else nullcontext(None)
    )
    done = 0
    with telem:
        while True:
            task = task_q.get()
            if task is None:
                result_q.put(("bye", worker_id, None, None, None, _worker_stats()))
                break
            job_id, shard_idx, shard, tps = task
            out = programmable_bootstrap_batch(shard, tps, keyset, precision=precision)
            result_q.put(("result", worker_id, job_id, shard_idx, out, _worker_stats()))
            done += 1
            if kill_after_jobs is not None and done >= kill_after_jobs:
                # Crash drill: flush the sent result (the feeder thread
                # is async), then die without any cleanup.
                result_q.close()
                result_q.join_thread()
                os.kill(os.getpid(), signal.SIGKILL)


class BootstrapPool:
    """N forked lanes sharing one shared-memory BSK spectrum table.

    Usage::

        with BootstrapPool(keyset, workers=4) as pool:
            outs = pool.bootstrap_batch(cts, test_poly)

    ``backend`` picks the compute backend every lane runs
    (:mod:`repro.transforms.backends`; ``None`` resolves the driver's
    active backend, honouring ``REPRO_BACKEND``).  ``telemetry_dir``
    turns on the full distributed-telemetry path: driver shard + root
    trace + per-worker shards, aggregatable with ``repro fleet``.
    """

    def __init__(
        self,
        keyset: KeySet,
        workers: int = 2,
        precision: str = "double",
        backend: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
        heartbeat_s: float = 0.1,
        task_timeout_s: float = DEFAULT_TASK_TIMEOUT_S,
        kill_after_jobs: Optional[Dict[int, int]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if precision not in ("double", "single"):
            raise ValueError(
                f"precision must be 'double' or 'single', got {precision!r}"
            )
        self.keyset = keyset
        self.workers = workers
        self.precision = precision
        # Resolve eagerly so unknown names fail at construction, in the
        # driver, with the available-backend list in the message.
        self.backend = (
            _backends.get_backend(backend).name
            if backend is not None
            else _backends.active_backend_name()
        )
        self.telemetry_dir = telemetry_dir
        self.heartbeat_s = heartbeat_s
        self.task_timeout_s = task_timeout_s
        self._kill_after_jobs = dict(kill_after_jobs or {})
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._task_qs: List[Any] = []
        self._result_q: Any = None
        self._shared: Optional[SharedSpectrumTable] = None
        self._stack: Optional[ExitStack] = None
        self._job_counter = 0
        self._last_stats: Dict[str, Dict[str, float]] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "BootstrapPool":
        """Publish the shared table and fork the lanes (idempotent)."""
        if self._procs:
            return self
        if self._closed:
            raise RuntimeError("pool already closed")
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - Windows only
            raise RuntimeError(
                "BootstrapPool requires the fork start method "
                "(POSIX); this platform does not provide it"
            ) from exc

        self._stack = ExitStack()
        carrier: Optional[str] = None
        if self.telemetry_dir is not None:
            from .. import observability as obs
            from ..observability import context as trace_context
            from ..observability.distrib import worker_telemetry

            # The pool owns process-wide telemetry for its lifetime:
            # driver shard + root trace, exactly like the fleet demo.
            self._stack.enter_context(
                worker_telemetry("driver", self.telemetry_dir,
                                 heartbeat_interval_s=self.heartbeat_s)
            )
            root = trace_context.start_trace()
            self._stack.enter_context(
                obs.TRACER.span("pool/submit", category="pool", ctx=root,
                                workers=self.workers, backend=self.backend,
                                precision=self.precision)
            )
            carrier = trace_context.inject(root)
            obs.BUS.publish("workload", "pool/run", value=float(self.workers),
                            workers=self.workers, backend=self.backend,
                            precision=self.precision)

        self._shared = SharedSpectrumTable.publish(self.keyset, self.precision)
        atexit.register(self._atexit_cleanup)
        self._result_q = mp.Queue()
        for i in range(self.workers):
            task_q = mp.Queue()
            proc = mp.Process(
                target=_pool_worker_main,
                args=(
                    f"w{i}", self.keyset, self._shared.handle, self.backend,
                    self.precision, task_q, self._result_q,
                    self.telemetry_dir, carrier, self.heartbeat_s,
                    self._kill_after_jobs.get(i),
                ),
            )
            proc.daemon = True
            proc.start()
            self._task_qs.append(task_q)
            self._procs.append(proc)
        return self

    def __enter__(self) -> "BootstrapPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _atexit_cleanup(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown: never raise from atexit

    def close(self) -> None:
        """Stop the lanes and release the shared segment (idempotent).

        The segment is unlinked *before* joining so even a wedged or
        crashed lane cannot leave the name behind; mapped pages stay
        valid in every process until it exits.
        """
        if self._closed:
            return
        self._closed = True
        if self._shared is not None:
            self._shared.unlink()
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if self._shared is not None:
            self._shared.close()
            self._shared = None
        for task_q in self._task_qs:
            try:
                task_q.close()
            except Exception:
                pass
        self._task_qs = []
        if self._result_q is not None:
            try:
                self._result_q.close()
            except Exception:
                pass
            self._result_q = None
        self._procs = []
        if self._stack is not None:
            stack, self._stack = self._stack, None
            stack.close()

    # -- execution ----------------------------------------------------
    def _live_worker_ids(self) -> List[int]:
        return [i for i, p in enumerate(self._procs) if p.is_alive()]

    def bootstrap_batch(
        self,
        cts: Union[LweBatch, Sequence[LweCiphertext]],
        test_polys: np.ndarray,
    ) -> Union[LweBatch, List[LweCiphertext]]:
        """Shard ``cts`` across the lanes; bit-identical to one big batch.

        An :class:`LweBatch` comes back as one, a sequence as a list.
        ``test_polys`` is one shared ``(N,)`` LUT or a per-sample
        ``(B, N)`` stack (sliced with its shard).  Input is checked here,
        before dispatch, so a malformed batch leaves the lanes serving.
        Results come back in input order.  Raises :class:`PoolWorkerLost`
        if a lane dies mid-job (the pool is closed and the segment
        unlinked first).
        """
        if not self._procs:
            self.start()
        as_list = not isinstance(cts, LweBatch)
        if as_list:
            cts = list(cts)
            if not cts:
                return []
            cts = LweBatch.from_ciphertexts(cts)
        tps = check_batch_inputs(cts, test_polys, self.keyset.params)
        per_sample_lut = tps.ndim == 2
        job_id = self._job_counter
        self._job_counter += 1

        pending: Dict[int, np.ndarray] = {}
        for shard_idx, rows in enumerate(np.array_split(np.arange(cts.size), self.workers)):
            if rows.size == 0:
                continue
            shard_tps = tps[rows] if per_sample_lut else tps
            self._task_qs[shard_idx].put(
                (job_id, shard_idx, LweBatch(cts.a[rows], cts.b[rows]), shard_tps)
            )
            pending[shard_idx] = rows

        out_a = np.empty_like(cts.a)
        out_b = np.empty_like(cts.b)
        waited = 0.0
        dead_grace = 0.0
        while pending:
            try:
                kind, worker_id, rj, shard_idx, shard_out, stats = self._result_q.get(
                    timeout=_POLL_S
                )
            except queue_mod.Empty:
                waited += _POLL_S
                dead = [
                    i for i in pending
                    if not self._procs[i].is_alive()
                ]
                if dead:
                    # A result the lane flushed before dying may still be
                    # in the pipe; drain briefly before declaring it lost.
                    dead_grace += _POLL_S
                    if dead_grace >= 1.0:
                        lost = f"w{dead[0]}"
                        self.close()
                        raise PoolWorkerLost(
                            lost,
                            f"pool worker {lost} died before returning its "
                            f"shard (job {job_id}); shared segment unlinked",
                        )
                if waited >= self.task_timeout_s:
                    self.close()
                    raise PoolWorkerLost(
                        "unknown",
                        f"timed out after {self.task_timeout_s:.0f}s waiting "
                        f"for shard results (job {job_id})",
                    )
                continue
            if stats is not None:
                self._last_stats[worker_id] = stats
            if kind != "result" or rj != job_id:
                continue  # late messages from a previous job / shutdown
            rows = pending.pop(shard_idx)
            out_a[rows] = shard_out.a
            out_b[rows] = shard_out.b
        out = LweBatch(out_a, out_b)
        return list(out) if as_list else out

    def worker_stats(self) -> Dict[str, Dict[str, float]]:
        """Latest per-worker counters (fft counts, bootstraps, pid)."""
        return {k: dict(v) for k, v in self._last_stats.items()}
