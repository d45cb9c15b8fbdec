"""Programmable bootstrapping: MS -> BR -> SE -> KS (Algorithm 1).

The four stages map one-to-one onto Morphling's hardware:

- :func:`modulus_switch` - VPU scalar multiply + round (memory-light);
- :func:`blind_rotate` - the XPU's ``n`` sequential CMux external
  products, each a rotation -> decomposition -> transform-domain
  matrix-vector product;
- sample extraction (:func:`repro.tfhe.glwe.sample_extract`) - pure data
  regrouping on the VPU;
- :func:`key_switch` - the memory-bound KSK contraction on the VPU.

:func:`programmable_bootstrap_batch` composes them.  The measured
operation counts are the ``tfhe_*`` registry counters published here and
``transforms_fft_total`` in :mod:`repro.transforms.fft`; the analytic
counts behind Fig. 1 live in :mod:`repro.analysis.opcount`.

The execution path is *batch-first*: :func:`blind_rotate_batch` runs ``B``
independent accumulators through every BSK row together - the software
analogue of the paper's 2D VPE array, where each row processes a
different bootstrap against the shared, pre-transformed BSK entry.  The
scalar entry points are batch-of-one views of the same kernel, so scalar
and batched results are bit-identical in the default double-precision
mode.  Only the ``"fft"``/``"exact"`` reference engines keep a per-CMux path.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from ..observability import (
    BUS as _BUS,
    NOISE as _NOISE,
    REGISTRY as _METRICS,
    TRACER as _TRACER,
    report_anomaly as _report_anomaly,
)
from ..params import TFHEParams
from ..transforms.backends import active_backend_name as _active_backend_name
from .batch import LweBatch
from .decomposition import decompose
from .ggsw import cmux, external_product_spectrum_batch
from .glwe import GlweCiphertext, glwe_rotate, glwe_trivial, sample_extract, sample_extract_batch
from .keys import KeySet, KeySwitchingKey
from .lwe import LweCiphertext
from .noise import (
    blind_rotation_noise_variance,
    key_switch_noise_variance,
    modulus_switch_noise_variance,
)
from .polynomial import monomial_rotate_batch
from .torus import TORUS_DTYPE, modswitch, to_signed, to_torus, torus_words, u32

__all__ = [
    "modulus_switch",
    "blind_rotate",
    "blind_rotate_batch",
    "key_switch",
    "key_switch_batch",
    "programmable_bootstrap",
    "programmable_bootstrap_batch",
    "check_batch_inputs",
]

_BOOTSTRAPS = _METRICS.counter(
    "tfhe_bootstraps_total", "Programmable bootstraps executed (functional path)"
)
_BR_STEPS = _METRICS.counter(
    "tfhe_blind_rotation_steps_total",
    "Blind-rotation CMux iterations executed (zero digits skipped)",
)
_KEY_SWITCHES = _METRICS.counter(
    "tfhe_key_switches_total", "LWE key switches executed"
)
_BOOTSTRAP_LATENCY = _METRICS.quantile(
    "tfhe_bootstrap_latency_seconds",
    "Wall-clock request latency of the functional bootstrap path; every "
    "request in a batch waits for the whole batch",
)


def modulus_switch(ct: LweCiphertext, N: int) -> tuple:
    """Rescale an LWE ciphertext to modulus ``2N`` (Algorithm 1, line 1).

    Returns plain integer arrays ``(a_tilde, b_tilde)`` in ``Z_{2N}``.
    """
    a_tilde = modswitch(ct.a, 2 * N)
    b_tilde = int(modswitch(np.asarray(ct.b), 2 * N)[()])
    return a_tilde, b_tilde


def blind_rotate_batch(
    a_tilde: np.ndarray,
    b_tilde: np.ndarray,
    test_polys: np.ndarray,
    keyset: KeySet,
    precision: str = "double",
) -> np.ndarray:
    """Blind-rotate ``B`` independent accumulators through one BSK pass.

    ``a_tilde`` has shape ``(B, n)`` and ``b_tilde`` shape ``(B,)`` (both
    already modulus-switched to ``Z_{2N}``); ``test_polys`` is ``(N,)``
    (shared) or ``(B, N)`` (per-sample LUTs).  Returns the ``(B, k+1, N)``
    accumulator data.

    Per BSK row ``i`` the samples whose digit ``a~_i`` is non-zero are
    gathered, rotated-and-differenced in one fused gather (no intermediate
    :class:`GlweCiphertext` copies), and pushed through the shared einsum
    external-product kernel against the eagerly transformed BSK entry -
    exactly the 2D VPE-array schedule: one BSK row amortized over all
    in-flight bootstraps.  ``precision`` picks the BSK table mode
    (``"double"`` is bit-identical to the scalar path; ``"single"`` keeps
    the MAC in complex64, see :meth:`KeySet.bsk_spectrum_table`).
    """
    params = keyset.params
    k, l_b, n_poly = params.k, params.l_b, params.N
    a_tilde = np.asarray(a_tilde, dtype=np.int64)
    batch = a_tilde.shape[0]
    table = keyset.bsk_spectrum_table(precision)
    tp = np.broadcast_to(np.asarray(test_polys, dtype=TORUS_DTYPE), (batch, n_poly))
    acc = np.zeros((batch, k + 1, n_poly), dtype=TORUS_DTYPE)
    acc[:, k, :] = monomial_rotate_batch(tp, -np.asarray(b_tilde, dtype=np.int64))
    total_steps = 0
    for i in range(params.n):
        t = a_tilde[:, i]
        active = np.nonzero(t)[0]
        steps = int(active.size)
        if steps == 0:
            continue
        sub = acc if steps == batch else acc[active]
        # Fused rotate-diff: diff = X^{a~_i} * ACC - ACC in one gather.
        diff = monomial_rotate_batch(sub, t[active, None])
        diff -= sub
        update = external_product_spectrum_batch(
            table[i], diff, params.beta_bits, l_b
        )
        if steps == batch:
            acc += update
        else:
            acc[active] = sub + update
        total_steps += steps
    if total_steps and _BUS.enabled:
        _BR_STEPS.inc(total_steps)
    return acc


def blind_rotate(
    a_tilde: np.ndarray,
    b_tilde: int,
    test_poly: np.ndarray,
    keyset: KeySet,
    engine: str = "transform",
) -> GlweCiphertext:
    """Blind rotation: ACC <- X^{-b~} * TP, then ``n`` CMux iterations.

    After the loop the accumulator holds ``X^{-phase} * TP`` where
    ``phase = b~ - sum a~_i s_i`` - the noisy encoded message in ``Z_{2N}``.
    The default ``"transform"`` engine is a batch-of-one view of
    :func:`blind_rotate_batch`; the ``"fft"``/``"exact"`` reference
    engines keep the per-CMux loop.
    """
    params = keyset.params
    if engine == "transform":
        acc_batch = blind_rotate_batch(
            np.asarray(a_tilde, dtype=np.int64)[None, :],
            np.asarray([b_tilde], dtype=np.int64),
            np.asarray(test_poly, dtype=TORUS_DTYPE),
            keyset,
        )
        return GlweCiphertext(acc_batch[0])
    acc = glwe_trivial(test_poly, params.k)
    acc = glwe_rotate(acc, -b_tilde)
    steps = 0
    for i in range(params.n):
        t = int(a_tilde[i])
        if t == 0:
            continue
        rotated = glwe_rotate(acc, t)
        acc = cmux(keyset.bsk[i], acc, rotated, engine=engine)
        steps += 1
    if steps and _BUS.enabled:
        _BR_STEPS.inc(steps)
    return acc


def key_switch_batch(
    a: np.ndarray,
    b: np.ndarray,
    ksk: KeySwitchingKey,
) -> Tuple[np.ndarray, np.ndarray]:
    """Switch ``B`` extracted LWE samples back to the original key.

    ``a`` has shape ``(B, kN)``, ``b`` shape ``(B,)``.  The KSK
    contraction runs as one einsum, ``out = -sum_{m,j} d[b,m,j] *
    KSK[m,j]``, which streams the uint32 KSK through the buffered
    iterator - no ``(kN, l_k, n)`` int64 intermediate is ever
    materialized (the old broadcast-multiply peaked at hundreds of MB on
    the secure sets).  Exact integer arithmetic: |digit| <= beta_ks/2 and
    kN*l_k terms of < 2^32 keep the int64 accumulator far from overflow.
    """
    a = np.asarray(a, dtype=TORUS_DTYPE)
    if a.shape[-1] != ksk.in_dimension:
        raise ValueError("ciphertext dimension does not match KSK input dimension")
    digits = decompose(a, ksk.beta_ks_bits, ksk.l_k)  # (B, l_k, kN)
    d64 = digits.transpose(0, 2, 1)  # (B, kN, l_k)
    mask_acc = -np.einsum("bml,mln->bn", d64, ksk.masks)
    body_acc = np.asarray(b).astype(np.int64) - np.einsum("bml,ml->b", d64, ksk.bodies)
    _KEY_SWITCHES.inc(a.shape[0])
    return to_torus(mask_acc), to_torus(body_acc)


def key_switch(
    ct: LweCiphertext,
    ksk: KeySwitchingKey,
) -> LweCiphertext:
    """Switch an extracted LWE ciphertext back to the original key.

    ``c'' = (0, ..., b') - sum_i sum_j Decomp(a'_i)_j * KSK_(i,j)``
    (Algorithm 1, line 6), a batch-of-one view of
    :func:`key_switch_batch`.
    """
    out_a, out_b = key_switch_batch(ct.a[None, :], np.asarray([ct.b]), ksk)
    return LweCiphertext(out_a[0], out_b[0])


def _negacyclic_lookup(test_poly: np.ndarray, j: int, N: int) -> int:
    """Coefficient 0 of ``X^{-j} * TP`` over ``Z_{2N}`` (antiperiodic)."""
    j %= 2 * N
    if j < N:
        return int(test_poly[j])
    return int(u32(-int(test_poly[j - N])))


def _track_bootstrap(
    result: LweCiphertext,
    ct_in: LweCiphertext,
    test_poly: np.ndarray,
    keyset: KeySet,
    op: str,
) -> None:
    """Noise-telemetry hook: shadow the bootstrap's ideal output.

    A bootstrap is a *decision* followed by a *refresh*: the noisy phase
    picks a ``Z_{2N}`` test-polynomial bucket (where modswitch rounding
    plus the input noise can pick wrong), and the output carries only
    fresh BR+KS noise.  The shadow replays the decision on the noise-free
    expected phase, records the fresh output variance on ``result``, and
    logs the decision margin (distance to the nearest bucket whose output
    differs) as a failure point.
    """
    record = _NOISE.record_of(ct_in)
    if record is None:
        return
    params = keyset.params
    n2 = 2 * params.N
    m = int(modswitch(np.asarray(record.expected, dtype=np.uint32), n2)[()])
    expected_out = _negacyclic_lookup(test_poly, m, params.N)
    out_variance = key_switch_noise_variance(
        params, blind_rotation_noise_variance(params)
    )
    _NOISE.track(result, op, out_variance, expected_out, parents=(ct_in,))
    # Decision margin: expected phase offset within its bucket, plus the
    # distance (in buckets) to the nearest value change of the LUT.
    step = 1.0 / n2
    delta_num = int(to_signed(u32(record.expected - m * ((1 << 32) // n2))))
    delta = delta_num / float(1 << 32)
    d_up = d_down = None
    for d in range(1, n2):
        if d_up is None and _negacyclic_lookup(test_poly, m + d, params.N) != expected_out:
            d_up = d
        if d_down is None and _negacyclic_lookup(test_poly, m - d, params.N) != expected_out:
            d_down = d
        if d_up is not None and d_down is not None:
            break
    margin_up = ((d_up - 0.5) * step - delta) if d_up is not None else 0.5
    margin_down = ((d_down - 0.5) * step + delta) if d_down is not None else 0.5
    decision_variance = record.predicted_variance + modulus_switch_noise_variance(params)
    _NOISE.record_failure_point(
        "bootstrap_decision", min(margin_up, margin_down), decision_variance
    )


def programmable_bootstrap(
    ct: LweCiphertext,
    test_poly: np.ndarray,
    keyset: KeySet,
    engine: str = "transform",
) -> LweCiphertext:
    """Full programmable bootstrap of one LWE ciphertext (Algorithm 1).

    ``engine`` picks the external-product datapath: ``"transform"``
    (Morphling's reuse datapath, a batch of one through
    :func:`programmable_bootstrap_batch`), or the per-CMux reference
    engines ``"fft"`` (per-product transforms) and ``"exact"`` (integer).
    """
    params = keyset.params
    with _TRACER.span("programmable_bootstrap", category="tfhe",
                      engine=engine, n=params.n, N=params.N):
        if engine == "transform":
            return programmable_bootstrap_batch([ct], test_poly, keyset)[0]
        t0 = time.perf_counter() if _BUS.enabled else None
        a_tilde, b_tilde = modulus_switch(ct, params.N)
        acc = blind_rotate(a_tilde, b_tilde, test_poly, keyset, engine=engine)
        extracted = sample_extract(acc, 0)
        result = key_switch(extracted, keyset.ksk)
    if t0 is not None:
        elapsed = time.perf_counter() - t0
        _BOOTSTRAPS.inc()
        _BOOTSTRAP_LATENCY.observe(elapsed, batch=1, engine=engine)
        _BUS.publish("request", "tfhe/bootstrap", value=elapsed,
                     count=1, batch=1, n=params.n, N=params.N,
                     engine=engine, backend=_active_backend_name())
        _track_bootstrap(result, ct, test_poly, keyset, "programmable_bootstrap")
    return result


def check_batch_inputs(
    batch: LweBatch, test_polys: np.ndarray, params: TFHEParams
) -> np.ndarray:
    """Check a batch and its LUTs against ``params``; returns the LUTs as uint32.

    The mask must be ``(B, n)`` and ``test_polys`` ``(N,)`` or ``(B, N)``;
    errors name the shape given and the one expected.
    """
    if batch.n != params.n:
        raise ValueError(
            f"mask shape {batch.a.shape} does not match the keyset: "
            f"expected ({batch.size}, {params.n})"
        )
    tps = torus_words(test_polys, "test_polys")
    if tps.shape not in ((params.N,), (batch.size, params.N)):
        raise ValueError(
            f"test_polys shape {tps.shape} does not fit a batch of "
            f"{batch.size}: expected ({params.N},) or ({batch.size}, {params.N})"
        )
    return tps


@overload
def programmable_bootstrap_batch(
    cts: LweBatch, test_polys: np.ndarray, keyset: KeySet,
    precision: str = ..., noise_labels: Optional[Sequence[str]] = ...,
) -> LweBatch: ...


@overload
def programmable_bootstrap_batch(
    cts: Sequence[LweCiphertext], test_polys: np.ndarray, keyset: KeySet,
    precision: str = ..., noise_labels: Optional[Sequence[str]] = ...,
) -> List[LweCiphertext]: ...


def programmable_bootstrap_batch(
    cts: Union[LweBatch, Sequence[LweCiphertext]],
    test_polys: np.ndarray,
    keyset: KeySet,
    precision: str = "double",
    noise_labels: Optional[Sequence[str]] = None,
) -> Union[LweBatch, List[LweCiphertext]]:
    """Bootstrap ``B`` independent LWE ciphertexts through one batched pass.

    The one place the transform-engine MS -> BR -> SE -> KS sequence is
    written.  An :class:`LweBatch` comes back as an :class:`LweBatch`; a
    sequence of :class:`LweCiphertext` is converted once and comes back as
    a list.  ``test_polys`` is one shared ``(N,)`` LUT or a per-sample
    ``(B, N)`` stack (the multi-LUT case, sharing every BSK row).  In the
    default ``"double"`` precision the outputs are bit-identical to ``B``
    scalar :func:`programmable_bootstrap` calls on any engine.  The noise
    tracker follows ciphertext objects, so it shadows the sequence form
    only (``noise_labels`` optionally tags sample ``r``'s records).
    """
    inputs = None
    if not isinstance(cts, LweBatch):
        inputs = list(cts)
        if not inputs:
            return []
        cts = LweBatch.from_ciphertexts(inputs)
    batch = cts.size
    params = keyset.params
    t0 = time.perf_counter() if _BUS.enabled else None
    try:
        tps = check_batch_inputs(cts, test_polys, params)
        with _TRACER.span("programmable_bootstrap_batch", category="tfhe",
                          batch=batch, n=params.n, N=params.N, precision=precision):
            a_tilde = modswitch(cts.a, 2 * params.N)
            b_tilde = modswitch(cts.b, 2 * params.N)
            acc = blind_rotate_batch(a_tilde, b_tilde, tps, keyset, precision=precision)
            ext_a, ext_b = sample_extract_batch(acc)
            out = LweBatch(*key_switch_batch(ext_a, ext_b, keyset.ksk))
    except Exception as exc:
        _report_anomaly("exception", where="programmable_bootstrap_batch",
                        error=repr(exc), batch=batch)
        raise
    if t0 is not None:
        # Every request in the batch experiences the whole batch's
        # wall-clock latency, so the sample is count-weighted by `batch`.
        elapsed = time.perf_counter() - t0
        _BOOTSTRAPS.inc(batch)
        _BOOTSTRAP_LATENCY.observe(elapsed, count=batch,
                                   batch=batch, precision=precision)
        _BUS.publish("request", "tfhe/bootstrap_batch", value=elapsed,
                     count=batch, batch=batch, n=params.n, N=params.N,
                     precision=precision, backend=_active_backend_name())
        _BUS.publish("batch", "tfhe/bootstrap_batch", value=float(batch),
                     n=params.n, N=params.N, precision=precision,
                     backend=_active_backend_name())
    if inputs is None:
        return out
    results = list(out)
    if _BUS.enabled:
        tp_rows = np.broadcast_to(tps, (batch, params.N))
        for r in range(batch):
            label = noise_labels[r] if noise_labels is not None else None
            with _NOISE.labelled(label) if label is not None else nullcontext():
                _track_bootstrap(
                    results[r], inputs[r], tp_rows[r], keyset, "programmable_bootstrap"
                )
    return results
