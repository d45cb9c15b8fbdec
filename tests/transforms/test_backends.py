"""Compute-backend registry: selection, errors, and cross-backend parity.

The second engine is the radix-2 test oracle (``tests/transforms/
radix2_oracle.py``), registered per test through the ``radix2_backend``
fixture, so every parity check runs on any machine with numpy alone.
"""

import sys

import numpy as np
import pytest

import repro.transforms.fft  # noqa: F401  (registers the submodule)
from repro import TfheContext
from repro.params import PARAM_SETS
from repro.tfhe.batch import LweBatch
from repro.tfhe.bootstrap import programmable_bootstrap_batch

# The transforms package re-exports fft() the function, shadowing the
# submodule attribute - go through sys.modules for the module itself.
fft_mod = sys.modules["repro.transforms.fft"]
from repro.transforms.backends import (  # noqa: E402
    BACKEND_ENV_VAR,
    NumpyBackend,
    active_backend,
    active_backend_name,
    available_backends,
    get_backend,
    registered_backends,
    reset_backend,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


def _bootstrap_on(name, cts, tp, keyset):
    """Bootstrap ``cts`` with backend ``name`` from a BSK table it built.

    The keyset's spectrum cache is dropped before and after, so the
    table (the eager BSK pre-transform) comes from the same engine as
    the blind rotation, and no other test inherits it.  The kernel runs
    on the list and on one ``LweBatch`` of it; the batch must come back
    as an ``LweBatch`` bit-identical to the list result, which is returned.
    """
    keyset.drop_spectrum_cache()
    try:
        with use_backend(name):
            outs = programmable_bootstrap_batch(cts, tp, keyset)
            as_batch = programmable_bootstrap_batch(
                LweBatch.from_ciphertexts(cts), tp, keyset
            )
    finally:
        keyset.drop_spectrum_cache()
    assert isinstance(as_batch, LweBatch)
    _assert_bit_identical(outs, as_batch)
    return outs


def _assert_bit_identical(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        np.testing.assert_array_equal(r.a, g.a)
        assert r.b == g.b


class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        assert "numpy" in registered_backends()
        assert "numpy" in available_backends()

    def test_scipy_not_registered(self):
        # scipy.fft wraps the same pocketfft as numpy.fft; no second entry.
        assert "scipy" not in registered_backends()

    def test_pyfftw_registered_even_when_missing(self):
        assert "pyfftw" in registered_backends()

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError) as info:
            get_backend("fftpack9000")
        message = str(info.value)
        assert "fftpack9000" in message
        assert "available backends" in message
        assert "numpy" in message

    def test_unavailable_backend_error_names_it(self):
        if "pyfftw" in available_backends():
            pytest.skip("pyfftw importable here; nothing to probe")
        with pytest.raises(ValueError, match="pyfftw"):
            get_backend("pyfftw")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        reset_backend()
        assert active_backend_name() == "numpy"
        assert isinstance(active_backend(), NumpyBackend)

    def test_env_var_selects_backend(self, monkeypatch, radix2_backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, radix2_backend)
        reset_backend()
        assert active_backend_name() == radix2_backend

    def test_env_var_unknown_backend_fails(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        reset_backend()
        with pytest.raises(ValueError, match="nope"):
            active_backend()

    def test_env_var_scipy_fails_with_available_list(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        reset_backend()
        with pytest.raises(ValueError) as info:
            active_backend()
        message = str(info.value)
        assert "'scipy'" in message
        assert f"available backends: {', '.join(available_backends())}" in message

    def test_set_backend_overrides_env(self, monkeypatch, radix2_backend):
        monkeypatch.setenv(BACKEND_ENV_VAR, radix2_backend)
        set_backend("numpy")
        assert active_backend_name() == "numpy"

    def test_use_backend_restores_previous(self, radix2_backend):
        set_backend("numpy")
        with use_backend(radix2_backend):
            assert active_backend_name() == radix2_backend
        assert active_backend_name() == "numpy"

    def test_use_backend_none_keeps_current(self, radix2_backend):
        set_backend(radix2_backend)
        with use_backend(None):
            assert active_backend_name() == radix2_backend

    def test_describe_names_the_backend(self, radix2_backend):
        assert "numpy" in get_backend("numpy").describe()
        assert radix2_backend in get_backend(radix2_backend).describe()


class TestDefaultEngine:
    """The default ``numpy`` backend is ``numpy.fft`` (pocketfft)."""

    @pytest.mark.parametrize("transform", ["fft", "ifft"])
    def test_complex64_stays_complex64(self, rng, transform):
        x = (rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))).astype(
            np.complex64
        )
        with use_backend("numpy"):
            out = getattr(fft_mod, transform)(x)
        assert out.dtype == np.complex64
        ref = getattr(np.fft, transform)(x.astype(np.complex128), axis=-1)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    def test_complex128_matches_numpy_fft_exactly(self, rng):
        x = rng.standard_normal((4, 128)) + 1j * rng.standard_normal((4, 128))
        with use_backend("numpy"):
            np.testing.assert_array_equal(fft_mod.fft(x), np.fft.fft(x, axis=-1))
            np.testing.assert_array_equal(fft_mod.ifft(x), np.fft.ifft(x, axis=-1))


class TestParity:
    """The default engine and the radix-2 oracle must agree: bit-for-bit
    after the negacyclic fold/round at complex128, within float tolerance
    on raw spectra and at complex64."""

    @pytest.fixture()
    def spectra(self, rng):
        x = (rng.integers(-(2**31), 2**31, size=(4, 64)).astype(np.complex128)
             + 1j * rng.integers(-(2**31), 2**31, size=(4, 64)))
        return x

    def test_fft_round_trip_complex128(self, spectra, radix2_backend):
        with use_backend(radix2_backend):
            ref = fft_mod.ifft(fft_mod.fft(spectra))
        with use_backend("numpy"):
            got = fft_mod.ifft(fft_mod.fft(spectra))
        # Round-tripped integer payloads are recovered identically.
        np.testing.assert_array_equal(np.rint(ref.real), np.rint(got.real))
        np.testing.assert_array_equal(np.rint(ref.imag), np.rint(got.imag))
        np.testing.assert_allclose(ref, got, rtol=1e-12, atol=1e-6)

    def test_fft_round_trip_complex64(self, spectra, radix2_backend):
        x = spectra.astype(np.complex64) / 2**16
        with use_backend(radix2_backend):
            ref = fft_mod.ifft(fft_mod.fft(x))
        with use_backend("numpy"):
            got = fft_mod.ifft(fft_mod.fft(x))
        assert ref.dtype == got.dtype == np.complex64
        np.testing.assert_allclose(ref, got, rtol=1e-4, atol=1e-2)

    def test_forward_transforms_agree(self, spectra, radix2_backend):
        with use_backend(radix2_backend):
            ref = fft_mod.fft(spectra)
        with use_backend("numpy"):
            got = fft_mod.fft(spectra)
        np.testing.assert_allclose(ref, got, rtol=1e-10, atol=1e-3)

    def test_einsum_reduction_is_backend_invariant(self, rng, radix2_backend):
        digit = rng.standard_normal((3, 4, 2, 8)) + 0j
        rows = rng.standard_normal((4, 2, 2, 8)) + 0j
        with use_backend(radix2_backend):
            ref = active_backend().einsum("aijf,ijcf->acf", digit, rows)
        with use_backend("numpy"):
            got = active_backend().einsum("aijf,ijcf->acf", digit, rows)
        np.testing.assert_array_equal(ref, got)

    def test_full_bootstrap_bit_identical(self, ctx, radix2_backend):
        cts = [ctx.encrypt(m, 8) for m in (0, 1, 2, 3)]
        tp = ctx._lut_test_poly(lambda x: x, 8)
        ref = _bootstrap_on(radix2_backend, cts, tp, ctx.keyset)
        got = _bootstrap_on("numpy", cts, tp, ctx.keyset)
        _assert_bit_identical(ref, got)

    def test_full_bootstrap_bit_identical_set_i(self, radix2_backend):
        """Set I (N=1024, n=500): the secure set the benchmarks run on."""
        set_i = TfheContext.create(PARAM_SETS["I"], seed=11)
        msgs = [0, 1, 2, 3, 1, 2]
        cts = [set_i.encrypt(m, 8) for m in msgs]
        tp = set_i._lut_test_poly(lambda x: x, 8)
        ref = _bootstrap_on(radix2_backend, cts, tp, set_i.keyset)
        got = _bootstrap_on("numpy", cts, tp, set_i.keyset)
        _assert_bit_identical(ref, got)
        assert [set_i.decrypt(g, 8) for g in got] == msgs

    def test_backend_name_stamped_in_request_events(self, ctx, radix2_backend):
        from repro import observability as obs

        cts = [ctx.encrypt(1, 8)]
        tp = ctx._lut_test_poly(lambda x: x, 8)
        with use_backend(radix2_backend), obs.telemetry():
            events = []
            obs.BUS.subscribe(events.append)
            try:
                programmable_bootstrap_batch(cts, tp, ctx.keyset)
            finally:
                obs.BUS.unsubscribe(events.append)
        requests = [e for e in events if e.kind == "request"]
        assert requests
        assert all(e.fields.get("backend") == radix2_backend for e in requests)


class TestCounters:
    def test_fft_counted_identically_across_backends(self, rng, radix2_backend):
        from repro import observability as obs

        x = rng.standard_normal((4, 32)) + 0j
        counts = {}
        for name in ("numpy", radix2_backend):
            with use_backend(name), obs.telemetry() as (registry, _tracer):
                fft_mod.ifft(fft_mod.fft(x))
                counter = registry.get("transforms_fft_total")
                counts[name] = (
                    counter.value(direction="forward"),
                    counter.value(direction="inverse"),
                )
        assert counts["numpy"] == counts[radix2_backend]
        assert counts["numpy"][0] > 0
