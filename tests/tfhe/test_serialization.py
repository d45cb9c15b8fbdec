"""Tests for key/ciphertext serialization."""

import re

import numpy as np
import pytest

from repro.tfhe.serialization import (
    load_ciphertext,
    load_evaluation_keys,
    load_keyset,
    save_ciphertext,
    save_evaluation_keys,
    save_keyset,
)
from repro.tfhe import identity_test_polynomial, programmable_bootstrap
from repro.tfhe.lwe import lwe_decrypt_phase
from repro.tfhe.torus import decode_message

P = 8


class TestKeysetRoundtrip:
    def test_full_keyset(self, ctx, tmp_path):
        path = tmp_path / "keys.npz"
        save_keyset(path, ctx.keyset)
        loaded = load_keyset(path)
        np.testing.assert_array_equal(loaded.lwe_key.bits, ctx.keyset.lwe_key.bits)
        np.testing.assert_array_equal(loaded.glwe_key.polys, ctx.keyset.glwe_key.polys)
        assert loaded.params.N == ctx.params.N
        assert len(loaded.bsk) == ctx.params.n

    def test_loaded_keys_bootstrap_correctly(self, ctx, tmp_path):
        """The round-tripped keyset must still run real bootstraps."""
        path = tmp_path / "keys.npz"
        save_keyset(path, ctx.keyset)
        loaded = load_keyset(path)
        ct = ctx.encrypt(2, P)
        tp = identity_test_polynomial(loaded.params, P)
        out = programmable_bootstrap(ct, tp, loaded)
        phase = lwe_decrypt_phase(out, loaded.lwe_key)
        assert decode_message(np.asarray(phase), P)[()] == 2

    def test_evaluation_keys_have_no_secrets(self, ctx, tmp_path):
        path = tmp_path / "eval.npz"
        save_evaluation_keys(path, ctx.keyset)
        loaded = load_evaluation_keys(path)
        assert loaded.lwe_key is None
        assert loaded.glwe_key is None
        assert len(loaded.bsk) == ctx.params.n

    def test_evaluation_keys_still_bootstrap(self, ctx, tmp_path):
        """Server-side keys suffice for evaluation (decryption is client-side)."""
        path = tmp_path / "eval.npz"
        save_evaluation_keys(path, ctx.keyset)
        server = load_evaluation_keys(path)
        ct = ctx.encrypt(1, P)
        tp = identity_test_polynomial(server.params, P)
        out = programmable_bootstrap(ct, tp, server)
        # Client decrypts with its own secret key.
        assert ctx.decrypt(out, P) == 1

    def test_loading_eval_archive_as_keyset_fails(self, ctx, tmp_path):
        path = tmp_path / "eval.npz"
        save_evaluation_keys(path, ctx.keyset)
        with pytest.raises(ValueError):
            load_keyset(path)

    def test_saving_secretless_keyset_fails(self, ctx, tmp_path):
        from repro.tfhe.keys import KeySet

        stripped = KeySet(ctx.params, None, None, ctx.keyset.bsk, ctx.keyset.ksk)
        with pytest.raises(ValueError):
            save_keyset(tmp_path / "x.npz", stripped)

    @pytest.mark.parametrize(
        "array", ["bsk_rows", "ksk_masks", "ksk_bodies", "lwe_key", "glwe_key"]
    )
    def test_truncated_array_rejected(self, ctx, tmp_path, array):
        """Every key array is checked against the recorded parameters."""
        if array in ("lwe_key", "glwe_key"):
            save, load = save_keyset, load_keyset
        else:
            save, load = save_evaluation_keys, load_evaluation_keys
        path = tmp_path / "keys.npz"
        save(path, ctx.keyset)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        expected = arrays[array].shape
        arrays[array] = arrays[array][..., :-1]
        np.savez_compressed(path, **arrays)
        message = (f"{array!r} has shape {arrays[array].shape}; "
                   f"the recorded parameters expect {expected}")
        with pytest.raises(ValueError, match=re.escape(message)):
            load(path)


class TestCiphertextRoundtrip:
    def test_ciphertext(self, ctx, tmp_path):
        path = tmp_path / "ct.npz"
        ct = ctx.encrypt(3, P)
        save_ciphertext(path, ct)
        loaded = load_ciphertext(path)
        np.testing.assert_array_equal(loaded.a, ct.a)
        assert loaded.b == ct.b
        assert ctx.decrypt(loaded, P) == 3

    def test_float_mask_archive_rejected(self, ctx, tmp_path):
        """A tampered archive goes through the constructor's word check."""
        from repro.tfhe.serialization import FORMAT_VERSION

        path = tmp_path / "ct.npz"
        ct = ctx.encrypt(3, P)
        np.savez_compressed(path, version=np.array([FORMAT_VERSION]),
                            a=ct.a.astype(np.float64) + 0.5, b=np.array([ct.b]))
        with pytest.raises(ValueError, match="^a: .*float64"):
            load_ciphertext(path)
