"""Tests for batched LWE ciphertext operations."""

import numpy as np
import pytest

from repro.tfhe.batch import LweBatch, decrypt_batch, encrypt_batch
from repro.tfhe.bootstrap import programmable_bootstrap_batch
from repro.tfhe.encoding import identity_test_polynomial
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.torus import encode_message

P = 8
NOISE = -22.0


@pytest.fixture()
def batch_rng():
    return np.random.default_rng(77)


def make_batch(ctx, msgs, batch_rng):
    return encrypt_batch(np.asarray(msgs), P, ctx.keyset.lwe_key, batch_rng,
                         noise_log2=NOISE)


class TestRoundtrip:
    def test_encrypt_decrypt(self, ctx, batch_rng):
        msgs = [0, 1, 2, 3, 2, 1]
        batch = make_batch(ctx, msgs, batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(batch, P, ctx.keyset.lwe_key), msgs
        )

    def test_matches_single_ciphertext_api(self, ctx, batch_rng):
        batch = make_batch(ctx, [1, 2], batch_rng)
        assert ctx.decrypt(batch[0], P) == 1
        assert ctx.decrypt(batch[1], P) == 2

    def test_rejects_2d_messages(self, ctx, batch_rng):
        with pytest.raises(ValueError):
            encrypt_batch(np.zeros((2, 2)), P, ctx.keyset.lwe_key, batch_rng)


class TestContainer:
    def test_from_to_ciphertexts(self, ctx, batch_rng):
        batch = make_batch(ctx, [0, 3], batch_rng)
        rebuilt = LweBatch.from_ciphertexts(batch.to_ciphertexts())
        np.testing.assert_array_equal(rebuilt.a, batch.a)
        np.testing.assert_array_equal(rebuilt.b, batch.b)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            LweBatch.from_ciphertexts([])

    def test_mixed_dimensions_rejected(self, ctx, batch_rng):
        from repro.tfhe.lwe import lwe_trivial

        with pytest.raises(ValueError):
            LweBatch.from_ciphertexts([lwe_trivial(0, 4), lwe_trivial(0, 8)])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LweBatch(np.zeros((2, 4), np.uint32), np.zeros(3, np.uint32))

    def test_len(self, ctx, batch_rng):
        assert len(make_batch(ctx, [1, 2, 3], batch_rng)) == 3

    def test_iter_yields_rows(self, ctx, batch_rng):
        batch = make_batch(ctx, [1, 2, 3], batch_rng)
        rows = iter(batch)
        for i in range(batch.size):
            row = next(rows)
            assert isinstance(row, LweCiphertext)
            np.testing.assert_array_equal(row.a, batch.a[i])
            assert row.b == batch.b[i]
        assert next(rows, None) is None


def _as_ciphertext(a, b):
    return LweCiphertext(a[0], b[0])


class TestBoundaryCheck:
    """Both constructors reject words that are not uint32 torus numerators."""

    BAD_MASKS = {
        "float": lambda a: a.astype(np.float64) + 0.5,
        "int64_bit33": lambda a: a.astype(np.int64) + 2**33,
        "negative_int64": lambda a: a.astype(np.int64) - 2**32,
    }

    @pytest.mark.parametrize("make", [LweBatch, _as_ciphertext],
                             ids=["LweBatch", "LweCiphertext"])
    @pytest.mark.parametrize("bad", sorted(BAD_MASKS))
    def test_bad_mask_rejected(self, ctx, batch_rng, make, bad):
        batch = make_batch(ctx, [1, 2], batch_rng)
        mask = self.BAD_MASKS[bad](batch.a)
        with pytest.raises(ValueError, match=rf"^a: .*{mask.dtype}"):
            make(mask, batch.b)

    def test_error_names_min_and_max(self):
        with pytest.raises(ValueError, match="min -1, max 4294967296"):
            LweBatch(np.array([[-1, 2**32]]), np.zeros(1, np.uint32))

    def test_bad_body_named(self):
        with pytest.raises(ValueError, match="^b: "):
            LweCiphertext(np.zeros(4, np.uint32), -1)

    @pytest.mark.parametrize("make", [LweBatch, _as_ciphertext],
                             ids=["LweBatch", "LweCiphertext"])
    def test_in_range_integers_accepted(self, make):
        a = np.array([[0, 1, 2**32 - 1]], dtype=np.int64)
        ct = make(a, np.array([7], dtype=np.int64))
        assert ct.a.dtype == np.uint32
        np.testing.assert_array_equal(ct.a.reshape(-1), [0, 1, 2**32 - 1])


class TestLinearOps:
    def test_add(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        y = make_batch(ctx, [2, 1], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(x + y, P, ctx.keyset.lwe_key), [3, 3]
        )

    def test_sub(self, ctx, batch_rng):
        x = make_batch(ctx, [3, 2], batch_rng)
        y = make_batch(ctx, [1, 2], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(x - y, P, ctx.keyset.lwe_key), [2, 0]
        )

    def test_neg(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 3], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(-x, P, ctx.keyset.lwe_key), [P - 1, P - 3]
        )

    def test_scalar_mul_per_ciphertext(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        out = x.scalar_mul([3, 2])
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), [3, 4]
        )

    def test_scalar_mul_broadcast(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(x.scalar_mul(2), P, ctx.keyset.lwe_key), [2, 4]
        )

    def test_add_plain(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        out = x.add_plain(int(encode_message(1, P)[()]))
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), [2, 3]
        )

    def test_shape_mismatch_rejected(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        y = make_batch(ctx, [1, 2, 3], batch_rng)
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x.scalar_mul([1, 2, 3])


class TestBatchBootstrap:
    def test_refreshes_every_ciphertext(self, ctx, batch_rng):
        msgs = [0, 1, 2, 3]
        batch = make_batch(ctx, msgs, batch_rng)
        tp = identity_test_polynomial(ctx.params, P)
        out = programmable_bootstrap_batch(batch, tp, ctx.keyset)
        assert isinstance(out, LweBatch)
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), msgs
        )
