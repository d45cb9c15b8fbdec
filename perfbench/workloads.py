"""The three benchmark workloads, each with its plaintext correctness model.

A workload owns what one closed-loop caller needs: ``open`` after the
keyset exists (the pool forks its lanes here), ``new_request`` to draw
fresh inputs from the workload's generator, ``run`` to make the one
timed call, ``wrong`` to count outputs that disagree with the plaintext
model, ``spot_check`` for the untimed bit-identity check after the
window, and ``close``.  Messages live in Z_8 (values 0..3 below the
padding bit); every ciphertext is encrypted with the seeded generator,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional

import numpy as np

import repro.tfhe as tfhe
from repro.pool import BootstrapPool, leaked_segments
from repro.tfhe.encoding import identity_test_polynomial, make_test_polynomial
from repro.tfhe.lwe import lwe_encrypt
from repro.tfhe.ops import TfheContext
from repro.tfhe.torus import encode_message

P = 8  # message modulus; plain messages are 0..P/2-1

#: The pool workload's LUT menu over [0, 4); each sample draws one.
POOL_LUTS = (
    (0, 1, 2, 3),  # identity
    (1, 2, 3, 0),  # x + 1 mod 4
    (3, 2, 1, 0),  # 3 - x
    (0, 2, 0, 2),  # 2x mod 4
)


class Workload:
    name = ""
    outputs_per_request = 0     # outputs checked against the model
    bootstraps_per_request = 0
    lanes = 0                   # pool lanes (0: in-process)

    def __init__(self, keyset: tfhe.KeySet, rng: np.random.Generator, work_dir: str) -> None:
        self.keyset = keyset
        self.params = keyset.params
        self.rng = rng
        self.work_dir = work_dir
        self.ctx = TfheContext(keyset)

    def encrypt(self, message: int) -> tfhe.LweCiphertext:
        m = encode_message(int(message), P, self.params.q_bits)[()]
        return lwe_encrypt(m, self.keyset.lwe_key, self.rng, noise_log2=self.params.lwe_noise_log2)

    def decrypt(self, ct: tfhe.LweCiphertext) -> int:
        return self.ctx.decrypt(ct, P)

    def open(self) -> None:
        """Work that belongs to set-up after key generation (none by default)."""

    def pids(self) -> List[int]:
        """Processes whose CPU and memory the workload accounts."""
        return [os.getpid()]

    def shard_bytes(self) -> int:
        """Bytes of telemetry shards written so far (0: telemetry off)."""
        return 0

    def close(self) -> List[str]:
        """Release resources; returns problems found while doing so."""
        return []

    def spot_check(self, request: Any, outputs: Any) -> Optional[str]:
        return None


class Batch16(Workload):
    """16 fresh ciphertexts per call through one shared identity LUT."""

    name = "batch16"
    outputs_per_request = 16
    bootstraps_per_request = 16

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.tp = identity_test_polynomial(self.params, P)

    def new_request(self) -> tuple:
        msgs = self.rng.integers(0, P // 2, size=self.bootstraps_per_request)
        return [self.encrypt(m) for m in msgs], msgs

    def run(self, request: tuple) -> list:
        cts, _ = request
        return tfhe.programmable_bootstrap_batch(cts, self.tp, self.keyset)

    def wrong(self, request: tuple, outputs: list) -> int:
        _, msgs = request
        return sum(self.decrypt(ct) != int(m) for ct, m in zip(outputs, msgs))

    def spot_check(self, request: tuple, outputs: list) -> Optional[str]:
        """The first and last batched samples must equal scalar bootstraps."""
        for r in (0, self.bootstraps_per_request - 1):
            scalar = tfhe.programmable_bootstrap(request[0][r], self.tp, self.keyset)
            if not (np.array_equal(scalar.a, outputs[r].a) and int(scalar.b) == int(outputs[r].b)):
                return f"batch16: batched sample {r} differs from the scalar bootstrap"
        return None


class Pool2Telemetry(Workload):
    """32 ciphertexts with per-sample LUTs through a 2-lane pool, telemetry on."""

    name = "pool2-telemetry"
    outputs_per_request = 32
    bootstraps_per_request = 32
    lanes = 2

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.lut_polys = np.stack([
            make_test_polynomial(np.asarray(lut, dtype=np.int64), self.params, P)
            for lut in POOL_LUTS
        ])
        self.telemetry_dir = os.path.join(self.work_dir, "telemetry")
        self.pool: Optional[BootstrapPool] = None
        self.segments_before = set(leaked_segments())

    def open(self) -> None:
        self.pool = BootstrapPool(self.keyset, workers=self.lanes,
                                  telemetry_dir=self.telemetry_dir)
        self.pool.start()

    def lane_pids(self) -> List[int]:
        assert self.pool is not None
        return sorted(int(s["pid"]) for s in self.pool.worker_stats().values())

    def pids(self) -> List[int]:
        return [os.getpid()] + self.lane_pids()

    def shard_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.telemetry_dir, f))
            for f in os.listdir(self.telemetry_dir)
        )

    def new_request(self) -> tuple:
        n = self.bootstraps_per_request
        msgs = self.rng.integers(0, P // 2, size=n)
        luts = self.rng.integers(0, len(POOL_LUTS), size=n)
        return [self.encrypt(m) for m in msgs], msgs, luts

    def run(self, request: tuple) -> list:
        cts, _, luts = request
        assert self.pool is not None
        return self.pool.bootstrap_batch(cts, self.lut_polys[luts])

    def wrong(self, request: tuple, outputs: list) -> int:
        _, msgs, luts = request
        return sum(
            self.decrypt(ct) != POOL_LUTS[lut][m]
            for ct, m, lut in zip(outputs, msgs, luts)
        )

    def close(self) -> List[str]:
        if self.pool is not None:
            self.pool.close()
        leaked = set(leaked_segments()) - self.segments_before
        # Shared memory started multiprocessing's resource tracker process;
        # stop it and wait for it (after the leak check: on exit it would
        # unlink any segment still registered and hide the leak).
        resource_tracker._resource_tracker._stop()
        return [f"pool2-telemetry: shared segment {name} left in /dev/shm"
                for name in sorted(leaked)]

    def spot_check(self, request: tuple, outputs: list) -> Optional[str]:
        """Every pooled output must equal one in-process batch of the request."""
        cts, _, luts = request
        local = tfhe.programmable_bootstrap_batch(cts, self.lut_polys[luts], self.keyset)
        for r, ct in enumerate(local):
            if not (np.array_equal(ct.a, outputs[r].a) and int(ct.b) == int(outputs[r].b)):
                return f"pool2-telemetry: pooled row {r} differs from the in-process batch"
        return None


class Adder4(Workload):
    """A 4-bit ripple-carry adder: 17 gates in 7 dependent levels."""

    name = "adder4"
    outputs_per_request = 1      # one sum per addition
    bits = 4

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        circuit = tfhe.Circuit()
        a = [circuit.add_input(f"a{i}") for i in range(self.bits)]
        b = [circuit.add_input(f"b{i}") for i in range(self.bits)]
        sums, carry = tfhe.ripple_carry_adder(circuit, a, b)
        for i, wire in enumerate(sums):
            circuit.mark_output(wire, f"s{i}")
        circuit.mark_output(carry, "carry")
        self.circuit = circuit
        self.bootstraps_per_request = circuit.gate_count()

    def new_request(self) -> tuple:
        x, y = (int(v) for v in self.rng.integers(0, 1 << self.bits, size=2))
        inputs: Dict[str, tfhe.LweCiphertext] = {}
        for i in range(self.bits):
            inputs[f"a{i}"] = self.encrypt((x >> i) & 1)
            inputs[f"b{i}"] = self.encrypt((y >> i) & 1)
        return inputs, x + y

    def run(self, request: tuple) -> dict:
        return self.circuit.evaluate_encrypted(self.ctx, request[0])

    def wrong(self, request: tuple, outputs: dict) -> int:
        total = sum(self.decrypt(outputs[f"s{i}"]) << i for i in range(self.bits))
        total += self.decrypt(outputs["carry"]) << self.bits
        return int(total != request[1])


WORKLOADS = {cls.name: cls for cls in (Batch16, Pool2Telemetry, Adder4)}
