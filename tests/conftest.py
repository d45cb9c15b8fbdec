"""Shared fixtures: key material is expensive, so contexts are session-scoped."""

import numpy as np
import pytest

from repro import TEST_PARAMS, TfheContext


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def ctx():
    """A TFHE context on the fast test parameter set (fixed seed)."""
    return TfheContext.create(TEST_PARAMS, seed=7)


@pytest.fixture(scope="session")
def keyset(ctx):
    return ctx.keyset


@pytest.fixture()
def radix2_backend():
    """Register the radix-2 test oracle as the ``radix2`` compute backend.

    Yields the backend name; on teardown the entry is dropped again (and
    the selection reset if it was active), so only the tests that ask for
    the oracle ever see it in the registry.
    """
    from repro.transforms import backends
    from tests.transforms.radix2_oracle import RADIX2, Radix2Backend

    backends.register_backend(RADIX2, Radix2Backend)
    yield RADIX2
    if backends._ACTIVE is not None and backends._ACTIVE.name == RADIX2:
        backends.reset_backend()
    backends._REGISTRY.pop(RADIX2, None)
    backends._INSTANCES.pop(RADIX2, None)


def pytest_runtest_makereport(item, call):
    """On a test failure, dump the flight recorder's ring for triage.

    Gated on ``REPRO_FLIGHT_DUMP_DIR`` (CI sets it and uploads the
    directory as an artifact): whatever telemetry the failing test left
    in the global ring is frozen into one bundle per failure, named
    after the test.  No-op locally unless the variable is exported.
    """
    import os

    dump_dir = os.environ.get("REPRO_FLIGHT_DUMP_DIR")
    if not dump_dir or call.when != "call" or call.excinfo is None:
        return
    from repro.observability import FLIGHT

    os.makedirs(dump_dir, exist_ok=True)
    safe = item.nodeid.replace("/", "_").replace("::", "-")
    path = os.path.join(dump_dir, f"{safe}.json")
    try:
        FLIGHT.dump(path, "test_failure", test=item.nodeid,
                    error=repr(call.excinfo.value))
    except Exception:
        pass  # triage aid only - never mask the real failure
