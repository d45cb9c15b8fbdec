"""Functional-machine cross-check against the static stage-order model.

The perf counters give the functional :class:`MorphlingMachine` an
observable stage trace (``machine/stages`` events).  These tests assert
the *dynamic* execution order agrees with the *static* models of the
same pipeline: the verifier's VER005 stage-order table and the
SW-scheduler's lowered instruction sequence for one group - a
three-way architecture/compiler/golden-model consistency check.
"""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import DmaOp, VpuOp, XpuOp
from repro.core.machine import MorphlingMachine
from repro.core.scheduler import LayerDemand, SwScheduler
from repro import observability as obs
from repro.observability import COUNTERS
from repro.tfhe import identity_test_polynomial
from repro.verify.program import _STAGE_ORDER

P = 8

#: The VER005 model keyed by the ISA op *value* - the same strings the
#: machine emits as event names.
_ORDER_BY_NAME = {op.value: rank for op, rank in _STAGE_ORDER.items()}


@pytest.fixture()
def machine(ctx):
    return MorphlingMachine(MorphlingConfig(), ctx.keyset)


def _traced_stages(ctx, machine, messages):
    tp = identity_test_polynomial(ctx.params, P)
    cts = [ctx.encrypt(m, P) for m in messages]
    with obs.telemetry():
        outs = machine.bootstrap_batch(cts, tp)
        events = COUNTERS.events_on("machine/stages")
        snapshot = COUNTERS.snapshot()
    assert [ctx.decrypt(o, P) for o in outs] == messages
    return events, snapshot


def test_machine_stage_events_follow_ver005_order(ctx, machine):
    events, _ = _traced_stages(ctx, machine, [0, 1, 2, 3])
    assert events == [
        VpuOp.MODULUS_SWITCH.value,
        XpuOp.BLIND_ROTATE.value,
        VpuOp.SAMPLE_EXTRACT.value,
        VpuOp.KEY_SWITCH.value,
    ]
    ranks = [_ORDER_BY_NAME[name] for name in events]
    assert ranks == sorted(ranks), "observed stage order violates VER005"
    # Every observed stage exists in the static model at all.
    assert set(events) <= set(_ORDER_BY_NAME)


def test_machine_stage_events_match_scheduler_lowering(ctx, machine):
    """The machine executes stages in the order the compiler emits them."""
    events, _ = _traced_stages(ctx, machine, [3, 1])
    config = MorphlingConfig()
    stream = SwScheduler(config, ctx.params).schedule(
        [LayerDemand("xcheck", config.vpe_rows)]
    )
    lowered = [
        inst.op.value
        for inst in stream
        if not isinstance(inst.op, DmaOp) and inst.op is not VpuOp.P_ALU
    ]
    assert lowered == events


def test_machine_op_counts_match_batch(ctx, machine):
    _, snapshot = _traced_stages(ctx, machine, [1, 2])
    ops = snapshot["ops"]
    assert ops["machine/modulus_switches"] == 2.0
    assert ops["machine/blind_rotations"] == 2.0
    assert ops["machine/sample_extracts"] == 2.0
    assert ops["machine/key_switches"] == 2.0
    # The blind rotation really went through the double-pointer rotator.
    assert ops["rotator/streams"] > 0
    assert ops["rotator/vector_reads"] > 0


def test_machine_emits_nothing_when_disabled(ctx, machine):
    COUNTERS.reset()
    tp = identity_test_polynomial(ctx.params, P)
    machine.bootstrap(ctx.encrypt(1, P), tp)
    assert COUNTERS.events_on("machine/stages") == []
    assert len(COUNTERS) == 0
