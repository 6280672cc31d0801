"""Memory-trace collection and instruction mixes."""

import pytest

from repro.hashtable import CuckooHashTable
from repro.hashtable.layout import StandaloneAllocator
from repro.sim import (
    CoreTracerRouter,
    InstructionMix,
    MemOp,
    MemOpKind,
    MemTrace,
    NULL_TRACER,
    Tracer,
    capture,
)


def test_tracer_records_ops_in_groups():
    tracer = Tracer()
    tracer.load(0x100)
    tracer.barrier()
    tracer.load(0x200)
    tracer.load(0x240)
    tracer.barrier()
    tracer.store(0x300)
    trace = tracer.take()
    chains = trace.dependency_chains()
    assert [len(chain) for chain in chains] == [1, 2, 1]
    assert chains[2][0].is_store


def test_take_resets_state():
    tracer = Tracer()
    tracer.load(0x100)
    tracer.take()
    tracer.load(0x200)
    trace = tracer.take()
    assert len(trace) == 1
    assert trace.ops[0].dep == 0


def test_tracer_counts_instructions():
    tracer = Tracer()
    tracer.count(loads=10, stores=2, arithmetic=5, others=3)
    tracer.count(loads=1)
    trace = tracer.take()
    assert trace.mix.loads == 11
    assert trace.mix.total == 21


def test_null_tracer_records_nothing():
    NULL_TRACER.load(0x100)
    NULL_TRACER.count(loads=5)
    NULL_TRACER.barrier()
    assert len(NULL_TRACER.trace) == 0
    assert NULL_TRACER.trace.mix.total == 0
    assert not NULL_TRACER.enabled


def test_mix_addition_and_fractions():
    mix = (InstructionMix(loads=76, stores=25, arithmetic=44, others=65)
           + InstructionMix())
    fractions = mix.fractions()
    assert mix.total == 210
    assert fractions["memory"] == pytest.approx(0.481, abs=0.001)
    assert fractions["load"] == pytest.approx(0.362, abs=0.001)
    assert fractions["arithmetic"] == pytest.approx(0.210, abs=0.001)


def test_trace_extend_shifts_dependencies():
    first = MemTrace([MemOp(0x100, dep=0), MemOp(0x200, dep=1)],
                     InstructionMix(loads=2))
    second = MemTrace([MemOp(0x300, dep=0)], InstructionMix(loads=1))
    first.extend(second)
    assert first.max_dep == 2
    assert first.mix.loads == 3


def test_touched_lines_spanning_access():
    trace = MemTrace([MemOp(60, size=8)])   # crosses lines 0 and 1
    assert trace.touched_lines(64) == {0, 1}


def test_touched_lines_single():
    trace = MemTrace([MemOp(0, size=8), MemOp(8, size=8)])
    assert trace.touched_lines(64) == {0}


def test_memop_defaults():
    op = MemOp(0x1000)
    assert op.kind is MemOpKind.LOAD
    assert not op.is_store
    assert op.size == 8


# -- recording happens only inside a begin() ... take() bracket ---------------
def _bracket_table():
    router = CoreTracerRouter()
    table = CuckooHashTable(64, key_bytes=16,
                            allocator=StandaloneAllocator(), tracer=router)
    for index in range(40):
        table.insert(index.to_bytes(16, "little"), index)
    return router, table


def _ops(trace):
    return [(op.addr, op.size, op.kind, op.dep) for op in trace.ops]


def test_tracer_is_disabled_outside_a_bracket():
    tracer = Tracer()
    assert not tracer.enabled
    tracer.begin()
    assert tracer.enabled
    tracer.take()
    assert not tracer.enabled


def test_table_build_outside_a_bracket_records_nothing():
    router, table = _bracket_table()
    assert len(table) == 40
    core0 = router.tracer_for(0)
    assert core0.trace.ops == []
    assert core0.trace.mix == InstructionMix()


def test_captured_insert_trace_is_exact():
    router, table = _bracket_table()
    ok, trace = capture(router, 0, table.insert,
                        (99).to_bytes(16, "little"), 99)
    assert ok
    load, store = MemOpKind.LOAD, MemOpKind.STORE
    assert _ops(trace) == [(0x10A40, 16, load, 0), (0x101C0, 64, load, 1),
                           (0x10140, 64, load, 1), (0x10740, 32, store, 3),
                           (0x101C0, 64, store, 3)]
    assert trace.mix == InstructionMix(loads=92, stores=58, arithmetic=58,
                                       others=82)
    assert not router.enabled


def test_captured_lookup_trace_is_exact():
    router, table = _bracket_table()
    value, trace = capture(router, 0, table.lookup, (7).to_bytes(16, "little"))
    assert value == 7
    load = MemOpKind.LOAD
    assert _ops(trace) == [(0x10A40, 16, load, 0), (0x10100, 64, load, 1),
                           (0x10180, 64, load, 1), (0x10320, 32, load, 2)]
    assert trace.mix == InstructionMix(loads=76, stores=25, arithmetic=44,
                                       others=65)
