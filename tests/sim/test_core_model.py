"""Out-of-order core cost model.

``execute`` is the one pricing body; ``execute_batch``, ``execute_window``
and ``execute_many`` are loops over it and must give exactly what a loop
of ``execute`` gives on a fresh hierarchy.
"""

import pytest

from repro.sim import (CoreModel, InstructionMix, MemOp, MemOpKind,
                       MemoryHierarchy, MemTrace, SKYLAKE_SP_16C)


def trace_with(mix=None, ops=()):
    trace = MemTrace(ops, mix or InstructionMix())
    return trace


def test_front_end_floor_applies(hierarchy):
    core = CoreModel(0, hierarchy)
    mix = InstructionMix(loads=0, stores=0, arithmetic=100, others=100)
    result = core.execute(trace_with(mix))
    assert result.cycles == pytest.approx(
        200 / hierarchy.machine.core.issue_width)


def test_memory_chain_serialises(hierarchy):
    core = CoreModel(0, hierarchy)
    # Three dependent cold accesses: each goes to DRAM, fully serialised.
    ops = [MemOp(0x10000 + i * 4096, dep=i) for i in range(3)]
    result = core.execute(trace_with(ops=ops))
    assert result.cycles >= 3 * (hierarchy.latency.dram
                                 - hierarchy.latency.l1_hit)


def test_independent_accesses_overlap(hierarchy):
    core = CoreModel(0, hierarchy)
    dependent = [MemOp(0x20000 + i * 4096, dep=i) for i in range(4)]
    serial = core.execute(trace_with(ops=dependent)).cycles
    hierarchy_2 = type(hierarchy)(hierarchy.machine)
    core2 = CoreModel(0, hierarchy_2)
    independent = [MemOp(0x20000 + i * 4096, dep=0) for i in range(4)]
    parallel = core2.execute(trace_with(ops=independent)).cycles
    assert parallel < serial / 2


def test_mlp_limits_overlap(hierarchy):
    core = CoreModel(0, hierarchy)
    # 8 independent cold accesses with MLP 4 need two waves.
    ops = [MemOp(0x30000 + i * 4096, dep=0) for i in range(8)]
    result = core.execute(trace_with(ops=ops))
    one_wave = hierarchy.latency.dram - hierarchy.latency.l1_hit
    assert result.cycles >= 2 * one_wave * 0.9


def test_l1_hits_are_hidden(hierarchy):
    core = CoreModel(0, hierarchy)
    addr = 0x40000
    hierarchy.core_access(0, addr)   # warm L1
    result = core.execute(trace_with(ops=[MemOp(addr, dep=0)]))
    assert result.breakdown["memory"] == 0.0


def test_lock_cycles_added(hierarchy):
    core = CoreModel(0, hierarchy)
    mix = InstructionMix(arithmetic=400)
    with_lock = core.execute(trace_with(mix), lock_cycles=23)
    assert with_lock.breakdown["locking"] == 23


def test_level_counts_recorded(hierarchy):
    core = CoreModel(0, hierarchy)
    result = core.execute(trace_with(ops=[MemOp(0x50000, dep=0)]))
    assert result.level_counts.get("DRAM") == 1


def test_store_op_counted(hierarchy):
    core = CoreModel(0, hierarchy)
    ops = [MemOp(0x60000, kind=MemOpKind.STORE, dep=0)]
    result = core.execute(trace_with(ops=ops))
    assert result.stores == 1
    assert result.loads == 0


def test_execute_many_aggregates(hierarchy):
    core = CoreModel(0, hierarchy)
    mix = InstructionMix(arithmetic=40)
    traces = [trace_with(mix) for _ in range(5)]
    result = core.execute_many(traces)
    assert result.instructions == 200
    assert result.cycles == pytest.approx(5 * 40 / 4)


def test_retired_counters_accumulate(hierarchy):
    core = CoreModel(0, hierarchy)
    core.execute(trace_with(InstructionMix(loads=2, arithmetic=10),
                            ops=[MemOp(0x70000, dep=0)]))
    assert core.retired_instructions == 12
    assert core.retired_loads == 1
    assert core.total_cycles > 0


# ---------------------------------------------------------------------------
# execute_batch / execute_window / execute_many against a loop of execute


def _fresh_core():
    return CoreModel(0, MemoryHierarchy(SKYLAKE_SP_16C))


def _mixed_traces():
    """Hand-built traces covering every pricing shape the model has."""
    mix = InstructionMix(loads=4, arithmetic=30, others=6)
    return [
        # Pointer chase: three dependent cold accesses.
        MemTrace([MemOp(0x10000 + i * 4096, dep=i) for i in range(3)], mix),
        # Independent accesses overlapping up to the MLP.
        MemTrace([MemOp(0x80000 + i * 4096, dep=0) for i in range(8)], mix),
        # Store-heavy trace.
        MemTrace([MemOp(0x120000, kind=MemOpKind.STORE, dep=0),
                  MemOp(0x121000, kind=MemOpKind.STORE, dep=1)], mix),
        # Compute-only trace (front-end floor binds).
        MemTrace([], InstructionMix(arithmetic=100, others=100)),
        # Rerun of the first chase: now warm, L1 hits hidden.
        MemTrace([MemOp(0x10000 + i * 4096, dep=i) for i in range(3)], mix),
        # Mixed chain with a wide middle group.
        MemTrace([MemOp(0x200000, dep=0)]
                 + [MemOp(0x210000 + i * 4096, dep=1) for i in range(5)]
                 + [MemOp(0x220000, dep=2)], mix),
        # Interleaved dependency groups (deps not in recorded order).
        MemTrace([MemOp(0x300000, dep=1), MemOp(0x301000, dep=0),
                  MemOp(0x302000, dep=1), MemOp(0x303000, dep=0)], mix),
    ]


def _serial(traces, lock_cycles=0.0):
    core = _fresh_core()
    return core, [core.execute(trace, lock_cycles=lock_cycles)
                  for trace in traces]


def _assert_results_equal(expected, actual):
    assert len(expected) == len(actual)
    for index, (a, b) in enumerate(zip(expected, actual)):
        assert a.cycles == b.cycles, index
        assert dict(a.breakdown.parts) == dict(b.breakdown.parts), index
        assert a.level_counts == b.level_counts, index
        assert a.loads == b.loads, index
        assert a.stores == b.stores, index
        assert a.instructions == b.instructions, index


def _assert_cores_equal(expected, actual):
    assert actual.total_cycles == expected.total_cycles
    assert actual.retired_instructions == expected.retired_instructions
    assert actual.retired_loads == expected.retired_loads


#: The two whole-list entry points: ``execute_batch`` and an unbounded
#: ``execute_window`` from the first trace.
BULK_METHODS = ("batch", "window")


def _price_all(core, method, traces, lock_cycles=0.0):
    """Price every trace through one whole-list entry point."""
    if method == "batch":
        return core.execute_batch(traces, lock_cycles_each=lock_cycles)
    results, total, index = core.execute_window(
        traces, 0, None, lock_cycles_each=lock_cycles)
    assert index == len(traces)
    assert total == sum(result.cycles for result in results)
    return results


@pytest.mark.parametrize("method", BULK_METHODS)
@pytest.mark.parametrize("lock_cycles", [0.0, 23.0])
def test_batch_matches_serial_exactly(lock_cycles, method):
    traces = _mixed_traces()
    serial_core, serial = _serial(traces, lock_cycles)
    core = _fresh_core()
    batched = _price_all(core, method, traces, lock_cycles)
    _assert_results_equal(serial, batched)
    _assert_cores_equal(serial_core, core)


@pytest.mark.parametrize("method", BULK_METHODS)
def test_batch_evolves_cache_state_like_serial(method):
    """A second pass over the same addresses sees the warm state the
    serial loop would."""
    traces = _mixed_traces()
    core = _fresh_core()
    first = _price_all(core, method, traces)
    second = _price_all(core, method, traces)
    assert sum(r.cycles for r in second) < sum(r.cycles for r in first)
    serial_core, _ = _serial(traces)
    serial_second = [serial_core.execute(trace) for trace in traces]
    _assert_results_equal(serial_second, second)
    _assert_cores_equal(serial_core, core)


@pytest.mark.parametrize("lock_cycles", [0.0, 23.0])
@pytest.mark.parametrize("budget", [None, 250.0])
def test_window_matches_serial_exactly(budget, lock_cycles):
    """Consecutive windows resume where the previous one stopped and
    price each trace exactly as the serial loop does."""
    traces = _mixed_traces()
    serial_core, serial = _serial(traces, lock_cycles)
    core = _fresh_core()
    windowed = []
    windows = 0
    index = 0
    while index < len(traces):
        results, total, index = core.execute_window(
            traces, index, budget, lock_cycles_each=lock_cycles)
        assert results
        assert total == sum(result.cycles for result in results)
        windowed.extend(results)
        windows += 1
    assert windows == 1 if budget is None else windows > 1
    _assert_results_equal(serial, windowed)
    _assert_cores_equal(serial_core, core)


@pytest.mark.parametrize("lock_cycles", [0.0, 23.0])
def test_many_matches_serial_exactly(lock_cycles):
    traces = _mixed_traces()
    serial_core, serial = _serial(traces, lock_cycles)
    core = _fresh_core()
    aggregate = core.execute_many(traces, lock_cycles_each=lock_cycles)
    cycles = 0.0
    parts = {}
    levels = {}
    for result in serial:
        cycles += result.cycles
        for name, amount in result.breakdown.parts.items():
            parts[name] = parts.get(name, 0.0) + amount
        for level, count in result.level_counts.items():
            levels[level] = levels.get(level, 0) + count
    assert aggregate.cycles == cycles
    assert dict(aggregate.breakdown.parts) == parts
    assert aggregate.level_counts == levels
    assert aggregate.loads == sum(result.loads for result in serial)
    assert aggregate.stores == sum(result.stores for result in serial)
    assert aggregate.instructions == sum(result.instructions
                                         for result in serial)
    _assert_cores_equal(serial_core, core)


@pytest.mark.parametrize("method", BULK_METHODS)
def test_empty_batch(method):
    core = _fresh_core()
    assert _price_all(core, method, []) == []
    assert core.execute_window([], 0, None) == ([], 0.0, 0)
    assert core.execute_window([], 0, 10.0) == ([], 0.0, 0)
    aggregate = core.execute_many([])
    assert aggregate.cycles == 0.0 and aggregate.instructions == 0
    _assert_cores_equal(_fresh_core(), core)


def _uniform_traces(count):
    mix = InstructionMix(loads=1, arithmetic=20)
    return [MemTrace([MemOp(0x40000 + i * 4096, dep=0)], mix)
            for i in range(count)]


def test_window_prices_at_least_one_trace():
    core = _fresh_core()
    results, total, index = core.execute_window(_uniform_traces(4), 0, 0.0)
    assert len(results) == 1 and index == 1
    assert total == results[0].cycles


def test_window_includes_the_crossing_trace():
    traces = _uniform_traces(6)
    per_trace = _fresh_core().execute(traces[0]).cycles
    # The budget ends strictly inside the third trace: a window stops
    # only once the summed cycles reach it, so three traces are priced.
    core = _fresh_core()
    results, total, index = core.execute_window(traces, 0, 2.5 * per_trace)
    assert index == 3 and len(results) == 3
    assert total >= 2.5 * per_trace
    assert total - results[-1].cycles < 2.5 * per_trace


def test_window_without_budget_prices_everything():
    core = _fresh_core()
    traces = _uniform_traces(5)
    results, total, index = core.execute_window(traces, 1, None)
    assert index == 5 and len(results) == 4
    assert total == sum(result.cycles for result in results)
