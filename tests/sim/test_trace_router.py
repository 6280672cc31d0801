"""Per-core trace routing (CoreTracerRouter + capture) and the
allocation-free NullTracer fast path."""

import pytest

from repro.core.software import SoftwareLookupEngine
from repro.hashtable import CuckooHashTable
from repro.sim import CoreTracerRouter, MemTrace, NullTracer, Tracer, capture
from repro.sim.trace import NULL_TRACER


class TestNullTracer:
    def test_take_returns_shared_trace_without_allocating(self):
        tracer = NullTracer()
        first = tracer.take()
        tracer.begin()
        second = tracer.take()
        assert first is second is tracer.trace
        assert len(first) == 0

    def test_recording_hooks_are_noops(self):
        tracer = NullTracer()
        tracer.load(0x1000)
        tracer.store(0x2000, size=16)
        tracer.count(loads=3, arithmetic=5)
        tracer.barrier()
        trace = tracer.take()
        assert len(trace) == 0
        assert trace.mix.total == 0

    def test_disabled_flag_and_module_singleton(self):
        assert not NullTracer().enabled
        assert isinstance(NULL_TRACER, NullTracer)

    def test_capture_through_null_tracer(self):
        value, trace = capture(NULL_TRACER, 3, lambda: "ok")
        assert value == "ok"
        assert len(trace) == 0


class TestCoreTracerRouter:
    def test_default_active_is_core_zero(self):
        router = CoreTracerRouter()
        router.begin()
        router.load(0x40)
        assert len(router.tracer_for(0).trace) == 1
        assert len(router.tracer_for(1).trace) == 0

    def test_tracer_for_is_stable_per_core(self):
        router = CoreTracerRouter()
        assert router.tracer_for(2) is router.tracer_for(2)
        assert router.tracer_for(2) is not router.tracer_for(3)

    def test_capture_routes_to_issuing_core(self):
        router = CoreTracerRouter()

        def touch(addr):
            router.load(addr)
            return addr

        value, trace = capture(router, 1, touch, 0x100)
        assert value == 0x100
        assert [op.addr for op in trace] == [0x100]
        # Core 0's tracer never saw the access.
        router.begin()
        assert len(router.take()) == 0

    def test_interleaved_captures_do_not_clobber(self):
        router = CoreTracerRouter()
        _, trace_a = capture(router, 0, lambda: router.load(0xA))
        _, trace_b = capture(router, 1, lambda: router.load(0xB))
        _, trace_a2 = capture(router, 0, lambda: router.load(0xAA))
        assert [op.addr for op in trace_a] == [0xA]
        assert [op.addr for op in trace_b] == [0xB]
        assert [op.addr for op in trace_a2] == [0xAA]

    def test_nested_activation_restores_outer_core(self):
        router = CoreTracerRouter()
        token_outer = router.activate(1)
        router.begin()
        router.load(0x1)
        token_inner = router.activate(2)
        router.begin()
        router.load(0x2)
        inner = router.take()
        router.restore(token_inner)
        router.load(0x11)  # back on core 1's in-progress trace
        outer = router.take()
        router.restore(token_outer)
        assert [op.addr for op in inner] == [0x2]
        assert [op.addr for op in outer] == [0x1, 0x11]

    def test_capture_restores_on_exception(self):
        router = CoreTracerRouter()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            capture(router, 5, boom)
        # Active target fell back to the pre-capture one (core 0).
        router.begin()
        router.load(0xC0)
        assert [op.addr for op in router.tracer_for(0).trace] == [0xC0]
        assert len(router.tracer_for(5).trace) == 0


    def test_enabled_follows_the_active_cores_bracket(self):
        router = CoreTracerRouter()
        assert not router.enabled
        token_1 = router.activate(1)
        assert not router.enabled
        router.begin()
        assert router.enabled and router.tracer_for(1).enabled
        assert not router.tracer_for(0).enabled
        token_2 = router.activate(2)
        assert not router.enabled  # core 2 has no open bracket
        router.restore(token_2)
        assert router.enabled  # back on core 1's open bracket
        router.take()
        assert not router.enabled and not router.tracer_for(1).enabled
        router.restore(token_1)
        assert not router.enabled
        router.begin()  # core 0 again
        assert router.enabled and router.tracer_for(0).enabled
        assert not router.tracer_for(1).enabled

    def test_capture_leaves_every_bracket_closed(self):
        router = CoreTracerRouter()
        seen = []
        capture(router, 3, lambda: seen.append(router.enabled))
        assert seen == [True]
        assert not router.enabled
        assert not router.tracer_for(3).enabled


    def test_capture_closes_the_bracket_when_func_raises(self):
        router = CoreTracerRouter()

        def boom():
            router.load(0xB0)
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            capture(router, 0, boom)
        assert not router.enabled
        assert not router.tracer_for(0).enabled
        assert router.tracer_for(0).trace.ops == []


class TestTableTracer:
    def test_rejects_null_tracer_table(self):
        table = CuckooHashTable(16, tracer=NULL_TRACER)
        with pytest.raises(ValueError, match="enabled Tracer"):
            SoftwareLookupEngine.table_tracer(table)

    def test_accepts_fresh_unbracketed_tracer(self):
        tracer = Tracer()
        assert not tracer.enabled
        table = CuckooHashTable(16, tracer=tracer)
        assert SoftwareLookupEngine.table_tracer(table) is tracer


class TestPlainTracerHooks:
    def test_activate_is_noop_and_tracer_for_returns_self(self):
        tracer = Tracer()
        token = tracer.activate(7)
        assert token is None
        tracer.restore(token)
        assert tracer.tracer_for(7) is tracer

    def test_capture_brackets_begin_and_take(self):
        tracer = Tracer()
        tracer.load(0xDEAD)  # stale op from before the bracket
        value, trace = capture(tracer, 0, lambda: tracer.load(0xBEEF))
        assert value is None
        assert [op.addr for op in trace] == [0xBEEF]
        assert isinstance(trace, MemTrace)
