"""A dropped model is freed by reference counting, not by the cycle
collector: nothing that observes the model (metrics sources, gauges)
may point back into it.

Each scenario runs with the collector disabled, drops every reference,
and then lets one ``DEBUG_SAVEALL`` collection list what was left in
cyclic garbage.  The engine's own ``timeout`` closure cycle holds no
model state and may stay.
"""

import gc

import pytest

from repro.core import HaloSystem
from repro.faults import FaultInjector, FaultPlan
from repro.guard import attach_standard_guard
from repro.hashtable import CuckooHashTable
from repro.sim import Cache, MemoryHierarchy
from repro.traffic import TrafficProfile
from repro.vswitch import SwitchMode, VirtualSwitch

from ..conftest import make_keys

MODEL_TYPES = (MemoryHierarchy, Cache, CuckooHashTable, VirtualSwitch,
               HaloSystem)


@pytest.fixture
def cyclic_garbage():
    """Run a scenario with gc off; yield a callable listing what the
    next collection finds unreachable."""
    gc.collect()
    gc.disable()
    collected = []

    def collect():
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        collected.extend(gc.garbage)
        return collected

    try:
        yield collect
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        collected.clear()
        gc.enable()


def _model_objects(garbage):
    return sorted({type(obj).__name__ for obj in garbage
                   if isinstance(obj, MODEL_TYPES)})


def _software_switch_scenario():
    profile = TrafficProfile(name="t", description="", num_flows=200,
                             num_rules=6, zipf_s=0.8)
    flow_set, rules = profile.build()
    system = HaloSystem()
    switch = VirtualSwitch(system, SwitchMode.SOFTWARE,
                           megaflow_tuple_capacity=1 << 10)
    switch.install_rules(rules)
    switch.prewarm_megaflows(flow_set.flows[:50])
    switch.warm()
    for flow in flow_set.flows[:5]:
        switch.process_flow(flow)
    snapshot = system.obs.metrics.snapshot()
    assert any(name.startswith("vswitch.layer_hits.") for name in snapshot)


def _guarded_faulted_scenario():
    system = HaloSystem()
    table = system.create_table(1024, name="teardown")
    keys = make_keys(100, seed=5)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    attach_standard_guard(system)
    injector = FaultInjector(system, FaultPlan.degradation(0.5)).install()
    system.run_blocking_lookups(table, keys[:20])
    snapshot = system.obs.metrics.snapshot()
    assert "guard.events_observed" in snapshot
    # The engine, which sits in its own timeout-closure cycle, holds its
    # guard and fault hooks; detach them so only the metrics sources
    # remain as a path back into the model.
    injector.uninstall()
    system.engine.detach_guard()


@pytest.mark.parametrize("scenario", [_software_switch_scenario,
                                      _guarded_faulted_scenario])
def test_dropped_model_leaves_no_cyclic_garbage(cyclic_garbage, scenario):
    scenario()
    assert _model_objects(cyclic_garbage()) == []
