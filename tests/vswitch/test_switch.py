"""The instrumented virtual switch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.classifier import Action, FlowMask, HitLayer, Rule, make_flow
from repro.classifier.rules import megaflow_entry
from repro.core import HaloSystem
from repro.traffic import FlowSet, PacketStream, TrafficProfile
from repro.vswitch import SwitchMode, VirtualSwitch


@pytest.fixture
def workload():
    profile = TrafficProfile(name="t", description="", num_flows=4000,
                             num_rules=6, zipf_s=0.8)
    flow_set, rules = profile.build()
    return profile, flow_set, rules


def build_switch(rules, flow_set, mode=SwitchMode.SOFTWARE, prewarm=True):
    system = HaloSystem()
    switch = VirtualSwitch(system, mode, megaflow_tuple_capacity=1 << 14)
    switch.install_rules(rules)
    if prewarm:
        switch.prewarm_megaflows(flow_set.flows)
        switch.warm()
    return switch


def test_pipeline_stages_accounted(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    record = switch.process_flow(flow_set[0])
    for stage in ("packet_io", "preprocess", "others"):
        assert record.breakdown[stage] > 0
    assert record.cycles > 150


def test_classification_matches_rules(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    for flow in flow_set.flows[:80]:
        record = switch.process_flow(flow)
        assert record.classification.hit
        assert record.classification.rule.matches(flow)


def test_emc_hit_on_repeat(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    flow = flow_set[0]
    switch.process_flow(flow)
    record = switch.process_flow(flow)
    assert record.classification.layer is HitLayer.EMC


def test_prewarm_populates_megaflow(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set, prewarm=False)
    installed = switch.prewarm_megaflows(flow_set.flows[:1000])
    assert installed > 0
    record = switch.process_flow(flow_set[0])
    assert record.classification.layer is HitLayer.MEGAFLOW


def test_stats_accumulate(workload):
    profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set)
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=3)
    stats = switch.process_stream(stream.take(60))
    assert stats.packets == 60
    assert stats.cycles_per_packet > 0
    assert 0.0 < stats.classification_fraction() < 1.0
    assert sum(stats.layer_hits.values()) == 60


def test_halo_modes_classify_identically(workload):
    """Software and HALO pipelines agree on the matched rule."""
    profile, flow_set, rules = workload
    software = build_switch(rules, flow_set, SwitchMode.SOFTWARE)
    halo = build_switch(rules, flow_set, SwitchMode.HALO_NONBLOCKING)
    stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=5)
    flows = stream.take(40)
    for flow in flows:
        sw_record = software.process_flow(flow)
        halo_record = halo.process_flow(flow)
        assert halo_record.classification.hit == sw_record.classification.hit
        if sw_record.classification.hit:
            # Both return a rule that matches; ties across layers may pick
            # different-but-equivalent megaflows, so compare the action set.
            assert halo_record.classification.rule.matches(flow)


def test_halo_switch_faster_classification(workload):
    profile, flow_set, rules = workload
    software = build_switch(rules, flow_set, SwitchMode.SOFTWARE)
    halo = build_switch(rules, flow_set, SwitchMode.HALO_NONBLOCKING)
    stream = PacketStream(flow_set, zipf_s=0.2, seed=6)
    flows = stream.take(80)
    software.process_stream(flows)
    halo.process_stream(flows)
    sw_classification = (software.stats.breakdown["emc_lookup"]
                         + software.stats.breakdown["megaflow_lookup"])
    halo_classification = (halo.stats.breakdown["emc_lookup"]
                           + halo.stats.breakdown["megaflow_lookup"])
    assert halo_classification < sw_classification


def test_halo_blocking_mode_runs(workload):
    _profile, flow_set, rules = workload
    switch = build_switch(rules, flow_set, SwitchMode.HALO_BLOCKING)
    record = switch.process_flow(flow_set[1])
    assert record.classification.hit


def test_miss_layer_for_unmatched_flow():
    from repro.classifier import make_flow
    profile = TrafficProfile(name="t", description="", num_flows=100,
                             num_rules=2)
    flow_set, rules = profile.build()
    system = HaloSystem()
    switch = VirtualSwitch(system, SwitchMode.SOFTWARE)
    switch.install_rules(rules[:-1])   # drop the catch-all
    record = switch.process_flow(make_flow(0, group=77))
    assert record.classification.layer is HitLayer.MISS


# Overlapping masks: the /8 pair and the catch-all match every make_flow().
ORACLE_MASKS = (
    FlowMask.prefixes(src_prefix=0, dst_prefix=16, src_port=False,
                      dst_port=False),
    FlowMask.prefixes(src_prefix=0, dst_prefix=24, src_port=False),
    FlowMask.prefixes(src_prefix=8, dst_prefix=8, src_port=False,
                      dst_port=False),
    FlowMask.prefixes(src_prefix=0, dst_prefix=0, src_port=False,
                      dst_port=False, proto=False),
)

# (anchor index, group, mask index, priority): few priorities, so ties are
# common, and anchors of one group often collide on the same table key.
rule_specs = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 3),
              st.integers(0, len(ORACLE_MASKS) - 1), st.integers(0, 2)),
    min_size=1, max_size=12)


def _megaflows(switch):
    return {(rule.mask, rule.match, rule.action, rule.priority)
            for entry in switch.megaflow.tuples()
            for _key, rule in entry.table.items()}


@settings(max_examples=60, deadline=None)
@given(rule_specs, st.randoms(use_true_random=False))
def test_prewarm_installs_the_megaflows_openflow_classify_picks(specs, rng):
    rules = []
    for number, (anchor, group, mask_index, priority) in enumerate(specs):
        mask = ORACLE_MASKS[mask_index]
        rules.append(Rule(mask=mask,
                          match=mask.apply(make_flow(anchor, group=group)),
                          action=Action.output(number), priority=priority))
    rng.shuffle(rules)   # install order differs from rule_id order
    switch = VirtualSwitch(HaloSystem(), megaflow_tuple_capacity=1 << 12)
    switch.install_rules(rules)
    flows = [make_flow(index, group=index % 5) for index in range(150)]

    installed = switch.prewarm_megaflows(flows)

    expected = {}
    for flow in flows:
        best = switch.openflow.classify(flow)
        if best is not None:
            entry = megaflow_entry(best, flow)
            expected.setdefault((entry.mask, entry.match),
                                (entry.action, entry.priority))
    assert installed == len(expected)
    assert _megaflows(switch) == {key + value
                                  for key, value in expected.items()}
