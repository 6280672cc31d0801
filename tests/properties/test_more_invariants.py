"""Second round of property-based invariants: SFH, TSS, flow register
windows, the DES engine under random workloads."""

from hypothesis import given, settings, strategies as st

from repro.classifier import (
    Action,
    FiveTuple,
    FlowMask,
    TupleSpaceSearch,
    rule_for_flow,
)
from repro.hashtable import SingleHashTable
from repro.sim import Engine

keys16 = st.binary(min_size=16, max_size=16)

flows = st.builds(
    FiveTuple,
    src_ip=st.integers(0, 0xFFFFFFFF),
    dst_ip=st.integers(0, 0xFFFFFFFF),
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    proto=st.integers(0, 0xFF),
)

group_masks = st.builds(
    FlowMask.prefixes,
    src_prefix=st.sampled_from([0, 8]),
    dst_prefix=st.sampled_from([16, 24]),
    src_port=st.just(False),
    dst_port=st.booleans(),
    proto=st.booleans(),
)


# -- SFH behaves like a dict even when overfull --------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.dictionaries(keys16, st.integers(), max_size=100),
       st.sampled_from([2, 8, 64]))
def test_sfh_matches_dict(entries, expected_keys):
    table = SingleHashTable(expected_keys=expected_keys)
    for key, value in entries.items():
        assert table.insert(key, value)
    assert len(table) == len(entries)
    for key, value in entries.items():
        assert table.lookup(key) == value


@settings(max_examples=30, deadline=None)
@given(st.sets(keys16, min_size=2, max_size=40), st.data())
def test_sfh_delete_is_precise(keys, data):
    keys = sorted(keys)
    table = SingleHashTable(expected_keys=8)
    for index, key in enumerate(keys):
        table.insert(key, index)
    victim = data.draw(st.sampled_from(keys))
    assert table.delete(victim)
    for index, key in enumerate(keys):
        assert table.lookup(key) == (None if key == victim else index)


# -- TSS: classify agrees with a linear scan over installed rules ----------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(flows, group_masks), min_size=1, max_size=20),
       flows)
def test_tss_classify_all_matches_linear_scan(rule_specs, probe):
    tss = TupleSpaceSearch(tuple_capacity=64)
    rules = []
    for anchor, mask in rule_specs:
        rule = rule_for_flow(anchor, Action.drop(), mask)
        if tss.install(rule):
            rules.append(rule)
    expected_ids = {rule.rule_id for rule in rules if rule.matches(probe)}
    # Duplicate (mask, key) installs overwrite in the tuple's hash table,
    # so compare against the *last* rule per (mask, masked-key).
    last_per_slot = {}
    for rule in rules:
        last_per_slot[(rule.mask, rule.key)] = rule.rule_id
    surviving = set(last_per_slot.values())
    got_ids = {rule.rule_id for rule in tss.classify_all(probe)}
    assert got_ids == (expected_ids & surviving)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(flows, group_masks), min_size=1, max_size=15),
       flows)
def test_tss_first_match_is_a_real_match(rule_specs, probe):
    tss = TupleSpaceSearch(tuple_capacity=64)
    for anchor, mask in rule_specs:
        tss.install(rule_for_flow(anchor, Action.drop(), mask))
    found, searched = tss.classify(probe)
    assert 0 <= searched <= tss.num_tuples
    if found is not None:
        assert found.matches(probe)


# -- engine resources never over-grant ---------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(1, 20), min_size=1,
                                   max_size=15))
def test_resource_concurrency_bound(capacity, holds):
    engine = Engine()
    resource = engine.resource(capacity)
    active = [0]
    peak = [0]

    def worker(hold):
        yield resource.acquire()
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield engine.timeout(hold)
        active[0] -= 1
        resource.release()

    for hold in holds:
        engine.process(worker(hold))
    engine.run()
    assert peak[0] <= capacity
    assert active[0] == 0
    # Work conservation: total time is at least the critical path.
    assert engine.now >= max(holds)
