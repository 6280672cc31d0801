"""Property suite: ``flush_region`` matches the per-line probe loop it replaced.

``MemoryHierarchy.flush_region`` walks each private cache's resident
lines (``Cache.invalidate_range``) and the snoop filter's tracked lines
(``SnoopFilter.evict_range``) instead of probing every line of the region
in every core's L1 and L2.  The oracle below is that per-line loop.  Both
run the same random multi-core program — loads, stores, CHA accesses,
lock-bit changes, metadata-cache CV bits and flushes — and after every
flush the two machines must agree on every cache's resident lines in LRU
order with their dirty and lock bits, every ``CacheStats`` block, the
snoop-filter sharers and the metadata-holder map.

The machine is small enough that flushed ranges land both below and at or
above the private caches' set counts (8 L1 sets, 16 L2 sets), so both
branches of ``invalidate_range`` run, and the LLC is small enough that
back-invalidation and the stale-copy coherence gap occur.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CacheParams, MachineParams, MemoryHierarchy
from repro.sim.params import KB

MACHINE = MachineParams(
    cores=3,
    llc_slices=2,
    l1d=CacheParams(1 * KB, 2),
    l2=CacheParams(4 * KB, 4),
    llc_slice=CacheParams(8 * KB, 4),
)
LINES = 96
BASE = 0x40000


def flush_region_oracle(hierarchy: MemoryHierarchy, base: int,
                        size: int) -> None:
    """The per-line flush: every line of the region × every core."""
    first = hierarchy.line_of(base)
    last = hierarchy.line_of(base + size - 1)
    for line in range(first, last + 1):
        for core in range(hierarchy.machine.cores):
            hierarchy.l1[core].invalidate(line)
            hierarchy.l2[core].invalidate(line)
            hierarchy.snoop_filter.record_eviction(line, core)
        hierarchy.llc[hierarchy.interconnect.slice_of_line(line)].invalidate(
            line)


def snapshot(hierarchy: MemoryHierarchy):
    caches = [
        (cache.name,
         {index: [(line, state.dirty, state.locked)
                  for line, state in cache_set.items()]
          for index, cache_set in cache._sets.items()},
         dataclasses.astuple(cache.stats))
        for cache in hierarchy.l1 + hierarchy.l2 + hierarchy.llc]
    snoop = hierarchy.snoop_filter
    return caches, snoop._sharers, snoop._metadata_holder


_LINE = st.integers(0, LINES - 1)
_STEP = st.one_of(
    st.tuples(st.just("load"), st.integers(0, MACHINE.cores - 1), _LINE),
    st.tuples(st.just("store"), st.integers(0, MACHINE.cores - 1), _LINE),
    st.tuples(st.just("cha"), st.integers(0, MACHINE.llc_slices - 1), _LINE),
    st.tuples(st.just("lock"), _LINE),
    st.tuples(st.just("unlock"), _LINE),
    st.tuples(st.just("meta"), _LINE, st.integers(0, MACHINE.llc_slices - 1)),
)
# (first line, byte offset into it, size in bytes): sizes from zero to
# half the window, unaligned on either end.
_FLUSH = st.tuples(st.just("flush"), _LINE, st.integers(0, 63),
                   st.integers(0, 64 * LINES // 2))
#: Rounds of accesses, each ending in a flush.
_PROGRAM = st.lists(st.tuples(st.lists(_STEP, max_size=40), _FLUSH),
                    min_size=1, max_size=8).map(
    lambda rounds: [op for steps, flush in rounds for op in steps + [flush]])


def apply(hierarchy: MemoryHierarchy, op, flush) -> object:
    kind = op[0]
    if kind == "load":
        return hierarchy.core_access(op[1], BASE + 64 * op[2])
    if kind == "store":
        return hierarchy.core_access(op[1], BASE + 64 * op[2], write=True)
    if kind == "cha":
        return hierarchy.cha_access(op[1], BASE + 64 * op[2])
    if kind == "lock":
        return hierarchy.lock_line(BASE + 64 * op[1])
    if kind == "unlock":
        return hierarchy.unlock_line(BASE + 64 * op[1])
    if kind == "meta":
        hierarchy.snoop_filter.set_metadata_holder(
            hierarchy.line_of(BASE + 64 * op[1]), op[2])
        return None
    _, line, offset, size = op
    return flush(hierarchy, BASE + 64 * line + offset, size)


@settings(max_examples=300, deadline=None)
@given(_PROGRAM)
def test_flush_region_matches_per_line_oracle(program):
    new = MemoryHierarchy(MACHINE)
    old = MemoryHierarchy(MACHINE)
    for op in program:
        got = apply(new, op, MemoryHierarchy.flush_region)
        want = apply(old, op, flush_region_oracle)
        assert got == want, op
        if op[0] == "flush":
            assert snapshot(new) == snapshot(old), op


def test_machine_exercises_both_invalidate_range_branches():
    """Flush sizes span the private caches' set counts."""
    hierarchy = MemoryHierarchy(MACHINE)
    set_counts = {cache.num_sets for cache in hierarchy.l1 + hierarchy.l2}
    assert set_counts == {8, 16}
    assert max(set_counts) < LINES // 2  # largest flush size
