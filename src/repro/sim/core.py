"""Out-of-order core cost model.

Replays a :class:`~repro.sim.trace.MemTrace` — the memory operations plus the
instruction mix of one functional operation — against the memory hierarchy
and produces a cycle cost with a compute/memory/locking breakdown.

Modelling choices (approximate cycle level, see DESIGN.md §5):

* Non-memory instructions retire at ``base_cpi`` (OoO issue width folded in).
* Memory operations are organised in *dependency chains* (see
  :class:`~repro.sim.trace.MemOp`); groups within a chain overlap up to the
  core's memory-level parallelism (MSHR limit), consecutive groups serialise
  (pointer chases).
* L1 hits are considered hidden by the OoO window (they overlap compute);
  only the portion of each access beyond the L1 hit latency counts as stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .hierarchy import MemoryHierarchy
from .params import CoreParams
from .stats import Breakdown
from .trace import MemTrace


@dataclass
class ExecutionResult:
    """Cycle cost of replaying one traced operation on a core."""

    cycles: float
    breakdown: Breakdown
    level_counts: Dict[str, int] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    instructions: int = 0

    @property
    def compute_cycles(self) -> float:
        return self.breakdown["compute"]

    @property
    def memory_cycles(self) -> float:
        return self.breakdown["memory"]


class CoreModel:
    """Cost model for one core executing traced operations."""

    def __init__(self, core_id: int, hierarchy: MemoryHierarchy,
                 params: CoreParams = None) -> None:
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.params = params or hierarchy.machine.core
        self.retired_instructions = 0
        self.retired_loads = 0
        self.total_cycles = 0.0

    def execute(self, trace: MemTrace,
                lock_cycles: float = 0.0) -> ExecutionResult:
        """Replay ``trace`` from this core; returns the cycle cost.

        The cost is ``max(front-end floor, exposed compute + memory stalls
        + lock overhead)``: the out-of-order window hides most compute behind
        memory and neighbouring instructions (``compute_overlap``), but the
        core can never retire faster than ``issue_width`` instructions/cycle.
        """
        mix = trace.mix
        front_end_floor = mix.total / self.params.issue_width
        compute_cycles = (mix.total * self.params.base_cpi
                          * self.params.compute_overlap)

        memory_cycles = 0.0
        level_counts: Dict[str, int] = {}
        loads = stores = 0
        l1_hit = self.hierarchy.latency.l1_hit
        mlp = self.params.mlp

        for group in trace.dependency_chains():
            # Overlap the group's accesses in waves of size ``mlp``.
            latencies: List[int] = []
            for op in group:
                result = self.hierarchy.core_access(
                    self.core_id, op.addr, write=op.is_store)
                latencies.append(result.latency)
                level_counts[result.level] = (
                    level_counts.get(result.level, 0) + 1)
                if op.is_store:
                    stores += 1
                else:
                    loads += 1
            latencies.sort(reverse=True)
            group_cycles = 0.0
            for start in range(0, len(latencies), mlp):
                wave = latencies[start:start + mlp]
                # Stall = longest access in the wave beyond what the OoO
                # window hides (an L1 hit's worth of latency).
                group_cycles += max(0, wave[0] - l1_hit)
            memory_cycles += group_cycles

        breakdown = Breakdown({
            "compute": compute_cycles,
            "memory": memory_cycles,
        })
        if lock_cycles:
            breakdown.add("locking", lock_cycles)
        total = breakdown.total
        if total < front_end_floor:
            # Front-end bound (small/L1-resident working sets): the issue
            # width limits throughput; attribute the gap to compute.
            breakdown.add("compute", front_end_floor - total)
            total = front_end_floor
        self.retired_instructions += mix.total
        self.retired_loads += loads
        self.total_cycles += total
        return ExecutionResult(
            cycles=total,
            breakdown=breakdown,
            level_counts=level_counts,
            loads=loads,
            stores=stores,
            instructions=mix.total,
        )

    def execute_batch(self, traces,
                      lock_cycles_each: float = 0.0) -> List[ExecutionResult]:
        """Replay traces back-to-back; one :meth:`execute` result each."""
        return [self.execute(trace, lock_cycles=lock_cycles_each)
                for trace in traces]

    def execute_window(self, traces, start: int, budget,
                       lock_cycles_each: float = 0.0):
        """Replay ``traces[start:]`` until the summed cycles reach ``budget``.

        At least one trace is always replayed; ``budget=None`` means
        unbounded.  Returns ``(results, total_cycles, next_index)``.
        """
        results: List[ExecutionResult] = []
        total = 0.0
        index = start
        while index < len(traces):
            if results and budget is not None and total >= budget:
                break
            result = self.execute(traces[index], lock_cycles=lock_cycles_each)
            total += result.cycles
            results.append(result)
            index += 1
        return results, total, index

    def execute_prefetch_batch(self, traces,
                               lock_cycles_each: float = 0.0
                               ) -> ExecutionResult:
        """Replay a batch with DPDK-style software prefetching.

        ``rte_hash_lookup_bulk`` issues prefetches for every key's buckets
        before any comparison, so the *same-stage* accesses of different
        lookups overlap (bounded by the MSHRs), while each lookup's own
        pointer chase stays serialised.  The result is the aggregate cost
        of the whole batch.
        """
        traces = list(traces)
        if not traces:
            return ExecutionResult(0.0, Breakdown())
        mlp = self.params.mlp
        l1_hit = self.hierarchy.latency.l1_hit

        total_mix_instructions = 0
        compute_cycles = 0.0
        loads = stores = 0
        level_counts: Dict[str, int] = {}
        # stage -> list of access latencies across the whole batch
        stage_latencies: Dict[int, List[int]] = {}
        for trace in traces:
            mix = trace.mix
            total_mix_instructions += mix.total
            compute_cycles += (mix.total * self.params.base_cpi
                               * self.params.compute_overlap)
            for stage, group in enumerate(trace.dependency_chains()):
                bucket = stage_latencies.setdefault(stage, [])
                for op in group:
                    result = self.hierarchy.core_access(
                        self.core_id, op.addr, write=op.is_store)
                    bucket.append(result.latency)
                    level_counts[result.level] = (
                        level_counts.get(result.level, 0) + 1)
                    if op.is_store:
                        stores += 1
                    else:
                        loads += 1

        memory_cycles = 0.0
        for stage in sorted(stage_latencies):
            latencies = sorted(stage_latencies[stage], reverse=True)
            for start in range(0, len(latencies), mlp):
                wave = latencies[start:start + mlp]
                memory_cycles += max(0, wave[0] - l1_hit)

        breakdown = Breakdown({"compute": compute_cycles,
                               "memory": memory_cycles})
        if lock_cycles_each:
            breakdown.add("locking", lock_cycles_each * len(traces))
        total = breakdown.total
        floor = total_mix_instructions / self.params.issue_width
        if total < floor:
            breakdown.add("compute", floor - total)
            total = floor
        self.retired_instructions += total_mix_instructions
        self.retired_loads += loads
        self.total_cycles += total
        return ExecutionResult(cycles=total, breakdown=breakdown,
                               level_counts=level_counts, loads=loads,
                               stores=stores,
                               instructions=total_mix_instructions)

    def execute_many(self, traces, lock_cycles_each: float = 0.0) -> ExecutionResult:
        """Replay a sequence of traces back-to-back; returns the aggregate."""
        total = Breakdown()
        levels: Dict[str, int] = {}
        cycles = 0.0
        loads = stores = instructions = 0
        for trace in traces:
            result = self.execute(trace, lock_cycles=lock_cycles_each)
            cycles += result.cycles
            total = total.merged(result.breakdown)
            for level, count in result.level_counts.items():
                levels[level] = levels.get(level, 0) + count
            loads += result.loads
            stores += result.stores
            instructions += result.instructions
        return ExecutionResult(cycles=cycles, breakdown=total,
                               level_counts=levels, loads=loads,
                               stores=stores, instructions=instructions)
