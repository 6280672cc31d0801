"""Host-time spans and model counters at the simulator's layer seams.

The tracer wraps public functions of ``repro`` from outside the package:
a seam names one or more attributes (``"module:Class.method"`` or
``"module:function"``) and every call through them becomes a span.  Spans
use the process CPU clock, so a span's *self time* is its CPU time minus
the part covered by spans opened inside it.  A call that re-enters a seam
already on the stack is not a new span: its time stays with the outer one.

Only attributes looked up at call time can be patched.  A class method is
patched once on its class.  A module-level function is patched in its
defining module *and* in every loaded module that bound the same object
with ``from x import f``, because those modules hold their own reference.

Seams whose function returns an iterator are timed over iteration: each
``next()`` is a span, creation is charged to the caller.

Work done in forked pool children is invisible to the spans; the
``runner.pool`` seam reports it as ``runner.pool.children_cpu_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def children_cpu_s() -> float:
    """User+sys CPU of every reaped child of this process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class SeamStats:
    """Accumulated spans of one seam."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    depth: int = 0


@dataclass(frozen=True)
class Seam:
    """A layer boundary: a metric name and the attributes it wraps."""

    name: str
    targets: Tuple[str, ...]
    #: ``observe(tracer, args, kwargs) -> after`` runs inside the span before
    #: the call; ``after(result)`` runs inside the span after it.
    observe: Optional[Callable] = None


class Tracer:
    """Span stack plus per-seam totals and model counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, SeamStats] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Objects whose stats are read when a root span closes.
        self.hierarchies: List[Any] = []
        self.datapaths: List[Any] = []

    # -- spans ---------------------------------------------------------------
    def seam(self, name: str) -> SeamStats:
        return self.stats.setdefault(name, SeamStats())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, stats: SeamStats, call: Callable[[], Any],
             count: bool = True) -> Any:
        """Run ``call`` as one span of ``stats`` (nested in the open one).

        ``count=False`` adds the time without counting a call (iteration
        of an iterator whose creation was counted).
        """
        if stats.depth:
            return call()
        stats.calls += count
        stats.depth += 1
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        clock = time.process_time
        start = clock()
        try:
            return call()
        finally:
            total = clock() - start
            stack.pop()
            stats.self_s += total - frame[0]
            stats.total_s += total
            stats.depth -= 1
            if stack:
                stack[-1][0] += total

    # -- patching ------------------------------------------------------------
    def install(self, seams: Sequence[Seam]) -> None:
        for seam in seams:
            stats = self.seam(seam.name)
            for target in seam.targets:
                self._patch(target, stats, seam.observe)

        for target, sink in (
                ("repro.sim.hierarchy:MemoryHierarchy", self.hierarchies),
                ("repro.classifier.datapath:OvsDatapath", self.datapaths)):
            module_name, _, class_name = target.partition(":")
            owner = getattr(importlib.import_module(module_name), class_name)
            self._set(owner, "__init__", _tracking_init(owner.__init__, sink))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def root(self, call: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one grid point as the root span; returns ``(result, cpu_s)``.

        ``cpu_s`` is the span's CPU plus the CPU of children reaped during
        it, the same quantity the untraced run measures.
        """
        stats = self.seam(ROOT)
        spent = stats.total_s
        children = children_cpu_s()
        try:
            result = self.span(stats, call)
        finally:
            reaped = children_cpu_s() - children
            self.count("analysis.children_cpu_s", reaped)
            self._harvest()
        return result, stats.total_s - spent + reaped

    def _harvest(self) -> None:
        """Fold the stats of model objects built in this grid point."""
        for hierarchy in self.hierarchies:
            for level, caches in (("l1", hierarchy.l1), ("l2", hierarchy.l2),
                                  ("llc", hierarchy.llc)):
                for cache in caches:
                    self.count(f"sim.{level}.hits", cache.stats.hits)
                    self.count(f"sim.{level}.misses", cache.stats.misses)
            self.count("sim.dram.reads", hierarchy.dram.stats.reads)
        for datapath in self.datapaths:
            self.count("classifier.datapath.packets", datapath.stats.packets)
        self.hierarchies.clear()
        self.datapaths.clear()

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, by name."""
        counters = self.counters

        def ratio(numerator: str, denominator: str) -> float:
            below = counters.get(denominator, 0)
            return counters.get(numerator, 0) / below if below else 0.0

        out: Dict[str, float] = {}
        for name in [seam.name for seam in SEAMS] + [ROOT]:
            stats = self.seam(name)
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
        engine_s = self.seam("sim.engine.run").total_s
        events = counters.get("sim.engine.events", 0)
        out.update({
            "runner.pool.children_cpu_s":
                counters.get("runner.pool.children_cpu_s", 0.0),
            "runner.pool.failed_attempts":
                counters.get("runner.pool.failed_attempts", 0),
            "sim.engine.events": events,
            "sim.engine.host_us_per_event":
                engine_s * 1e6 / events if events else 0.0,
            "sim.l1.hit_rate": _hit_rate(counters, "sim.l1"),
            "sim.l2.hit_rate": _hit_rate(counters, "sim.l2"),
            "sim.llc.hit_rate": _hit_rate(counters, "sim.llc"),
            "sim.llc.misses": counters.get("sim.llc.misses", 0),
            "sim.dram.reads": counters.get("sim.dram.reads", 0),
            "sim.hierarchy.flush.lines_probed":
                counters.get("sim.hierarchy.flush.lines_probed", 0),
            "sim.hierarchy.flush.lines_invalidated":
                counters.get("sim.hierarchy.flush.lines_invalidated", 0),
            "sim.hierarchy.flush.useful_ratio":
                ratio("sim.hierarchy.flush.lines_invalidated",
                      "sim.hierarchy.flush.lines_probed"),
            "hashtable.kicks_per_insert":
                ratio("hashtable.kicks", "hashtable.inserts"),
            "hashtable.insert_failures":
                counters.get("hashtable.insert_failures", 0),
            "hashtable.lookup_hit_rate":
                ratio("hashtable.lookup_hits", "hashtable.lookups"),
            "vswitch.prewarm.rule_checks":
                counters.get("vswitch.prewarm.rule_checks", 0),
            "vswitch.prewarm.rule_checks_per_flow":
                ratio("vswitch.prewarm.rule_checks", "vswitch.prewarm.flows"),
            "classifier.emc.hit_rate":
                ratio("classifier.emc_results", "classifier.classifications"),
            "classifier.tss.lookups_per_classification":
                ratio("classifier.tuples_searched",
                      "classifier.classifications"),
            "classifier.openflow_fraction":
                ratio("classifier.openflow_results",
                      "classifier.classifications"),
            "classifier.datapath.packets":
                counters.get("classifier.datapath.packets", 0),
        })
        return out

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, target: str, stats: SeamStats,
               observe: Optional[Callable]) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, stats, observe))
            else:
                wrapped = self._wrap(raw, stats, observe)
            self._set(owner, attr, wrapped)
            return
        original = getattr(module, path)
        wrapped = self._wrap(original, stats, observe)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__dict__", {}).get(path) is original:
                self._set(loaded, path, wrapped)

    def _wrap(self, func: Callable, stats: SeamStats,
              observe: Optional[Callable]) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def iterated(*args, **kwargs):
                if not stats.depth:
                    stats.calls += 1
                return _TimedIterator(tracer, stats, func(*args, **kwargs))
            return iterated

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if observe is None or stats.depth:
                return tracer.span(stats, lambda: func(*args, **kwargs))

            def observed():
                after = observe(tracer, args, kwargs)
                result = None
                try:
                    result = func(*args, **kwargs)
                finally:
                    after(result)
                return result
            return tracer.span(stats, observed)
        return wrapper


class _TimedIterator:
    """Iterator proxy: every ``next()`` is one span of the seam.

    The call was counted when the iterator was created.
    """

    def __init__(self, tracer: Tracer, stats: SeamStats, iterator) -> None:
        self._tracer = tracer
        self._stats = stats
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.span(self._stats, self._iterator.__next__,
                                 count=False)


def _tracking_init(original: Callable, sink: List[Any]) -> Callable:
    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink.append(self)
    return init


def _hit_rate(counters: Dict[str, float], level: str) -> float:
    hits = counters.get(f"{level}.hits", 0)
    accesses = hits + counters.get(f"{level}.misses", 0)
    return hits / accesses if accesses else 0.0


# -- model counters read at the seams -----------------------------------------

def _count_calls(tracer: Tracer, owner_target: str, counter: str):
    """Swap a one-argument method for a counting shim during the span.

    Returns the ``after`` hook that restores it and adds the count.  The
    shim's cost lands in the span's self time.
    """
    module_name, _, path = owner_target.partition(":")
    class_name, attr = path.split(".")
    owner = getattr(importlib.import_module(module_name), class_name)
    original = owner.__dict__[attr]
    ticks = itertools.count()

    def shim(obj, arg, _tick=ticks.__next__, _original=original):
        _tick()
        return _original(obj, arg)

    setattr(owner, attr, shim)

    def after(_result):
        setattr(owner, attr, original)
        tracer.count(counter, next(ticks))
    return after


def _invalidations(hierarchy) -> int:
    return sum(cache.stats.invalidations
               for cache in hierarchy.l1 + hierarchy.l2 + hierarchy.llc)


def _observe_flush(tracer, args, kwargs):
    hierarchy = args[0]
    before = _invalidations(hierarchy)
    restore = _count_calls(tracer, "repro.sim.cache:Cache.invalidate",
                           "sim.hierarchy.flush.lines_probed")

    def after(result):
        restore(result)
        tracer.count("sim.hierarchy.flush.lines_invalidated",
                     _invalidations(hierarchy) - before)
    return after


def _observe_prewarm(tracer, args, kwargs):
    flows = args[1] if len(args) > 1 else kwargs["flows"]
    tracer.count("vswitch.prewarm.flows", len(flows))
    return _count_calls(tracer, "repro.classifier.rules:Rule.matches",
                        "vswitch.prewarm.rule_checks")


def _observe_insert(tracer, args, kwargs):
    stats = args[0].stats
    kicks, failures = stats.kicks, stats.insert_failures

    def after(_result):
        tracer.count("hashtable.inserts")
        tracer.count("hashtable.kicks", stats.kicks - kicks)
        tracer.count("hashtable.insert_failures",
                     stats.insert_failures - failures)
    return after


def _observe_lookup(tracer, args, kwargs):
    stats = args[0].stats
    hits = stats.hits

    def after(_result):
        tracer.count("hashtable.lookups")
        tracer.count("hashtable.lookup_hits", stats.hits - hits)
    return after


def _observe_engine(tracer, args, kwargs):
    engine = args[0]
    events = engine.events_processed

    def after(_result):
        tracer.count("sim.engine.events", engine.events_processed - events)
    return after


def _observe_classify(tracer, args, kwargs):
    def after(result):
        if result is None:
            return
        tracer.count("classifier.classifications")
        tracer.count("classifier.tuples_searched", result.tuples_searched)
        layer = result.layer.value
        if layer in ("emc", "openflow"):
            tracer.count(f"classifier.{layer}_results")
    return after


def _observe_pool(tracer, args, kwargs):
    before = children_cpu_s()

    def after(result):
        tracer.count("runner.pool.children_cpu_s", children_cpu_s() - before)
        if result is not None:
            outcomes, _skipped = result
            tracer.count("runner.pool.failed_attempts", sum(
                len(outcome.attempt_failures) for outcome in outcomes))
    return after


SEAMS: Tuple[Seam, ...] = (
    Seam("hashtable.insert", ("repro.hashtable.cuckoo:CuckooHashTable.insert",),
         _observe_insert),
    Seam("hashtable.lookup", ("repro.hashtable.cuckoo:CuckooHashTable.lookup",),
         _observe_lookup),
    Seam("sim.hierarchy.flush",
         ("repro.sim.hierarchy:MemoryHierarchy.flush_region",),
         _observe_flush),
    Seam("sim.hierarchy.warm",
         ("repro.sim.hierarchy:MemoryHierarchy.warm_llc",
          "repro.sim.hierarchy:MemoryHierarchy.flush_private",
          "repro.sim.hierarchy:MemoryHierarchy.flush_all")),
    # ``execute_program`` is left out: it is a DES process generator that
    # prices through ``execute``, which is wrapped.
    Seam("sim.core.price",
         tuple(f"repro.sim.core:CoreModel.{name}" for name in (
             "execute", "execute_batch", "execute_window",
             "execute_prefetch_batch", "execute_many"))),
    Seam("sim.engine.run", ("repro.sim.engine:Engine.run",), _observe_engine),
    Seam("vswitch.prewarm",
         ("repro.vswitch.switch:VirtualSwitch.prewarm_megaflows",),
         _observe_prewarm),
    Seam("vswitch.process",
         ("repro.vswitch.switch:VirtualSwitch.process_stream",
          "repro.vswitch.switch:VirtualSwitch.process_flow")),
    Seam("classifier.classify",
         ("repro.classifier.datapath:OvsDatapath.classify",),
         _observe_classify),
    Seam("classifier.install",
         ("repro.classifier.tuple_space:TupleSpaceSearch.install",)),
    Seam("traffic.generate",
         ("repro.traffic.generator:FlowSet.generate",
          "repro.traffic.generator:PacketStream.take")),
    Seam("workloads.churn", ("repro.workloads.churn:ChurnEngine.packets",)),
    Seam("runner.pool", ("repro.runner.pool:run_supervised",), _observe_pool),
)

ROOT = "analysis.experiment"
