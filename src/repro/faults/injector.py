"""Realising a :class:`~repro.faults.plan.FaultPlan` on a live system.

The injector touches only the sanctioned fault seams:

* ``Engine.add_fault_hook("accelerator.serve", ...)`` — a generator gate
  every accelerator query passes right after winning a scoreboard slot.
  Stalls and outages happen *inside* the slot, so a faulted slice backs up
  exactly like real head-of-line blocking: its busy bit rises and the
  query distributor holds traffic.
* ``Dram.fault_hook`` / ``Interconnect.fault_hook`` — pure per-access
  callbacks adding latency (spikes, retransmits after drops) or phantom
  traffic (duplicates).  They schedule no engine events, so an installed
  plan never extends the engine's drain time by itself.
* ``HardwareLockManager.hold`` and ``Scoreboard.admit`` — scheduled
  processes realise lock-bit holds and queue saturation; these *do* place
  calendar events at window boundaries (documented in docs/MODELING.md §8).

Everything observable lands in :class:`FaultStats`, exported through the
metrics registry as the ``faults.*`` pull source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from .plan import FaultKind, FaultPlan, FaultWindow

#: Seam name on the engine fault-hook bus for the accelerator gate.
ACCEL_SEAM = "accelerator.serve"


@dataclass
class FaultStats:
    """Everything the injector did, as flat scalars."""

    accel_stalls: int = 0
    accel_stall_cycles: float = 0.0
    outage_delays: int = 0
    outage_cycles: float = 0.0
    dram_spikes: int = 0
    dram_extra_cycles: float = 0.0
    noc_drops: int = 0
    noc_duplicates: int = 0
    lock_holds: int = 0
    queue_slots_held: int = 0

    @property
    def injections(self) -> int:
        return (self.accel_stalls + self.outage_delays + self.dram_spikes
                + self.noc_drops + self.noc_duplicates + self.lock_holds
                + self.queue_slots_held)

    def as_dict(self) -> dict:
        """Flat scalar view for the metrics registry (pull source)."""
        return {
            "accel_stalls": self.accel_stalls,
            "accel_stall_cycles": self.accel_stall_cycles,
            "outage_delays": self.outage_delays,
            "outage_cycles": self.outage_cycles,
            "dram_spikes": self.dram_spikes,
            "dram_extra_cycles": self.dram_extra_cycles,
            "noc_drops": self.noc_drops,
            "noc_duplicates": self.noc_duplicates,
            "lock_holds": self.lock_holds,
            "queue_slots_held": self.queue_slots_held,
            "injections": self.injections,
        }


class FaultInjector:
    """Binds one :class:`FaultPlan` to one ``HaloSystem``.

    Usage::

        injector = FaultInjector(system, plan)
        injector.install()
        ...run workloads...
        injector.uninstall()   # optional; safe to leave installed

    Install before running: lock-hold and queue-saturation windows are
    realised as engine processes registered at install time.
    """

    def __init__(self, system, plan: FaultPlan) -> None:
        self.system = system
        self.engine = system.engine
        self.plan = plan
        self.stats = FaultStats()
        self._rng = plan.rng()
        self.installed = False

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> "FaultInjector":
        if self.installed:
            return self
        self.engine.add_fault_hook(ACCEL_SEAM, self._accel_gate)
        hierarchy = self.system.hierarchy
        hierarchy.dram.fault_hook = self._dram_hook
        hierarchy.interconnect.fault_hook = self._noc_hook
        # Closes over the stats block, not the injector: the counts stay
        # readable after the injector is dropped, without holding the model.
        stats = self.stats
        self.system.obs.metrics.register_source(
            "faults", lambda: stats.as_dict() if stats.injections else {})
        for window in self.plan.of_kind(FaultKind.LOCK_HOLD):
            self.engine.process(self._lock_hold(window), name="fault.lock_hold")
        for window in self.plan.of_kind(FaultKind.QUEUE_SATURATION):
            for accelerator in self.system.accelerators:
                if window.covers_slice(accelerator.slice_id):
                    self.engine.process(
                        self._queue_saturation(window, accelerator),
                        name=f"fault.queue_sat.s{accelerator.slice_id}")
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Detach the pure hooks (scheduled window processes, if any, run
        out on their own as the engine drains)."""
        if not self.installed:
            return
        self.engine.remove_fault_hook(ACCEL_SEAM)
        hierarchy = self.system.hierarchy
        hierarchy.dram.fault_hook = None
        hierarchy.interconnect.fault_hook = None
        self.installed = False

    # -- pure hooks --------------------------------------------------------
    def _accel_gate(self, accelerator) -> Generator:
        """Gate one admitted query: sleep out outages, then pay stalls.

        With no active window this yields nothing — zero events, zero
        cycles — which is what the zero-fault parity test pins.
        """
        engine = self.engine
        slice_id = accelerator.slice_id
        while True:
            outage = next(self.plan.active(FaultKind.ACCEL_OUTAGE,
                                           engine.now, slice_id), None)
            if outage is None:
                break
            remaining = outage.remaining(engine.now)
            self.stats.outage_delays += 1
            self.stats.outage_cycles += remaining
            yield engine.timeout(remaining)
        for window in self.plan.active(FaultKind.ACCEL_STALL,
                                       engine.now, slice_id):
            if (window.probability < 1.0
                    and self._rng.uniform() >= window.probability):
                continue
            self.stats.accel_stalls += 1
            self.stats.accel_stall_cycles += window.magnitude
            yield engine.timeout(window.magnitude)

    def _dram_hook(self, write: bool) -> float:
        extra = 0.0
        for window in self.plan.active(FaultKind.DRAM_SPIKE, self.engine.now):
            if (window.probability < 1.0
                    and self._rng.uniform() >= window.probability):
                continue
            extra += window.magnitude
        if extra:
            self.stats.dram_spikes += 1
            self.stats.dram_extra_cycles += extra
        return extra

    def _noc_hook(self, src: int, dst: int, hops: int) -> float:
        interconnect = self.system.hierarchy.interconnect
        extra = 0.0
        now = self.engine.now
        for window in self.plan.active(FaultKind.NOC_DROP, now):
            if self._rng.uniform() < window.probability:
                # The message is lost; the retransmit pays the path again.
                self.stats.noc_drops += 1
                extra += hops * interconnect.latency.hop + window.magnitude
        for window in self.plan.active(FaultKind.NOC_DUPLICATE, now):
            if self._rng.uniform() < window.probability:
                # A spurious copy rides the ring: phantom traffic, no delay
                # for the original.
                self.stats.noc_duplicates += 1
                interconnect.stats.messages += 1
                interconnect.stats.total_hops += hops
        return extra

    # -- scheduled window processes ---------------------------------------
    def _next_burst(self, window: FaultWindow, now: float) -> float:
        """First cycle >= now at which the window is active (end if never)."""
        if now < window.start:
            return window.start
        if window.period is None:
            return now if now < window.end else window.end
        elapsed = now - window.start
        periods = int(elapsed // window.period)
        if window.active(now):
            return now
        return min(window.start + (periods + 1) * window.period, window.end)

    def _lock_hold(self, window: FaultWindow) -> Generator:
        """Pin the window's lines' lock bits for each active burst."""
        engine = self.engine
        manager = self.system.lock_manager
        while engine.now < window.end:
            burst = self._next_burst(window, engine.now)
            if burst >= window.end:
                break
            if burst > engine.now:
                yield engine.timeout(burst - engine.now)
            held: List[int] = [addr for addr in window.lines
                               if manager.hold(addr)]
            self.stats.lock_holds += len(held)
            remaining = window.remaining(engine.now)
            if remaining > 0:
                yield engine.timeout(remaining)
            for addr in held:
                manager.release_hold(addr)

    def _queue_saturation(self, window: FaultWindow,
                          accelerator) -> Generator:
        """Occupy scoreboard slots with phantom queries for each burst."""
        engine = self.engine
        scoreboard = accelerator.scoreboard
        slots = int(window.magnitude) if window.magnitude else scoreboard.entries
        slots = max(1, min(slots, scoreboard.entries))
        while engine.now < window.end:
            burst = self._next_burst(window, engine.now)
            if burst >= window.end:
                break
            if burst > engine.now:
                yield engine.timeout(burst - engine.now)
            granted = 0
            for _ in range(slots):
                yield scoreboard.admit()
                granted += 1
            self.stats.queue_slots_held += granted
            remaining = window.remaining(engine.now)
            if remaining > 0:
                yield engine.timeout(remaining)
            for _ in range(granted):
                scoreboard.complete()
