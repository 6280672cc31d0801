"""OpenFlow layer — the slowest datapath layer (paper Figure 2a).

Implemented with tuple space search like the MegaFlow layer, but with
OpenFlow semantics: *every* tuple must be searched and the highest-priority
match returned (overlapping rules with priorities).  A miss here punts to
the controller.

The layer also keeps its installed rules in precedence order
(:attr:`OpenFlowLayer.rules`), so a caller that only needs the winning rule
— the megaflow prewarm — scans rules instead of probing every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sim.memory import AddressAllocator
from ..sim.trace import Tracer, NULL_TRACER
from .flow import FiveTuple, FlowMask
from .rules import Rule, precedence
from .tuple_space import TupleSpaceSearch


@dataclass
class OpenFlowStats:
    classifications: int = 0
    hits: int = 0
    controller_punts: int = 0


class OpenFlowLayer:
    """Priority-correct classification over all tuples."""

    def __init__(self, allocator: Optional[AddressAllocator] = None,
                 tracer: Tracer = NULL_TRACER,
                 tuple_capacity: int = 4096,
                 name: str = "openflow") -> None:
        self.tss = TupleSpaceSearch(
            allocator=allocator, tracer=tracer,
            tuple_capacity=tuple_capacity, name=name)
        self.stats = OpenFlowStats()
        # The installed rules by table key, mirroring the tuples: a rule
        # installed under an occupied key replaces the one stored there.
        self._installed: Dict[Tuple[FlowMask, FiveTuple], Rule] = {}
        #: The installed rules, highest precedence first.
        self.rules: Tuple[Rule, ...] = ()

    @property
    def num_tuples(self) -> int:
        return self.tss.num_tuples

    def __len__(self) -> int:
        return len(self.tss)

    def install(self, rule: Rule) -> bool:
        if not self.tss.install(rule):
            return False
        self._installed[rule.mask, rule.match] = rule
        self._reorder()
        return True

    def remove(self, rule: Rule) -> bool:
        if not self.tss.remove(rule):
            return False
        self._installed.pop((rule.mask, rule.match), None)
        self._reorder()
        return True

    def _reorder(self) -> None:
        self.rules = tuple(sorted(self._installed.values(), key=precedence))

    def classify(self, flow: FiveTuple) -> Optional[Rule]:
        """Search all tuples; return the highest-priority match.

        Ties break as :func:`~repro.classifier.rules.precedence` says.
        """
        self.stats.classifications += 1
        matches = self.tss.classify_all(flow)
        if not matches:
            self.stats.controller_punts += 1
            return None
        self.stats.hits += 1
        return min(matches, key=precedence)

    def tuples_searched_per_classification(self) -> int:
        """OpenFlow always searches every tuple."""
        return self.tss.num_tuples
