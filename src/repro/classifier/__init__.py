"""Flow classification: 5-tuples, masks, rules, EMC, tuple space search,
the OpenFlow layer, and the three-layer OVS datapath."""

from .cache_policy import (
    CachePolicy,
    CorrelatorPolicy,
    LruPolicy,
    POLICY_NAMES,
    RandomEvictionPolicy,
    SecondChancePolicy,
    make_policy,
)
from .datapath import Classification, DatapathStats, HitLayer, OvsDatapath
from .emc import DEFAULT_EMC_ENTRIES, ExactMatchCache
from .flow import (
    FiveTuple,
    FlowMask,
    KEY_BYTES,
    PROTO_TCP,
    PROTO_UDP,
    make_flow,
)
from .openflow import OpenFlowLayer
from .rules import Action, ActionKind, Rule, rule_for_flow
from .tuple_space import (
    DEFAULT_TUPLE_CAPACITY,
    TupleEntry,
    TupleSpaceSearch,
    TupleSpaceStats,
)

__all__ = [
    "Action",
    "ActionKind",
    "CachePolicy",
    "Classification",
    "CorrelatorPolicy",
    "LruPolicy",
    "POLICY_NAMES",
    "RandomEvictionPolicy",
    "SecondChancePolicy",
    "DEFAULT_EMC_ENTRIES",
    "DEFAULT_TUPLE_CAPACITY",
    "DatapathStats",
    "ExactMatchCache",
    "FiveTuple",
    "FlowMask",
    "HitLayer",
    "KEY_BYTES",
    "OpenFlowLayer",
    "OvsDatapath",
    "PROTO_TCP",
    "PROTO_UDP",
    "Rule",
    "TupleEntry",
    "TupleSpaceSearch",
    "TupleSpaceStats",
    "make_flow",
    "make_policy",
    "rule_for_flow",
]
