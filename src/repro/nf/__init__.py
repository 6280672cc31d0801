"""Network functions (paper Table 3): collocation workloads (ACL, Snort,
mTCP) and hash-table-bound services HALO accelerates (NAT, prads, filter)."""

from .acl import AclFunction, AclRule, DEFAULT_ACL_RULES
from .base import NetworkFunction, NfStats, WorkingSet
from .hash_nf import HashTableNetworkFunction
from .ids import DEFAULT_PATTERNS, IdsFunction, PatternAutomaton
from .nat import NAT_TABLE_SIZES, NatFunction, Translation
from .packet_filter import FILTER_RULE_SIZES, FilterVerdict, PacketFilterFunction
from .prads import AssetRecord, PRADS_TABLE_SIZES, PradsFunction
from .tcpstack import ConnectionBlock, TcpStackFunction, TcpState

__all__ = [
    "AclFunction",
    "AclRule",
    "AssetRecord",
    "ConnectionBlock",
    "DEFAULT_ACL_RULES",
    "DEFAULT_PATTERNS",
    "FILTER_RULE_SIZES",
    "FilterVerdict",
    "HashTableNetworkFunction",
    "IdsFunction",
    "NAT_TABLE_SIZES",
    "NatFunction",
    "NetworkFunction",
    "NfStats",
    "PRADS_TABLE_SIZES",
    "PacketFilterFunction",
    "PatternAutomaton",
    "PradsFunction",
    "TcpStackFunction",
    "TcpState",
    "Translation",
    "WorkingSet",
]
