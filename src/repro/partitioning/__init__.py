"""LLC partitioning policies: LRU (none), UCP, ASM-driven, MCP and MCP-O."""

from repro.partitioning.asm_policy import ASMPartitioningPolicy
from repro.partitioning.base import PartitioningPolicy, PolicyContext, SharedPolicyRun, shares_runs
from repro.partitioning.lookahead import lookahead_allocate
from repro.partitioning.lru import LRUSharingPolicy
from repro.partitioning.mcp import MCPOPolicy, MCPPolicy, PerformanceModel
from repro.partitioning.ucp import UCPPolicy

__all__ = [
    "PartitioningPolicy",
    "PolicyContext",
    "SharedPolicyRun",
    "shares_runs",
    "lookahead_allocate",
    "LRUSharingPolicy",
    "UCPPolicy",
    "ASMPartitioningPolicy",
    "MCPPolicy",
    "MCPOPolicy",
    "PerformanceModel",
]
