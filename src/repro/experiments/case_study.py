"""Shared-cache management case study (behind Figure 6).

For every workload the engine simulates each partitioning policy (LRU, UCP,
ASM-driven, MCP, MCP-O) in shared mode, plus one private-mode run per
benchmark, and reports System Throughput: the sum over cores of the true
private-mode CPI divided by the shared-mode CPI achieved under that policy.
The policies whose ``install`` adds only the repartitioning hook share one
shared-mode run that forks where their allocations part
(:class:`~repro.partitioning.base.SharedPolicyRun`); ASM-driven partitioning,
which also rotates the memory-controller priority, runs on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.errors import mean
from repro.partitioning import PartitioningPolicy, SharedPolicyRun, shares_runs
from repro.config import CMPConfig
from repro.registry import partitioning_policies
from repro.sim.runner import build_trace, run_private_mode, run_shared_mode
from repro.workloads.mixes import Workload

__all__ = [
    "POLICY_NAMES",
    "build_policy",
    "WorkloadThroughput",
    "evaluate_workload_throughput",
    "average_throughput",
]

# Paper column order = registration order; single-sourced from the registry.
POLICY_NAMES = partitioning_policies.names()

DEFAULT_INSTRUCTIONS = 24_000
DEFAULT_INTERVAL = 6_000
DEFAULT_REPARTITION_CYCLES = 40_000.0


def build_policy(name: str, config: CMPConfig,
                 repartition_interval_cycles: float = DEFAULT_REPARTITION_CYCLES) -> PartitioningPolicy:
    """Instantiate a partitioning policy by registry name.

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing the
    registered policies.
    """
    return partitioning_policies.create(name, config, repartition_interval_cycles)


@dataclass
class WorkloadThroughput:
    """System throughput of one workload under every evaluated policy."""

    workload: Workload
    stp: dict[str, float] = field(default_factory=dict)
    private_cpis: dict[int, float] = field(default_factory=dict)
    shared_cpis: dict[str, dict[int, float]] = field(default_factory=dict)

    def relative_to(self, baseline: str) -> dict[str, float]:
        """STP of every policy relative to ``baseline`` (Figure 6b is vs LRU)."""
        reference = self.stp.get(baseline, 0.0)
        if reference <= 0:
            return {name: 0.0 for name in self.stp}
        return {name: value / reference for name, value in self.stp.items()}


def evaluate_workload_throughput(
    workload: Workload,
    config: CMPConfig,
    policies: tuple[str, ...] = POLICY_NAMES,
    instructions_per_core: int = DEFAULT_INSTRUCTIONS,
    interval_instructions: int = DEFAULT_INTERVAL,
    repartition_interval_cycles: float = DEFAULT_REPARTITION_CYCLES,
    seed: int = 0,
) -> WorkloadThroughput:
    """Run one workload under each policy and compute its STP."""
    traces = {
        core: build_trace(name, instructions_per_core, seed=seed + core)
        for core, name in enumerate(workload.benchmarks)
    }
    result = WorkloadThroughput(workload=workload)
    for core, trace in traces.items():
        # Only the private-mode CPI is consumed; skip event materialisation.
        private = run_private_mode(
            trace, config, core_id=core, interval_instructions=interval_instructions,
            target_instructions=instructions_per_core, record_events=False,
        )
        result.private_cpis[core] = private.cpi

    built = {name: build_policy(name, config, repartition_interval_cycles) for name in policies}

    def run(configure_system, record_events):
        return run_shared_mode(
            traces,
            config,
            target_instructions=instructions_per_core,
            interval_instructions=interval_instructions,
            configure_system=configure_system,
            record_events=record_events,
        )

    outcomes = {}
    sharing = [policy for policy in built.values() if shares_runs(policy)]
    if sharing:
        shared_run = SharedPolicyRun(sharing)
        outcomes = shared_run.results(run(shared_run.install, shared_run.needs_events))
    for name, policy in built.items():
        shared = outcomes.get(policy)
        if shared is None:
            shared = run(policy.install, policy.needs_events)
        shared_cpis = {core: shared.cores[core].cpi for core in traces}
        result.shared_cpis[name] = shared_cpis
        stp = 0.0
        for core in traces:
            if shared_cpis[core] > 0:
                stp += result.private_cpis[core] / shared_cpis[core]
        result.stp[name] = stp
    return result


def average_throughput(results: list[WorkloadThroughput], policy: str) -> float:
    """Average STP of one policy over a list of workload results."""
    return mean([result.stp.get(policy, 0.0) for result in results])
