"""Common machinery of the LLC partitioning policies (the Figure 6 case study).

A policy is installed on a shared-mode :class:`CMPSystem` and re-evaluates the
per-core way allocation at a fixed cycle interval.  On every repartitioning
event the policy is handed a :class:`PolicyContext`: the ATD miss curves
accumulated since the previous repartitioning plus each core's most recent
estimate interval (which MCP and ASM-driven partitioning turn into
performance estimates).

Policies whose ``install`` adds nothing but the repartitioning hook (LRU, UCP,
MCP and MCP-O; not ASM-driven partitioning, which also starts ASM's priority
rotation) can share one run: a :class:`SharedPolicyRun` lets every member
decide from the same context at each repartitioning event, groups the members
by the allocation they chose, and forks the system for each group but the
first before any allocation is applied.  Until two members' allocations
differ their runs are one run; afterwards each group continues on a copy of
its own, exactly as its members' solo runs would.  A single policy's
:meth:`PartitioningPolicy.install` is the one-member case.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.cache.miss_curve import MissCurve
from repro.cpu.events import IntervalStats
from repro.errors import PartitioningError
from repro.sim.system import CMPSystem, SystemResult

__all__ = ["PolicyContext", "PartitioningPolicy", "SharedPolicyRun", "shares_runs"]


@dataclass
class PolicyContext:
    """Everything a partitioning policy may consult at a repartitioning event."""

    time: float
    total_ways: int
    miss_curves: dict[int, MissCurve] = field(default_factory=dict)
    latest_intervals: dict[int, IntervalStats] = field(default_factory=dict)

    @property
    def cores(self) -> list[int]:
        return sorted(self.miss_curves)


class PartitioningPolicy(ABC):
    """Base class for LLC way-partitioning policies."""

    name: str = "abstract"
    # Whether the policy reads per-event records (LoadRecord/CommitStall
    # lists) from the estimate intervals.  Policies that act only on miss
    # curves and aggregate counters set this to False so their shared-mode
    # runs can skip event materialisation entirely.
    needs_events: bool = True

    def __init__(self, repartition_interval_cycles: float | None = None):
        self.repartition_interval_cycles = repartition_interval_cycles
        self.allocations_history: list[dict[int, int]] = []

    # ------------------------------------------------------------------ policy interface

    @abstractmethod
    def allocate(self, context: PolicyContext) -> dict[int, int] | None:
        """Return the new way allocation, or None to leave the LLC unpartitioned."""

    # ------------------------------------------------------------------ installation

    def install(self, system: CMPSystem) -> None:
        """Attach this policy to a shared-mode run (call before ``system.run()``)."""
        SharedPolicyRun((self,)).install(system)

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def equal_allocation(cores: list[int], total_ways: int) -> dict[int, int]:
        """Split ways as evenly as possible (fallback before estimates exist)."""
        if not cores:
            raise PartitioningError("cannot allocate ways to zero cores")
        base = total_ways // len(cores)
        remainder = total_ways - base * len(cores)
        allocation = {}
        for position, core in enumerate(sorted(cores)):
            allocation[core] = base + (1 if position < remainder else 0)
        return allocation


def shares_runs(policy: PartitioningPolicy) -> bool:
    """True when ``policy``'s ``install`` adds only the repartitioning hook
    (it keeps :meth:`PartitioningPolicy.install`), so it can join a
    :class:`SharedPolicyRun`."""
    return type(policy).install is PartitioningPolicy.install


class SharedPolicyRun:
    """Partitioning policies co-simulated as one run that forks where their
    way allocations part.

    Install it on a shared-mode system in place of the members' own
    ``install``; when that system's run returns, :meth:`results` gives each
    member the outcome of the run it ended on.  A fork runs to its end inside
    the repartition that split it, before the forking run continues (depth
    first), so at most one copy per split is alive.  Members must keep
    :meth:`PartitioningPolicy.install` (see :func:`shares_runs`).
    """

    def __init__(self, policies):
        self.policies = tuple(policies)
        if not self.policies:
            raise PartitioningError("a shared run needs at least one policy")
        self.needs_events = any(policy.needs_events for policy in self.policies)
        self._total_ways = 0
        # The members of the system simulating now.  Runs are depth first, so
        # whichever system fires the repartitioning hook owns this list.
        self._active: list[PartitioningPolicy] = list(self.policies)
        self._results: dict[PartitioningPolicy, SystemResult] = {}

    def install(self, system: CMPSystem) -> None:
        """Attach the shared repartitioning hook (call before ``system.run()``)."""
        default = float(system.config.accounting.partitioning_interval_cycles)
        periods = {policy.repartition_interval_cycles or default for policy in self.policies}
        if len(periods) > 1:
            raise PartitioningError("policies sharing a run must repartition at one interval")
        total_ways = system.config.llc.associativity
        if total_ways < len(system.cores):
            raise PartitioningError("the LLC must have at least one way per core")
        self._total_ways = total_ways
        system.add_periodic_hook(periods.pop(), self._repartition)

    def results(self, result: SystemResult) -> dict[PartitioningPolicy, SystemResult]:
        """Each member's outcome, given ``result`` of the installed system's run."""
        outcomes = dict(self._results)
        for policy in self._active:
            outcomes[policy] = result
        return {policy: outcomes[policy] for policy in self.policies}

    def _repartition(self, now: float, system: CMPSystem) -> None:
        context = PolicyContext(time=now, total_ways=self._total_ways)
        for core_id, core in system.cores.items():
            context.miss_curves[core_id] = system.hierarchy.miss_curve(core_id)
            if core.intervals:
                context.latest_intervals[core_id] = core.intervals[-1]
        # Members grouped by the allocation they chose, whatever its key order.
        groups: dict[frozenset | None, tuple[dict[int, int] | None, list]] = {}
        for policy in self._active:
            allocation = policy.allocate(context)
            if allocation is not None:
                policy.allocations_history.append(dict(allocation))
            key = None if allocation is None else frozenset(allocation.items())
            groups.setdefault(key, (allocation, []))[1].append(policy)
        (allocation, members), *others = groups.values()
        for other_allocation, other_members in others:
            # Forked before any group's allocation is applied, so every
            # branch applies its own and resets its own ATD statistics.
            branch = system.fork()
            self._apply(branch, other_allocation, other_members, split=True)
            result = branch.run()
            # Splits inside the branch's run leave its final members active.
            for policy in self._active:
                self._results[policy] = result
        self._apply(system, allocation, members, split=bool(others))

    def _apply(self, system: CMPSystem, allocation: dict[int, int] | None,
               members: list[PartitioningPolicy], split: bool) -> None:
        self._active = members
        if split and not any(policy.needs_events for policy in members):
            # A split left no event reader on this run; its timing does not
            # depend on the records.
            for core in system.cores.values():
                core.record_events = False
        if allocation is not None:
            system.hierarchy.set_partition(allocation)
        system.hierarchy.reset_atd_statistics()
