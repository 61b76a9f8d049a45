"""CMP system assembly and multi-core co-simulation.

A :class:`CMPSystem` wires traces, cores and the shared memory hierarchy
together and advances the cores in (approximate) global time order so the
shared resources observe requests in a realistic interleaving.  Hooks fire at
fixed-cycle boundaries so invasive accounting (ASM's epoch priority rotation)
and the cache-partitioning policies can act mid-run, exactly like the hardware
mechanisms they model.

Cores advance in *batches* (:meth:`OutOfOrderCore.step_until`): the scheduler
computes the next deadline — the earliest other core's event time plus the
``batch_cycles`` slack, or the next periodic-hook boundary, whichever comes
first — and lets the popped core run instructions in a tight loop until it
reaches that deadline.  ``batch_cycles`` bounds how far one core may run ahead
of the others between scheduling decisions; ``batch_cycles=0`` reproduces the
historical one-instruction-per-heap-pop interleaving exactly.  The default is
``DEFAULT_BATCH_CYCLES`` and can be overridden with the ``REPRO_BATCH_CYCLES``
environment variable.

The scheduler's state -- the event heap, the global time and every hook's next
firing -- lives on the system, so :meth:`CMPSystem.run` resumes wherever the
system stands.  :meth:`CMPSystem.fork` copies a system mid-run (typically
inside a hook, which is how the partitioning policies share one run until
their allocations differ); the copy's ``run()`` continues from that point as
the original would.
"""

from __future__ import annotations

import copy
import heapq
import os
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cpu.core import OutOfOrderCore
from repro.cpu.events import IntervalStats
from repro.errors import ConfigurationError, SimulationError
from repro.mem.hierarchy import MemoryHierarchy
from repro.config import CMPConfig
from repro.workloads.trace import Trace

__all__ = [
    "DEFAULT_BATCH_CYCLES",
    "PeriodicHook",
    "CoreResult",
    "SystemResult",
    "CMPSystem",
    "resolved_batch_cycles",
]

# How far (in cycles of simulated time) one core may run ahead of the slowest
# other core between co-simulation scheduling decisions.  The heap ordering is
# based on dispatch-time estimates, and a single instruction can already slip
# by a full DRAM round trip (~200+ cycles), so a slack of this size adds
# skew comparable to the scheduler's inherent disorder while letting cores
# execute long instruction batches without per-instruction heap traffic.  It
# stays an order of magnitude below the hook periods (ASM epochs are 2000
# cycles), which still bound every batch exactly.
DEFAULT_BATCH_CYCLES = 1024.0

_INFINITY = float("inf")


@dataclass
class PeriodicHook:
    """A callback invoked every ``period_cycles`` of global simulated time."""

    period_cycles: float
    callback: Callable[[float, "CMPSystem"], None]
    next_fire: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.period_cycles <= 0:
            raise SimulationError("hook period must be positive")
        if self.next_fire == 0.0:
            self.next_fire = self.period_cycles


@dataclass
class CoreResult:
    """Per-core outcome of a simulation."""

    core: int
    benchmark: str
    instructions: int
    cycles: float
    intervals: list[IntervalStats]

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class SystemResult:
    """Outcome of one multi-core (or single-core) simulation."""

    cores: dict[int, CoreResult]
    total_cycles: float

    def cpi(self, core: int) -> float:
        return self.cores[core].cpi

    def intervals(self, core: int) -> list[IntervalStats]:
        return self.cores[core].intervals


def resolved_batch_cycles() -> float:
    """The effective co-simulation batch slack (``REPRO_BATCH_CYCLES`` or default).

    Public because the slack changes simulated interleavings: the result
    cache folds this value into every cell digest, so runs with different
    batching knobs never share cache entries.
    """
    env = os.environ.get("REPRO_BATCH_CYCLES")
    if env is not None and env.strip() != "":
        try:
            value = float(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_BATCH_CYCLES must be a number, got {env!r}"
            ) from None
        if value != value:  # NaN would defeat the < 0 guard and poison digests
            raise ConfigurationError(
                f"REPRO_BATCH_CYCLES must be a number, got {env!r}"
            )
        return value
    return DEFAULT_BATCH_CYCLES


class CMPSystem:
    """A configured CMP running one trace per active core."""

    def __init__(self, config: CMPConfig, traces: dict[int, Trace],
                 target_instructions: int, interval_instructions: int | None = None,
                 batch_cycles: float | None = None, record_events: bool = True):
        if not traces:
            raise SimulationError("at least one core must be given a trace")
        config.validate()
        self.config = config
        self.target_instructions = target_instructions
        if batch_cycles is None:
            batch_cycles = resolved_batch_cycles()
        if batch_cycles < 0:
            raise SimulationError("batch_cycles cannot be negative")
        self.batch_cycles = batch_cycles
        self.hierarchy = MemoryHierarchy(config, active_cores=sorted(traces))
        self.cores: dict[int, OutOfOrderCore] = {
            core_id: OutOfOrderCore(
                core_id,
                trace,
                config,
                self.hierarchy,
                target_instructions=target_instructions,
                interval_instructions=interval_instructions,
                record_events=record_events,
            )
            for core_id, trace in traces.items()
        }
        self.benchmark_names = {core_id: trace.name for core_id, trace in traces.items()}
        self._hooks: list[PeriodicHook] = []
        # Minimum next_fire across hooks, maintained incrementally so the
        # common no-hook-due case is one float compare per batch instead of a
        # loop over all hooks per instruction.
        self._next_hook_fire = _INFINITY
        self.global_time = 0.0
        # Co-simulation event heap of (next event time, core id), built by the
        # first multi-core run() and kept here so a fork resumes from it.
        self._heap: list[tuple[float, int]] | None = None

    # ------------------------------------------------------------------ hooks

    def add_periodic_hook(self, period_cycles: float,
                          callback: Callable[[float, "CMPSystem"], None]) -> PeriodicHook:
        """Register a callback fired every ``period_cycles`` of simulated time."""
        hook = PeriodicHook(period_cycles=period_cycles, callback=callback)
        self._hooks.append(hook)
        if hook.next_fire < self._next_hook_fire:
            self._next_hook_fire = hook.next_fire
        return hook

    def _fire_hooks(self, now: float) -> None:
        for hook in self._hooks:
            while now >= hook.next_fire:
                fire_time = hook.next_fire
                # Advanced before the callback, so a fork taken inside it
                # resumes after this firing.
                hook.next_fire = fire_time + hook.period_cycles
                hook.callback(fire_time, self)
        self._next_hook_fire = min(
            (hook.next_fire for hook in self._hooks), default=_INFINITY
        )

    # ------------------------------------------------------------------ simulation

    def fork(self) -> "CMPSystem":
        """A copy of this system, mid-run, that continues on its own.

        Taken inside a hook callback, the copy's :meth:`run` resumes right
        after that callback, exactly as this system will: finishing both gives
        each the result of an uninterrupted run.  What no run writes again is
        shared -- the configuration, the traces and their front ends, and the
        cores' closed estimate intervals; the cores, the memory hierarchy, the
        hooks (their callbacks shared) and the event heap are copied.
        """
        clone = copy.copy(self)
        clone.hierarchy = self.hierarchy.fork()
        clone.cores = {core_id: core.fork(clone.hierarchy)
                       for core_id, core in self.cores.items()}
        clone._hooks = [copy.copy(hook) for hook in self._hooks]
        if self._heap is not None:
            clone._heap = self._heap[:]
        return clone

    def run(self) -> SystemResult:
        """Run until every core has committed its target instruction count.

        Cores whose trace ends before the target restart it (the paper
        restarts benchmarks that reach the end of their instruction sample).
        Cores that finish early keep generating no further requests; the
        remaining cores continue until they reach the target, so late
        finishers still experience interference from nothing but the still-
        running cores, mirroring the paper's stop condition.

        The run resumes from the system's current state, so a fork taken
        inside a hook first fires the rest of the hooks due at that time.
        """
        if self.global_time >= self._next_hook_fire:
            self._fire_hooks(self.global_time)
        cores = self.cores
        if len(cores) == 1:
            # Private mode: no co-simulation ordering to maintain, so the
            # single core runs hook-boundary to hook-boundary (or straight to
            # completion when no hooks are installed) without touching a heap.
            ((_core_id, core),) = cores.items()
            while not core.finished:
                core.step_until(_INFINITY, self._next_hook_fire)
                now = core.current_time
                if now > self.global_time:
                    self.global_time = now
                if self.global_time >= self._next_hook_fire:
                    self._fire_hooks(self.global_time)
            return self._collect_results()

        slack = self.batch_cycles
        heap = self._heap
        if heap is None:
            heap = self._heap = [
                (core.next_event_time(), core_id) for core_id, core in cores.items()
            ]
            heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            _event_time, core_id = heappop(heap)
            core = cores[core_id]
            if core.finished:
                continue
            time_limit = heap[0][0] + slack if heap else _INFINITY
            core.step_until(time_limit, self._next_hook_fire)
            now = core.current_time
            if now > self.global_time:
                self.global_time = now
            # Back on the heap before any hook fires, so the heap is complete
            # when a hook forks the system.
            if not core.finished:
                heappush(heap, (core.next_event_time(), core_id))
            if self.global_time >= self._next_hook_fire:
                self._fire_hooks(self.global_time)
        return self._collect_results()

    def _collect_results(self) -> SystemResult:
        cores = {}
        for core_id, core in self.cores.items():
            cores[core_id] = CoreResult(
                core=core_id,
                benchmark=self.benchmark_names[core_id],
                instructions=core.committed_instructions,
                cycles=core.total_cycles,
                intervals=core.intervals,
            )
        return SystemResult(cores=cores, total_cycles=self.global_time)
