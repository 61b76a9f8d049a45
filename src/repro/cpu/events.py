"""Event records produced by the core model.

The accounting techniques never see the core's internal state directly; they
observe the same events a hardware implementation would: load requests that
miss the L1 (issue and completion), commit stalls and when commit resumes.
These records are the interface between the core model and the accounting
layer (GDP/GDP-O and the baselines).
"""

from __future__ import annotations

import bisect
import copy
from dataclasses import dataclass, field, replace

__all__ = [
    "LoadRecord",
    "CommitStall",
    "IntervalStats",
    "StallCause",
    "annotate_overlap",
]


class StallCause:
    """Commit-stall cause categories from the paper's performance model."""

    SMS_LOAD = "sms"        # load that visited the shared memory system
    PMS_LOAD = "pms"        # load satisfied by the private memory system
    INDEPENDENT = "ind"     # memory-independent (long-latency compute)
    OTHER = "other"         # store buffer / blocked L1 / misc. rare events


@dataclass(slots=True)
class LoadRecord:
    """One load that missed in the L1 data cache."""

    instr_index: int
    address: int
    issue_time: float
    completion_time: float
    is_sms: bool
    latency: float
    interference_cycles: float = 0.0
    llc_hit: bool = False
    interference_miss: bool | None = None
    caused_stall: bool = False
    stall_start: float = 0.0
    stall_end: float = 0.0
    overlap_cycles: float = 0.0

    @property
    def stall_cycles(self) -> float:
        return max(0.0, self.stall_end - self.stall_start) if self.caused_stall else 0.0


@dataclass(slots=True)
class CommitStall:
    """A period during which the core committed no instructions."""

    start: float
    end: float
    cause: str
    load_address: int | None = None
    load_is_sms: bool = False

    @property
    def cycles(self) -> float:
        return self.end - self.start


@dataclass
class IntervalStats:
    """Everything the accounting layer may consume for one estimate interval.

    An interval covers a fixed number of committed instructions (the paper
    re-evaluates estimates every five million clock cycles; this reproduction
    uses instruction-count intervals so shared- and private-mode intervals
    cover exactly the same instructions, as the methodology requires).
    """

    core: int
    index: int
    start_time: float
    end_time: float
    instructions: int
    commit_cycles: float
    stall_sms: float
    stall_pms: float
    stall_independent: float
    stall_other: float
    loads: list[LoadRecord] = field(default_factory=list)
    stalls: list[CommitStall] = field(default_factory=list)
    # Per-epoch buckets used by the invasive ASM baseline (epoch index -> count).
    epoch_instructions: dict[int, int] = field(default_factory=dict)
    epoch_stall_cycles: dict[int, float] = field(default_factory=dict)
    epoch_sms_accesses: dict[int, int] = field(default_factory=dict)
    # Snapshot of the memory-hierarchy counters for this core and interval.
    sms_loads: int = 0
    sms_latency_sum: float = 0.0
    pre_llc_latency_sum: float = 0.0
    post_llc_latency_sum: float = 0.0
    interference_sum: float = 0.0
    interference_miss_penalty_sum: float = 0.0
    dram_interference_sum: float = 0.0
    llc_accesses: int = 0
    llc_misses: int = 0
    interference_misses: int = 0
    sampled_llc_misses: int = 0

    @property
    def total_cycles(self) -> float:
        return self.end_time - self.start_time

    @property
    def stall_cycles(self) -> float:
        return self.stall_sms + self.stall_pms + self.stall_independent + self.stall_other

    @property
    def cpi(self) -> float:
        return self.total_cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.total_cycles if self.total_cycles else 0.0

    def average_sms_latency(self) -> float:
        return self.sms_latency_sum / self.sms_loads if self.sms_loads else 0.0

    def average_interference(self) -> float:
        return self.interference_sum / self.sms_loads if self.sms_loads else 0.0

    def sms_load_records(self) -> list[LoadRecord]:
        return [load for load in self.loads if load.is_sms]

    def copy_without_events(self) -> "IntervalStats":
        """Lightweight copy used when event lists are no longer needed."""
        return replace(self, loads=[], stalls=[])

    def fork(self) -> "IntervalStats":
        """An independent copy of a still-open interval (for a forked run).

        Load records are rebuilt field by field: the interval's close writes
        their overlap, and a load's stall fields are written only by the step
        that records it.  Commit stalls are never written after they are
        recorded, so they are shared.
        """
        clone = copy.copy(self)
        clone.loads = [
            LoadRecord(load.instr_index, load.address, load.issue_time,
                       load.completion_time, load.is_sms, load.latency,
                       load.interference_cycles, load.llc_hit, load.interference_miss,
                       load.caused_stall, load.stall_start, load.stall_end,
                       load.overlap_cycles)
            for load in self.loads
        ]
        clone.stalls = self.stalls[:]
        clone.epoch_instructions = dict(self.epoch_instructions)
        clone.epoch_stall_cycles = dict(self.epoch_stall_cycles)
        clone.epoch_sms_accesses = dict(self.epoch_sms_accesses)
        return clone


def annotate_overlap(loads: list[LoadRecord], stalls: list[CommitStall]) -> None:
    """Fill in each load's ``overlap_cycles``: pending cycles during which the CPU commits.

    The hardware counts, per in-flight L1 miss, the cycles where the processor
    commits instructions while the request is pending (the Overlap field of
    the PRB).  Offline this is the request's lifetime minus its overlap with
    commit-stall intervals.
    """
    if not loads:
        return
    # Flat local copies: the overlap scan is quadratic in the worst case and
    # dominated by attribute loads and min/max calls when done on the records
    # directly.
    stall_starts = [stall.start for stall in stalls]
    stall_ends = [stall.end for stall in stalls]
    n_stalls = len(stall_starts)
    bisect_left = bisect.bisect_left
    for load in loads:
        issue = load.issue_time
        completion = load.completion_time
        lifetime = completion - issue
        if lifetime < 0.0:
            lifetime = 0.0
        stalled = 0.0
        # Only stalls that can overlap [issue, completion) matter; stalls are
        # sorted by start time because commit progresses monotonically.
        first = bisect_left(stall_starts, issue)
        if first > 0:
            first -= 1
        for index in range(first, n_stalls):
            start = stall_starts[index]
            if start >= completion:
                break
            end = stall_ends[index]
            if end > completion:
                end = completion
            if start < issue:
                start = issue
            if end > start:
                stalled += end - start
        overlap = lifetime - stalled
        load.overlap_cycles = overlap if overlap > 0.0 else 0.0
