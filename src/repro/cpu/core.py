"""Trace-driven out-of-order core model.

The model is interval-style: every instruction gets a dispatch time, a ready
time and a commit time with O(1) work, which reproduces the behaviour the
paper's accounting techniques depend on without cycle-stepping:

* in-order commit at the pipeline width, with commit stalls whenever the
  instruction at the head of the ROB (modelled through the commit stream) is a
  load whose data has not returned;
* memory-level parallelism: independent loads overlap, loads with data
  dependencies serialise;
* ROB-occupancy back-pressure: dispatch of instruction *i* cannot overtake the
  commit of instruction *i - ROB_entries*;
* MSHR limits via the memory hierarchy.

Private-cache outcomes come from the trace's memory-path front end
(:mod:`repro.mem.frontend`), replayed once per trace: L1-hit loads complete
inline, L1-hit stores need no memory work at all, and only L1 misses enter the
hierarchy's timing-dependent back end.

The core records the event stream (L1-miss loads, commit stalls) that the
accounting layer replays, and buckets statistics per estimate interval.

The per-instruction work is done inside :meth:`OutOfOrderCore.step_until`,
a batched loop that keeps all mutable state in local variables and only
writes it back when the batch ends (at a co-simulation deadline, a periodic
hook boundary, or completion).  :meth:`step` is a one-instruction batch.
"""

from __future__ import annotations

import copy

from repro.cpu.events import CommitStall, IntervalStats, LoadRecord, StallCause, annotate_overlap
from repro.errors import SimulationError
from repro.mem.frontend import L1_HIT, front_end
from repro.mem.hierarchy import MemoryHierarchy
from repro.config import CMPConfig
from repro.workloads.trace import InstrKind, Trace

from dataclasses import dataclass

__all__ = ["CoreProgress", "OutOfOrderCore"]

# Every LONG_OP_PERIOD-th compute instruction is treated as a long-latency
# operation (e.g. an FP divide).  The choice is a deterministic function of the
# instruction index so shared- and private-mode runs stall on the same
# instructions, as they would in reality.
_LONG_OP_PERIOD = 24
_LONG_OP_LATENCY = 12

_INFINITY = float("inf")


@dataclass(frozen=True)
class CoreProgress:
    """Summary of a core's progress, used by the co-simulation scheduler."""

    core: int
    committed_instructions: int
    current_time: float
    finished: bool


class OutOfOrderCore:
    """One processor core executing a trace against a memory hierarchy."""

    def __init__(self, core_id: int, trace: Trace, config: CMPConfig,
                 hierarchy: MemoryHierarchy, target_instructions: int | None = None,
                 interval_instructions: int | None = None, record_events: bool = True):
        if len(trace) == 0:
            raise SimulationError("cannot run an empty trace")
        self.core_id = core_id
        # When False, per-event records (LoadRecord / CommitStall lists) are
        # not materialised: all timing, stall-cycle sums, hierarchy counters
        # and per-epoch buckets are still maintained, so results that read
        # only aggregates are bit-identical.  Ground-truth private-mode runs
        # and policies that act on aggregates use this to skip a large
        # allocation cost.
        self.record_events = record_events
        self.trace = trace
        self.config = config
        self.hierarchy = hierarchy
        self.target_instructions = target_instructions or len(trace)
        self.interval_instructions = (
            interval_instructions or config.accounting.estimate_interval_instructions
        )
        self.epoch_cycles = config.accounting.asm_epoch_cycles
        self._front_end = front_end(trace, config, self.target_instructions)

        width = config.core.width
        self._dispatch_interval = 1.0 / width
        self._commit_interval = 1.0 / width
        self._rob_entries = config.core.rob_entries
        self._compute_latency = float(config.core.compute_latency)

        # Rolling commit-time window used for the ROB-occupancy constraint.
        self._commit_window = [0.0] * self._rob_entries
        self._last_dispatch = 0.0
        self._last_commit = 0.0
        self._trace_position = 0
        self._committed = 0
        # Completion time of recent loads, for load-to-load dependencies.
        # A fixed-size ring keyed by ``position % ring_size``; each slot
        # remembers which absolute trace position it holds so stale entries
        # are detected on lookup instead of being pruned eagerly.
        self._dep_ring_size = 4 * self._rob_entries
        self._dep_ring_position = [-1] * self._dep_ring_size
        self._dep_ring_completion = [0.0] * self._dep_ring_size

        self.intervals: list[IntervalStats] = []
        self._interval = self._new_interval(index=0, start_time=0.0)
        self.finished = False

    # ------------------------------------------------------------------ public API

    def progress(self) -> CoreProgress:
        return CoreProgress(
            core=self.core_id,
            committed_instructions=self._committed,
            current_time=self._last_commit,
            finished=self.finished,
        )

    @property
    def committed_instructions(self) -> int:
        return self._committed

    @property
    def current_time(self) -> float:
        return self._last_commit

    def next_event_time(self) -> float:
        """Estimated time of the next instruction's dispatch (for co-sim ordering)."""
        oldest_commit = self._commit_window[self._trace_position % self._rob_entries]
        return max(self._last_dispatch + self._dispatch_interval, oldest_commit)

    def step(self) -> None:
        """Process one instruction."""
        self.step_until(max_instructions=1)

    def fork(self, hierarchy: MemoryHierarchy) -> "OutOfOrderCore":
        """A copy of this core, mid-run, issuing into ``hierarchy`` (a fork of
        this core's own).  The trace, its front end and the closed intervals
        are shared, since nothing writes them again; the open interval is
        copied with its records, which the interval's close still annotates."""
        clone = copy.copy(self)
        clone.hierarchy = hierarchy
        clone._commit_window = self._commit_window[:]
        clone._dep_ring_position = self._dep_ring_position[:]
        clone._dep_ring_completion = self._dep_ring_completion[:]
        clone.intervals = self.intervals[:]
        clone._interval = self._interval.fork()
        return clone

    # ------------------------------------------------------------------ simulation kernel

    def step_until(self, time_limit: float = _INFINITY, hook_limit: float = _INFINITY,
                   max_instructions: int | None = None) -> None:
        """Process instructions in a tight batch.

        At least one instruction is processed (matching the behaviour of the
        former one-instruction ``step`` under the co-simulation heap); the
        batch then continues while the next dispatch estimate stays below
        ``time_limit`` and the commit time stays below ``hook_limit`` (the
        next periodic-hook boundary).  All per-instruction state lives in
        locals and is written back once when the batch ends.
        """
        if self.finished:
            return
        # ---- hoist instance state into locals (the entire point of batching)
        trace = self.trace
        # Unboxed column views: indexing the packed arrays directly would
        # re-box one int per access in this per-instruction loop.
        kinds, addresses, deps = trace.hot()
        trace_length = len(kinds)
        dispatch_interval = self._dispatch_interval
        commit_interval = self._commit_interval
        rob_entries = self._rob_entries
        compute_latency = self._compute_latency
        long_latency = float(_LONG_OP_LATENCY)
        commit_window = self._commit_window
        last_dispatch = self._last_dispatch
        last_commit = self._last_commit
        position = self._trace_position
        committed = self._committed
        interval_instructions = self.interval_instructions
        target = self.target_instructions
        epoch_cycles = self.epoch_cycles
        core_id = self.core_id
        hierarchy = self.hierarchy
        load_miss = hierarchy.load_miss
        store_miss = hierarchy.store_miss
        l1_latency = self.config.l1d.latency
        counters = hierarchy.counters[core_id]
        codes = self._front_end.codes
        l1_hit = L1_HIT
        ring_size = self._dep_ring_size
        ring_position = self._dep_ring_position
        ring_completion = self._dep_ring_completion
        recording = self.record_events
        interval = self._interval
        interval_loads = interval.loads
        interval_stalls = interval.stalls
        cause_sms = StallCause.SMS_LOAD
        cause_pms = StallCause.PMS_LOAD
        cause_independent = StallCause.INDEPENDENT
        cause_other = StallCause.OTHER
        kind_compute = InstrKind.COMPUTE
        kind_store = InstrKind.STORE
        kind_load = InstrKind.LOAD
        # Epoch bucketing cache: consecutive commits usually land in the same
        # ASM epoch, so batch the per-epoch instruction count locally and
        # flush it into the interval dict when the epoch (or batch) ends.
        epoch_index = -1
        epoch_count = 0
        epoch_boundary = 0.0
        window_index = position % rob_entries
        trace_offset = position % trace_length
        # Counters replacing per-instruction modulo arithmetic.  ``committed``
        # and ``position`` always advance in lockstep, so the loop tracks only
        # ``position`` and recovers the commit count from the fixed offset.
        long_op_countdown = (-position) % _LONG_OP_PERIOD
        interval_countdown = interval_instructions - (committed % interval_instructions)
        position_offset = position - committed
        start_position = position
        stop_position = position_offset + target
        max_stop = position + max_instructions if max_instructions is not None else -1
        finished = False

        while True:
            dispatch = last_dispatch + dispatch_interval
            oldest_commit = commit_window[window_index]
            if oldest_commit > dispatch:
                dispatch = oldest_commit
            if dispatch >= time_limit and position != start_position:
                break
            kind = kinds[trace_offset]
            if kind == kind_compute:
                if long_op_countdown == 0:
                    ready = dispatch + long_latency
                else:
                    ready = dispatch + compute_latency
            elif kind == kind_store:
                # The store buffer hides store latency from commit; an L1 miss
                # still allocates in the shared LLC through the hierarchy.
                code = codes[position]
                if code != l1_hit:
                    store_miss(core_id, addresses[trace_offset], code)
                ready = dispatch + compute_latency
            else:  # load
                address = addresses[trace_offset]
                issue = dispatch
                dep = deps[trace_offset]
                if dep >= 0:
                    # Dependencies refer to positions in the (possibly
                    # repeated) trace; map them into the current repetition,
                    # falling back to the previous one around a restart.
                    candidate = position - trace_offset + dep
                    slot = candidate % ring_size
                    if ring_position[slot] == candidate:
                        dep_completion = ring_completion[slot]
                        if dep_completion > issue:
                            issue = dep_completion
                    else:
                        candidate -= trace_length
                        if candidate >= 0:
                            slot = candidate % ring_size
                            if ring_position[slot] == candidate:
                                dep_completion = ring_completion[slot]
                                if dep_completion > issue:
                                    issue = dep_completion
                code = codes[position]
                record = None
                if code == l1_hit:
                    # L1 hits never enter the PRB and cannot cause visible
                    # SMS stalls.
                    ready = issue + l1_latency
                    counters.pms_loads += 1
                    sms_load = False
                else:
                    ready, info = load_miss(core_id, address, issue, code)
                    sms_load = info[0]
                    if recording:
                        is_sms, latency, interference, llc_hit, interference_miss = info
                        record = LoadRecord(position, address, issue, ready, is_sms, latency,
                                            interference, llc_hit, interference_miss)
                        interval_loads.append(record)
                slot = position % ring_size
                ring_position[slot] = position
                ring_completion[slot] = ready

            # ---- commit (in-order, at the pipeline width)
            earliest = last_commit + commit_interval
            if ready > earliest:
                commit_time = ready
                gap = commit_time - earliest
                if gap > 1e-9:
                    # The portion of the gap beyond the pipelined commit rate
                    # is a stall; attribute it to the blocking instruction.
                    # (Stalls are rare relative to commits, so the cause is
                    # derived here from the instruction kind instead of being
                    # tracked on every instruction.)
                    if kind == kind_compute:
                        interval.stall_independent += gap
                        cause = cause_independent
                        stall_record = None
                    elif kind == kind_store:
                        interval.stall_other += gap
                        cause = cause_other
                        stall_record = None
                    elif sms_load:
                        interval.stall_sms += gap
                        cause = cause_sms
                        stall_record = record
                    else:
                        interval.stall_pms += gap
                        cause = cause_pms
                        stall_record = record
                    stall_epoch = int(earliest // epoch_cycles)
                    buckets = interval.epoch_stall_cycles
                    buckets[stall_epoch] = buckets.get(stall_epoch, 0.0) + gap
                    if recording:
                        if stall_record is None:
                            interval_stalls.append(CommitStall(earliest, commit_time, cause))
                        else:
                            interval_stalls.append(CommitStall(
                                earliest, commit_time, cause,
                                stall_record.address, stall_record.is_sms))
                            stall_record.caused_stall = True
                            stall_record.stall_start = earliest
                            stall_record.stall_end = commit_time
            else:
                commit_time = earliest
            last_dispatch = dispatch
            last_commit = commit_time
            commit_window[window_index] = commit_time
            # Commit times are monotonic, so the epoch only moves forward;
            # recompute the division only when the cached boundary is crossed.
            if epoch_index >= 0 and commit_time < epoch_boundary:
                epoch = epoch_index
                epoch_count += 1
            else:
                epoch = int(commit_time // epoch_cycles)
                if epoch_count:
                    buckets = interval.epoch_instructions
                    buckets[epoch_index] = buckets.get(epoch_index, 0) + epoch_count
                epoch_index = epoch
                epoch_boundary = (epoch + 1) * epoch_cycles
                epoch_count = 1
            if kind == kind_load and sms_load:
                buckets = interval.epoch_sms_accesses
                buckets[epoch] = buckets.get(epoch, 0) + 1

            position += 1
            window_index += 1
            if window_index == rob_entries:
                window_index = 0
            trace_offset += 1
            if trace_offset == trace_length:
                trace_offset = 0
            long_op_countdown -= 1
            if long_op_countdown < 0:
                long_op_countdown = _LONG_OP_PERIOD - 1
            interval_countdown -= 1

            if interval_countdown == 0:
                interval_countdown = interval_instructions
                if epoch_count:
                    buckets = interval.epoch_instructions
                    buckets[epoch_index] = buckets.get(epoch_index, 0) + epoch_count
                    epoch_index = -1
                    epoch_count = 0
                self._last_commit = last_commit
                self._trace_position = position
                self._committed = position - position_offset
                self._close_interval()
                interval = self._interval
                interval_loads = interval.loads
                interval_stalls = interval.stalls
            if position == stop_position:
                finished = True
                break
            if last_commit >= hook_limit:
                break
            if position == max_stop:
                break

        # ---- write locals back
        if epoch_count:
            buckets = interval.epoch_instructions
            buckets[epoch_index] = buckets.get(epoch_index, 0) + epoch_count
        self._last_dispatch = last_dispatch
        self._last_commit = last_commit
        self._trace_position = position
        self._committed = position - position_offset
        if finished:
            self._finish()

    # ------------------------------------------------------------------ intervals

    def _new_interval(self, index: int, start_time: float) -> IntervalStats:
        self.hierarchy.reset_interval_counters(self.core_id)
        return IntervalStats(
            core=self.core_id,
            index=index,
            start_time=start_time,
            end_time=start_time,
            instructions=0,
            commit_cycles=0.0,
            stall_sms=0.0,
            stall_pms=0.0,
            stall_independent=0.0,
            stall_other=0.0,
        )

    def _close_interval(self) -> None:
        interval = self._interval
        interval.end_time = self._last_commit
        interval.instructions = self.interval_instructions
        interval.commit_cycles = max(
            0.0, interval.total_cycles - interval.stall_cycles
        )
        counters = self.hierarchy.counters[self.core_id]
        interval.sms_loads = counters.sms_loads
        interval.sms_latency_sum = counters.sms_latency_sum
        interval.pre_llc_latency_sum = counters.pre_llc_latency_sum
        interval.post_llc_latency_sum = counters.post_llc_latency_sum
        interval.interference_sum = counters.interference_sum
        interval.interference_miss_penalty_sum = counters.interference_miss_penalty_sum
        interval.dram_interference_sum = counters.dram_interference_sum
        interval.llc_accesses = counters.llc_accesses
        interval.llc_misses = counters.llc_misses
        interval.interference_misses = counters.interference_misses
        interval.sampled_llc_misses = counters.sampled_llc_misses
        annotate_overlap(interval.loads, interval.stalls)
        self.intervals.append(interval)
        self._interval = self._new_interval(index=interval.index + 1, start_time=self._last_commit)

    def _finish(self) -> None:
        # Close a trailing partial interval if it contains any instructions.
        remainder = self._committed % self.interval_instructions
        if remainder:
            interval = self._interval
            interval.end_time = self._last_commit
            interval.instructions = remainder
            interval.commit_cycles = max(0.0, interval.total_cycles - interval.stall_cycles)
            counters = self.hierarchy.counters[self.core_id]
            interval.sms_loads = counters.sms_loads
            interval.sms_latency_sum = counters.sms_latency_sum
            interval.pre_llc_latency_sum = counters.pre_llc_latency_sum
            interval.post_llc_latency_sum = counters.post_llc_latency_sum
            interval.interference_sum = counters.interference_sum
            interval.interference_miss_penalty_sum = counters.interference_miss_penalty_sum
            interval.dram_interference_sum = counters.dram_interference_sum
            interval.llc_accesses = counters.llc_accesses
            interval.llc_misses = counters.llc_misses
            interval.interference_misses = counters.interference_misses
            interval.sampled_llc_misses = counters.sampled_llc_misses
            annotate_overlap(interval.loads, interval.stalls)
            self.intervals.append(interval)
        self.hierarchy.credit_front_end(self.core_id, self._front_end)
        self.finished = True

    # ------------------------------------------------------------------ aggregate statistics

    @property
    def total_cycles(self) -> float:
        return self._last_commit

    @property
    def cpi(self) -> float:
        return self._last_commit / self._committed if self._committed else 0.0

    @property
    def ipc(self) -> float:
        return self._committed / self._last_commit if self._last_commit else 0.0
