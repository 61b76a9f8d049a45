"""End-to-end memory hierarchy: private L1/L2, ring, shared LLC, DRAM.

This is the shared substrate both simulation modes run on.  In shared mode all
cores issue requests into the same LLC, ring and memory controller; in private
mode a single core has exclusive access.  Each access returns a
:class:`MemoryAccessResult` with the latency breakdown and the interference
attribution the accounting techniques consume.

Each access has a trace-deterministic front end -- the private L1/L2 lookups
and the ATD stack update, which depend only on the core's own accesses in
program order -- and a timing-dependent back end: MSHRs, ring, LLC, DRAM and
the ATD statistics.  :meth:`MemoryHierarchy.access` runs both; the simulation
kernel replays the front end once per trace (:mod:`repro.mem.frontend`) and
calls the back end (:meth:`~MemoryHierarchy.load_miss`,
:meth:`~MemoryHierarchy.store_miss`) with the recorded outcome codes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from heapq import heappop as _heappop, heappush as _heappush

from repro.cache.atd import AuxiliaryTagDirectory
from repro.cache.cache import SetAssociativeCache
from repro.cache.mshr import MSHRFile
from repro.dram.controller import MemoryController
from repro.errors import ConfigurationError
from repro.interconnect.ring import RingInterconnect
from repro.mem.frontend import ATD_HIT, L1_HIT, L2_HIT, UNSAMPLED, FrontEnd, private_outcome
from repro.mem.request import MemoryAccessResult
from repro.config import CMPConfig

__all__ = ["CoreMemoryCounters", "MemoryHierarchy"]


@dataclass(slots=True)
class CoreMemoryCounters:
    """Per-core, per-interval counters maintained by the memory hierarchy.

    These counters are what a hardware implementation would expose to the
    accounting units; they are reset whenever an estimate interval ends.
    (``slots=True``: the fields are updated on every shared-memory access.)
    """

    sms_loads: int = 0
    pms_loads: int = 0
    sms_latency_sum: float = 0.0
    pre_llc_latency_sum: float = 0.0
    post_llc_latency_sum: float = 0.0
    interference_sum: float = 0.0
    interference_miss_penalty_sum: float = 0.0
    dram_interference_sum: float = 0.0
    llc_accesses: int = 0
    llc_misses: int = 0
    interference_misses: int = 0
    sampled_llc_accesses: int = 0
    sampled_llc_misses: int = 0
    dram_row_hits: int = 0

    def average_sms_latency(self) -> float:
        return self.sms_latency_sum / self.sms_loads if self.sms_loads else 0.0

    def average_interference(self) -> float:
        return self.interference_sum / self.sms_loads if self.sms_loads else 0.0

    def average_pre_llc_latency(self) -> float:
        return self.pre_llc_latency_sum / self.sms_loads if self.sms_loads else 0.0

    def average_post_llc_latency(self) -> float:
        llc_miss_loads = max(1, self.llc_misses)
        return self.post_llc_latency_sum / llc_miss_loads if self.post_llc_latency_sum else 0.0

    def reset(self) -> None:
        self.sms_loads = 0
        self.pms_loads = 0
        self.sms_latency_sum = 0.0
        self.pre_llc_latency_sum = 0.0
        self.post_llc_latency_sum = 0.0
        self.interference_sum = 0.0
        self.interference_miss_penalty_sum = 0.0
        self.dram_interference_sum = 0.0
        self.llc_accesses = 0
        self.llc_misses = 0
        self.interference_misses = 0
        self.sampled_llc_accesses = 0
        self.sampled_llc_misses = 0
        self.dram_row_hits = 0


class MemoryHierarchy:
    """The CMP memory system shared by all cores.

    Parameters
    ----------
    config:
        The CMP configuration (Table I).
    active_cores:
        Core ids that participate; a single-element list models private mode.
    """

    def __init__(self, config: CMPConfig, active_cores: list[int] | None = None):
        config.validate()
        self.config = config
        self.active_cores = list(active_cores) if active_cores is not None else list(range(config.n_cores))
        if not self.active_cores:
            raise ConfigurationError("the memory hierarchy needs at least one active core")
        self.l1 = {core: SetAssociativeCache(config.l1d, name=f"l1d[{core}]") for core in self.active_cores}
        self.l2 = {core: SetAssociativeCache(config.l2, name=f"l2[{core}]") for core in self.active_cores}
        self.l1_mshrs = {core: MSHRFile(config.l1d.mshrs) for core in self.active_cores}
        self.llc = SetAssociativeCache(config.llc, name="llc", partitioned=True)
        self.ring = RingInterconnect(config.ring, n_cores=config.n_cores, n_banks=config.llc.banks)
        self.dram = MemoryController(config.dram, line_bytes=config.llc.line_bytes)
        self.atds = {
            core: AuxiliaryTagDirectory(config.llc, config.accounting.atd_sampled_sets, core=core)
            for core in self.active_cores
        }
        self.counters: dict[int, CoreMemoryCounters] = {
            core: CoreMemoryCounters() for core in self.active_cores
        }
        # Latencies and LLC geometry hoisted out of the per-access path.
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._llc_latency = config.llc.latency
        self._llc_line_shift = self.llc._line_shift
        self._llc_set_mask = self.llc._set_mask
        self._llc_tag_shift = self.llc._tag_shift
        self._llc_banks = config.llc.banks
        # With one active core the shadow (core-alone) schedules are provably
        # identical to the real schedules, so interference is exactly zero
        # and the shadow emulation can be skipped wholesale.
        self._multi_core = len(self.active_cores) > 1
        self._last_shared_access = (0.0, 0.0, False)
        self._bind_hot_state()

    def _bind_hot_state(self) -> None:
        # LLC flat arrays for the inlined lookup on the SMS path (flush()
        # clears these in place, so the references stay valid).
        self._llc_state = (
            self.llc._tags,
            self.llc._last_use,
            self.llc._set_sizes,
            self.llc._owners,
            self.llc._core_occupancy,
            self.llc.associativity,
        )
        # Per-core back-end state bundled so load_miss pays one dict lookup.
        self._miss_state = {
            core: (self.l1_mshrs[core], self.counters[core]) for core in self.active_cores
        }

    def fork(self) -> "MemoryHierarchy":
        """An independent copy of every cache, MSHR file, ATD, the ring, the
        memory controller and the counters (for a forked run)."""
        clone = copy.copy(self)
        clone.l1 = {core: cache.fork() for core, cache in self.l1.items()}
        clone.l2 = {core: cache.fork() for core, cache in self.l2.items()}
        clone.l1_mshrs = {core: mshrs.fork() for core, mshrs in self.l1_mshrs.items()}
        clone.llc = self.llc.fork()
        clone.ring = self.ring.fork()
        clone.dram = self.dram.fork()
        clone.atds = {core: atd.fork() for core, atd in self.atds.items()}
        clone.counters = {core: copy.copy(counters) for core, counters in self.counters.items()}
        clone._bind_hot_state()
        return clone

    # ------------------------------------------------------------------ configuration

    def set_partition(self, allocation: dict[int, int] | None) -> None:
        """Install an LLC way allocation (None restores unpartitioned LRU)."""
        self.llc.set_partition(allocation)

    def set_priority_core(self, core: int | None) -> None:
        """Give one core highest memory-controller priority (used by ASM)."""
        self.dram.set_priority_core(core)

    # ------------------------------------------------------------------ access path

    def access(self, core: int, address: int, issue_time: float,
               is_store: bool = False) -> MemoryAccessResult:
        """Send one memory operation through the hierarchy.

        Stores update cache state but complete with the L1 latency; the store
        buffer hides their latency from commit (the paper treats store-related
        stalls as one of the rare "other" stall sources).

        This is the descriptive API: it looks the access up in this
        hierarchy's own L1, L2 and ATD and always materialises a
        :class:`MemoryAccessResult`.  The simulation kernel instead reads the
        front-end outcome replayed once per trace and calls the same back end
        (:meth:`load_miss`/:meth:`store_miss`) directly, so the two should not
        be mixed on one core.
        """
        if core not in self.l1:
            raise ConfigurationError(f"core {core} is not active in this hierarchy")
        code = private_outcome(self.l1[core], self.l2[core], self.atds[core],
                               address, is_store, core)
        if is_store:
            if code != L1_HIT:
                self.store_miss(core, address, code)
            return MemoryAccessResult(
                address=address,
                core=core,
                issue_time=issue_time,
                completion_time=issue_time + self._l1_latency,
                is_sms=False,
                l1_hit=code == L1_HIT,
                l2_hit=False,
                llc_hit=False,
            )
        if code == L1_HIT:
            self.counters[core].pms_loads += 1
            return MemoryAccessResult(
                address=address,
                core=core,
                issue_time=issue_time,
                completion_time=issue_time + self._l1_latency,
                is_sms=False,
                l1_hit=True,
                l2_hit=False,
                llc_hit=False,
            )
        completion, info = self.load_miss(core, address, issue_time, code)
        is_sms, _latency, interference, llc_hit, interference_miss = info
        if not is_sms:
            return MemoryAccessResult(
                address=address,
                core=core,
                issue_time=issue_time,
                completion_time=completion,
                is_sms=False,
                l1_hit=False,
                l2_hit=True,
                llc_hit=False,
            )
        shared = self._last_shared_access
        return MemoryAccessResult(
            address=address,
            core=core,
            issue_time=issue_time,
            completion_time=completion,
            is_sms=True,
            l1_hit=False,
            l2_hit=False,
            llc_hit=llc_hit,
            pre_llc_latency=shared[0],
            post_llc_latency=shared[1],
            interference_cycles=interference,
            interference_miss=interference_miss,
            row_hit=shared[2],
        )

    def store_miss(self, core: int, address: int, code: int) -> None:
        """Back end of a store that missed the L1 (front-end outcome ``code``).

        The line is still allocated in the LLC for footprint realism, but the
        store buffer hides its latency, so there is no timing result.
        """
        if code > UNSAMPLED:
            self.atds[core].record(code - ATD_HIT)
        self.llc.access_hit(address, core, True)

    def load_miss(self, core: int, address: int, issue_time: float, code: int):
        """Back end of a load that missed the L1 (front-end outcome ``code``):
        returns ``(completion_time, info)``.

        ``info`` is the tuple ``(is_sms, latency, interference_cycles,
        llc_hit, interference_miss)`` the core model needs to build its
        :class:`LoadRecord`.
        """
        mshr, counters = self._miss_state[core]
        # Allocate an MSHR (may stall the request if all are in use).  The
        # MSHR file's acquire/allocate pair is inlined here -- this runs once
        # per L1 miss and the method-call overhead is measurable.
        outstanding = mshr._outstanding
        while outstanding and outstanding[0][0] <= issue_time:
            _heappop(outstanding)
        if len(outstanding) < mshr.entries:
            effective_issue = issue_time
        else:
            earliest = outstanding[0][0]
            effective_issue = earliest if earliest > issue_time else issue_time
        ready = effective_issue + self._l1_latency + self._l2_latency
        if code == L2_HIT:
            completion = ready
            counters.pms_loads += 1
            info = (False, completion - issue_time, 0.0, False, None)
        else:
            # The request leaves the private memory system: it is an SMS-load.
            completion, interference, llc_hit, interference_miss = self._shared_access(
                core, address, ready, issue_time, code
            )
            info = (True, completion - issue_time, interference, llc_hit, interference_miss)
        if len(outstanding) >= mshr.entries:
            _heappop(outstanding)
        _heappush(outstanding, (completion, address))
        return completion, info

    def _shared_access(self, core: int, address: int, ready_for_ring: float,
                       original_issue: float, code: int):
        counters = self.counters[core]
        ring = self.ring
        llc = self.llc
        # The LLC set index is shared between the bank mapping and the LLC
        # lookup; compute it once with the hoisted shift/mask.
        mask = self._llc_set_mask
        if mask is not None:
            set_index = (address >> self._llc_line_shift) & mask
        else:
            set_index = llc.set_index(address)
        bank = set_index % self._llc_banks

        # Request hop towards the LLC bank (ring link logic inlined: this and
        # the response hop below run once per SMS-load each).  With a single
        # active core the shadow link schedule is identical to the real one,
        # so the shadow emulation is skipped and interference is exactly 0.
        multi_core = self._multi_core
        occupancy = ring._occupancy
        hop_latency = ring._latency_table[core][bank]
        links = ring._request_links
        if len(links) == 1:
            link = links[0]
        else:
            link = links[0]
            for candidate in links:
                if candidate.next_free < link.next_free:
                    link = candidate
        next_free = link.next_free
        start = ready_for_ring if ready_for_ring > next_free else next_free
        link.next_free = start + occupancy
        interference = 0.0
        if multi_core:
            shadow = link.shadow_next_free
            shadow_free = shadow[core]
            shadow_start = ready_for_ring if ready_for_ring > shadow_free else shadow_free
            shadow[core] = shadow_start + occupancy
            interference = start - shadow_start
            if interference < 0.0:
                interference = 0.0
            ring.per_core_interference_cycles[core] += interference
        llc_ready = start + hop_latency

        if mask is not None:
            tag = address >> self._llc_tag_shift
        else:
            tag = llc.tag(address)
        counters.llc_accesses += 1
        # The front end already updated the ATD stack; count the outcome.
        if code > UNSAMPLED:
            atd_hit = self.atds[core].record(code - ATD_HIT)
            counters.sampled_llc_accesses += 1
        else:
            atd_hit = None

        # LLC lookup, inlined (the flat-array kernel of
        # SetAssociativeCache.access_hit; partition-aware fills go through
        # the shared SetAssociativeCache machinery).
        (llc_tags, llc_last_use, llc_sizes, llc_owners, llc_occupancy,
         llc_assoc) = self._llc_state
        counter = llc._use_counter + 1
        llc._use_counter = counter
        base = set_index * llc_assoc
        size = llc_sizes[set_index]
        segment = llc_tags[base:base + size]
        if tag in segment:
            llc_last_use[base + segment.index(tag)] = counter
            llc.hits += 1
            llc_hit = True
        else:
            llc.misses += 1
            if llc._allocation is not None:
                llc._fill(set_index, tag, core, False, want_outcome=False)
            else:
                if size < llc_assoc:
                    slot = base + size
                    llc_sizes[set_index] = size + 1
                else:
                    ages = llc_last_use[base:base + llc_assoc]
                    slot = base + ages.index(min(ages))
                    llc_occupancy[llc_owners[slot]] -= 1
                try:
                    llc_occupancy[core] += 1
                except IndexError:
                    llc_occupancy.extend([0] * (core + 1 - len(llc_occupancy)))
                    llc_occupancy[core] += 1
                llc_tags[slot] = tag
                llc_owners[slot] = core
                llc_last_use[slot] = counter
                llc._dirty[slot] = False
            llc_hit = False
        row_hit = False
        post_llc_latency = 0.0

        if llc_hit:
            data_ready = llc_ready + self._llc_latency
        else:
            counters.llc_misses += 1
            if atd_hit is not None:
                counters.sampled_llc_misses += 1
            arrival = llc_ready + self._llc_latency
            data_ready, row_hit, dram_interference = self.dram.access_fast(
                address, core, arrival, multi_core
            )
            post_llc_latency = data_ready - arrival
            counters.dram_interference_sum += dram_interference
            if row_hit:
                counters.dram_row_hits += 1
            if atd_hit is True:
                # The private-mode LLC would have hit, so the entire DRAM
                # round trip (queueing included) is interference caused by
                # cache contention.  The penalty is tracked separately so
                # DIEF can extrapolate the sampled rate to unsampled sets.
                counters.interference_misses += 1
                counters.interference_miss_penalty_sum += post_llc_latency
                interference += post_llc_latency
            else:
                interference += dram_interference

        # Response hop back to the core.
        links = ring._response_links
        if len(links) == 1:
            link = links[0]
        else:
            link = links[0]
            for candidate in links:
                if candidate.next_free < link.next_free:
                    link = candidate
        next_free = link.next_free
        start = data_ready if data_ready > next_free else next_free
        link.next_free = start + occupancy
        if multi_core:
            shadow = link.shadow_next_free
            shadow_free = shadow[core]
            shadow_start = data_ready if data_ready > shadow_free else shadow_free
            shadow[core] = shadow_start + occupancy
            response_interference = start - shadow_start
            if response_interference < 0.0:
                response_interference = 0.0
            ring.per_core_interference_cycles[core] += response_interference
            interference += response_interference
        ring.transfers += 2
        completion = start + hop_latency

        latency = completion - original_issue
        pre_llc_latency = latency - post_llc_latency

        counters.sms_loads += 1
        counters.sms_latency_sum += latency
        counters.pre_llc_latency_sum += pre_llc_latency
        counters.post_llc_latency_sum += post_llc_latency
        counters.interference_sum += interference

        # Stashed for the descriptive access() wrapper (single-threaded use).
        self._last_shared_access = (pre_llc_latency, post_llc_latency, row_hit)
        interference_miss = atd_hit if not llc_hit else (
            False if atd_hit is not None else None
        )
        return completion, interference, llc_hit, interference_miss

    def credit_front_end(self, core: int, front_end: FrontEnd) -> None:
        """Add a finished run's private-cache hits and misses, which the
        front end counted, to this core's L1 and L2 statistics."""
        l1 = self.l1[core]
        l1.hits += front_end.l1_hits
        l1.misses += front_end.l1_misses
        l2 = self.l2[core]
        l2.hits += front_end.l2_hits
        l2.misses += front_end.l2_misses

    # ------------------------------------------------------------------ interval management

    def reset_interval_counters(self, core: int | None = None) -> None:
        """Reset per-interval counters (for one core or all cores).

        ATD stack-distance histograms are deliberately *not* reset here: they
        are consumed (and reset) by the cache-partitioning policies on their
        own repartitioning interval.
        """
        cores = [core] if core is not None else self.active_cores
        for core_id in cores:
            self.counters[core_id].reset()

    def reset_atd_statistics(self, core: int | None = None) -> None:
        """Reset ATD stack-distance histograms (done by partitioning policies)."""
        cores = [core] if core is not None else self.active_cores
        for core_id in cores:
            self.atds[core_id].reset_statistics()

    def miss_curve(self, core: int):
        """The core's private-mode LLC miss curve accumulated since the last ATD reset."""
        return self.atds[core].miss_curve()
