"""Set-associative cache model with LRU replacement and way partitioning.

The same class models the private L1/L2 caches (no partitioning) and the
shared LLC.  For the shared LLC, lines are tagged with the owning core and the
replacement policy can enforce per-core way quotas, which is how the paper's
MCP/UCP/ASM partitioning policies are enforced in hardware.

The line store is kept in flat parallel arrays (``tags``/``owners``/
``last_use``/``dirty``, indexed by ``set * associativity + way``) rather than
per-set lists of line objects: the cache sits on the per-instruction hot path
of the simulation kernel, and flat arrays turn each access into a short slice
scan with no attribute chasing.  Plain Python lists are used instead of
``array('q')`` because CPython reads list elements without boxing, which is
measurably faster for this access pattern.  Occupied ways are always the
first ``_set_sizes[set]`` slots of a set: fills append to the first free slot
and evictions overwrite the victim in place, so slots never fragment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.config import CacheConfig

__all__ = ["CacheLine", "AccessOutcome", "SetAssociativeCache"]


@dataclass
class CacheLine:
    """One cache line: tag, owning core and LRU age bookkeeping.

    The simulation kernel stores lines in flat arrays; this record is the
    element type :meth:`SetAssociativeCache.lines` materialises for
    inspection and tests.
    """

    tag: int
    owner: int
    last_use: int
    dirty: bool = False


@dataclass(frozen=True)
class AccessOutcome:
    """Result of a cache access."""

    hit: bool
    evicted_tag: int | None = None
    evicted_owner: int | None = None
    evicted_dirty: bool = False


# Shared immutable outcomes for the two allocation-free cases; the hot path
# returns these singletons instead of constructing a dataclass per access.
_HIT = AccessOutcome(hit=True)
_MISS_NO_EVICTION = AccessOutcome(hit=False)


class SetAssociativeCache:
    """A set-associative, write-allocate cache with LRU replacement.

    Parameters
    ----------
    config:
        Geometry and latency of the cache.
    name:
        Used in error messages and statistics reporting.
    partitioned:
        When True, misses respect per-core way allocations set through
        :meth:`set_partition` (way partitioning as used by UCP/MCP/ASM).
    """

    def __init__(self, config: CacheConfig, name: str = "cache", partitioned: bool = False):
        config.validate()
        self.config = config
        self.name = name
        self.partitioned = partitioned
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_bytes = config.line_bytes
        # Power-of-two geometry gets shift/mask address decomposition
        # (config.validate guarantees line_bytes is a power of two; the set
        # count may not be, in which case set_index/tag fall back to divmod).
        self._line_shift = config.line_bytes.bit_length() - 1
        if self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask: int | None = self.num_sets - 1
            self._tag_shift = self._line_shift + (self.num_sets.bit_length() - 1)
        else:
            self._set_mask = None
            self._tag_shift = 0
        total_slots = self.num_sets * self.associativity
        # Flat parallel arrays indexed by set * associativity + way.
        self._tags: list[int] = [-1] * total_slots
        self._owners: list[int] = [-1] * total_slots
        self._last_use: list[int] = [0] * total_slots
        self._dirty: list[bool] = [False] * total_slots
        # Number of occupied ways per set (occupied ways are slots [0, size)).
        self._set_sizes: list[int] = [0] * self.num_sets
        # Incrementally maintained per-core line counts (whole cache),
        # indexed by core id and grown on demand.
        self._core_occupancy: list[int] = []
        self._use_counter = 0
        self._allocation: dict[int, int] | None = None
        self.hits = 0
        self.misses = 0
        # Per-core counters as dense lists indexed by core id (grown on
        # demand); exposed as dicts through the properties below.
        self._hits_by_core: list[int] = []
        self._misses_by_core: list[int] = []

    def fork(self) -> "SetAssociativeCache":
        """An independent copy of the contents and statistics (for a forked run)."""
        clone = copy.copy(self)
        clone._tags = self._tags[:]
        clone._owners = self._owners[:]
        clone._last_use = self._last_use[:]
        clone._dirty = self._dirty[:]
        clone._set_sizes = self._set_sizes[:]
        clone._core_occupancy = self._core_occupancy[:]
        clone._allocation = self.partition
        clone._hits_by_core = self._hits_by_core[:]
        clone._misses_by_core = self._misses_by_core[:]
        return clone

    # ------------------------------------------------------------------ geometry

    def set_index(self, address: int) -> int:
        """Map a byte address to its set index."""
        mask = self._set_mask
        if mask is not None:
            return (address >> self._line_shift) & mask
        return (address // self.line_bytes) % self.num_sets

    def tag(self, address: int) -> int:
        """Map a byte address to its tag."""
        if self._set_mask is not None:
            return address >> self._tag_shift
        return address // (self.line_bytes * self.num_sets)

    def bank_index(self, address: int) -> int:
        """Map a byte address to its bank (sets are interleaved across banks)."""
        return self.set_index(address) % self.config.banks

    # ------------------------------------------------------------------ partitioning

    def set_partition(self, allocation: dict[int, int] | None) -> None:
        """Install a per-core way allocation (or None to disable partitioning).

        The allocation maps core id to the number of LLC ways it may occupy in
        every set.  The sum of the allocation must not exceed the cache
        associativity.
        """
        if allocation is None:
            self._allocation = None
            return
        if not self.partitioned:
            raise ConfigurationError(f"{self.name} was not built with partitioning support")
        total = sum(allocation.values())
        if total > self.associativity:
            raise ConfigurationError(
                f"allocation of {total} ways exceeds associativity {self.associativity}"
            )
        if any(ways < 0 for ways in allocation.values()):
            raise ConfigurationError("way allocations cannot be negative")
        self._allocation = dict(allocation)

    @property
    def partition(self) -> dict[int, int] | None:
        """The currently installed way allocation, if any."""
        return dict(self._allocation) if self._allocation is not None else None

    # ------------------------------------------------------------------ access

    def probe(self, address: int) -> bool:
        """Return True when the address currently hits, without updating state."""
        index = self.set_index(address)
        tag = self.tag(address)
        base = index * self.associativity
        try:
            self._tags.index(tag, base, base + self._set_sizes[index])
            return True
        except ValueError:
            return False

    def access(self, address: int, core: int = 0, is_store: bool = False) -> AccessOutcome:
        """Perform an access: update LRU state, allocate on miss, return the outcome."""
        counter = self._use_counter + 1
        self._use_counter = counter
        mask = self._set_mask
        if mask is not None:
            index = (address >> self._line_shift) & mask
            tag = address >> self._tag_shift
        else:
            index = (address // self.line_bytes) % self.num_sets
            tag = address // (self.line_bytes * self.num_sets)
        base = index * self.associativity
        # list.index scans at C speed; a tag can appear at most once per set.
        try:
            slot = self._tags.index(tag, base, base + self._set_sizes[index])
        except ValueError:
            self.misses += 1
            by_core = self._misses_by_core
            try:
                by_core[core] += 1
            except IndexError:
                self._grow_core_counters(core)
                self._misses_by_core[core] += 1
            return self._fill(index, tag, core, is_store)
        self._last_use[slot] = counter
        if is_store:
            self._dirty[slot] = True
        self.hits += 1
        by_core = self._hits_by_core
        try:
            by_core[core] += 1
        except IndexError:
            self._grow_core_counters(core)
            self._hits_by_core[core] += 1
        return _HIT

    def access_hit(self, address: int, core: int = 0, is_store: bool = False) -> bool:
        """Hot-path access: same state update as :meth:`access`, returns only
        the hit flag and never materialises an :class:`AccessOutcome`.

        Partition-aware fills share :meth:`_fill` (minus the outcome); the
        unpartitioned case — private L1/L2 and the LLC whenever no allocation
        is installed — is fully inlined.  Unlike :meth:`access`, only the
        aggregate hit/miss counters are maintained (no per-core statistics),
        which nothing on the simulation path consumes.
        """
        counter = self._use_counter + 1
        self._use_counter = counter
        mask = self._set_mask
        if mask is not None:
            index = (address >> self._line_shift) & mask
            tag = address >> self._tag_shift
        else:
            index = (address // self.line_bytes) % self.num_sets
            tag = address // (self.line_bytes * self.num_sets)
        assoc = self.associativity
        base = index * assoc
        tags = self._tags
        size = self._set_sizes[index]
        # Hit scan.  Two-way sets (the L1s) compare both ways directly; wider
        # sets use a membership test before index — misses dominate in the
        # scaled-down hierarchy and a failed ``in`` is far cheaper than a
        # raised ValueError from list.index.
        slot = -1
        if assoc == 2:
            if size != 0:
                if tags[base] == tag:
                    slot = base
                elif size == 2 and tags[base + 1] == tag:
                    slot = base + 1
        else:
            segment = tags[base:base + size]
            if tag in segment:
                slot = base + segment.index(tag)
        if slot >= 0:
            self._last_use[slot] = counter
            if is_store:
                self._dirty[slot] = True
            self.hits += 1
            return True
        self.misses += 1
        if self._allocation is not None:
            self._fill(index, tag, core, is_store, want_outcome=False)
            return False
        occupancy = self._core_occupancy
        if size < assoc:
            slot = base + size
            self._set_sizes[index] = size + 1
        else:
            ages = self._last_use[base:base + assoc]
            slot = base + ages.index(min(ages))
            occupancy[self._owners[slot]] -= 1
        try:
            occupancy[core] += 1
        except IndexError:
            occupancy.extend([0] * (core + 1 - len(occupancy)))
            occupancy[core] += 1
        tags[slot] = tag
        self._owners[slot] = core
        self._last_use[slot] = counter
        self._dirty[slot] = is_store
        return False

    def _grow_core_counters(self, core: int) -> None:
        if core < 0:
            raise ConfigurationError("core ids cannot be negative")
        grow_by = core + 1 - len(self._hits_by_core)
        self._hits_by_core.extend([0] * grow_by)
        self._misses_by_core.extend([0] * grow_by)

    def _fill(self, index: int, tag: int, core: int, is_store: bool,
              want_outcome: bool = True) -> AccessOutcome | None:
        assoc = self.associativity
        base = index * assoc
        size = self._set_sizes[index]
        occupancy = self._core_occupancy
        quota = None
        if self.partitioned and self._allocation is not None:
            quota = self._allocation.get(core, assoc)
            if quota < 1:
                quota = 1
        if size < assoc:
            within_quota = (
                quota is None
                or self._owners[base:base + size].count(core) < quota
            )
            if within_quota:
                slot = base + size
                self._tags[slot] = tag
                self._owners[slot] = core
                self._last_use[slot] = self._use_counter
                self._dirty[slot] = is_store
                self._set_sizes[index] = size + 1
                try:
                    occupancy[core] += 1
                except IndexError:
                    occupancy.extend([0] * (core + 1 - len(occupancy)))
                    occupancy[core] += 1
                return _MISS_NO_EVICTION
        victim = self._select_victim(base, size, core, quota)
        owners = self._owners
        evicted = None
        if want_outcome:
            evicted = AccessOutcome(
                hit=False,
                evicted_tag=self._tags[victim],
                evicted_owner=owners[victim],
                evicted_dirty=self._dirty[victim],
            )
        occupancy[owners[victim]] -= 1
        try:
            occupancy[core] += 1
        except IndexError:
            occupancy.extend([0] * (core + 1 - len(occupancy)))
            occupancy[core] += 1
        self._tags[victim] = tag
        owners[victim] = core
        self._last_use[victim] = self._use_counter
        self._dirty[victim] = is_store
        return evicted

    def _select_victim(self, base: int, size: int, core: int, quota: int | None) -> int:
        """Pick an eviction victim slot: plain LRU, or partition-aware LRU."""
        last_use = self._last_use
        end = base + size
        if quota is None:
            # Plain LRU over the occupied slots.  ``last_use`` values are
            # unique (one global counter per access), so the minimum slot is
            # the unambiguous LRU line.  min + index both scan at C speed.
            ages = last_use[base:end]
            return base + ages.index(min(ages))
        allocation = self._allocation
        owners = self._owners[base:end]
        ages = last_use[base:end]
        own_count = owners.count(core)
        own_victim = -1
        if own_count:
            own_best = 0
            for position, owner in enumerate(owners):
                if owner == core:
                    age = ages[position]
                    if own_victim < 0 or age < own_best:
                        own_best = age
                        own_victim = position
        if own_count >= quota:
            # The requesting core is at (or above) its quota: recycle its own
            # LRU line so it never exceeds the allocation.
            return base + own_victim
        # The requesting core is below its quota: take a line from a core that
        # exceeds its own quota (preferring the most over-allocated), falling
        # back to global LRU if nobody is over quota.  Distinct owners per set
        # are few, so per-owner occupancy uses C-speed list.count.
        over_owners = set()
        checked = {core}
        for owner in owners:
            if owner not in checked:
                checked.add(owner)
                if owners.count(owner) > allocation.get(owner, 0):
                    over_owners.add(owner)
        if over_owners:
            over_victim = -1
            over_best = 0
            for position, owner in enumerate(owners):
                if owner in over_owners:
                    age = ages[position]
                    if over_victim < 0 or age < over_best:
                        over_best = age
                        over_victim = position
            return base + over_victim
        if size < self.associativity:
            # Nobody is over quota and there is still free space: the caller
            # only reaches this when the requester hit its own quota, so this
            # branch recycles the requester's LRU line.
            if own_victim >= 0:
                return base + own_victim
        return base + ages.index(min(ages))

    # ------------------------------------------------------------------ statistics

    @property
    def per_core_hits(self) -> dict[int, int]:
        """Hits per core (cores that have accessed the cache)."""
        return {core: count for core, count in enumerate(self._hits_by_core) if count}

    @property
    def per_core_misses(self) -> dict[int, int]:
        """Misses per core (cores that have accessed the cache)."""
        return {core: count for core, count in enumerate(self._misses_by_core) if count}

    def occupancy(self, core: int) -> int:
        """Total number of lines currently owned by ``core`` (O(1))."""
        counts = self._core_occupancy
        return counts[core] if core < len(counts) else 0

    def set_occupancy(self, index: int) -> dict[int, int]:
        """Per-core line counts for one set (O(associativity))."""
        counts: dict[int, int] = {}
        owners = self._owners
        base = index * self.associativity
        for slot in range(base, base + self._set_sizes[index]):
            owner = owners[slot]
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    def lines(self, index: int) -> list[CacheLine]:
        """Materialise the occupied lines of one set (inspection/testing aid)."""
        base = index * self.associativity
        return [
            CacheLine(
                tag=self._tags[slot],
                owner=self._owners[slot],
                last_use=self._last_use[slot],
                dirty=self._dirty[slot],
            )
            for slot in range(base, base + self._set_sizes[index])
        ]

    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self._hits_by_core = []
        self._misses_by_core = []

    def flush(self) -> None:
        """Invalidate every line (used between experiments).

        Arrays are cleared in place: the memory hierarchy hoists references
        to them for its hot path, and those must stay valid across a flush.
        """
        total_slots = self.num_sets * self.associativity
        self._tags[:] = [-1] * total_slots
        self._owners[:] = [-1] * total_slots
        self._last_use[:] = [0] * total_slots
        self._dirty[:] = [False] * total_slots
        self._set_sizes[:] = [0] * self.num_sets
        self._core_occupancy[:] = []
