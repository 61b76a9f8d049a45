"""Miss Status Holding Registers (MSHRs).

MSHRs bound the number of outstanding misses a cache can sustain.  When all
MSHRs are occupied the cache blocks and new misses must wait for an existing
miss to complete, which limits memory-level parallelism — an effect the
paper's core model and the "other stalls" category depend on.
"""

from __future__ import annotations

import copy
import heapq

from repro.errors import SimulationError

__all__ = ["MSHRFile"]


class MSHRFile:
    """Tracks outstanding misses as (completion_time, address) entries."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise SimulationError("an MSHR file needs at least one entry")
        self.entries = entries
        self._outstanding: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._outstanding)

    def fork(self) -> "MSHRFile":
        """An independent copy of the outstanding misses (for a forked run)."""
        clone = copy.copy(self)
        clone._outstanding = self._outstanding[:]
        return clone

    def release_completed(self, now: float) -> int:
        """Retire every outstanding miss that has completed by ``now``."""
        released = 0
        while self._outstanding and self._outstanding[0][0] <= now:
            heapq.heappop(self._outstanding)
            released += 1
        return released

    def earliest_completion(self) -> float | None:
        """Completion time of the oldest outstanding miss, or None when empty."""
        return self._outstanding[0][0] if self._outstanding else None

    def acquire_time(self, request_time: float) -> float:
        """Earliest time a new miss can allocate an MSHR at or after ``request_time``.

        If the file is full at ``request_time`` the caller must wait until the
        earliest outstanding miss completes.
        """
        self.release_completed(request_time)
        if len(self._outstanding) < self.entries:
            return request_time
        earliest = self.earliest_completion()
        if earliest is None:
            raise SimulationError("MSHR file reported full while holding no entries")
        return max(request_time, earliest)

    def allocate(self, completion_time: float, address: int) -> None:
        """Record a new outstanding miss that will complete at ``completion_time``.

        Callers are expected to have obtained their start time from
        :meth:`acquire_time`, which guarantees an entry is free by then; if the
        file is still full here, the earliest-completing entry is the one that
        freed up and is retired.
        """
        if len(self._outstanding) >= self.entries:
            heapq.heappop(self._outstanding)
        heapq.heappush(self._outstanding, (completion_time, address))

    def outstanding_at(self, time: float) -> int:
        """Number of misses still outstanding at ``time``."""
        return sum(1 for completion, _ in self._outstanding if completion > time)

    def clear(self) -> None:
        self._outstanding.clear()
