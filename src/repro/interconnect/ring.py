"""Ring interconnect between the private per-core memory systems and the LLC banks.

The ring adds a hop-proportional transfer latency plus queueing when the link
is occupied.  As with the DRAM controller, a per-core shadow copy of the link
availability (seeing only that core's own transfers) is maintained so the
waiting caused by other cores' traffic can be attributed as interference,
which DIEF's interconnect counters rely on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.config import RingConfig

__all__ = ["RingTransferResult", "RingInterconnect"]


@dataclass(frozen=True)
class RingTransferResult:
    """Timing of one traversal of the ring (request or response direction)."""

    arrival: float
    start: float
    completion: float
    hops: int
    queue_wait: float
    interference_wait: float

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass
class _RingLink:
    """One physical link; ``shadow_next_free`` is indexed by core id."""

    next_free: float = 0.0
    shadow_next_free: list[float] = field(default_factory=list)


def _link_next_free(link: _RingLink) -> float:
    return link.next_free


class RingInterconnect:
    """A simple ring: one shared request path and one shared response path.

    Multiple request rings (Table I lists 2 for the 8-core CMP) are modelled
    as additional parallel links; a transfer uses the link that frees first.
    """

    def __init__(self, config: RingConfig, n_cores: int, n_banks: int):
        config.validate()
        self.config = config
        self.n_cores = n_cores
        self.n_banks = n_banks
        self._request_links = [
            _RingLink(shadow_next_free=[0.0] * n_cores) for _ in range(config.request_rings)
        ]
        self._response_links = [
            _RingLink(shadow_next_free=[0.0] * n_cores) for _ in range(config.response_rings)
        ]
        self.transfers = 0
        # Indexed by core id (cores are dense small integers).
        self.per_core_interference_cycles: list[float] = [0.0] * n_cores
        # Hop counts and link timing are pure functions of the (static)
        # topology; precompute them so the per-transfer path is arithmetic
        # on locals only.
        self._hop_table = [
            [self.hop_count(core, bank) for bank in range(n_banks)]
            for core in range(n_cores)
        ]
        self._latency_table = [
            [hops * config.hop_latency for hops in row] for row in self._hop_table
        ]
        self._occupancy = config.link_occupancy * config.hop_latency

    def fork(self) -> "RingInterconnect":
        """An independent copy of the link schedules and statistics (for a
        forked run); the topology tables are shared."""
        clone = copy.copy(self)
        clone._request_links = [_RingLink(link.next_free, link.shadow_next_free[:])
                                for link in self._request_links]
        clone._response_links = [_RingLink(link.next_free, link.shadow_next_free[:])
                                 for link in self._response_links]
        clone.per_core_interference_cycles = self.per_core_interference_cycles[:]
        return clone

    def hop_count(self, core: int, bank: int) -> int:
        """Hops between a core and an LLC bank on the ring.

        Cores and banks are interleaved around the ring; the distance is the
        shortest way around.
        """
        stations = self.n_cores + self.n_banks
        core_station = core
        bank_station = self.n_cores + bank
        clockwise = (bank_station - core_station) % stations
        counter = (core_station - bank_station) % stations
        return max(1, min(clockwise, counter))

    def transfer(self, core: int, bank: int, arrival: float, response: bool = False) -> RingTransferResult:
        """Traverse the ring and return the full transfer timing."""
        start, completion, interference_wait = self._transfer(core, bank, arrival, response)
        return RingTransferResult(
            arrival=arrival,
            start=start,
            completion=completion,
            hops=self._hop_table[core][bank],
            queue_wait=start - arrival,
            interference_wait=interference_wait,
        )

    def transfer_fast(self, core: int, bank: int, arrival: float,
                      response: bool = False) -> tuple[float, float]:
        """Hot-path traversal: returns ``(completion, interference_wait)``."""
        _start, completion, interference_wait = self._transfer(core, bank, arrival, response)
        return completion, interference_wait

    def _transfer(self, core: int, bank: int, arrival: float, response: bool):
        links = self._response_links if response else self._request_links
        if len(links) == 1:
            link = links[0]
        else:
            link = min(links, key=_link_next_free)
        occupancy = self._occupancy

        next_free = link.next_free
        start = arrival if arrival > next_free else next_free
        link.next_free = start + occupancy

        # Shadow (core-alone) emulation of the same link.
        shadow = link.shadow_next_free
        shadow_free = shadow[core]
        shadow_start = arrival if arrival > shadow_free else shadow_free
        shadow[core] = shadow_start + occupancy
        interference_wait = start - shadow_start
        if interference_wait < 0.0:
            interference_wait = 0.0

        self.transfers += 1
        self.per_core_interference_cycles[core] += interference_wait
        return start, start + self._latency_table[core][bank], interference_wait

    def reset_statistics(self) -> None:
        self.transfers = 0
        self.per_core_interference_cycles = [0.0] * self.n_cores
