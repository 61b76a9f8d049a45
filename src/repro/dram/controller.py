"""Memory controller model: banks, channels, data bus and FR-FCFS-style scheduling.

The controller resolves each read request into a queueing delay, a bank access
(row hit or row miss) and a data-bus transfer.  Because the surrounding
simulation is trace driven and single pass, requests are scheduled in arrival
order; FR-FCFS behaviour is approximated through the open-page policy (row
hits are cheap) and bank-level parallelism.  Two features matter for the
paper's evaluation and are modelled explicitly:

* **interference attribution** — for every request, the controller also
  advances a per-core *shadow* copy of the bank/bus state that only ever sees
  that core's own requests.  The difference between the shared-mode completion
  and the shadow completion is the latency caused by other cores.  This
  mirrors DIEF's hardware emulation of the private-mode service order.
* **per-core priority** — the invasive ASM technique periodically gives one
  core highest priority in the controller.  A prioritised request bypasses the
  accumulated backlog of other cores (it only waits for physical bank/bus
  timing), while everyone else queues behind it, recreating the backlog
  behaviour the paper describes in Figure 1c.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.dram.bank import DRAMBank
from repro.errors import ConfigurationError
from repro.config import DRAMConfig

__all__ = ["DRAMAccessResult", "MemoryController"]


@dataclass(frozen=True)
class DRAMAccessResult:
    """Timing of one DRAM read."""

    arrival: float
    service_start: float
    completion: float
    row_hit: bool
    channel: int
    bank: int
    queue_wait: float
    interference_wait: float
    private_latency_estimate: float

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass
class _ShadowChannel:
    """Per-core emulation of the channel as if the core were alone."""

    banks: list[DRAMBank]
    bus_next_free: float = 0.0


@dataclass
class _Channel:
    banks: list[DRAMBank]
    bus_next_free: float = 0.0
    # Indexed by core id, grown on demand (None until a core's first access).
    shadows: list[_ShadowChannel | None] = field(default_factory=list)

    def fork(self) -> "_Channel":
        return _Channel(
            [copy.copy(bank) for bank in self.banks],
            self.bus_next_free,
            [None if shadow is None else _ShadowChannel(
                [copy.copy(bank) for bank in shadow.banks], shadow.bus_next_free)
             for shadow in self.shadows],
        )


class MemoryController:
    """A multi-channel memory controller with open-page banks and priority support."""

    def __init__(self, config: DRAMConfig, line_bytes: int = 64):
        config.validate()
        self.config = config
        self.timing = config.timing
        self.line_bytes = line_bytes
        self._channels = [
            _Channel(banks=[DRAMBank(config.timing) for _ in range(config.banks_per_channel)])
            for _ in range(config.channels)
        ]
        self._priority_core: int | None = None
        self.reads = 0
        self.row_hit_reads = 0
        # Per-core statistics as dense lists indexed by core id, grown on
        # demand (cores are small integers).
        self.per_core_reads: list[int] = []
        self.per_core_queue_cycles: list[float] = []
        self.per_core_interference_cycles: list[float] = []
        # Address-mapping and timing constants hoisted off the access path.
        timing = config.timing
        self._row_hit_latency = timing.row_hit_latency
        self._row_miss_latency = timing.row_miss_latency
        self._data_transfer_latency = timing.data_transfer_latency
        self._n_channels = config.channels
        self._n_banks = config.banks_per_channel
        self._page_bytes = config.page_bytes

    def fork(self) -> "MemoryController":
        """An independent copy of the bank, bus and shadow schedules and the
        statistics (for a forked run)."""
        clone = copy.copy(self)
        clone._channels = [channel.fork() for channel in self._channels]
        clone.per_core_reads = self.per_core_reads[:]
        clone.per_core_queue_cycles = self.per_core_queue_cycles[:]
        clone.per_core_interference_cycles = self.per_core_interference_cycles[:]
        return clone

    # ------------------------------------------------------------------ address mapping

    def map_address(self, address: int) -> tuple[int, int, int]:
        """Map a byte address to (channel, bank, row)."""
        line = address // self.line_bytes
        channel = line % self.config.channels
        line //= self.config.channels
        bank = line % self.config.banks_per_channel
        row = address // self.config.page_bytes
        return channel, bank, row

    # ------------------------------------------------------------------ priority (ASM)

    def set_priority_core(self, core: int | None) -> None:
        """Give one core highest scheduling priority (None disables priority)."""
        if core is not None and core < 0:
            raise ConfigurationError("priority core id cannot be negative")
        self._priority_core = core

    @property
    def priority_core(self) -> int | None:
        return self._priority_core

    # ------------------------------------------------------------------ access

    def access(self, address: int, core: int, arrival: float) -> DRAMAccessResult:
        """Service one read request and return its timing and interference breakdown."""
        (service_start, completion, row_hit, channel_index, bank_index, queue_wait,
         interference_wait, private_latency) = self._access(address, core, arrival)
        return DRAMAccessResult(
            arrival=arrival,
            service_start=service_start,
            completion=completion,
            row_hit=row_hit,
            channel=channel_index,
            bank=bank_index,
            queue_wait=queue_wait,
            interference_wait=interference_wait,
            private_latency_estimate=private_latency,
        )

    def access_fast(self, address: int, core: int, arrival: float,
                    with_shadow: bool = True) -> tuple[float, bool, float]:
        """Hot-path read: returns ``(completion, row_hit, interference_wait)``.

        Thin projection of :meth:`_access` (the single source of the
        scheduling logic); the full tuple costs one unpack, which is noise
        next to the scheduling arithmetic itself.
        """
        (_start, completion, row_hit, _channel, _bank, _queue_wait,
         interference_wait, _private) = self._access(address, core, arrival, with_shadow)
        return completion, row_hit, interference_wait

    def _grow_per_core(self, core: int) -> None:
        grow_by = core + 1 - len(self.per_core_reads)
        self.per_core_reads.extend([0] * grow_by)
        self.per_core_queue_cycles.extend([0.0] * grow_by)
        self.per_core_interference_cycles.extend([0.0] * grow_by)

    def _shadow_channel(self, channel: _Channel, core: int) -> _ShadowChannel:
        shadows = channel.shadows
        if core >= len(shadows):
            shadows.extend([None] * (core + 1 - len(shadows)))
        shadow = shadows[core]
        if shadow is None:
            shadow = _ShadowChannel(
                banks=[DRAMBank(self.timing) for _ in range(self.config.banks_per_channel)]
            )
            shadows[core] = shadow
        return shadow

    def _access(self, address: int, core: int, arrival: float, with_shadow: bool = True):
        line = address // self.line_bytes
        channel_index = line % self._n_channels
        bank_index = (line // self._n_channels) % self._n_banks
        row = address // self._page_bytes
        channel = self._channels[channel_index]
        bank = channel.banks[bank_index]

        prioritised = self._priority_core is not None and core == self._priority_core
        if bank.open_row == row:
            latency = self._row_hit_latency
            row_hit = True
        else:
            latency = self._row_miss_latency
            row_hit = False
        transfer = self._data_transfer_latency
        bank_ready = bank.next_ready
        if prioritised:
            # A prioritised request bypasses the queued backlog of other cores
            # and is scheduled as soon as physical timing allows.  It still
            # consumes bank and bus capacity, so the backlog of everyone else
            # grows by its service time (the Figure 1c backlog effect) and no
            # bandwidth is created out of thin air.
            service_start = arrival
            bus_available = arrival
        else:
            service_start = arrival if arrival > bank_ready else bank_ready
            bus_available = channel.bus_next_free
        data_ready = service_start + latency - transfer
        data_start = data_ready if data_ready > bus_available else bus_available
        completion = data_start + transfer
        queue_wait = (service_start - arrival) + (data_start - data_ready)

        # Commit shared resource state: the request's service time is always
        # appended to the schedule, whether it bypassed the queue or not.
        if prioritised:
            bank.next_ready = (bank_ready if bank_ready > arrival else arrival) + latency
            bus_free = channel.bus_next_free
            channel.bus_next_free = (bus_free if bus_free > arrival else arrival) + transfer
        else:
            bank.next_ready = service_start + latency
            channel.bus_next_free = completion
        bank.open_row = row
        if row_hit:
            bank.row_hits += 1
            self.row_hit_reads += 1
        else:
            bank.row_misses += 1

        # Shadow (alone-on-the-machine) emulation for interference attribution,
        # inlined: advance the core's private-mode schedule and compare.  With
        # a single active core the shadow schedule is identical to the real
        # one by induction (same arrivals, same update rules), so callers in
        # private mode skip it: the interference is exactly 0.
        if not with_shadow:
            self.reads += 1
            try:
                self.per_core_reads[core] += 1
            except IndexError:
                self._grow_per_core(core)
                self.per_core_reads[core] += 1
            self.per_core_queue_cycles[core] += queue_wait
            return (service_start, completion, row_hit, channel_index, bank_index,
                    queue_wait, 0.0, completion - arrival)
        shadows = channel.shadows
        shadow = shadows[core] if core < len(shadows) else None
        if shadow is None:
            shadow = self._shadow_channel(channel, core)
        shadow_bank = shadow.banks[bank_index]
        shadow_latency = (
            self._row_hit_latency if shadow_bank.open_row == row else self._row_miss_latency
        )
        shadow_bank_ready = shadow_bank.next_ready
        shadow_service = arrival if arrival > shadow_bank_ready else shadow_bank_ready
        shadow_data_ready = shadow_service + shadow_latency - transfer
        shadow_bus_free = shadow.bus_next_free
        shadow_data_start = (
            shadow_data_ready if shadow_data_ready > shadow_bus_free else shadow_bus_free
        )
        shadow_completion = shadow_data_start + transfer
        shadow_bank.next_ready = shadow_service + shadow_latency
        shadow_bank.open_row = row
        shadow.bus_next_free = shadow_completion

        private_latency = shadow_completion - arrival
        interference_wait = completion - shadow_completion
        if interference_wait < 0.0:
            interference_wait = 0.0

        self.reads += 1
        try:
            self.per_core_reads[core] += 1
        except IndexError:
            self._grow_per_core(core)
            self.per_core_reads[core] += 1
        self.per_core_queue_cycles[core] += queue_wait
        self.per_core_interference_cycles[core] += interference_wait
        return (service_start, completion, row_hit, channel_index, bank_index,
                queue_wait, interference_wait, private_latency)

    # ------------------------------------------------------------------ statistics

    def row_hit_rate(self) -> float:
        return self.row_hit_reads / self.reads if self.reads else 0.0

    def average_queue_wait(self, core: int) -> float:
        reads = self.per_core_reads[core] if core < len(self.per_core_reads) else 0
        if reads == 0:
            return 0.0
        return self.per_core_queue_cycles[core] / reads

    def average_interference_wait(self, core: int) -> float:
        reads = self.per_core_reads[core] if core < len(self.per_core_reads) else 0
        if reads == 0:
            return 0.0
        return self.per_core_interference_cycles[core] / reads

    def reset_statistics(self) -> None:
        self.reads = 0
        self.row_hit_reads = 0
        self.per_core_reads = []
        self.per_core_queue_cycles = []
        self.per_core_interference_cycles = []
