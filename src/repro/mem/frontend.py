"""The trace-deterministic front end of a core's memory path.

A core's private L1 and L2 and its ATD see only that core's own loads and
stores, in program order, so whether an access hits in them is a function of
the trace, the cache geometry and how many instructions the run executes --
not of timing, and not of what the other cores do.  The front end replays a
trace through those structures once per process and keeps one outcome code
per instruction; every run of the trace (shared mode under each accounting or
partitioning setting, private mode) reads the codes and simulates only the
timing-dependent back end: MSHRs, ring, LLC, DRAM and the ATD statistics
(:class:`repro.mem.hierarchy.MemoryHierarchy`).

Outcome codes:

* ``L1_HIT`` -- a load or store that hits in the L1 (also every compute
  instruction);
* ``L2_HIT`` -- a load that misses the L1 and hits the L2;
* ``UNSAMPLED`` and up -- an access that reaches the LLC and the ATD: a load
  that misses the L2, or any store that misses the L1 (its L2 outcome does
  not matter to the back end).  ``UNSAMPLED`` means the line maps to an
  unsampled ATD set, ``ATD_HIT - 1`` an ATD miss and ``ATD_HIT + p`` an ATD
  hit at LRU stack position ``p``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

from repro.cache.atd import AuxiliaryTagDirectory
from repro.cache.cache import SetAssociativeCache
from repro.config import CMPConfig
from repro.workloads.trace import InstrKind, Trace

__all__ = [
    "ATD_HIT",
    "L1_HIT",
    "L2_HIT",
    "UNSAMPLED",
    "FrontEnd",
    "front_end",
    "private_outcome",
    "replay_front_end",
]

L1_HIT = 0
L2_HIT = 1
UNSAMPLED = 2
ATD_HIT = 4


@dataclass(frozen=True, slots=True)
class FrontEnd:
    """Outcome codes of one trace over one run length, plus the L1/L2
    hit and miss totals the run credits to its caches when it ends."""

    codes: array
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int


def private_outcome(l1: SetAssociativeCache, l2: SetAssociativeCache,
                    atd: AuxiliaryTagDirectory, address: int, is_store: bool,
                    core: int = 0) -> int:
    """Send one access through the private caches and the ATD stack and
    return its outcome code (the ATD statistics are left to the back end)."""
    if l1.access_hit(address, core, is_store):
        return L1_HIT
    # Every L1-miss store also reaches the LLC, whatever the L2 holds.
    if l2.access_hit(address, core, is_store) and not is_store:
        return L2_HIT
    position = atd.lookup(address)
    return UNSAMPLED if position is None else ATD_HIT + position


def replay_front_end(trace: Trace, config: CMPConfig, instructions: int, core: int = 0):
    """Replay the first ``instructions`` instructions of ``trace`` (wrapping
    around like the core does) through fresh private caches and ATD.

    Returns the :class:`FrontEnd` and the ``(l1, l2, atd)`` it left behind.
    """
    l1 = SetAssociativeCache(config.l1d, name=f"l1d[{core}]")
    l2 = SetAssociativeCache(config.l2, name=f"l2[{core}]")
    atd = AuxiliaryTagDirectory(config.llc, config.accounting.atd_sampled_sets, core=core)
    typecode = "B" if ATD_HIT + config.llc.associativity <= 256 else "H"
    codes = array(typecode, [L1_HIT]) * instructions
    kinds, addresses, _deps = trace.hot()
    length = len(kinds)
    store = InstrKind.STORE
    # Offsets of the loads and stores (compute instructions are kind 0).
    memory = list(compress(range(length), kinds))
    for start in range(0, instructions, length):
        stop = instructions - start
        for offset in memory:
            if offset >= stop:
                break
            codes[start + offset] = private_outcome(
                l1, l2, atd, addresses[offset], kinds[offset] == store, core)
    result = FrontEnd(codes, l1.hits, l1.misses, l2.hits, l2.misses)
    return result, (l1, l2, atd)


def front_end(trace: Trace, config: CMPConfig, instructions: int) -> FrontEnd:
    """The :class:`FrontEnd` of ``trace`` over ``instructions`` instructions,
    replayed once per process and memoised on the trace."""
    key = ("front_end", _geometry(config.l1d), _geometry(config.l2), _geometry(config.llc),
           config.accounting.atd_sampled_sets, instructions)
    return trace.memo(key, lambda: replay_front_end(trace, config, instructions)[0])


def _geometry(cache) -> tuple[int, int, int]:
    return (cache.size_bytes, cache.associativity, cache.line_bytes)
