"""The memory path's front end: private-cache and ATD outcomes per trace.

The front end replays a trace through the L1, L2 and ATD stack once and the
simulation kernel trusts its outcome codes, so these tests pin the codes to
an independent replay through fresh :class:`SetAssociativeCache` and
:class:`AuxiliaryTagDirectory` objects (their general ``access`` paths, not
the ``access_hit``/``lookup`` calls the front end uses), on seeded random
traces with dependent loads, stores, non-power-of-two set counts and run
lengths that wrap around the trace.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cache.atd import AuxiliaryTagDirectory
from repro.cache.cache import SetAssociativeCache
from repro.config import CacheConfig, CMPConfig
from repro.mem import frontend
from repro.mem.frontend import ATD_HIT, L1_HIT, L2_HIT, UNSAMPLED, front_end, replay_front_end
from repro.sim.system import CMPSystem
from repro.workloads.trace import InstrKind, TraceBuilder


def _config(sets=(24, 48, 96), associativity=(2, 4, 8)) -> CMPConfig:
    """A 2-core CMP whose L1, L2 and LLC set counts are given (not powers of two by default)."""
    l1, l2, llc = (
        CacheConfig(size_bytes=ways * count * 64, associativity=ways, latency=latency,
                    mshrs=mshrs, banks=banks)
        for count, ways, latency, mshrs, banks in zip(
            sets, associativity, (3, 9, 16), (16, 16, 32), (1, 1, 4))
    )
    return CMPConfig(n_cores=2, l1d=l1, l1i=l1, l2=l2, llc=llc)


def _random_trace(seed: int, n: int = 3_000, lines: int = 400):
    rng = random.Random(seed)
    builder = TraceBuilder(name=f"random-{seed}")
    loads: list[int] = []
    for _ in range(n):
        roll = rng.random()
        address = rng.randrange(lines) * 64 + rng.randrange(64)
        if roll < 0.45:
            builder.add_compute()
        elif roll < 0.85:
            depends_on = rng.choice(loads[-16:]) if loads and rng.random() < 0.3 else None
            loads.append(builder.add_load(address, depends_on=depends_on))
        else:
            builder.add_store(address)
    return builder.build()


def _direct_replay(trace, config: CMPConfig, instructions: int, core: int = 0):
    """Expected codes plus the caches and ATD left behind, from the general
    ``access`` paths of fresh objects."""
    l1 = SetAssociativeCache(config.l1d)
    l2 = SetAssociativeCache(config.l2)
    atd = AuxiliaryTagDirectory(config.llc, config.accounting.atd_sampled_sets, core=core)
    codes = []
    for position in range(instructions):
        offset = position % len(trace)
        kind = trace.kinds[offset]
        address = trace.addresses[offset]
        if kind == InstrKind.COMPUTE:
            codes.append(L1_HIT)
            continue
        is_store = kind == InstrKind.STORE
        if l1.access(address, core, is_store).hit:
            codes.append(L1_HIT)
            continue
        if l2.access(address, core, is_store).hit and not is_store:
            codes.append(L2_HIT)
            continue
        stack = atd.stack_for(atd.set_index(address))
        tag = atd.tag(address)
        position_before = stack.index(tag) if stack is not None and tag in stack else -1
        outcome = atd.access(address)
        if outcome is None:
            codes.append(UNSAMPLED)
        else:
            assert outcome == (position_before >= 0)
            codes.append(ATD_HIT + position_before)
    return codes, l1, l2, atd


def _cache_state(cache: SetAssociativeCache):
    return (cache.hits, cache.misses, cache._tags, cache._owners, cache._last_use,
            cache._dirty, cache._set_sizes, cache._use_counter)


def _atd_state(atd: AuxiliaryTagDirectory):
    return (atd.sampled_accesses, atd.sampled_misses, atd.hit_position_histogram,
            [atd.stack_for(index) for index in sorted(atd._sampled_indices)])


CASES = [
    # (seed, trace length, run length, set counts)
    (1, 3_000, 3_000, (24, 48, 96)),
    (2, 2_000, 5_500, (24, 48, 96)),   # wraps around almost three times
    (3, 1_500, 4_000, (32, 64, 128)),  # power-of-two geometry
    (4, 2_500, 2_600, (20, 36, 60)),
]


@pytest.mark.parametrize("seed,length,instructions,sets", CASES)
def test_codes_and_state_match_direct_replay(seed, length, instructions, sets):
    config = _config(sets)
    trace = _random_trace(seed, n=length)
    expected, l1, l2, atd = _direct_replay(trace, config, instructions)
    result, (fe_l1, fe_l2, fe_atd) = replay_front_end(trace, config, instructions)
    assert list(result.codes) == expected
    assert _cache_state(fe_l1) == _cache_state(l1)
    assert _cache_state(fe_l2) == _cache_state(l2)
    # The front end leaves the ATD statistics to the run; the stacks match.
    assert _atd_state(fe_atd)[3] == _atd_state(atd)[3]
    assert fe_atd.sampled_accesses == 0
    assert (result.l1_hits, result.l1_misses, result.l2_hits, result.l2_misses) == (
        l1.hits, l1.misses, l2.hits, l2.misses)
    # Every outcome kind occurs, or the case pins less than it claims.
    assert {L1_HIT, L2_HIT, UNSAMPLED} <= set(expected)
    assert any(code >= ATD_HIT for code in expected)
    assert ATD_HIT - 1 in expected


@pytest.mark.parametrize("seed,length,instructions,sets", CASES)
def test_run_ends_with_the_direct_replay_counters(seed, length, instructions, sets):
    """A private run credits the L1/L2 counts when it ends, and applies the
    ATD statistics during the run (no partitioning policy resets them)."""
    config = _config(sets)
    trace = _random_trace(seed, n=length)
    _codes, l1, l2, atd = _direct_replay(trace, config, instructions, core=1)
    system = CMPSystem(config, {1: trace}, target_instructions=instructions)
    system.run()
    hierarchy = system.hierarchy
    assert (hierarchy.l1[1].hits, hierarchy.l1[1].misses) == (l1.hits, l1.misses)
    assert (hierarchy.l2[1].hits, hierarchy.l2[1].misses) == (l2.hits, l2.misses)
    assert _atd_state(hierarchy.atds[1])[:3] == _atd_state(atd)[:3]


def test_shared_run_counters_per_core():
    config = _config()
    traces = {0: _random_trace(5, n=2_000), 1: _random_trace(6, n=2_500)}
    system = CMPSystem(config, traces, target_instructions=3_000)
    system.run()
    for core, trace in traces.items():
        _codes, l1, l2, atd = _direct_replay(trace, config, 3_000, core=core)
        hierarchy = system.hierarchy
        assert (hierarchy.l1[core].hits, hierarchy.l1[core].misses) == (l1.hits, l1.misses)
        assert (hierarchy.l2[core].hits, hierarchy.l2[core].misses) == (l2.hits, l2.misses)
        assert _atd_state(hierarchy.atds[core])[:3] == _atd_state(atd)[:3]


def test_second_run_of_a_trace_reuses_the_memo(monkeypatch):
    calls = []
    original = frontend.replay_front_end

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(frontend, "replay_front_end", counting)
    config = _config()
    trace = _random_trace(7)
    first = CMPSystem(config, {0: trace}, target_instructions=2_000).run()
    second = CMPSystem(config, {0: trace}, target_instructions=2_000).run()
    assert calls == [2_000]
    assert first.cores[0].cycles == second.cores[0].cycles
    assert front_end(trace, config, 2_000) is front_end(trace, config, 2_000)
    # Another run length or another geometry is a different front end.
    CMPSystem(config, {0: trace}, target_instructions=2_500).run()
    front_end(trace, _config((32, 64, 128)), 2_000)
    assert calls == [2_000, 2_500, 2_000]


def test_pickled_trace_carries_no_front_end():
    config = _config()
    trace = _random_trace(8)
    before = pickle.dumps(trace)
    front_end(trace, config, len(trace))
    after = pickle.dumps(trace)
    assert after == before
    clone = pickle.loads(after)
    assert clone == trace
    assert clone._memo is None


def test_codes_fit_wide_llc_associativity():
    # Hit positions past 251 do not fit a byte; the codes widen instead.
    config = _config(sets=(24, 48, 4), associativity=(2, 4, 256))
    trace = _random_trace(9, n=500, lines=2_000)
    expected, *_ = _direct_replay(trace, config, 500)
    result, _state = replay_front_end(trace, config, 500)
    assert result.codes.typecode == "H"
    assert list(result.codes) == expected
