"""Forking a co-simulation mid-run, and partitioning policies sharing one run.

``CMPSystem.fork`` copies a system inside a hook; both copies must then finish
exactly as an uninterrupted run would, whatever the other does.
``SharedPolicyRun`` builds on it: policies decide together and fork where
their allocations part, and each must end with its solo run's outcome.
"""

from __future__ import annotations

import pytest

from repro.errors import PartitioningError
from repro.experiments.case_study import build_policy
from repro.experiments.common import default_experiment_config
from repro.partitioning import PartitioningPolicy, SharedPolicyRun, shares_runs
from repro.sim.runner import build_trace
from repro.sim.system import CMPSystem

from tests.test_kernel_golden import summarise

_INSTRUCTIONS = 6_000
_INTERVAL = 2_000
_HOOK_CYCLES = 5_000.0
_BENCHMARKS = {
    2: ("twolf_like", "art_like"),
    4: ("omnetpp_like", "libquantum_like", "parser_like", "hmmer_like"),
}


def _system(n_cores, slack, record_events=True):
    traces = {core: build_trace(name, _INSTRUCTIONS, seed=7 + core)
              for core, name in enumerate(_BENCHMARKS[n_cores])}
    return CMPSystem(default_experiment_config(n_cores), traces,
                     target_instructions=_INSTRUCTIONS, interval_instructions=_INTERVAL,
                     batch_cycles=slack, record_events=record_events)


def _fork_at_second_firing(system, on_fork=None):
    """Install a hook that forks ``system`` (only) at its second firing;
    returns the list the fork is appended to.  ``on_fork(fork)`` runs inside
    the hook, while ``system`` is suspended."""
    forks = []
    firings = []

    def hook(now, sim):
        if sim is system:
            firings.append(now)
            if len(firings) == 2:
                fork = sim.fork()
                forks.append(fork)
                if on_fork is not None:
                    on_fork(fork)

    system.add_periodic_hook(_HOOK_CYCLES, hook)
    return forks


def _uninterrupted(n_cores, slack, record_events=True):
    # The same hook period bounds the same batches, so only the fork differs.
    system = _system(n_cores, slack, record_events)
    system.add_periodic_hook(_HOOK_CYCLES, lambda now, sim: None)
    return summarise(system)


@pytest.mark.parametrize("slack", [1024.0, 0.0])
@pytest.mark.parametrize("record_events", [True, False])
@pytest.mark.parametrize("n_cores", [2, 4])
def test_both_copies_finish_as_an_uninterrupted_run(n_cores, record_events, slack):
    expected = _uninterrupted(n_cores, slack, record_events)
    system = _system(n_cores, slack, record_events)
    forks = _fork_at_second_firing(system)
    assert summarise(system) == expected
    assert len(forks) == 1
    assert summarise(forks[0]) == expected
    # Finishing the fork wrote nothing the original holds (summarise on a
    # finished system only digests it again).
    assert summarise(system) == expected


def test_a_fork_fires_the_hooks_still_due_when_it_resumes():
    # The first hook forks at cycle 10000; the second is due at the same
    # cycle and must fire in both copies before either steps again.
    seen = {}

    def observe(now, sim):
        progress = [core.committed_instructions for core in sim.cores.values()]
        seen.setdefault(sim, []).append((now, progress))

    reference = _system(4, 1024.0)
    reference.add_periodic_hook(_HOOK_CYCLES, lambda now, sim: None)
    reference.add_periodic_hook(2_000.0, observe)
    expected = summarise(reference)
    system = _system(4, 1024.0)
    forks = _fork_at_second_firing(system)
    system.add_periodic_hook(2_000.0, observe)
    assert summarise(system) == expected
    assert summarise(forks[0]) == expected
    assert seen[system] == seen[reference]
    resumed = [entry for entry in seen[reference] if entry[0] >= 2 * _HOOK_CYCLES]
    assert seen[forks[0]] == resumed


@pytest.mark.parametrize("slack", [1024.0, 0.0])
def test_a_fork_run_inside_the_hook_leaves_the_original_untouched(slack):
    expected = _uninterrupted(4, slack)
    outcomes = []

    def run_partitioned(fork):
        fork.hierarchy.set_partition({0: 1, 1: 1, 2: 1, 3: 13})
        fork.hierarchy.reset_atd_statistics()
        outcomes.append(summarise(fork))

    system = _system(4, slack)
    forks = _fork_at_second_firing(system, on_fork=run_partitioned)
    assert summarise(system) == expected
    assert outcomes and outcomes[0]["digest"] != expected["digest"]
    # ...and the original's continuation wrote nothing the fork holds.
    assert summarise(forks[0]) == outcomes[0]


def test_fork_shares_read_only_state_and_copies_the_rest():
    system = _system(4, 1024.0)
    checked = []

    def check(fork):
        assert fork.config is system.config
        assert fork._heap == system._heap
        assert fork._heap is not system._heap
        for core_id, original in system.cores.items():
            core = fork.cores[core_id]
            assert core is not original
            assert core.hierarchy is fork.hierarchy
            assert core.trace is original.trace
            assert core._front_end is original._front_end
            assert core.config is original.config
            # Closed intervals are shared; the list and the open interval are not.
            assert core.intervals == original.intervals
            assert core.intervals is not original.intervals
            assert all(mine is theirs for mine, theirs in zip(core.intervals, original.intervals))
            assert core._interval is not original._interval
            assert core._interval.loads == original._interval.loads
            assert all(mine is not theirs for mine, theirs
                       in zip(core._interval.loads, original._interval.loads))
            assert core._commit_window is not original._commit_window
        assert any(core._interval.loads for core in fork.cores.values())
        hierarchy, original = fork.hierarchy, system.hierarchy
        assert hierarchy is not original
        llc = hierarchy.llc
        arrays = ("_tags", "_owners", "_last_use", "_dirty", "_set_sizes", "_core_occupancy")
        for name in arrays:
            assert getattr(llc, name) == getattr(original.llc, name)
            assert getattr(llc, name) is not getattr(original.llc, name)
        # The hierarchy's inlined LLC lookup must see the copy's arrays.
        assert all(mine is theirs for mine, theirs in zip(
            hierarchy._llc_state,
            (llc._tags, llc._last_use, llc._set_sizes, llc._owners, llc._core_occupancy)))
        for core_id in original.active_cores:
            mshrs, counters = hierarchy._miss_state[core_id]
            assert mshrs is hierarchy.l1_mshrs[core_id]
            assert mshrs._outstanding is not original.l1_mshrs[core_id]._outstanding
            assert counters is hierarchy.counters[core_id]
            assert counters == original.counters[core_id]
            assert counters is not original.counters[core_id]
            atd = hierarchy.atds[core_id]
            assert atd.hit_position_histogram is not original.atds[core_id].hit_position_histogram
        for mine, theirs in zip(hierarchy.dram._channels, original.dram._channels):
            assert all(a is not b for a, b in zip(mine.banks, theirs.banks))
            assert all(a is not b for a, b in zip(mine.shadows, theirs.shadows) if a is not None)
        for mine, theirs in zip(hierarchy.ring._request_links + hierarchy.ring._response_links,
                                original.ring._request_links + original.ring._response_links):
            assert mine is not theirs
            assert mine.shadow_next_free is not theirs.shadow_next_free
        checked.append(fork)

    _fork_at_second_firing(system, on_fork=check)
    system.run()
    assert checked


# ---------------------------------------------------------------- shared runs

class _Fixed(PartitioningPolicy):
    """Always chooses the same allocation (given in a fixed key order)."""

    name = "fixed"
    needs_events = False

    def __init__(self, allocation):
        super().__init__(_HOOK_CYCLES)
        self.allocation = allocation

    def allocate(self, context):
        return dict(self.allocation)


def _outcome(result):
    return [(core_id, core.instructions, core.cycles.hex(), len(core.intervals))
            for core_id, core in sorted(result.cores.items())]


def _count_forks(monkeypatch):
    forks = []
    original = CMPSystem.fork

    def counting(self):
        forks.append(self)
        return original(self)

    monkeypatch.setattr(CMPSystem, "fork", counting)
    return forks


def test_equal_allocations_in_any_key_order_share_one_branch(monkeypatch):
    forks = _count_forks(monkeypatch)
    first = _Fixed({0: 4, 1: 12})
    second = _Fixed({1: 12, 0: 4})
    system = _system(2, 1024.0)
    shared = SharedPolicyRun([first, second])
    shared.install(system)
    outcomes = shared.results(system.run())
    assert forks == []
    assert outcomes[first] is outcomes[second]
    assert first.allocations_history
    assert first.allocations_history == [{0: 4, 1: 12}] * len(first.allocations_history)
    assert list(second.allocations_history[0]) == [1, 0]


def test_different_allocations_fork_once_per_extra_group(monkeypatch):
    forks = _count_forks(monkeypatch)
    policies = [_Fixed({0: 4, 1: 12}), _Fixed({0: 12, 1: 4}), _Fixed({1: 4, 0: 12})]
    system = _system(2, 1024.0)
    shared = SharedPolicyRun(policies)
    shared.install(system)
    outcomes = shared.results(system.run())
    assert len(forks) == 1
    assert outcomes[policies[1]] is outcomes[policies[2]]
    assert outcomes[policies[0]] is not outcomes[policies[1]]
    for policy in policies:
        solo = _Fixed(policy.allocation)
        solo_system = _system(2, 1024.0)
        solo.install(solo_system)
        assert _outcome(outcomes[policy]) == _outcome(solo_system.run())


@pytest.mark.parametrize("slack", [1024.0, 0.0])
@pytest.mark.parametrize("names", [("LRU", "UCP", "MCP", "MCP-O"), ("MCP-O", "MCP", "UCP", "LRU")])
def test_each_policy_matches_its_solo_run(names, slack):
    # In the second order LRU, which leaves the LLC as it is, is forked off
    # a run that goes on to partition it.
    config = default_experiment_config(4)

    def system():
        traces = {core: build_trace(name, 12_000, seed=11 + core) for core, name in
                  enumerate(("parser_like", "lbm_like", "libquantum_like", "astar_like"))}
        return CMPSystem(config, traces, target_instructions=12_000,
                         interval_instructions=2_000, batch_cycles=slack)

    policies = [build_policy(name, config, 6_000.0) for name in names]
    shared_system = system()
    shared = SharedPolicyRun(policies)
    shared.install(shared_system)
    outcomes = shared.results(shared_system.run())
    for name, policy in zip(names, policies):
        solo = build_policy(name, config, 6_000.0)
        solo_system = system()
        solo.install(solo_system)
        solo_result = solo_system.run()
        assert policy.allocations_history == solo.allocations_history, name
        assert _outcome(outcomes[policy]) == _outcome(solo_result), name
    # This cell ends with every policy on a branch of its own.
    assert len({id(result) for result in outcomes.values()}) == 4


def test_only_policies_that_keep_the_base_install_share_runs():
    config = default_experiment_config(4)
    sharing = {name: shares_runs(build_policy(name, config))
               for name in ("LRU", "UCP", "ASM", "MCP", "MCP-O")}
    assert sharing == {"LRU": True, "UCP": True, "ASM": False, "MCP": True, "MCP-O": True}


def test_shared_run_needs_one_repartition_interval():
    system = _system(2, 1024.0)
    mixed = SharedPolicyRun([_Fixed({0: 8, 1: 8}), build_policy("LRU", system.config, 9_000.0)])
    with pytest.raises(PartitioningError, match="one interval"):
        mixed.install(system)
