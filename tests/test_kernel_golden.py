"""Golden pin of the simulation kernel's outputs.

The other kernel tests compare the kernel with itself (batched vs exact
interleaving, parallel vs serial) or with an executable reference cache; this
one pins what the kernel *produces* to fixed values.  Each run below is
reduced to a SHA-256 digest over every ``IntervalStats`` field (floats via
``float.hex``), every ``LoadRecord``/``CommitStall`` field, each interval's
CPL estimate at a 32-entry and an unlimited PRB, and the end-of-run hardware
counters (L1/L2/LLC hits and misses, ATD statistics, DRAM reads and row hits,
ring transfers).  The digests live in ``golden/kernel_golden.json`` next to a
readable summary of the same counters, so a mismatch shows which layer
moved.

The same file pins two whole Figure 6 case-study cells: every STP, private
CPI and shared CPI that ``evaluate_workload_throughput`` returns for all five
partitioning policies, at the default co-simulation slack and at exact
interleaving.  In the first cell LRU parts from UCP, MCP and MCP-O at the
first repartition and those three agree to the end; in the second, LRU, UCP,
MCP and MCP-O all choose differently, so each ends on an allocation history
of its own.

A change that is meant to alter simulated results regenerates the file::

    PYTHONPATH=src python tests/test_kernel_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.baselines.asm import install_asm_rotation
from repro.core.cpl import estimate_interval_cpl
from repro.experiments.case_study import build_policy, evaluate_workload_throughput
from repro.experiments.common import default_experiment_config
from repro.sim.runner import build_trace
from repro.sim.system import DEFAULT_BATCH_CYCLES, CMPSystem
from repro.workloads.mixes import Workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "kernel_golden.json"

# Short traces keep the whole pin to a few seconds; the private and the
# exact-interleaving runs target more instructions than their traces hold, so
# the trace wrap-around is pinned too.
_INSTRUCTIONS = 6_000
_INTERVAL = 2_000
_REPARTITION_CYCLES = 6_000.0
_TWO_CORE = ("twolf_like", "art_like")
_FOUR_CORE = ("omnetpp_like", "libquantum_like", "parser_like", "hmmer_like")


def _traces(names, instructions=_INSTRUCTIONS, seed=11):
    return {core: build_trace(name, instructions, seed=seed + core)
            for core, name in enumerate(names)}


def _system(n_cores, traces, target=_INSTRUCTIONS, batch_cycles=DEFAULT_BATCH_CYCLES,
            record_events=True):
    # batch_cycles is always explicit: the pin must not follow REPRO_BATCH_CYCLES.
    return CMPSystem(default_experiment_config(n_cores), traces, target_instructions=target,
                     interval_instructions=_INTERVAL, batch_cycles=batch_cycles,
                     record_events=record_events)


def _shared():
    return _system(2, _traces(_TWO_CORE))


def _shared_asm():
    system = _system(2, _traces(_TWO_CORE))
    install_asm_rotation(system)
    return system


def _private():
    trace = build_trace("omnetpp_like", 4_000, seed=5)
    return _system(2, {1: trace})


def _policy(name):
    def build():
        config = default_experiment_config(4)
        policy = build_policy(name, config, _REPARTITION_CYCLES)
        system = _system(4, _traces(_FOUR_CORE), record_events=policy.needs_events)
        policy.install(system)
        return system
    return build


def _exact_interleaving():
    return _system(2, _traces(("parser_like", "libquantum_like"), instructions=4_500),
                   batch_cycles=0)


RUNS = {
    "shared_2core": _shared,
    "shared_2core_asm": _shared_asm,
    "private": _private,
    "ucp_4core": _policy("UCP"),
    "mcp_4core": _policy("MCP"),
    "exact_interleaving": _exact_interleaving,
}


# name -> (benchmarks, instructions per core, interval, repartition cycles, seed)
_CELLS = {
    "cell_2core": (("twolf_like", "art_like"), 4_000, 1_000, 4_000.0, 3),
    "cell_4core": (("parser_like", "lbm_like", "libquantum_like", "astar_like"),
                   12_000, 2_000, 6_000.0, 11),
}
# ``evaluate_workload_throughput`` reads REPRO_BATCH_CYCLES, so each cell is
# pinned with the variable set to each slack.
_CELL_SLACKS = ("1024", "0")
CELL_PINS = {f"{cell}_slack{slack}": (cell, slack) for cell in _CELLS for slack in _CELL_SLACKS}


def cell_outcome(cell: str) -> dict:
    """Every STP and CPI of one case-study cell (floats via ``float.hex``),
    at whatever ``REPRO_BATCH_CYCLES`` the caller set."""
    benchmarks, instructions, interval, repartition, seed = _CELLS[cell]
    result = evaluate_workload_throughput(
        Workload(cell, benchmarks, "H"), default_experiment_config(len(benchmarks)),
        instructions_per_core=instructions, interval_instructions=interval,
        repartition_interval_cycles=repartition, seed=seed)
    return {
        "stp": {name: value.hex() for name, value in result.stp.items()},
        "private_cpis": {str(core): cpi.hex() for core, cpi in result.private_cpis.items()},
        "shared_cpis": {name: {str(core): cpi.hex() for core, cpi in cpis.items()}
                        for name, cpis in result.shared_cpis.items()},
    }


def _canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[_canonical(key), _canonical(item)] for key, item in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return [[field.name, _canonical(getattr(value, field.name))]
                for field in dataclasses.fields(value)]
    return value


def _counters(system) -> dict:
    hierarchy = system.hierarchy
    counters = {
        "llc": [hierarchy.llc.hits, hierarchy.llc.misses],
        "dram": [hierarchy.dram.reads, hierarchy.dram.row_hit_reads],
        "ring_transfers": hierarchy.ring.transfers,
    }
    for core in hierarchy.active_cores:
        atd = hierarchy.atds[core]
        counters[f"core{core}"] = {
            "l1": [hierarchy.l1[core].hits, hierarchy.l1[core].misses],
            "l2": [hierarchy.l2[core].hits, hierarchy.l2[core].misses],
            "atd": [atd.sampled_accesses, atd.sampled_misses,
                    list(atd.hit_position_histogram)],
        }
    return counters


def summarise(system) -> dict:
    """Run ``system`` and reduce everything it produced to a digest."""
    result = system.run()
    body = []
    events = [0, 0]
    for core_id in sorted(result.cores):
        core = result.cores[core_id]
        body.append([core_id, core.instructions, _canonical(core.cycles)])
        for interval in core.intervals:
            events[0] += len(interval.loads)
            events[1] += len(interval.stalls)
            body.append(_canonical(interval))
            for prb in (32, None):
                body.append(_canonical(estimate_interval_cpl(interval, prb_entries=prb)))
    counters = _counters(system)
    body.append(_canonical(counters))
    body.append(_canonical(result.total_cycles))
    digest = hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()
    return {
        "digest": digest,
        "total_cycles": result.total_cycles.hex(),
        "intervals": sum(len(core.intervals) for core in result.cores.values()),
        "loads": events[0],
        "stalls": events[1],
        "counters": counters,
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_kernel_output_matches_golden(name):
    expected = _golden()[name]
    actual = summarise(RUNS[name]())
    # Compare the readable parts first so a mismatch names the layer.
    for key in ("total_cycles", "intervals", "loads", "stalls", "counters"):
        assert actual[key] == expected[key], key
    assert actual["digest"] == expected["digest"]


@pytest.mark.parametrize("pin", sorted(CELL_PINS))
def test_case_study_cell_matches_golden(pin, monkeypatch):
    cell, slack = CELL_PINS[pin]
    monkeypatch.setenv("REPRO_BATCH_CYCLES", slack)
    assert cell_outcome(cell) == _golden()[pin]


def test_golden_file_covers_every_run():
    assert sorted(_golden()) == sorted([*RUNS, *CELL_PINS])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_kernel_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    # One run per line keeps a regenerated file's diff readable.
    pins = {name: summarise(build()) for name, build in RUNS.items()}
    for pin, (cell, slack) in CELL_PINS.items():
        os.environ["REPRO_BATCH_CYCLES"] = slack
        pins[pin] = cell_outcome(cell)
    lines = [f"{json.dumps(name)}: {json.dumps(pin, sort_keys=True)}"
             for name, pin in sorted(pins.items())]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
