"""The in-process sweep workloads: ``sweep-accuracy`` and ``sweep-partition``.

A run repeats one cycle until ``--seconds`` have passed, and at least
``MIN_CYCLES`` times:

1. point ``REPRO_CACHE_DIR`` at a fresh, empty directory, start a fresh
   ``nproc`` process pool (no worker may hold a trace generated for an
   earlier sweep), and time one cold ``run_scenario`` of the whole spec
   plus its ``to_dict`` -- the request a user of the engine makes;
2. time ``NEAR_PER_CYCLE`` near-repeats against the now-warm cell cache:
   the spec renamed, so every cell is answered from the cache.

The near-repeat latencies are printed, not gated: on a shared host they
moved by up to 1.8x between runs of one seed, far beyond any bound.

Checks: every cold payload equals the run's first; every near-repeat's
tables equal the cold tables; after the timed region the two cheapest cells
are recomputed in this process, outside the pool and the cache, and must
equal the pool's outcomes.  A traced run alternates untraced and traced
cycles -- so the first check also compares traced with untraced payloads --
reports the per-layer numbers per traced sweep, and checks that every
traced sweep reads the same simulator counters.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import time
from dataclasses import replace
from pathlib import Path

from common import PYTHON, ROOT, child_environment, rows_match, tree_peak_rss_mb, warm_pool
from metrics import BROKER_LAYERS, Report, Summary, median, samples_needed
from tracing import Tracer, layer_metrics, load, merge

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
MIN_CYCLES = 3
NEAR_PER_CYCLE = 21


def accuracy_spec(seed: int, tiny: bool = False):
    """Figures 3-5 shape: every technique, Figure 5 components on."""
    from repro.scenarios import MachineSpec, ScenarioSpec, WorkloadMixSpec

    return ScenarioSpec(
        name="perfbench-accuracy",
        kind="accuracy",
        machine=MachineSpec(core_counts=(2, 4) if tiny else (2, 4, 8)),
        workloads=WorkloadMixSpec(groups=("H", "L") if tiny else ("H", "M", "L"),
                                  per_group=1 if tiny else 2, seed=seed),
        techniques=("ITCA", "PTCA", "ASM", "GDP", "GDP-O"),
        instructions_per_core=2_000 if tiny else 16_000,
        interval_instructions=500 if tiny else 4_000,
        collect_components=True,
    )


def partition_spec(seed: int, tiny: bool = False):
    """Figure 6 shape: the five policies, repartitioning every 20000 cycles.

    Three workloads per group: with fewer, which benchmarks a seed draws
    moves the sweep's cost more than the code under test does.
    """
    from repro.scenarios import MachineSpec, ScenarioSpec, WorkloadMixSpec

    return ScenarioSpec(
        name="perfbench-partition",
        kind="throughput",
        machine=MachineSpec(core_counts=(2, 4) if tiny else (4, 8)),
        workloads=WorkloadMixSpec(groups=("H", "L") if tiny else ("H", "M", "L"),
                                  per_group=1 if tiny else 3, seed=seed),
        policies=("LRU", "UCP", "ASM", "MCP", "MCP-O"),
        instructions_per_core=3_000 if tiny else 12_000,
        interval_instructions=1_000 if tiny else 3_000,
        repartition_interval_cycles=4_000.0 if tiny else 20_000.0,
    )


SPECS = {"sweep-accuracy": accuracy_spec, "sweep-partition": partition_spec}


def near_variants(spec):
    """Endless near-repeats of ``spec``: the spec renamed, so every cell is
    answered from the cell cache.  One shape only -- cutting groups or core
    counts gives repeats of several sizes, and the median of the mixture
    jumps between them from run to run."""
    index = 0
    while True:
        yield replace(spec, name=f"{spec.name}-again-{index}")
        index += 1


def measure_setup(jobs: int) -> list[float]:
    """Seconds from interpreter start until the scenario engine is imported
    and a ``jobs``-wide pool has answered, ``SETUP_REPEATS`` times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        with subprocess.Popen(
                [PYTHON, str(HERE / "launch.py"), "--ready-pool", str(jobs)],
                cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE,
                text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - began
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"the set-up probe failed (exit {code}, printed {line!r})")
        samples.append(elapsed)
    return samples


def model_metrics(kind: str, result) -> tuple[float, float]:
    """(GDP's mean per-benchmark IPC RMS error, MCP's STP gain over ASM)."""
    from repro.experiments.accuracy import summarize_rms
    from repro.experiments.case_study import average_throughput

    outcomes = [outcome for outcomes in result.cells.values() for outcome in outcomes]
    if kind == "accuracy":
        return summarize_rms(outcomes, "GDP"), 0.0
    return 0.0, average_throughput(outcomes, "MCP") / average_throughput(outcomes, "ASM") - 1.0


def check_serially(report: Report, spec, cells, result) -> None:
    """Recompute the two cheapest cells here, outside the pool and the
    cache; each must equal the pool's outcome for it."""
    from repro.scenarios.runner import EVALUATORS

    evaluator, cost = EVALUATORS[spec.kind]
    position, seen = {}, {}
    for index, cell in enumerate(cells):
        position[index] = seen.get(cell.key, 0)
        seen[cell.key] = position[index] + 1
    cheapest = sorted(range(len(cells)), key=lambda index: (cost(cells[index].task), index))
    for index in cheapest[:2]:
        cell = cells[index]
        report.check(evaluator(*cell.task) == result.cells[cell.key][position[index]],
                     f"cell {index} recomputed serially differs from the pool's outcome")


def run(workload: str, seed: int, seconds: int, trace: bool, scratch,
        tiny: bool = False) -> Report:
    from repro.experiments.common import resolve_jobs, shutdown_executor
    from repro.experiments.supervisor import supervisor_stats
    from repro.scenarios import expand_cells, run_scenario
    from repro.sim.result_cache import cache_enabled_from_env
    from repro.sim.runner import build_trace
    from repro.sim.system import resolved_batch_cycles

    spec = SPECS[workload](seed, tiny)
    jobs = resolve_jobs(None)
    cells = expand_cells(spec)
    report = Report(workload, seed, seconds, trace)
    report.knobs.update(batch_cycles=resolved_batch_cycles(), jobs=jobs,
                        cell_cache="on" if cache_enabled_from_env() else "off",
                        cells_per_sweep=len(cells))
    variants = near_variants(spec)
    setup = [] if trace else measure_setup(jobs)
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    near_ms: list[float] = []
    rss: list[float] = []
    traced: list[dict] = []
    first = None

    def near_repeat() -> None:
        variant = next(variants)
        began = time.perf_counter()
        tables = run_scenario(variant, jobs=jobs).to_dict()["tables"]
        near_ms.append((time.perf_counter() - began) * 1000.0)
        report.check(rows_match(tables, first[1]["tables"]),
                     f"near-repeat {variant.name} differs from the cold tables")

    def enough() -> bool:
        if trace:
            return len(walls[False]) >= 2 and len(walls[True]) >= 2
        return len(walls[False]) >= MIN_CYCLES

    deadline = time.monotonic() + seconds
    try:
        cycle = 0
        while cycle == 0 or time.monotonic() < deadline or not enough():
            tracing = trace and cycle % 2 == 1
            os.environ["REPRO_CACHE_DIR"] = str(scratch.fresh("cells"))
            build_trace.cache_clear()
            if tracing:
                tracer.reset()
                tracer.directory = scratch.fresh("spans")
                tracer.install()
                supervised = supervisor_stats().as_dict()
            try:
                warm_pool(jobs)
                began = time.perf_counter()
                result = run_scenario(spec, jobs=jobs)
                payload = result.to_dict()
                walls[tracing].append(time.perf_counter() - began)
                if first is None:
                    first = (result, payload)
                report.check(payload == first[1], f"cold sweep {cycle} differs from the first")
                for _ in range(NEAR_PER_CYCLE):
                    near_repeat()
                rss.append(tree_peak_rss_mb())
            finally:
                shutdown_executor()
                if tracing:
                    tracer.uninstall()
                    now = supervisor_stats().as_dict()
                    snapshot = merge([tracer.snapshot(), *load(tracer.directory)])
                    for field in ("retries", "pool_rebuilds"):
                        snapshot["counters"][f"experiments.{field}"] = now[field] - supervised[field]
                    traced.append(snapshot)
            cycle += 1
        if not trace:
            while len(near_ms) < samples_needed(0.9):
                near_repeat()
        check_serially(report, spec, cells, first[0])
    finally:
        shutdown_executor()
        if tracer is not None:
            tracer.uninstall()

    gdp, gain = model_metrics(spec.kind, first[0])
    if trace:
        counters = traced[0]["counters"]
        for number, snapshot in enumerate(traced[1:], start=2):
            report.check(snapshot["counters"] == counters,
                         f"traced sweep {number} read other counters than the first")
        totals = merge(traced)
        report.per_layer.update(layer_metrics(totals, pool_width=jobs, per=len(traced)))
        report.per_layer.update(dict.fromkeys(BROKER_LAYERS, 0.0))
        report.per_layer.update({
            "trace.overhead_ratio": (statistics.median(walls[True])
                                     / statistics.median(walls[False]) - 1.0),
            "metrics.gdp_ipc_rms": gdp,
            "metrics.mcp_stp_gain": gain,
        })
        report.spans = {name: [value / len(traced) for value in entry]
                        for name, entry in totals["spans"].items()}
    else:
        report.end_to_end.update({
            "setup_s": median(setup),
            "peak_rss_mb": Summary(max(rss), len(rss)),
            "cells_per_s": median(len(cells) / wall for wall in walls[False]),
            "cold_p50_ms": median(wall * 1000.0 for wall in walls[False]),
        })
        report.figure("near_p50_ms", "ms", near_ms)
        report.figure("near_p90_ms", "ms", near_ms, 0.9)
        report.figures["metrics.gdp_ipc_rms"] = (Summary(gdp, 1), "ipc", 1)
        report.figures["metrics.mcp_stp_gain"] = (Summary(gain, 1), "ratio", 1)
    return report
