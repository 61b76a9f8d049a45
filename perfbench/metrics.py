"""The benchmark's metric declarations, the statistics helpers every
workload reports through, and the report one run prints.

``BENCHMARK.json`` at the root of the checkout declares the workloads and
each metric's name, unit, better direction and (end-to-end) bound;
:func:`declared` reads it.  :data:`DESCRIPTIONS` adds, per metric name, how
it is measured from outside the code and -- for a per-layer metric -- which
end-to-end metric, on which workload, a change to its layer should move.

End-to-end metrics are measured with tracing off, and every workload
reports every one of them, so each is defined for all three workloads and
is never 0.  Per-layer metrics come from a separate traced run; a layer a
workload bypasses reads 0 there (the prediction for that workload is "no
change").  Layer times that only some workloads exercise are reported as
shares of a time every workload that uses the layer has, so no time metric
is a constant 0.  A share also moves when its denominator does: where that
can happen, the description says so.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "BENCHMARK_JSON",
    "BROKER_LAYERS",
    "DESCRIPTIONS",
    "Declarations",
    "InsufficientSamples",
    "Metric",
    "Report",
    "Summary",
    "declared",
    "layer_value",
    "median",
    "ratio",
    "samples_needed",
    "summarize",
    "tail",
]

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    ``bound`` (end-to-end only) is the share of the parent's median by which
    the metric may worsen before a change counts as a regression.  ``moves``
    names the end-to-end metric, and the workload, that a change to this
    layer should move; ``source`` says how it is measured from outside the
    code.
    """

    name: str
    unit: str
    better: str
    source: str
    moves: str = ""
    bound: float | None = None


_SWEEPS = "cells_per_s @ sweep-accuracy, sweep-partition"
_INVARIANT = "invariant for speed-only changes; moves with the model metrics"
# Near-repeat latency is printed by every workload but not gated.
_NEAR = "near-repeat latency (printed near_p50_ms) @ all"
_CELL_SHARE = ("; a share of experiments.cell_s, so it also rises when the "
               "rest of the cell gets faster: read it beside experiments.cell_s")
_COLD_SHARE = ("; a share of the cold p50, so it also rises when the rest of "
               "the cold request gets faster")

# name -> (how it is measured, what a change to its layer should move).
DESCRIPTIONS = {
    # ------------------------------------------------------------ end-to-end
    "setup_s": (
        "median of the SETUP_REPEATS cold starts of a run: sweeps, "
        "interpreter start until repro is imported and the nproc process "
        "pool has answered; broker-mix, serve and worker start until the "
        "worker is registered in /stats", ""),
    "peak_rss_mb": (
        "summed VmHWM of the benchmark process and every process it started "
        "(pool workers, serve, worker and its pool)", ""),
    "cells_per_s": (
        "sweeps: median over cold sweeps of cells / sweep wall time; "
        "broker-mix: cells the worker completed (/stats) / measured window, "
        "so it depends on client A's request mix", ""),
    "cold_p50_ms": (
        "median latency of a request no cache can answer: sweeps, one cold "
        "run_scenario of the whole spec; broker-mix, a fresh-seed 2-core "
        "scenario from POST to fetched answer", ""),
    # ------------------------------------------------------------- per-layer
    "workloads.trace_gen_s": (
        "generate_trace calls (build_trace misses)",
        "cells_per_s @ sweep-accuracy (little in broker-mix)"),
    "workloads.traces_generated": (
        "generate_trace call count",
        "cells_per_s @ sweep-accuracy (little in broker-mix)"),
    "sim.shared_run_s": (
        "self time in run_shared_mode (the kernel; nested layer spans such as "
        "allocate and estimate excluded)",
        "cells_per_s @ sweep-partition (5 policy runs per cell), sweep-accuracy"),
    "sim.private_run_s": ("self time in run_private_mode", _SWEEPS),
    "sim.runs": ("CMPSystem.run calls", _INVARIANT),
    "sim.instructions": (
        "committed instructions read after each CMPSystem.run", _INVARIANT),
    "sim.ns_per_instruction": (
        "(shared + private self time) / committed instructions", _SWEEPS),
    "cpu.intervals": (
        "estimate intervals, read after each CMPSystem.run", _INVARIANT),
    "cache.l1_misses": ("L1D misses, read after each CMPSystem.run", _INVARIANT),
    "cache.l2_misses": ("L2 misses, read after each CMPSystem.run", _INVARIANT),
    "cache.llc_accesses": (
        "LLC hits + misses, read after each CMPSystem.run", _INVARIANT),
    "cache.llc_misses": ("LLC misses, read after each CMPSystem.run", _INVARIANT),
    "cache.atd_sampled_accesses": (
        "ATD sampled accesses, read before each statistics reset and after "
        "each run", _INVARIANT),
    "interconnect.ring_transfers": (
        "ring transfers, read after each CMPSystem.run", _INVARIANT),
    "dram.reads": ("memory-controller reads, read after each CMPSystem.run",
                   _INVARIANT),
    "dram.row_hit_ratio": ("row-hit reads / reads", _INVARIANT),
    "core.estimate_s": (
        "self time in GDP/GDP-O .estimate (MCP's online estimates included)",
        "cells_per_s @ sweep-accuracy"),
    "core.cpl_replay_s": (
        "CPLEstimator.replay (memo misses of estimate_interval_cpl)",
        "cells_per_s @ sweep-accuracy, and @ sweep-partition via MCP"),
    "core.cpl_replays": (
        "CPLEstimator.replay calls",
        "cells_per_s @ sweep-accuracy, and @ sweep-partition via MCP"),
    "core.cpl_memo_hit_ratio": (
        "1 - replays / estimate_interval_cpl calls",
        "cells_per_s @ sweep-accuracy, and @ sweep-partition via MCP"),
    "baselines.estimate_s": (
        "self time in ITCA/PTCA/ASM .estimate (ASM-driven partitioning "
        "included)", "cells_per_s @ sweep-accuracy"),
    "partitioning.allocate_share": (
        "self time in every policy's allocate / experiments.cell_s (0 where "
        "no policy runs)", "cells_per_s @ sweep-partition" + _CELL_SHARE),
    "partitioning.repartitions": (
        "allocate calls", "cells_per_s @ sweep-partition"),
    "cache.miss_curve_share": (
        "time in MemoryHierarchy.miss_curve / experiments.cell_s",
        "cells_per_s @ sweep-partition" + _CELL_SHARE),
    "experiments.run_parallel_s": (
        "wall time in run_parallel",
        "cells_per_s @ sweep-partition (tail), sweep-accuracy"),
    "experiments.cell_s": (
        "summed evaluator time in the pool workers",
        "cells_per_s @ sweep-partition (tail), sweep-accuracy"),
    "experiments.pool_idle_ratio": (
        "1 - cell_s / (run_parallel_s x pool width)",
        "cells_per_s @ sweep-partition (tail), sweep-accuracy"),
    "experiments.retries": (
        "supervisor_stats() retries in every traced process",
        "failed/attempted @ all"),
    "experiments.pool_rebuilds": (
        "supervisor_stats() pool rebuilds in every traced process",
        "failed/attempted @ all"),
    "result_cache.get_s": ("ResultCache.get", _NEAR),
    "result_cache.put_s": ("ResultCache.put", "cells_per_s @ sweeps (cold puts)"),
    "result_cache.hit_ratio": ("ResultCache.get hits / gets", _NEAR),
    "scenarios.expand_s": (
        "expand_cells", _NEAR + ", cells_per_s @ sweeps"),
    "scenarios.assemble_s": (
        "assemble_result + ScenarioResult.to_dict",
        _NEAR + ", cells_per_s @ sweeps"),
    "scenarios.query_cells_ratio": (
        "evaluated / total cells over the query answers",
        "query latency @ broker-mix"),
    "service.submit_share": (
        "p50 of the hit POST / p50 of the hit POST + GET-result; the GET is "
        "the rest",
        "hit latency @ broker-mix; also rises when the GET-result gets faster"),
    "service.queue_share": (
        "p50 of SSE queued -> first lease_granted / cold p50",
        "cold_p50_ms @ broker-mix" + _COLD_SHARE),
    "service.run_share": (
        "p50 of first lease_granted -> terminal event / cold p50",
        "cold_p50_ms @ broker-mix" + _COLD_SHARE),
    "service.scenario_cache_hit_ratio": (
        "/stats scenario_cache hits / (hits + misses)",
        "hit latency @ broker-mix"),
    "service.busy_ratio": (
        "/stats worker_utilisation at the end of the traced part",
        "cold_p50_ms @ broker-mix"),
    "service.cells_per_lease": (
        "/stats worker cells_done / leases_total", "cold_p50_ms @ broker-mix"),
    "service.leases_expired": (
        "/stats leases expired_total", "failed/attempted @ broker-mix"),
    "service.requeued_cells": (
        "/stats leases requeued_cells_total", "failed/attempted @ broker-mix"),
    "service.remote_cells": (
        "/stats remote worker cells_done",
        "invariant for the fixed traced script"),
    "loadgen.late_p90_share": (
        "p90 of how late client B sent each request / its send interval",
        "validity of the hit latencies"),
    "trace.overhead_ratio": (
        "traced / untraced wall of the same work - 1",
        "validity of every per-layer number"),
    "metrics.gdp_ipc_rms": (
        "mean per-benchmark RMS of GDP's per-interval IPC error vs private "
        "mode (Eq. 8); 0 where no accuracy scenario runs",
        "model changes only; bit-identical for speed-only changes"),
    "metrics.mcp_stp_gain": (
        "mean STP under MCP / mean STP under ASM-driven partitioning - 1; 0 "
        "where no throughput scenario runs",
        "model changes only; bit-identical for speed-only changes"),
}

# Per-layer metrics only the broker-mix workload exercises (0 on the sweeps).
BROKER_LAYERS = (
    "scenarios.query_cells_ratio",
    "service.submit_share",
    "service.queue_share",
    "service.run_share",
    "service.scenario_cache_hit_ratio",
    "service.busy_ratio",
    "service.cells_per_lease",
    "service.leases_expired",
    "service.requeued_cells",
    "service.remote_cells",
    "loadgen.late_p90_share",
)


@dataclass(frozen=True)
class Declarations:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]


def _metric(entry: dict) -> Metric:
    source, moves = DESCRIPTIONS[entry["name"]]
    return Metric(entry["name"], entry["unit"], entry["better"], source, moves,
                  entry.get("bound"))


@functools.cache
def declared() -> Declarations:
    """The workloads and metrics ``BENCHMARK.json`` declares, described.

    Raises ``KeyError`` for a declared metric :data:`DESCRIPTIONS` does not
    describe.
    """
    document = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return Declarations(
        run_seconds=document["run_seconds"],
        workloads=tuple(entry["name"] for entry in document["workloads"]),
        end_to_end=tuple(_metric(entry) for entry in document["end_to_end"]),
        per_layer=tuple(_metric(entry) for entry in document["per_layer"]),
    )


# ------------------------------------------------------------------ statistics


@dataclass(frozen=True)
class Summary:
    """A reported statistic with the sample count it rests on.

    ``beyond`` counts the samples above the reported rank (0 for a median).
    """

    value: float
    samples: int
    beyond: int = 0


class InsufficientSamples(ValueError):
    """A statistic was asked of too few samples."""


def median(samples) -> Summary:
    values = list(samples)
    if not values:
        raise InsufficientSamples("a median needs at least one sample")
    return Summary(statistics.median(values), len(values))


def tail(samples, quantile: float, min_beyond: int = 10) -> Summary:
    """Nearest-rank ``quantile`` that keeps ``min_beyond`` samples above it.

    Raises :class:`InsufficientSamples` when the rank leaves fewer than
    ``min_beyond`` samples beyond it, so no tail is reported from a handful
    of points.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile!r}")
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(1, math.ceil(quantile * count))
    beyond = count - rank
    if count == 0 or beyond < min_beyond:
        raise InsufficientSamples(
            f"p{quantile * 100:g} of {count} samples leaves {max(beyond, 0)} "
            f"beyond it; {min_beyond} needed")
    return Summary(ordered[rank - 1], count, beyond)


def summarize(samples, quantile: float = 0.5) -> Summary:
    """The median (``quantile`` 0.5) or the tail at ``quantile``."""
    return median(samples) if quantile == 0.5 else tail(samples, quantile)


def layer_value(samples, quantile: float = 0.5) -> float:
    """:func:`summarize` for a per-layer figure, which may rest on a few
    samples: the largest sample when too few lie beyond the tail, 0 when
    there are none."""
    values = list(samples)
    try:
        return summarize(values, quantile).value
    except InsufficientSamples:
        return max(values, default=0.0)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no whole (a layer the workload
    bypasses)."""
    return part / whole if whole else 0.0


def samples_needed(quantile: float, min_beyond: int = 10) -> int:
    """The smallest sample count for which :func:`tail` succeeds."""
    count = min_beyond + 1
    while count - max(1, math.ceil(quantile * count)) < min_beyond:
        count += 1
    return count


# ---------------------------------------------------------------------- report


@dataclass
class Report:
    """Everything one run measured and checked, and how it is printed."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    knobs: dict = field(default_factory=dict)
    end_to_end: dict = field(default_factory=dict)   # name -> Summary
    per_layer: dict = field(default_factory=dict)    # name -> float
    # Client-observed figures that are printed but not gated:
    # name -> (Summary or None, unit, sample count).
    figures: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)        # name -> [count, total, self]
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def figure(self, name: str, unit: str, values, quantile: float = 0.5) -> None:
        values = list(values)
        try:
            summary = summarize(values, quantile)
        except InsufficientSamples:
            summary = None
        self.figures[name] = (summary, unit, len(values))

    def _declared(self) -> tuple[Metric, ...]:
        return declared().per_layer if self.trace else declared().end_to_end

    def result(self) -> dict:
        """The JSON line: every declared metric of this mode, as measured."""
        metrics = {}
        for metric in self._declared():
            value = (self.per_layer[metric.name] if self.trace
                     else self.end_to_end[metric.name].value)
            if not math.isfinite(value):
                raise ValueError(f"{metric.name} is not a finite number: {value!r}")
            metrics[metric.name] = {"value": value, "unit": metric.unit}
        return {"correct": self.failed == 0, "attempted": max(1, self.attempted),
                "failed": self.failed, "metrics": metrics}

    def render(self) -> str:
        lines = [f"== {self.workload}  seed={self.seed}  seconds={self.seconds}  "
                 f"trace={int(self.trace)}",
                 "knobs: " + "  ".join(f"{key}={value}" for key, value in self.knobs.items())]
        if self.trace:
            lines.append("per-layer metrics (traced run):")
            for metric in self._declared():
                lines.append(f"  {metric.name:<34} {self.per_layer[metric.name]:>14.6g} "
                             f"{metric.unit}")
            if self.spans:
                lines.append("spans (calls, total s, self s; per sweep or per traced part):")
                ranked = sorted(self.spans.items(), key=lambda item: -item[1][2])
                for name, (count, total, own) in ranked:
                    lines.append(f"  {name:<34} {count:>10.1f} {total:>12.4f} {own:>12.4f}")
        else:
            lines.append("end-to-end metrics (tracing off):")
            for metric in self._declared():
                lines.append(_line(metric.name, self.end_to_end[metric.name], metric.unit))
        if self.figures:
            lines.append("also measured (printed, not gated):")
            for name, (summary, unit, count) in self.figures.items():
                if summary is None:
                    lines.append(f"  {name:<34} {'n/a':>14} {unit:<6} (only {count} samples)")
                else:
                    lines.append(_line(name, summary, unit))
        lines.append(f"error_ratio: {ratio(self.failed, self.attempted):g} ({self.failed} "
                     f"failed of {self.attempted} checked operations)")
        lines.extend(f"  FAILED: {failure}" for failure in self.failures[:20])
        return "\n".join(lines)


def _line(name: str, summary: Summary, unit: str) -> str:
    beyond = f", {summary.beyond} beyond" if summary.beyond else ""
    return (f"  {name:<34} {summary.value:>14.6g} {unit:<6} "
            f"(n={summary.samples}{beyond})")
