"""Layer tracing from outside the code under test.

A :class:`Tracer` times the layers of the ``repro`` package by wrapping
public functions and methods, and reads public counters after every
simulation run.  Nothing under ``src/`` changes: :meth:`Tracer.install`
points every reference to a wrapped function held by a loaded ``repro``
module at its wrapper -- module attributes, so ``from x import f`` copies
follow, and module-level tables such as the scenario runner's evaluator
map -- and :meth:`Tracer.uninstall` puts the originals back.

Wrappers keep ``__module__`` and ``__qualname__`` (``functools.wraps``):
the result cache names functions by qualified name in its digests, and
pickling sends functions by that name, so neither sees a difference.  Spans
are taken at per-run and coarser boundaries only; the memory path, inlined
into the step loop, is split by the counters read after each
``CMPSystem.run``.

Spans aggregate in memory per name as ``[count, total, self]`` seconds,
where self time is the span minus the spans nested in it on the same
thread.  Each process writes its aggregate to
``<directory>/<pid>-<token>.json``: a pool worker forked after
:meth:`Tracer.install` after every cell it evaluates, any other process
when it calls :meth:`Tracer.flush`.  :func:`load` reads a directory back
and :func:`merge` sums aggregates.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import uuid
from pathlib import Path

from metrics import ratio

__all__ = ["Tracer", "layer_metrics", "load", "merge", "rebind"]

# Counters summed across processes and reported as they are.
_COUNTERS = (
    "sim.runs", "sim.instructions", "cpu.intervals", "cache.l1_misses",
    "cache.l2_misses", "cache.llc_accesses", "cache.llc_misses",
    "cache.atd_sampled_accesses", "interconnect.ring_transfers", "dram.reads",
    "experiments.retries", "experiments.pool_rebuilds",
)


def _swap(value, original, replacement):
    if value is original:
        return replacement
    if type(value) is tuple and any(item is original for item in value):
        return tuple(replacement if item is original else item for item in value)
    return value


def rebind(original, replacement) -> int:
    """Point every reference to ``original`` held by a loaded ``repro``
    module at ``replacement``: module attributes, and module-level dict
    values (bare or inside a tuple).  Returns how many were moved."""
    moved = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            swapped = _swap(value, original, replacement)
            if swapped is not value:
                namespace[attr] = swapped
                moved += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    swapped = _swap(item, original, replacement)
                    if swapped is not item:
                        value[key] = swapped
                        moved += 1
    return moved


def _subclasses(cls) -> list[type]:
    found, stack = [], list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        found.append(sub)
        stack.extend(sub.__subclasses__())
    return found


class Tracer:
    """Span and counter aggregates of one process, and the wrappers that
    feed them.  ``clock`` is injectable for tests."""

    def __init__(self, directory=None, clock=time.perf_counter) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.clock = clock
        self.installed = False
        self.forked = False
        self._undo: list = []
        self._lock = threading.Lock()
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        """Forget every aggregate (installed wrappers stay installed)."""
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._token = uuid.uuid4().hex[:12]

    def _after_fork(self) -> None:
        # A forked pool worker inherits the parent's aggregates and open
        # spans; it reports only its own cells, under its own file name.
        self._lock = threading.Lock()
        self.reset()
        self.forked = True

    # ------------------------------------------------------------ recording

    def enter(self) -> float:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        return self.clock()

    def exit(self, name: str, start: float) -> None:
        duration = self.clock() - start
        stack = self._local.stack
        nested = stack.pop()
        if stack:
            stack[-1] += duration
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - nested

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self, extra: dict | None = None) -> dict:
        with self._lock:
            spans = {name: list(entry) for name, entry in self.spans.items()}
            counters = dict(self.counters)
        counters.update(extra or {})
        return {"spans": spans, "counters": counters}

    def flush(self, extra: dict | None = None) -> None:
        """Write this process's aggregate file (replaced atomically)."""
        if self.directory is None:
            return
        path = self.directory / f"{os.getpid()}-{self._token}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.snapshot(extra)), encoding="utf-8")
        os.replace(temporary, path)

    # -------------------------------------------------------------- wrapping

    def _timed(self, original, name: str, after=None, flush: bool = False):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = tracer.enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(name, start)
            if after is not None:
                after(args, result)
            if flush and tracer.forked:
                tracer.flush()
            return result

        return wrapper

    @staticmethod
    def _counted(original, before=None, after=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _replace_function(self, original, wrapper) -> None:
        rebind(original, wrapper)
        self._undo.append(lambda: rebind(wrapper, original))

    def _replace_method(self, cls, attr: str, make) -> None:
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary (a no-op when already installed)."""
        if self.installed:
            return
        import repro.partitioning  # noqa: F401 -- loads every policy class
        import repro.scenarios  # noqa: F401 -- runner, composite and query drivers
        from repro.baselines.asm import ASMAccounting
        from repro.baselines.itca import ITCAAccounting
        from repro.baselines.ptca import PTCAAccounting
        from repro.cache.atd import AuxiliaryTagDirectory
        from repro.core import cpl
        from repro.core.gdp import GDPAccounting
        from repro.experiments import common
        from repro.mem.hierarchy import MemoryHierarchy
        from repro.partitioning.base import PartitioningPolicy
        from repro.scenarios import runner
        from repro.sim import runner as sim_runner
        from repro.sim.result_cache import ResultCache
        from repro.sim.system import CMPSystem
        from repro.workloads import synthetic

        for original, name in (
            (synthetic.generate_trace, "workloads.trace_gen"),
            (sim_runner.run_shared_mode, "sim.shared_run"),
            (sim_runner.run_private_mode, "sim.private_run"),
            (common.run_parallel, "experiments.run_parallel"),
            (runner.expand_cells, "scenarios.expand"),
            (runner.assemble_result, "scenarios.assemble"),
        ):
            self._replace_function(original, self._timed(original, name))
        for evaluator, _cost in list(runner.EVALUATORS.values()):
            self._replace_function(
                evaluator, self._timed(evaluator, "experiments.cell", flush=True))
        self._replace_function(cpl.estimate_interval_cpl, self._counted(
            cpl.estimate_interval_cpl,
            after=lambda _args, _result: self.count("core.cpl_calls")))

        methods = [
            (cpl.CPLEstimator, "replay", "core.cpl_replay"),
            (GDPAccounting, "estimate", "core.estimate"),
            (ITCAAccounting, "estimate", "baselines.estimate"),
            (PTCAAccounting, "estimate", "baselines.estimate"),
            (ASMAccounting, "estimate", "baselines.estimate"),
            (MemoryHierarchy, "miss_curve", "cache.miss_curve"),
            (runner.ScenarioResult, "to_dict", "scenarios.assemble"),
            (ResultCache, "put", "result_cache.put"),
        ]
        methods += [(policy, "allocate", "partitioning.allocate")
                    for policy in _subclasses(PartitioningPolicy)
                    if "allocate" in vars(policy)]
        for cls, attr, name in methods:
            self._replace_method(
                cls, attr, lambda original, name=name: self._timed(original, name))
        self._replace_method(ResultCache, "get", lambda original: self._timed(
            original, "result_cache.get", after=self._after_cache_get))
        self._replace_method(CMPSystem, "run", lambda original: self._counted(
            original, after=self._after_system_run))
        self._replace_method(
            AuxiliaryTagDirectory, "reset_statistics",
            lambda original: self._counted(original, before=self._before_atd_reset))
        self.installed = True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.installed = False

    # -------------------------------------------------------------- counters

    def _after_cache_get(self, _args, result) -> None:
        self.count("result_cache.gets")
        if result[0]:
            self.count("result_cache.hits")

    def _before_atd_reset(self, args) -> None:
        # Partitioning policies reset the ATD statistics at every
        # repartition; take the accesses before they are cleared.
        self.count("cache.atd_sampled_accesses", args[0].sampled_accesses)

    def _after_system_run(self, args, result) -> None:
        hierarchy = args[0].hierarchy
        cores = list(result.cores.values())
        values = {
            "sim.runs": 1,
            "sim.instructions": sum(core.instructions for core in cores),
            "cpu.intervals": sum(len(core.intervals) for core in cores),
            "cache.l1_misses": sum(cache.misses for cache in hierarchy.l1.values()),
            "cache.l2_misses": sum(cache.misses for cache in hierarchy.l2.values()),
            "cache.llc_accesses": hierarchy.llc.hits + hierarchy.llc.misses,
            "cache.llc_misses": hierarchy.llc.misses,
            "cache.atd_sampled_accesses": sum(
                atd.sampled_accesses for atd in hierarchy.atds.values()),
            "interconnect.ring_transfers": hierarchy.ring.transfers,
            "dram.reads": hierarchy.dram.reads,
            "dram.row_hit_reads": hierarchy.dram.row_hit_reads,
        }
        with self._lock:
            for name, value in values.items():
                self.counters[name] = self.counters.get(name, 0) + value


def load(directory) -> list[dict]:
    """Every per-process aggregate written into ``directory``."""
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(Path(directory).glob("*.json"))]


def merge(snapshots) -> dict:
    """Sum span and counter aggregates (of processes, or of repeated runs)."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snapshot in snapshots:
        for name, (count, total, own) in snapshot["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(totals: dict, pool_width: int, per: int = 1) -> dict[str, float]:
    """The per-layer metrics that spans and simulator counters give, divided
    by ``per`` (the number of repeated runs the totals sum)."""
    spans, counters = totals["spans"], totals["counters"]

    def span(name: str) -> tuple[float, float, float]:
        count, total, own = spans.get(name, (0, 0.0, 0.0))
        return count / per, total / per, own / per

    def counter(name: str) -> float:
        return counters.get(name, 0) / per

    cell = span("experiments.cell")[1]
    run_parallel = span("experiments.run_parallel")[1]
    kernel = span("sim.shared_run")[2] + span("sim.private_run")[2]
    replays = span("core.cpl_replay")[0]
    cpl_calls = counter("core.cpl_calls")
    metrics = {name: counter(name) for name in _COUNTERS}
    metrics.update({
        "workloads.trace_gen_s": span("workloads.trace_gen")[1],
        "workloads.traces_generated": span("workloads.trace_gen")[0],
        "sim.shared_run_s": span("sim.shared_run")[2],
        "sim.private_run_s": span("sim.private_run")[2],
        "sim.ns_per_instruction": ratio(kernel, counter("sim.instructions")) * 1e9,
        "dram.row_hit_ratio": ratio(counter("dram.row_hit_reads"), counter("dram.reads")),
        "core.estimate_s": span("core.estimate")[2],
        "core.cpl_replay_s": span("core.cpl_replay")[2],
        "core.cpl_replays": replays,
        "core.cpl_memo_hit_ratio": max(0.0, 1.0 - replays / cpl_calls) if cpl_calls else 0.0,
        "baselines.estimate_s": span("baselines.estimate")[2],
        "partitioning.allocate_share": ratio(span("partitioning.allocate")[2], cell),
        "partitioning.repartitions": span("partitioning.allocate")[0],
        "cache.miss_curve_share": ratio(span("cache.miss_curve")[2], cell),
        "experiments.run_parallel_s": run_parallel,
        "experiments.cell_s": cell,
        "experiments.pool_idle_ratio": (
            max(0.0, 1.0 - cell / (run_parallel * pool_width)) if run_parallel else 0.0),
        "result_cache.get_s": span("result_cache.get")[2],
        "result_cache.put_s": span("result_cache.put")[2],
        "result_cache.hit_ratio": ratio(counter("result_cache.hits"),
                                        counter("result_cache.gets")),
        "scenarios.expand_s": span("scenarios.expand")[2],
        "scenarios.assemble_s": span("scenarios.assemble")[2],
    })
    return metrics
