"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Unit tests of the statistics helpers, the open-loop accounting, the span
arithmetic and the wrappers, and a tiny-size smoke run of every workload in
both modes that checks every metric name and unit.  The file is not named
``test_*.py``: the repository's test suite does not collect it, and the
smoke runs take a few minutes.
"""

from __future__ import annotations

import json
import pickle
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from broker import OpenLoop  # noqa: E402
from metrics import (  # noqa: E402
    BENCHMARK_JSON, DESCRIPTIONS, InsufficientSamples, declared, layer_value,
    median, ratio, samples_needed, tail,
)
from tracing import Tracer, layer_metrics, load, merge  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeStop:
    """A stop event whose wait() advances a fake clock instead of sleeping."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock
        self.stopped = False

    def wait(self, timeout: float) -> bool:
        self.clock.now += timeout
        return self.stopped

    def is_set(self) -> bool:
        return self.stopped


def test_median_reports_its_sample_count():
    summary = median([3.0, 1.0, 2.0, 10.0])
    assert (summary.value, summary.samples, summary.beyond) == (2.5, 4, 0)
    with pytest.raises(InsufficientSamples):
        median([])


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(value) for value in range(1, 101)]
    summary = tail(values, 0.9)
    assert (summary.value, summary.samples, summary.beyond) == (90.0, 100, 10)
    with pytest.raises(InsufficientSamples):
        tail(values[:99], 0.9)
    assert samples_needed(0.9) == 100
    assert samples_needed(0.99) == 1000
    assert tail(values[:samples_needed(0.5)], 0.5).beyond == 10


def test_layer_values_fall_back_when_samples_are_few():
    assert layer_value([]) == 0.0
    assert layer_value([4.0, 1.0, 2.0]) == 2.0
    assert layer_value([4.0, 1.0, 2.0], 0.9) == 4.0     # too few for a p90
    assert layer_value(range(1, 101), 0.9) == 90
    assert ratio(1.0, 4.0) == 0.25 and ratio(1.0, 0.0) == 0.0


def test_open_loop_times_a_stalled_generator_from_the_due_times():
    clock = FakeClock()
    loop, stop = OpenLoop(1.0, clock=clock), FakeStop(clock)
    lateness, latency = [], []
    for _ in range(4):
        due = loop.wait(stop)
        lateness.append(clock.now - due)
        clock.now += 2.5  # every request takes two and a half intervals
        latency.append(clock.now - due)
    assert lateness == [0.0, 1.5, 3.0, 4.5]
    assert latency == [2.5, 4.0, 5.5, 7.0]


def test_open_loop_waits_for_each_due_time_and_stops():
    clock = FakeClock()
    loop, stop = OpenLoop(1.0, clock=clock), FakeStop(clock)
    sends = []
    for _ in range(3):
        due = loop.wait(stop)
        sends.append((due, clock.now))
        clock.now += 0.25
    assert sends == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    stop.stopped = True
    assert loop.wait(stop) is None


def test_self_time_is_the_span_minus_its_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter()                      # t = 0
    clock.now = 2.0
    inner = tracer.enter()
    clock.now = 3.0
    deepest = tracer.enter()
    clock.now = 4.0
    tracer.exit("deepest", deepest)             # 1 s
    clock.now = 5.0
    tracer.exit("inner", inner)                 # 3 s, 2 s of its own
    clock.now = 6.0
    again = tracer.enter()
    clock.now = 7.0
    tracer.exit("inner", again)                 # 1 s
    clock.now = 10.0
    tracer.exit("outer", outer)                 # 10 s, 6 s of its own
    assert tracer.spans == {"deepest": [1, 1.0, 1.0], "inner": [2, 4.0, 3.0],
                            "outer": [1, 10.0, 6.0]}


def test_spans_on_another_thread_are_not_nested():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter()

    def elsewhere() -> None:
        start = tracer.enter()
        clock.now += 4.0
        tracer.exit("elsewhere", start)

    thread = threading.Thread(target=elsewhere)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now += 1.0
    tracer.exit("outer", outer)
    assert tracer.spans["outer"] == [1, 5.0, 5.0]


def test_wrappers_keep_names_digests_and_pickling():
    from repro.experiments.accuracy import evaluate_workload_accuracy
    from repro.scenarios import runner
    from repro.sim.result_cache import task_digest

    tracer = Tracer()
    tracer.install()
    try:
        wrapped = runner.EVALUATORS["accuracy"][0]
        assert wrapped is not evaluate_workload_accuracy
        assert wrapped.__module__ == evaluate_workload_accuracy.__module__
        assert wrapped.__qualname__ == evaluate_workload_accuracy.__qualname__
        assert task_digest(wrapped, (1,)) == task_digest(evaluate_workload_accuracy, (1,))
        assert pickle.loads(pickle.dumps(wrapped)) is wrapped
    finally:
        tracer.uninstall()
    assert runner.EVALUATORS["accuracy"][0] is evaluate_workload_accuracy


def test_traced_run_equals_untraced_and_forked_workers_flush(tmp_path):
    from repro.experiments.common import shutdown_executor
    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec.from_dict({
        "name": "selftest", "kind": "accuracy", "machine": {"core_counts": [2]},
        "workloads": {"groups": ["H", "L"], "per_group": 1, "seed": 3},
        "techniques": ["ITCA", "GDP"], "instructions_per_core": 1500,
        "interval_instructions": 500})
    tracer = Tracer(tmp_path)
    try:
        plain = run_scenario(spec, jobs=2, cache=False).to_dict()
        shutdown_executor()  # the traced run forks its workers afresh
        tracer.install()
        traced = run_scenario(spec, jobs=2, cache=False).to_dict()
    finally:
        tracer.uninstall()
        shutdown_executor()
    assert traced == plain
    totals = merge([tracer.snapshot(), *load(tmp_path)])
    assert totals["spans"]["experiments.cell"][0] == 2  # from the workers' files
    assert totals["counters"]["sim.runs"] == 2 * 3      # one shared, two private runs per cell
    assert set(layer_metrics(totals, pool_width=2)) <= {m.name for m in declared().per_layer}


def test_declarations_fit_the_benchmark_contract():
    document = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    metrics = document["end_to_end"] + document["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {metric["name"]: metric["bound"] for metric in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(document["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert 1 <= document["run_seconds"] <= 60
    assert set(DESCRIPTIONS) == set(names)  # every metric described, none stale


def test_refuses_to_run_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-accuracy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", declared().workloads)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = declared().per_layer if trace else declared().end_to_end
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {metric.name: metric.unit for metric in metrics}
    values = [entry["value"] for entry in result["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if not trace:
        assert all(value > 0 for value in values)
