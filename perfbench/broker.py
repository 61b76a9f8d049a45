"""The ``broker-mix`` workload: the scenario service under a request mix.

A broker-only ``python -m repro serve --local-workers 0`` and one
``python -m repro worker --jobs nproc`` run as child processes with a fresh
cell cache, artifact store and journal.  Two clients in this process drive
them through :class:`~repro.service.client.ServiceClient`:

* client A (closed loop, the calling thread) replays a seeded script of new
  work built from shuffled blocks of fixed composition (:data:`BLOCK`), so
  every seed asks for the same mix: cold 2-core accuracy scenarios with
  fresh seeds, near-repeats (an earlier cold spec renamed, so every cell is
  in the cell cache), small composites shaped like
  ``examples/composite_spec.json`` and small 2-core best-of queries shaped
  like ``examples/query_best_of.json``.  It follows each job's SSE stream
  (``ServiceClient.wait`` polls on a growing interval, which would quantise
  latency) and then fetches the answer;
* client B (open loop, one more thread) re-requests an already-answered
  spec every :data:`HIT_INTERVAL_S` seconds; each request is timed from
  when it was due, and how late it was sent is recorded.

Nothing in the repository records how the service is used -- the CI smoke
jobs each submit one example spec and at most resubmit or edit it once --
so the mix is a choice, sized from the sample counts the reported
statistics need rather than from usage; see :data:`BLOCK` and
:data:`HIT_INTERVAL_S`.  The end-to-end metrics that depend on it:
``cells_per_s`` directly (only cold requests, composites and queries
compute cells), ``cold_p50_ms`` (and the printed near-repeat latencies)
through what runs beside them (client B's hits, and a query's cancelled waves, which the
worker unwinds while the next request waits), and ``peak_rss_mb`` through
what the caches hold.  ``setup_s`` does not.

A warm-up answers the specs client B re-requests before the window opens:
three accuracy scenarios and one throughput scenario, again a choice: both
scenario kinds, and the tables that give the model metrics.  Every answer
is checked: a hit must equal its warm-up answer, a near-repeat the matching
rows of its cold origin, and the first cold scenarios, composite and query
must equal an in-process run of the same spec with caching off, computed
after the fleet has stopped.

A traced run replays the same fixed number of client-A requests twice, on
an untraced fleet and then on one started through ``launch.py`` with
tracing installed; the two transcripts must match answer for answer, and
the ratio of their wall times is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import PYTHON, ROOT, child_environment, rows_match, stop_process, tree_peak_rss_mb
from metrics import Report, Summary, layer_value, median, ratio, samples_needed
from tracing import layer_metrics, load, merge

HERE = Path(__file__).resolve().parent
WORKER_ID = "perfbench-worker"
SETUP_REPEATS = 7
# Client B sends 10 requests a second: 300 hits in a 30 s window, three
# times the 100 a p90 with ten samples beyond it needs, while its load (a
# hit takes about 10 ms) leaves the broker idle most of the time, so the
# generator is not held up (loadgen.late_p90_share stays near 0).
HIT_INTERVAL_S = 0.1
# Client A's script is made of shuffled blocks of this composition.  On a
# busy 2-core host a block takes about 2.2 s (cold ~125 ms, near ~10 ms,
# composite ~0.4 s, query ~0.75 s each, the slowest medians measured
# there), so 8 cold and 8 near requests per block is the fewest that still
# gives each of cold_p90_ms and near_p90_ms its 100 samples in a 30 s
# window; an idle host gives more.  Composites and queries come once per
# block, the fewest whole number: only their medians are reported.
BLOCK = ("cold",) * 8 + ("near",) * 8 + ("composite", "query")
# Kinds whose p90 is reported; the window is held open until each has
# enough samples for it.
TAILED = ("cold", "near")
# How many of client A's answers of each kind are recomputed in-process
# after the window, outside the timed region.
REFERENCED = {"cold": 2, "composite": 1, "query": 1}
# A traced run replays this many blocks per measured second, twice (on an
# untraced and a traced fleet): each part is about a third of a window, so
# both parts, their warm-ups and the references fit in one run's time.
TRACED_BLOCKS_PER_SECOND = 0.15
MACHINE = {"core_counts": [2], "llc_kilobytes": 64}


def _workloads(seed: int, groups) -> dict:
    return {"generator": "auto", "groups": list(groups), "per_group": 1, "seed": seed}


def accuracy_spec(name: str, seed: int, instructions: int) -> dict:
    return {"name": name, "kind": "accuracy", "machine": dict(MACHINE),
            "workloads": _workloads(seed, ("H", "L")),
            "techniques": ["ITCA", "PTCA", "GDP", "GDP-O"],
            "instructions_per_core": instructions,
            "interval_instructions": instructions // 3}


def throughput_spec(name: str, seed: int, instructions: int) -> dict:
    return {"name": name, "kind": "throughput", "machine": dict(MACHINE),
            "workloads": _workloads(seed, ("H", "M")),
            "policies": ["LRU", "UCP", "ASM", "MCP", "MCP-O"],
            "instructions_per_core": instructions,
            "interval_instructions": instructions // 4,
            "repartition_interval_cycles": 4000.0}


def composite_spec(name: str, seed: int, instructions: int) -> dict:
    """The shape of examples/composite_spec.json, on one fresh seed."""

    def member(kind: str, **fields) -> dict:
        spec = {"name": f"{name}-{kind}", "kind": kind, "machine": dict(MACHINE),
                "workloads": _workloads(seed, ("H",)),
                "instructions_per_core": instructions,
                "interval_instructions": instructions // 2}
        spec.update(fields)
        return spec

    return {"name": name, "nodes": [
        {"name": "accuracy",
         "spec": member("accuracy", techniques=["GDP", "GDP-O", "PTCA"])},
        {"name": "throughput",
         "spec": member("throughput", policies=["LRU", "UCP", "MCP"],
                        repartition_interval_cycles=4000.0)},
        {"name": "attribution", "depends_on": ["accuracy"],
         "spec": member("interference_attribution")},
        {"name": "policy-switching", "depends_on": ["accuracy", "throughput"],
         "params": [{"into": "techniques", "from": "accuracy", "select": "best_technique"},
                    {"into": "policies", "from": "throughput", "select": "ranked_policies"}],
         "spec": member("policy_switching", interval_instructions=instructions // 4,
                        repartition_interval_cycles=4000.0, policy_switch_cycles=8000.0)},
    ]}


def query_spec(name: str, seed: int, instructions: int) -> dict:
    return {"name": name, "kind": "best_of", "race": "policies", "wave_cells": 1,
            "stopping": {"rule": "margin", "margin": 0.001, "min_cells": 2},
            "base": {"name": f"{name}-base", "kind": "throughput",
                     "machine": dict(MACHINE),
                     "workloads": {"generator": "auto", "groups": ["H", "L"],
                                   "per_group": 2, "seed": seed},
                     "policies": ["LRU", "UCP", "MCP"],
                     "instructions_per_core": instructions,
                     "interval_instructions": instructions // 3,
                     "repartition_interval_cycles": 4000.0}}


@dataclass
class Request:
    kind: str
    spec: dict
    origin: str | None = None  # a near-repeat's cold spec


def client_a_script(seed: int, instructions: int):
    """Client A's requests in order: an endless generator fixed by ``seed``."""
    rng = random.Random(f"broker-mix:{seed}")
    colds: list[dict] = []
    index = 0
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        if not colds:  # a near-repeat needs an earlier cold answer
            block.insert(0, block.pop(block.index("cold")))
        for kind in block:
            fresh = rng.randrange(1, 2 ** 31)
            name = f"mix-{index}-{kind}"
            origin = None
            if kind == "cold":
                spec = accuracy_spec(name, fresh, instructions)
                colds.append(spec)
            elif kind == "near":
                source = colds[rng.randrange(len(colds))]
                origin = source["name"]
                spec = dict(source, name=name)
            elif kind == "composite":
                spec = composite_spec(name, fresh, instructions)
            else:
                spec = query_spec(name, fresh, instructions)
            yield Request(kind, spec, origin)
            index += 1


def warm_up_specs(seed: int, instructions: int) -> list[dict]:
    rng = random.Random(f"broker-warm-up:{seed}")
    specs = [accuracy_spec(f"warm-{index}-accuracy", rng.randrange(1, 2 ** 31), instructions)
             for index in range(3)]
    specs.append(throughput_spec("warm-3-throughput", rng.randrange(1, 2 ** 31), instructions))
    return specs


class OpenLoop:
    """Due times ``start + k * interval`` of an open-loop generator.

    :meth:`wait` sleeps until the next request is due and returns its due
    time -- never skipping ahead, so a stalled generator sends late and the
    lateness shows -- or None once ``stop`` is set.  ``clock`` is injectable
    for tests.
    """

    def __init__(self, interval: float, clock=time.monotonic) -> None:
        self.interval = interval
        self.clock = clock
        self.start = clock()
        self.sent = 0

    def wait(self, stop) -> float | None:
        due = self.start + self.sent * self.interval
        delay = due - self.clock()
        if (delay > 0 and stop.wait(delay)) or stop.is_set():
            return None
        self.sent += 1
        return due


class Fleet:
    """A broker-only ``serve`` and one ``worker``, with fresh state."""

    def __init__(self, scratch, jobs: int, trace_dir: Path | None = None) -> None:
        self.jobs = jobs
        self.trace_dir = trace_dir
        self.state = scratch.fresh("fleet")
        self.env = child_environment(REPRO_CACHE_DIR=self.state / "cells",
                                     REPRO_ARTIFACT_DIR=self.state / "artifacts")
        self.processes: list[subprocess.Popen] = []
        self.url: str | None = None

    def _spawn(self, label: str, *argv: str) -> subprocess.Popen:
        if self.trace_dir is None:
            command = [PYTHON, "-m", "repro", *argv]
        else:
            command = [PYTHON, str(HERE / "launch.py"), "--trace-dir",
                       str(self.trace_dir), "--", *argv]
        with open(self.state / f"{label}.log", "wb") as log:
            process = subprocess.Popen(command, cwd=ROOT, env=self.env, stdout=log,
                                       stderr=subprocess.STDOUT, start_new_session=True)
        self.processes.append(process)
        return process

    def _alive(self, process: subprocess.Popen, label: str, deadline: float) -> None:
        if process.poll() is not None or time.monotonic() > deadline:
            log = (self.state / f"{label}.log").read_text(errors="replace")
            raise RuntimeError(f"{label} did not come up:\n{log[-2000:]}")

    def start(self, timeout: float = 60.0) -> float:
        """Start both; the seconds until the worker is registered in /stats."""
        from repro.service.client import ServiceClient

        began = time.perf_counter()
        deadline = time.monotonic() + timeout
        serve = self._spawn("serve", "serve", "--port", "0", "--local-workers", "0")
        marker = "listening on "
        while self.url is None:
            text = (self.state / "serve.log").read_text(errors="replace")
            rest = text.split(marker, 1)[1] if marker in text else ""
            if "\n" in rest:
                self.url = rest.split()[0]
            else:
                self._alive(serve, "serve", deadline)
                time.sleep(0.005)
        worker = self._spawn("worker", "worker", "--broker", self.url,
                             "--jobs", str(self.jobs), "--id", WORKER_ID)
        client = ServiceClient(self.url, timeout=10.0)
        while WORKER_ID not in client.stats()["workers"]:
            self._alive(worker, "worker", deadline)
            time.sleep(0.005)
        return time.perf_counter() - began

    def stop(self) -> None:
        # Worker first: without its broker it would only retry.
        while self.processes:
            stop_process(self.processes.pop())


class Session:
    """Clients A and B against one fleet, and everything they measured."""

    def __init__(self, url: str, seed: int, instructions: int, report: Report) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url, timeout=60.0)
        self.hit_client = ServiceClient(url, timeout=60.0)
        self.seed = seed
        self.report = report
        self.script = client_a_script(seed, instructions)
        self.warm_specs = warm_up_specs(seed, instructions)
        self.warm_answers: list[dict] = []
        self.latency_ms: dict[str, list[float]] = {kind: [] for kind in BLOCK}
        self.queue_s: list[float] = []
        self.run_s: list[float] = []
        self.tables: dict[str, dict] = {}
        self.transcript: list[tuple[Request, dict | None]] = []
        self.query_cells = [0, 0]
        # (latency from due, lateness, POST, GET result) per hit, in seconds.
        self.hits: list[tuple[float, float, float, float]] = []
        self.hit_failures: list[str] = []
        self._stop = threading.Event()
        self._hit_thread: threading.Thread | None = None

    def ask(self, submit, spec: dict):
        """Submit, follow the job's SSE stream to its end, fetch the answer."""
        job = submit(spec)
        events = list(self.client.iter_events(job["id"], timeout=60.0))
        state = events[-1].get("event") if events else "without events"
        answer = self.client.result(job["id"]) if state == "done" else None
        return state, answer, events

    def warm_up(self) -> None:
        for spec in self.warm_specs:
            state, answer, _events = self.ask(self.client.submit, spec)
            if state != "done":
                raise RuntimeError(f"warm-up scenario {spec['name']} ended {state}")
            self.warm_answers.append(answer)

    def model_metrics(self) -> tuple[float, float]:
        """(GDP's mean IPC RMS error, MCP's STP gain over ASM) of the warm-up."""
        tables = [answer["tables"] for answer in self.warm_answers]
        errors = [row["GDP"] for table in tables for row in table.get("ipc_rms", {}).values()]
        stp = [row for table in tables for row in table.get("average_stp", {}).values()]
        gain = (statistics.fmean(row["MCP"] for row in stp)
                / statistics.fmean(row["ASM"] for row in stp) - 1.0)
        return statistics.fmean(errors), gain

    # ------------------------------------------------------------ client A

    def drive(self, deadline: float | None = None, requests: int | None = None,
              min_samples: int = 0) -> float:
        """Run client A until ``deadline`` (and ``min_samples`` answers of
        each kind in :data:`TAILED`), or for ``requests`` requests; returns
        the wall time it took."""
        began = time.perf_counter()
        done = 0
        while True:
            if requests is not None and done >= requests:
                break
            if (deadline is not None and time.monotonic() >= deadline
                    and all(len(self.latency_ms[kind]) >= min_samples for kind in TAILED)):
                break
            self._request(next(self.script))
            done += 1
        return time.perf_counter() - began

    def _request(self, request: Request) -> None:
        submit = {"composite": self.client.submit_composite,
                  "query": self.client.submit_query}.get(request.kind, self.client.submit)
        name = request.spec["name"]
        began = time.perf_counter()
        try:
            state, answer, events = self.ask(submit, request.spec)
        except Exception as error:  # noqa: BLE001 -- counted as failed; the run goes on
            self.report.check(False, f"{name}: {type(error).__name__}: {error}")
            self.transcript.append((request, None))
            return
        elapsed_ms = (time.perf_counter() - began) * 1000.0
        self.transcript.append((request, answer))
        ok, why = state == "done", f"ended {state}"
        if ok and request.kind == "near":
            ok = rows_match(answer["tables"], self.tables.get(request.origin, {}))
            why = f"differs from {request.origin}"
        if not self.report.check(ok, f"{name} {why}"):
            return
        self.latency_ms[request.kind].append(elapsed_ms)
        if request.kind == "cold":
            self.tables[name] = answer["tables"]
            first = {}
            for event in events:
                first.setdefault(event.get("event"), event.get("time"))
            if "queued" in first and "lease_granted" in first:
                self.queue_s.append(first["lease_granted"] - first["queued"])
                self.run_s.append(events[-1]["time"] - first["lease_granted"])
        elif request.kind == "query":
            self.query_cells[0] += answer["cells"]["evaluated"]
            self.query_cells[1] += answer["cells"]["total"]

    # ------------------------------------------------------------ client B

    def start_hits(self) -> None:
        self._hit_thread = threading.Thread(target=self._hit_loop, args=(OpenLoop(HIT_INTERVAL_S),),
                                            name="client-b", daemon=True)
        self._hit_thread.start()

    def stop_hits(self) -> None:
        self._stop.set()
        self._hit_thread.join(timeout=120.0)
        for failure in self.hit_failures:
            self.report.check(False, failure)
        for _hit in self.hits:
            self.report.check(True, "hit")

    def _hit_loop(self, loop: OpenLoop) -> None:
        rng = random.Random(f"broker-hits:{self.seed}")
        while True:
            due = loop.wait(self._stop)
            if due is None:
                return
            choice = rng.randrange(len(self.warm_specs))
            spec = self.warm_specs[choice]
            sent = time.monotonic()
            try:
                job = self.hit_client.submit(spec)
                posted = time.monotonic()
                answer = self.hit_client.result(job["id"])
                done = time.monotonic()
            except Exception as error:  # noqa: BLE001 -- counted as a failed hit
                self.hit_failures.append(f"hit on {spec['name']}: {type(error).__name__}: {error}")
                continue
            if job.get("state") == "done" and job.get("cached") and answer == self.warm_answers[choice]:
                self.hits.append((done - due, sent - due, posted - sent, done - posted))
            else:
                self.hit_failures.append(f"hit on {spec['name']} was not the cached first answer")


def _worker(stats: dict) -> dict:
    return stats["workers"][WORKER_ID]


def service_layers(session: Session, stats: dict) -> dict[str, float]:
    """The per-layer metrics read from the clients and the broker's /stats."""
    hits = session.hits
    whole_hit = layer_value(post + fetch for _due, _late, post, fetch in hits)
    cold_s = layer_value(session.latency_ms["cold"]) / 1000.0
    worker = _worker(stats)
    cache = stats["scenario_cache"]
    evaluated, total = session.query_cells
    return {
        "scenarios.query_cells_ratio": ratio(evaluated, total),
        "service.submit_share": ratio(layer_value(hit[2] for hit in hits), whole_hit),
        "service.queue_share": ratio(layer_value(session.queue_s), cold_s),
        "service.run_share": ratio(layer_value(session.run_s), cold_s),
        "service.scenario_cache_hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "service.busy_ratio": stats["worker_utilisation"],
        "service.cells_per_lease": ratio(worker["cells_done"], worker["leases_total"]),
        "service.leases_expired": stats["leases"]["expired_total"],
        "service.requeued_cells": stats["leases"]["requeued_cells_total"],
        "service.remote_cells": worker["cells_done"],
        "loadgen.late_p90_share": ratio(layer_value((hit[1] for hit in hits), 0.9),
                                        HIT_INTERVAL_S),
    }


def check_references(report: Report, session: Session, scratch, jobs: int) -> None:
    """Recompute a fixed subset of client A's answers in this process with
    caching off; each must equal what the broker answered."""
    from repro.experiments.common import shutdown_executor
    from repro.scenarios import (CompositeSpec, QuerySpec, ScenarioSpec, run_composite,
                                 run_query, run_scenario)

    os.environ["REPRO_CACHE_DIR"] = str(scratch.fresh("reference-cells"))
    wanted = dict(REFERENCED)
    try:
        for request, answer in session.transcript:
            if answer is None or wanted.get(request.kind, 0) == 0:
                continue
            wanted[request.kind] -= 1
            if request.kind == "composite":
                keys = ("composite", "nodes", "resolved_specs")
                full = run_composite(CompositeSpec.from_dict(request.spec), jobs=jobs,
                                     cache=False).to_dict()
                expected = {key: full[key] for key in keys}
                answer = {key: answer.get(key) for key in keys}
            elif request.kind == "query":
                expected = run_query(QuerySpec.from_dict(request.spec), jobs=jobs,
                                     cache=False).to_dict()
            else:
                expected = run_scenario(ScenarioSpec.from_dict(request.spec), jobs=jobs,
                                        cache=False).to_dict()
            report.check(json.loads(json.dumps(expected)) == answer,
                         f"{request.spec['name']}: the broker's answer differs from an "
                         f"in-process run")
    finally:
        shutdown_executor()


def run(seed: int, seconds: int, trace: bool, scratch, tiny: bool = False) -> Report:
    from repro.experiments.common import resolve_jobs
    from repro.sim.result_cache import cache_enabled_from_env
    from repro.sim.system import resolved_batch_cycles

    jobs = resolve_jobs(None)
    instructions = 1_500 if tiny else 6_000
    report = Report("broker-mix", seed, seconds, trace)
    report.knobs.update(batch_cycles=resolved_batch_cycles(), jobs=jobs,
                        cell_cache="on" if cache_enabled_from_env() else "off",
                        lease_cells=jobs, hit_interval_s=HIT_INTERVAL_S)
    if trace:
        _traced(report, seed, seconds, scratch, jobs, instructions)
    else:
        _window(report, seed, seconds, scratch, jobs, instructions)
    return report


def _window(report: Report, seed: int, seconds: int, scratch, jobs: int,
            instructions: int) -> None:
    setups: list[float] = []
    fleet = None
    try:
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(scratch, jobs)
            setups.append(fleet.start())
        session = Session(fleet.url, seed, instructions, report)
        session.warm_up()
        cells_before = _worker(session.client.stats())["cells_done"]
        session.start_hits()
        try:
            window = session.drive(deadline=time.monotonic() + seconds,
                                   min_samples=samples_needed(0.9))
        finally:
            session.stop_hits()
        stats = session.client.stats()
        rss = tree_peak_rss_mb()
    finally:
        if fleet is not None:
            fleet.stop()
    cells = _worker(stats)["cells_done"] - cells_before
    near = session.latency_ms["near"]
    report.end_to_end.update({
        "setup_s": median(setups),
        "peak_rss_mb": Summary(rss, 1),
        "cells_per_s": Summary(cells / window, cells),
        "cold_p50_ms": median(session.latency_ms["cold"]),
    })
    hit_ms = [hit[0] * 1000.0 for hit in session.hits]
    report.figure("near_p50_ms", "ms", near)
    report.figure("near_p90_ms", "ms", near, 0.9)
    report.figure("cold_p90_ms", "ms", session.latency_ms["cold"], 0.9)
    report.figure("hit_p50_ms", "ms", hit_ms)
    report.figure("hit_p90_ms", "ms", hit_ms, 0.9)
    report.figure("composite_p50_ms", "ms", session.latency_ms["composite"])
    report.figure("query_p50_ms", "ms", session.latency_ms["query"])
    report.figure("late_p90_ms", "ms", [hit[1] * 1000.0 for hit in session.hits], 0.9)
    gdp, gain = session.model_metrics()
    report.figures["metrics.gdp_ipc_rms"] = (Summary(gdp, 1), "ipc", 1)
    report.figures["metrics.mcp_stp_gain"] = (Summary(gain, 1), "ratio", 1)
    check_references(report, session, scratch, jobs)


def _traced(report: Report, seed: int, seconds: int, scratch, jobs: int,
            instructions: int) -> None:
    requests = len(BLOCK) * max(1, round(TRACED_BLOCKS_PER_SECOND * seconds))
    spans = scratch.fresh("spans")
    parts = []
    for trace_dir in (None, spans):
        fleet = Fleet(scratch, jobs, trace_dir)
        try:
            fleet.start()
            session = Session(fleet.url, seed, instructions, report)
            session.warm_up()
            session.start_hits()
            try:
                wall = session.drive(requests=requests)
            finally:
                session.stop_hits()
            stats = session.client.stats()
        finally:
            fleet.stop()
        parts.append((session, stats, wall))
    (plain, _plain_stats, plain_wall), (traced, stats, traced_wall) = parts
    report.check(traced.warm_answers == plain.warm_answers,
                 "traced and untraced warm-up answers differ")
    for (request, expected), (_same, answer) in zip(plain.transcript, traced.transcript):
        report.check(answer == expected,
                     f"{request.spec['name']}: traced and untraced answers differ")
    totals = merge(load(spans))
    gdp, gain = traced.model_metrics()
    report.per_layer.update(layer_metrics(totals, pool_width=jobs))
    report.per_layer.update(service_layers(traced, stats))
    report.per_layer.update({"trace.overhead_ratio": traced_wall / plain_wall - 1.0,
                             "metrics.gdp_ipc_rms": gdp, "metrics.mcp_stp_gain": gain})
    report.spans = totals["spans"]
    check_references(report, plain, scratch, jobs)
