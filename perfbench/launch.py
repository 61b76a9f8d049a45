"""Start a ``repro`` command line with the benchmark's tracing installed, or
time a fresh interpreter until its sweep pool answers.

    python3 perfbench/launch.py --trace-dir DIR -- serve --port 0 --local-workers 0
    python3 perfbench/launch.py --ready-pool 2

The first form is ``python -m repro serve ...`` with :class:`tracing.Tracer`
installed before the command runs: the process rewrites its span file every
half second and on exit, and the pool workers it forks write theirs after
every cell.  The second form imports the scenario engine, starts a process
pool of the given width, waits until every worker has answered, prints
``ready`` and exits: what the sweeps count as set-up.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

FLUSH_SECONDS = 0.5


def ready_pool(jobs: int) -> int:
    import repro.scenarios  # noqa: F401 -- everything run_scenario imports
    from common import warm_pool
    from repro.experiments.common import shutdown_executor

    warm_pool(jobs)
    print("ready", flush=True)
    shutdown_executor()
    return 0


def traced(directory: str, argv: list[str]) -> int:
    import repro.service.http  # noqa: F401 -- load what the wrappers rebind
    import repro.service.workers.remote  # noqa: F401
    from repro.__main__ import main
    from repro.experiments.supervisor import supervisor_stats
    from tracing import Tracer

    tracer = Tracer(directory)
    tracer.install()

    def supervisor() -> dict:
        stats = supervisor_stats()
        return {"experiments.retries": stats.retries,
                "experiments.pool_rebuilds": stats.pool_rebuilds}

    stop = threading.Event()

    def flush_periodically() -> None:
        while not stop.wait(FLUSH_SECONDS):
            tracer.flush(supervisor())

    flusher = threading.Thread(target=flush_periodically, name="span-flush",
                               daemon=True)
    flusher.start()
    try:
        return main(argv)
    finally:
        stop.set()
        flusher.join()
        tracer.flush(supervisor())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace-dir", help="directory for the span files")
    mode.add_argument("--ready-pool", type=int, metavar="JOBS",
                      help="time-to-ready probe with a pool of this width")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the repro CLI arguments, after --")
    args = parser.parse_args(argv)
    if args.ready_pool is not None:
        return ready_pool(args.ready_pool)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    return traced(args.trace_dir, command)


if __name__ == "__main__":
    sys.exit(main())
