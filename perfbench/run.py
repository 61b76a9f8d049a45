"""Run one workload of the reproduction's benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-accuracy --seed 1 --seconds 30 --trace 0

Everything before the last line is for people: the effective knobs, every
metric with its unit and sample count, figures that are measured but not
gated, and the checks that failed.  The last line is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).
``--workload all`` runs every workload in turn, each in its own process.

Exit status: 0 when the run completed (``correct`` says whether every check
passed), 1 when it could not complete, 2 when the repository's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT, SRC, RunDirectory, SourceTreeMissing, require_source_tree, scrub_environment,
)
from metrics import declared  # noqa: E402

DEFAULT_SEED = 1
# Not used while the benchmark was tuned: confirm a claimed gain on it.
HELDOUT_SEED = 20181
# A run must finish within 180 s; give up, and clean up, a little before.
WATCHDOG_SECONDS = 170


class Watchdog(Exception):
    """The run overran its time limit."""


def _on_alarm(_signum, _frame):
    raise Watchdog(f"the run exceeded {WATCHDOG_SECONDS} s")


def run_all(seed: int, seconds: int, trace: int) -> int:
    results = {}
    for workload in declared().workloads:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            return completed.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    run_seconds = declared().run_seconds
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*declared().workloads, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out)")
    parser.add_argument("--seconds", type=int, default=run_seconds,
                        help=f"seconds to measure (default {run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run that prints the per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        require_source_tree()
    except SourceTreeMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    cleared = scrub_environment()
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_SECONDS)
    scratch = RunDirectory()
    try:
        if args.workload == "broker-mix":
            import broker

            report = broker.run(args.seed, args.seconds, bool(args.trace), scratch, args.tiny)
        else:
            import sweeps

            report = sweeps.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                scratch, args.tiny)
        report.knobs["cleared"] = ",".join(cleared) or "none"
        text, result = report.render(), report.result()
    except Exception:  # noqa: BLE001 -- any failure ends the run without a result
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        scratch.close()
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
