"""Environment, scratch-directory and process helpers shared by the workloads.

Nothing here imports ``repro`` at import time: the sources are located
relative to this file, and a checkout without them is refused before
anything runs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

__all__ = [
    "PYTHON",
    "ROOT",
    "SRC",
    "RunDirectory",
    "SourceTreeMissing",
    "child_environment",
    "require_source_tree",
    "rows_match",
    "scrub_environment",
    "stop_process",
    "tree_peak_rss_mb",
    "warm_pool",
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_run"
PYTHON = sys.executable or "python3"


class SourceTreeMissing(RuntimeError):
    """The checkout holds the benchmark but not the code it measures."""


def require_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(
            f"no repro package under {SRC}: run the benchmark from a checkout "
            f"of the repository")


def scrub_environment(environ=None) -> list[str]:
    """Drop every ``REPRO_*`` variable so the defaults are what gets measured
    (a test harness's ``REPRO_CACHE=0``, for one, must not leak in)."""
    environ = os.environ if environ is None else environ
    removed = sorted(key for key in environ if key.startswith("REPRO_"))
    for key in removed:
        del environ[key]
    return removed


def child_environment(**settings) -> dict[str, str]:
    """The environment of a process the benchmark starts: no inherited
    ``REPRO_*`` knob, the repository sources importable, unbuffered output,
    plus ``settings``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.update({key: str(value) for key, value in settings.items()})
    return env


def rows_match(part: dict, whole: dict) -> bool:
    """Every row of every table in ``part`` equals the same row of ``whole``
    (a near-repeat's tables against those of the spec it repeats)."""
    if not part:
        return False
    for table, rows in part.items():
        if not rows:
            return False
        for row, values in rows.items():
            if whole.get(table, {}).get(row) != values:
                return False
    return True


class RunDirectory:
    """A fresh scratch directory inside the checkout, deleted by :meth:`close`.

    Every cell cache, artifact store, journal and span file of a run lives
    here, so a cold start is cold and nothing lands in the repository tree.
    """

    def __init__(self) -> None:
        self.path = SCRATCH / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.path.mkdir(parents=True)
        self._made = 0

    def fresh(self, label: str) -> Path:
        self._made += 1
        path = self.path / f"{label}-{self._made}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass


def warm_pool(jobs: int) -> None:
    """Start the scenario engine's ``jobs``-wide process pool and wait until
    each worker has answered, so no timed sweep pays for starting it."""
    from repro.experiments.common import get_executor

    pool = get_executor(jobs)
    for future in [pool.submit(os.getpid) for _ in range(jobs)]:
        future.result()


# ------------------------------------------------------------------ memory


def _parents() -> dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; the parent pid
        # is the second field after its closing parenthesis.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, parent in _parents().items():
        children.setdefault(parent, []).append(pid)
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Summed peak resident set (VmHWM) of this process and all it started."""
    root = os.getpid()
    return sum(_peak_rss_kb(pid) for pid in (root, *_descendants(root))) / 1024.0


# --------------------------------------------------------------- processes


def _group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def stop_process(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Stop a child started with ``start_new_session=True`` and wait for it.

    SIGINT first (the CLI's own Ctrl-C path shuts its pool down cleanly),
    SIGKILL to the whole session if it does not exit in time; returns once
    no process of the session is left, pool workers included.
    """
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            _kill_group(process.pid)
            process.wait(timeout)
    deadline = time.monotonic() + timeout
    while _group_alive(process.pid):
        if time.monotonic() > deadline:
            _kill_group(process.pid)
            break
        time.sleep(0.02)
