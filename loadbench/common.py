"""Shared measurement helpers for the load benchmark.

Everything here is stdlib-only so the benchmark can report a clean
error (and a non-zero exit) in a directory that does not hold the
``repro`` sources.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Checkout root: the directory that holds ``loadbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds a spawned deployment process may take to print its banner.
SPAWN_TIMEOUT_S = 60.0


def cpus() -> List[int]:
    """CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def worker_count(usable: Sequence[int]) -> int:
    """Processes the remote deployment runs: one per usable CPU, at most
    four so a large machine does not multiply memory use."""
    return min(len(usable), 4)


def pin_self(cpu: int) -> None:
    """Pin the load generator (and threads it starts later) to ``cpu``.

    Placement is part of the set-up, and every process of a run shares
    one CPU.  A client and server exchanging one request at a time ran
    up to twice as fast when the scheduler happened to put them on one
    core, and on a shared machine the speed of a second CPU moved by 40%
    from run to run, which a sharded op waits on.
    """
    os.sched_setaffinity(0, {cpu})


def subprocess_env() -> Dict[str, str]:
    """Environment for deployment processes: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def work_dir() -> Path:
    """A fresh scratch directory inside the checkout (removed by caller)."""
    base = ROOT / ".loadbench-work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


# -- statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float], beyond: int = 10
         ) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  With fewer than
    ``beyond + 1`` samples the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    if count <= beyond:
        return ordered[-1], 100.0, count
    index = count - beyond - 1
    return ordered[index], 100.0 * (index + 1) / count, count


# -- processes -----------------------------------------------------------


@dataclass
class Spawned:
    """A deployment process and the address its banner announced."""

    process: subprocess.Popen
    host: str
    port: int
    started: float

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the live process, in MB."""
        return peak_rss_of(self.process.pid)

    def stop(self) -> None:
        stop_process(self.process)


def spawn_start(args: List[str], cpu: Optional[int] = None
                ) -> Tuple[subprocess.Popen, float]:
    """Start ``python ARGS`` from the checkout root, optionally pinned to
    one CPU; see :func:`await_banner`."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, *args], cwd=str(ROOT), env=subprocess_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if cpu is not None:
        os.sched_setaffinity(process.pid, {cpu})
    return process, started


def read_until(pending: Tuple[subprocess.Popen, float], marker: str) -> str:
    """The first stdout line of a started process that holds ``marker``."""
    process, started = pending
    while True:
        line = process.stdout.readline()
        if not line or time.perf_counter() > started + SPAWN_TIMEOUT_S:
            stop_process(process)
            raise RuntimeError(f"{process.args[1:4]} failed: {line!r}")
        if marker in line:
            return line


def await_banner(pending: Tuple[subprocess.Popen, float],
                 marker: str = "listening on") -> Spawned:
    """Wait for the ``listening on HOST:PORT`` line of a started process."""
    line = read_until(pending, marker)
    host, _, port = line.split(marker, 1)[1].split()[0].rpartition(":")
    return Spawned(pending[0], host, int(port), pending[1])


def spawn(args: List[str], cpu: Optional[int] = None) -> Spawned:
    return await_banner(spawn_start(args, cpu))


def stop_process(process: subprocess.Popen, timeout: float = 15.0) -> None:
    """Terminate, then kill if needed; always reap.

    SIGTERM, not SIGINT: a process started from a background job
    inherits an ignored SIGINT, and Python then never turns it into
    ``KeyboardInterrupt``.  Servers and workers flush their journal
    lines as they go, so nothing is lost.
    """
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


def reap_children() -> None:
    """Kill and reap any child process still running.

    The normal paths stop what they start; this is the backstop for an
    interrupted run (SIGTERM can land between a spawn and its cleanup).
    """
    own = os.getpid()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) != own:
            continue
        pid = int(entry.name)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def peak_rss_of(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    return peak_rss_of(os.getpid())


# -- results -------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload pass measured.

    ``metrics`` maps a metric name to ``(value, unit)``; ``notes`` are
    printed with the provenance line (tail percentile, sample count,
    counts that explain a metric).
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def end_to_end(outcome: Outcome, ops: Sequence[Tuple[float, float]],
               elapsed_s: float, setup_times: Sequence[float],
               peak_rss_mb: float) -> None:
    """The six user-visible metrics every workload reports, from the
    ``(sent, answered)`` times of the timed ops."""
    latencies_s = [end - start for start, end in ops]
    value, percentile, count = tail(latencies_s)
    answered = max(outcome.attempted - outcome.failed, 0)
    outcome.put("setup_s", median(setup_times), "s")
    outcome.put("ops_per_s", len(latencies_s) / elapsed_s, "1/s")
    outcome.put("latency_p50_ms", 1000.0 * median(latencies_s), "ms")
    outcome.put("latency_tail_ms", 1000.0 * value, "ms")
    outcome.put("answered_ratio",
                answered / outcome.attempted if outcome.attempted else 0.0,
                "ratio")
    outcome.put("peak_rss_mb", peak_rss_mb, "MB")
    outcome.notes.update({
        "tail_percentile": round(percentile, 3),
        "latency_samples": count,
        "setup_samples_s": [round(item, 4) for item in setup_times],
        "timed_s": round(elapsed_s, 3),
    })


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - reported, not fatal here
        numpy_version = "missing"
    return {
        "workload": workload, "seed": seed, "run_seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "machine": platform.machine(), "commit": git_commit(),
    }


def emit(outcome: Outcome, names: Iterable[str],
         info: Dict[str, Any]) -> int:
    """Print every metric with its unit, the provenance line, and the
    single-line JSON result (last line); return the exit status."""
    names = list(names)
    missing = [name for name in names if name not in outcome.metrics]
    for name in missing:
        outcome.fail(f"metric {name} was not measured")
    for name in names:
        if name in outcome.metrics:
            value, unit = outcome.metrics[name]
            print(f"{name:40s} {value:14.6g} {unit}")
    for message in outcome.failures:
        print(f"CHECK FAILED: {message}")
    info = dict(info, **outcome.notes)
    print("provenance " + json.dumps(info, sort_keys=True))
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": outcome.metrics[name][0],
                   "unit": outcome.metrics[name][1]}
            for name in names if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1
