"""Shared pieces of the benchmark: the per-run context, the host-speed
clock, statistics, memory readings and set-up timing."""

from __future__ import annotations

import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .trace import Tracer

#: per-layer metrics and their units, in the order they are printed.
#: Every ``*_s`` metric whose stem is a span name is that span's summed
#: self time; the rest are filled in by the workloads.
LAYER_METRICS: Dict[str, str] = {
    "core.build_s": "s",
    "core.compile_s": "s",
    "core.schedule_s": "s",
    "core.vertices": "count",
    "core.edges": "count",
    "bounds.wavefront_s": "s",
    "pebbling.game_s": "s",
    "pebbling.moves": "count",
    "pebbling.io": "count",
    "evaluation.grid_s": "s",
    "evaluation.cell.e7_s": "s",
    "evaluation.cell.spill_s": "s",
    "evaluation.cell.other_s": "s",
    "evaluation.overhead_s": "s",
    "evaluation.reproduce_s": "s",
    "service.request_s": "s",
    "service.requests": "count",
    "service.errors": "count",
    "service.hit_p50_ms": "ms",
    "service.miss_p50_ms": "ms",
    "service.p99_ms": "ms",
    "service.leak_kb_per_req": "KB",
    "service.fds_per_req": "count",
    "store.hit_rate": "ratio",
    "store.hits": "count",
    "store.misses": "count",
    "store.puts": "count",
    "store.db_bytes": "bytes",
    "obs.scrape_ms": "ms",
    "trace.wall_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: end-to-end metrics (measured with tracing off) and their units
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms": "ms",
}

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: seconds ``reference_loop`` takes on the reference box (2-core VM,
#: Python 3.11) when no other tenant loads it
REF_NOMINAL_S = 0.0155


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop (integer arithmetic and dict
    stores, like most of ``repro``'s inner loops) takes right now."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(100_000):
        s += i * i % 7
        d[i % 4096] = s
    return time.perf_counter() - t0


class HostClock:
    """Rescales wall times to the reference box's speed.

    The shared 2-core hosts this runs on change speed by up to 2x for
    stretches of seconds to minutes, as other tenants load them, and
    ``reference_loop`` slows with the program.  ``scale(wall)`` runs the
    loop once and returns ``wall * REF_NOMINAL_S / r``, where ``r`` is
    the mean of the loop's time just before the unit (the previous
    ``scale`` or ``mark``) and just after it.  A change to the program
    moves the unit's time and not the loop's, so it still shows.
    """

    def __init__(self) -> None:
        self.refs: List[float] = [reference_loop()]

    def mark(self) -> None:
        """Take the "before" reading now, ahead of a unit that does not
        directly follow the previous one."""
        self.refs.append(reference_loop())

    def scale(self, wall: float) -> float:
        self.refs.append(reference_loop())
        return wall * REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)

    def speed(self) -> float:
        """Host speed relative to the reference box (below 1: slower)."""
        return REF_NOMINAL_S / median(self.refs)


class Run:
    """One benchmark run: its inputs, its tracer, and what it counted.

    ``attempted``/``failed`` count operations (a CDAG pipeline, a sweep,
    a request, a check); ``failures`` keeps one message per failed one.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool, root: Path, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.root = root
        self.work = work
        self._null = Tracer(enabled=False)
        #: records the spans of the traced units (disabled when untraced)
        self.spans = Tracer(enabled=True) if trace else self._null
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: end-to-end values the workload measured (``work_per_s``, ...)
        self.e2e: Dict[str, float] = {}
        #: per-layer values that are not span self times
        self.layers: Dict[str, float] = {}
        #: workload-specific figures printed for people: name -> (value,
        #: unit)
        self.report: Dict[str, Tuple[float, str]] = {}
        #: scaled seconds per unit of work of each unit (round, sweep,
        #: request), split by whether the unit was traced
        self.unit_cost: Dict[bool, List[float]] = {True: [], False: []}

    # -- tracing -------------------------------------------------------
    def tracer_for(self, index: int) -> Tracer:
        """Tracer for unit ``index``.  A traced run traces every other
        unit, so the untraced ones measure what tracing costs."""
        return self.spans if self.trace and index % 2 == 0 else self._null

    def unit_done(self, traced: bool, seconds: float, work: float = 1.0
                  ) -> None:
        """Log one unit's time per unit of work it did (vertices, cells,
        one request); traced and untraced units are compared for the
        tracing overhead."""
        self.unit_cost[traced].append(seconds / work)

    # -- outcomes ------------------------------------------------------
    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def expired(self, started: float, units: int) -> bool:
        """True once ``--seconds`` have passed since ``started`` and
        enough units ran: one, or two in a traced run (one traced and
        one untraced, for the overhead)."""
        return (units >= (2 if self.trace else 1)
                and time.perf_counter() - started >= self.seconds)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def private_rss_mb(pid: int) -> float:
    """Current anonymous + shared-memory resident set of a live process
    (``RssAnon + RssShmem``), in MiB.  File-backed pages are left out:
    they are page cache, which a process maps without owning."""
    kb = 0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(("RssAnon:", "RssShmem:")):
                kb += int(line.split()[1])
    return kb / 1024.0


def child_env(root: Path, work: Path) -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the
    path, temporary files inside the run's work directory, unbuffered
    output so ready lines arrive at once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def start_until_ready(argv: List[str], env: Dict[str, str], cwd: Path,
                      ready: str, stderr, timeout: float = 60.0
                      ) -> Tuple[float, subprocess.Popen, str]:
    """Start ``argv`` and wait for a stdout line starting with
    ``ready``; returns (seconds from spawn to that line, process, line).
    A daemon thread drains the child's stdout so it never blocks on a
    full pipe.  The process is stopped and reaped if it never gets
    ready within ``timeout`` seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                            env=env, cwd=str(cwd), text=True)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def drain() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=drain, daemon=True).start()
    try:
        while True:
            remaining = t0 + timeout - time.perf_counter()
            line = lines.get(timeout=max(remaining, 0.001))
            if line is None:
                raise RuntimeError(f"{argv[1:]} exited before {ready!r}")
            if line.startswith(ready):
                return time.perf_counter() - t0, proc, line
    except queue.Empty:
        stop(proc)
        raise RuntimeError(f"{argv[1:]} not ready after {timeout:g}s")
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Interrupt a child, escalate to SIGKILL, and always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def open_fds(pid: int) -> int:
    """Number of file descriptors a live process holds."""
    return len(os.listdir(f"/proc/{pid}/fd"))


def probe_setup(run: Run) -> float:
    """Median seconds (host-speed scaled) from spawning a fresh
    interpreter to the moment it has imported what ``run.workload``
    needs and is ready to work."""
    argv = [sys.executable, str(run.root / "perfbench" / "setup_probe.py"),
            run.workload, str(run.work)]
    env = child_env(run.root, run.work)
    times = []
    for _ in range(SETUP_REPEATS):
        run.clock.mark()
        seconds, proc, _line = start_until_ready(
            argv, env, run.root, "ready", subprocess.DEVNULL)
        try:
            proc.wait(30)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        times.append(run.clock.scale(seconds))
    return median(times)
