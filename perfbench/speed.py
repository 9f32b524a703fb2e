"""Host-speed calibration for the end-to-end figures.

On a shared host the same code runs up to 1.7 times slower for stretches of
tens of seconds, because neighbours contend for the core and its caches.
Longer runs do not average that out. So the closed loop times a fixed
calibration workload next to the measured work (before and after each
segment of half a second, or of a second for the CLI workload, and around
each set-up) and reports every time scaled to the host speed at which the
calibration takes REFERENCE_S:

    adjusted = measured * REFERENCE_S / (mean of the segment's two calibrations)

The calibration is the benchmark's own code and data, never the program's,
so a change to lqplan cannot move it. It mixes what lqplan spends its time
on: an interpreted loop, JSON parsing into small objects, and frozenset
intersections over a pool of sets. The report prints the measured times and
the host slowdown (median calibration / REFERENCE_S) next to the adjusted
ones.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from time import perf_counter

# The calibrations' times on the 2-vCPU x86-64 VM (CPython 3.11) the
# benchmark was tuned on, in a quiet stretch; host slowdowns of 0.8 to 1.6
# against them were seen there. They only set the scale: adjusted times
# read as seconds at that speed.
REFERENCE_S = 0.015
REFERENCE_PROCESS_S = 0.15

_DOC = json.dumps([
    {"id": f"u{i}", "pre": [f"k{(i * 7919 + j * 104729) % 9000}" for j in range(3)],
     "obj": [f"k{(i * 6151 + j * 130363) % 9000}" for j in range(3)], "d": i / 2400}
    for i in range(2400)
])
_POOL = [frozenset(f"k{(i * 3571 + j * 15485863) % 9000}" for j in range(12)) for i in range(8000)]
_TARGET = frozenset(f"k{i * 15 % 9000}" for i in range(600))


def _work() -> int:
    total = 0
    for i in range(60000):
        total += i * i
    units = json.loads(_DOC)
    total += sum(len(frozenset(u["pre"]) | frozenset(u["obj"])) for u in units)
    total += sum(len(s & _TARGET) for s in _POOL)
    return total


def calibrate() -> float:
    """Seconds one calibration takes now, in this process."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def calibrate_process() -> float:
    """Seconds a fresh interpreter takes now to start, build the data above
    and run one calibration. The CLI workload is timed against this, because
    process start-up (exec, imports, page faults) slows down differently
    from work inside one process."""
    start = perf_counter()
    code, _, _ = run_process([sys.executable, __file__], timeout=60)
    if code != 0:
        raise RuntimeError(f"the calibration process exited {code}")
    return perf_counter() - start


def run_process(argv: list[str], timeout: float, **kwargs) -> tuple[int, bytes, bytes]:
    """Run a child to its end; returns (exit code, stdout, stderr). A timer
    kills it after ``timeout`` seconds. ``subprocess.run(timeout=...)``
    would instead poll for the exit in sleeps of up to 50 ms, which shows
    up in every timed process."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    if proc.returncode < 0:
        raise RuntimeError(f"{argv[1]} was stopped by signal {-proc.returncode}")
    return proc.returncode, out, err


_work()  # first use allocates; keep it off every calibration
