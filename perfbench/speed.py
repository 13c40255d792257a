"""Machine-speed normalisation of the times the benchmark reports.

On a small shared machine the speed of one core drifts by a quarter or
more over seconds, which is far wider than any bound a regression check
could use.  So the benchmark also times a fixed reference task between
the ops it calibrates, at most INTERVAL_S apart, and reports every time
scaled to the speed at which the reference takes its nominal time:

    reported = measured * NOMINAL_S / median(reference times around it)

There is one reference task for every workload.  It mixes what the
package spends its time on: `Fraction` arithmetic, JSON encoding with
indent, and building argparse parsers (many small objects).  It runs in
the process of the ops it calibrates, because a reference in a helper
process tracked the ops' speed worse than none.  The garbage collector
is off while it is timed, so its time does not depend on the heap or
the collector state the package leaves behind.

Set-up is a process start, so run.py scales it by the median time of a
bare interpreter start (`bare_start_s`) instead.

Neither reference calls the package, so a change to the package moves
reported times exactly as it moves measured ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# about the median times on the machine the benchmark was defined on
# (2 vCPUs, Python 3.11), so reported times stay close to measured ones
# there
NOMINAL_S = 4.0e-3
BARE_START_NOMINAL_S = 65e-3
SAMPLES = 3
INTERVAL_S = 0.1


def task() -> None:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    json.dumps({str(i): [i, -i, str(acc.denominator % 1000)] for i in range(200)}, indent=2)
    for k in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c"):
            p = sub.add_parser(name)
            p.add_argument("--value", type=int, default=k)
            p.add_argument("-r", "--rank")
        parser.parse_args(["b", "--value", "3"])


def sample() -> list[float]:
    """SAMPLES times of the reference task, taken back to back."""
    times = []
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = time.perf_counter()
            task()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def factor(samples: list[float]) -> float:
    """Scale that takes times measured alongside `samples` to reference speed."""
    return NOMINAL_S / statistics.median(samples)


def bare_start_s(cwd: Path, env: dict) -> float:
    """Wall time of one `python -c pass`.

    Its output is captured so that the wait for its end is a blocking
    read: without pipes, a wait with a timeout polls, in steps of up to
    50 ms.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, capture_output=True,
                   check=True, timeout=60)
    return time.perf_counter() - start
