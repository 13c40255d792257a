"""One session of a benchmark workload, run in a fresh process by run.py.

The session generates its inputs from the seed, imports the package and
warms up, which is its set-up, then runs its ops one after another in
this process through `higgsnum.cli.main` (a closed loop with one client)
and prints one JSON line with what it measured.  Op times are reported
at reference speed (speed.py), with the measured ones beside.

  setup    nothing more: the session only reports its set-up time
  measure  first a memory pass: the first cycle, its output only hashed,
           nothing checked, and then ru_maxrss, so that the peak is the
           package's and not the oracles'; then whole
           rotations of ops, checked, until --budget seconds would be
           exceeded by one more; op times are taken around the call
           only, never the check
  trace    the first cycles of the same op sequence: untraced, traced
           by tracer.Tracer, untraced again, then under a sys.setprofile
           counter of Fraction.__new__ calls

Every output of the checked passes is checked by oracles.check.  Paths
are relative to the repository root, which is the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import oracles
import speed
import tracer
import workloads

OUT = Path("perfbench/out")
CHUNK = 1 << 16


class DigestSink(io.TextIOBase):
    """A stdout that keeps only a SHA-256 of what is written."""

    def __init__(self, digest) -> None:
        super().__init__()
        self.digest = digest

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        # in slices, so the sink never holds a copy of a large output
        for i in range(0, len(text), CHUNK):
            self.digest.update(text[i:i + CHUNK].encode())
        return len(text)


def run_in_process(main, op: workloads.Op, out) -> tuple:
    """`higgsnum.cli.main` in this process, stdout to `out`: (rc, stderr, ns)."""
    err = io.StringIO()
    saved = {key: os.environ.get(key) for key, _ in op.env}
    os.environ.update(op.env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                rc = main(list(op.argv))
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter_ns() - start
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return rc, err.getvalue(), elapsed


class Session:
    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.errors: list[str] = []
        self.tracer = None

    def run(self, op: workloads.Op) -> tuple:
        """Run one op: (rc, stdout, stderr, measured ns)."""
        out = io.StringIO()
        rc, err, elapsed = run_in_process(self.main, op, out)
        return rc, out.getvalue(), err, elapsed

    def execute(self, op: workloads.Op) -> tuple:
        if self.tracer is not None:
            self.tracer.op += 1
        self.attempted += 1
        return self.run(op)

    def check(self, op: workloads.Op, rc, out: str, err: str):
        """The envelope of a correct output, else None with the error recorded."""
        error, envelope = oracles.check(op, rc, out)
        if error is not None:
            self.errors.append(f"{' '.join(op.argv)}: {error} {err.strip()[-300:]}")
        return envelope

    def op(self, op: workloads.Op) -> None:
        self.check(op, *self.execute(op)[:3])


def timed_cycles(session: Session, cycles, keep_going=lambda index: True, on_output=None) -> list:
    """Run cycles while keep_going(index of the cycle just run); per cycle, per op
    (ns at reference speed, measured ns).

    The reference is sampled right after an op once speed.INTERVAL_S has
    passed since the last sample, and the ops in between are scaled by
    the machine speed measured just before and just after them.
    """
    times: list[list[list[float]]] = []
    pending: list[list[float]] = []
    before, last = speed.sample(), time.perf_counter()

    def calibrate() -> None:
        nonlocal before, last
        after = speed.sample()
        scale = speed.factor(before + after)
        for item in pending:
            item[0] = item[1] * scale
        pending.clear()
        before, last = after, time.perf_counter()

    for index, cycle in enumerate(cycles):
        times.append([])
        for op in cycle:
            rc, out, err, elapsed = session.execute(op)
            times[-1].append([elapsed, elapsed])
            pending.append(times[-1][-1])
            if time.perf_counter() - last >= speed.INTERVAL_S:
                calibrate()
            envelope = session.check(op, rc, out, err)
            if on_output is not None:
                on_output(index, op, out, envelope)
        if not keep_going(index):
            break
    if pending:
        calibrate()
    return [[(scaled, measured) for scaled, measured in cycle] for cycle in times]


def peak_rss(session: Session, cycle: list) -> tuple[int, str]:
    """(ru_maxrss in KiB, output digest) after running `cycle` with nothing checked."""
    digest = hashlib.sha256()
    sink = DigestSink(digest)
    for op in cycle:
        session.attempted += 1
        rc, err, _ = run_in_process(session.main, op, sink)
        if rc != 0:
            session.errors.append(f"{' '.join(op.argv)}: exit code {rc} {err.strip()[-300:]}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, digest.hexdigest()


def measure(session: Session, plan: workloads.Plan, budget: float) -> dict:
    first = next(plan.cycles)
    peak_rss_kb, memory_digest = peak_rss(session, first)

    digest = hashlib.sha256()
    self_test: list[str] = []
    tested: set[str] = set()

    def first_cycle(index, op, out, envelope) -> None:
        if index > 0:
            return
        digest.update(out.encode())
        if envelope is not None and op.command not in tested:
            tested.add(op.command)
            problem = oracles.self_test(op, out)
            if problem is not None:
                self_test.append(problem)

    start = last = time.perf_counter()

    def keep_going(index: int) -> bool:
        """At a rotation's end: is there time for one more as long as this one?"""
        nonlocal last
        if (index + 1) % plan.rotation:
            return True
        now = time.perf_counter()
        rotation_s, last = now - last, now
        return now - start + rotation_s <= budget

    times = timed_cycles(session, itertools.chain([first], plan.cycles), keep_going, first_cycle)
    if digest.hexdigest() != memory_digest:
        self_test.append("the memory pass and the checked pass printed different bytes")
    return {
        "cycles_ns": [[scaled for scaled, _ in cycle] for cycle in times],
        "measured_ns": [measured for cycle in times for _, measured in cycle],
        "peak_rss_kb": peak_rss_kb,
        "digest": digest.hexdigest(),
        "self_test": self_test,
    }


def trace(session: Session, plan: workloads.Plan, spans_path: Path) -> dict:
    cycles = [next(plan.cycles) for _ in range(plan.trace_cycles)]
    # untraced before and after the traced pass, so that drift and warm-up cancel
    untraced = sum(timed_cycles(session, cycles), [])

    t = tracer.Tracer()
    outputs = []
    session.tracer = t
    t.install()
    try:
        traced = sum(timed_cycles(session, cycles, on_output=lambda index, op, out, envelope:
                                  outputs.append((op, len(out.encode()), envelope))), [])
    finally:
        t.remove()
        session.tracer = None
    t.write(spans_path)
    untraced += sum(timed_cycles(session, cycles), [])

    # the ops alone are counted: their outputs were checked in the passes above
    counted = [op for cycle in cycles[: plan.count_cycles] for op in cycle]
    fraction_new = sum(tracer.count_calls(Fraction.__new__.__code__,
                                          lambda op=op: session.run(op)) for op in counted)

    checks: dict[str, int] = {}
    components = 0
    for op, _, envelope in outputs:
        if envelope is None:
            continue
        if op.command == "branches":
            components += envelope["payload"]["count"]
        if op.command == "verify":
            for suite in envelope["payload"]["suites"]:
                checks[suite["name"]] = checks.get(suite["name"], 0) + suite["checks"]
    return {
        "ops": len(outputs),
        "untraced_ns": sum(scaled for scaled, _ in untraced) / 2,
        "traced_ns": sum(scaled for scaled, _ in traced),
        "layers": t.self_times([scaled / measured for scaled, measured in traced]),
        "missing_layers": t.missing,
        "fraction_new": fraction_new,
        "counted_ops": len(counted),
        "output_bytes": sum(size for _, size, _ in outputs),
        "components": components,
        "verify_checks": checks,
        "spans": len(t.spans),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() just before the parent started this process")
    args = ap.parse_args()

    plan = workloads.plan(args.workload, args.seed, OUT / "inputs" / f"{args.workload}-{args.seed}")
    from higgsnum import cli

    session = Session(cli.main)
    for op in plan.warmup:
        session.op(op)
    # CLOCK_MONOTONIC is one clock for all processes of the machine
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    if args.mode == "setup":
        result = {}
    elif args.mode == "measure":
        result = measure(session, plan, args.budget)
    else:
        result = trace(session, plan, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    result.update(setup_s=setup_s, attempted=session.attempted, failed=len(session.errors),
                  errors=session.errors[:5])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
