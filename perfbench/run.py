"""Benchmark of higgsnum: end-to-end metrics per workload, per-layer traces.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root.  Each workload runs in fresh child
processes (perfbench/worker.py), generated from one sequential client.
With --trace 0 a run is SESSIONS sessions, each set up from scratch and
measuring at most S / SESSIONS seconds of whole op rotations, plus
SETUPS sessions that only set up, each between two bare interpreter
starts that calibrate it; it reports the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it is one session that runs the first
op cycles untraced, traced and counted, plus start-up probes; it
reports the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines above it
repeat the metrics for people, with the machine, the sample counts, the
fail ratio and the SHA-256 of the first cycle's output bytes.
perfbench/README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from oracles import EXPECTED_CHECKS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SESSIONS = 3
SETUPS = 9
RUN_LIMIT_S = 170
STARTUP_RUNS = 11


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    """The caller's environment, with src/ importable and the bytecode cache on.

    Every child reads and writes __pycache__ as a default installation
    does, whatever the caller set, so the cost of an import does not
    depend on who runs the benchmark.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def session(workload: str, seed: int, mode: str, budget: float, deadline: float) -> dict:
    """Run one worker process to its end and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--budget", repr(budget), "--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def startup_ms(deadline: float) -> tuple[float, float]:
    """Median bare interpreter start, and median extra time of `import higgsnum.cli`.

    Both at reference speed, each pair of probes scaled by the reference
    sampled around it.  The import time is the median of the pairs'
    differences, so drift between pairs cancels.
    """
    bare: list[float] = []
    imported: list[float] = []
    for _ in range(STARTUP_RUNS):
        before = speed.sample()
        measured = []
        for code in ("pass", "import higgsnum.cli"):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                                  capture_output=True, timeout=max(deadline - time.monotonic(), 1))
            if proc.returncode != 0:
                raise BenchError(f"python -c {code!r} failed: {proc.stderr.decode()[-300:]}")
            measured.append((time.perf_counter() - start) * 1e3)
        scale = speed.factor(before + speed.sample())
        bare.append(measured[0] * scale)
        imported.append((measured[1] - measured[0]) * scale)
    return statistics.median(bare), statistics.median(imported)


def setup_s(workload: str, seed: int, deadline: float) -> tuple[float, float, list]:
    """(setup_s, its measured median, the sessions) from SETUPS set-up-only sessions.

    A bare interpreter start is timed before each set-up and after the
    last one.  Each set-up is scaled by the mean of the two bare starts
    around it, and setup_s is the median of the scaled set-ups.
    """
    bare, measured, results = [speed.bare_start_s(ROOT, _env())], [], []
    for _ in range(SETUPS):
        results.append(session(workload, seed, "setup", 0, deadline))
        measured.append(results[-1]["setup_s"])
        bare.append(speed.bare_start_s(ROOT, _env()))
    scaled = [s * speed.BARE_START_NOMINAL_S * 2 / (bare[i] + bare[i + 1])
              for i, s in enumerate(measured)]
    return statistics.median(scaled), statistics.median(measured), results


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    """(metrics, run facts) from SESSIONS measuring sessions and SETUPS set-ups."""
    results = [session(workload, seed, "measure", seconds / SESSIONS, deadline)
               for _ in range(SESSIONS)]
    setup, setup_measured, setup_only = setup_s(workload, seed, deadline)
    cycles = [cycle for r in results for cycle in r["cycles_ns"]]
    durations_ms = sorted(d / 1e6 for cycle in cycles for d in cycle)
    n = len(durations_ms)
    metrics = {
        "setup_s": setup,
        # throughput of the median cycle: robust to a stall in one cycle
        "ops_per_s": statistics.median(len(cycle) / (sum(cycle) / 1e9) for cycle in cycles),
        "op_p50_ms": statistics.median(durations_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024,
    }
    digests = sorted({r["digest"] for r in results})
    problems = [p for r in results for p in r["self_test"]]
    if len(digests) > 1:
        problems.append("sessions on the same inputs printed different bytes")
    measured_ms = statistics.median(d / 1e6 for r in results for d in r["measured_ns"])
    notes = [f"{n} ops in {len(cycles)} cycles timed in {SESSIONS} sessions, {SETUPS} set-ups; "
             f"times are at reference speed, measured op_p50_ms = {measured_ms} ms, "
             f"measured setup_s = {setup_measured} s"]
    if n >= 100:
        # the highest percentile with at least ten samples beyond it
        rank = math.ceil(0.9 * n)
        notes.append(f"op_p90_ms = {durations_ms[rank - 1]} ms ({n} samples, {n - rank} beyond)")
    notes.append(f"output_sha256 = {' '.join(digests)} (first cycle)")
    return metrics, _outcome(results + setup_only, problems, notes)


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    """(metrics, run facts) from one traced session plus the start-up probes."""
    interpreter_ms, import_ms = startup_ms(deadline)
    r = session(workload, seed, "trace", 0, deadline)
    ops = r["ops"]
    calls = {name: count / ops for name, (count, _) in r["layers"].items()}
    self_ms = {name: self_ns / 1e6 / ops for name, (_, self_ns) in r["layers"].items()}
    traced_ms = r["traced_ns"] / 1e6 / ops
    metrics = {
        "startup.interpreter_ms": interpreter_ms,
        "startup.import_ms": import_ms,
        "cli.output_bytes": r["output_bytes"] / ops,
        "hn_branches.components": r["components"] / ops,
        "ns_lattice.validations_per_op": calls.get("ns_lattice.validate", 0),
        "hitchin_criterion.classify.calls_per_op": calls.get("hitchin_criterion.classify", 0),
        "hitchin_criterion.c2_gbun.calls_per_op": calls.get("hitchin_criterion.c2_gbun", 0),
        "kernel.fraction_new.calls": r["fraction_new"] / r["counted_ops"],
        "trace.untraced_op_ms": r["untraced_ns"] / 1e6 / ops,
        "trace.overhead_ratio": r["traced_ns"] / r["untraced_ns"],
        "trace.unwrapped_self_ms": traced_ms - sum(self_ms.values()),
    }
    for suite in EXPECTED_CHECKS:
        metrics[f"verify.{suite}.checks"] = r["verify_checks"].get(suite, 0) / ops
    for _, _, name in LAYERS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_ms"] = self_ms.get(name, 0)
    shares = sorted(((t / traced_ms, name) for name, t in self_ms.items()), reverse=True)
    notes = [
        f"{ops} ops traced ({r['spans']} spans), {r['counted_ops']} counted; "
        f"per-layer values are per op",
        "self-time shares: " + ", ".join(f"{name} {share:.1%}" for share, name in shares[:6]),
    ]
    if r["missing_layers"]:
        notes.append(f"warning: not found, reported as 0: {', '.join(r['missing_layers'])}")
    return metrics, _outcome([r], [], notes)


def _outcome(results: list[dict], problems: list[str], notes: list[str]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    notes.append(f"fail_ratio = {failed / attempted} ({failed} of {attempted} ops)")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "notes": notes + [f"error: {e}" for e in problems + errors],
    }


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "higgsnum" / "cli.py").is_file():
        print(f"no higgsnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()} commit={commit()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            if args.trace:
                metrics, outcome = per_layer(workload, args.seed, deadline)
            else:
                metrics, outcome = end_to_end(workload, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print(f"== {workload} (seed {args.seed}, {'traced' if args.trace else f'{args.seconds} s'})")
        prefix = f"{workload}." if args.workload == "all" else ""
        for m in wanted:
            print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
            total["metrics"][prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        for note in outcome["notes"]:
            print(note)
        total["correct"] = total["correct"] and outcome["correct"]
        total["attempted"] += outcome["attempted"]
        total["failed"] += outcome["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
