"""Outside-in tracing of the package: spans around its public functions.

`Tracer.install` wraps each function named in LAYERS and rebinds every
`higgsnum.*` module attribute that refers to the original, so a module
that did `from .ns_lattice import pair` calls the wrapper too; `remove`
puts the originals back.  A span records (name, start, end, parent, op)
in memory.  A direct recursive call of a wrapped function (`encode`
calls itself) stays inside its caller's span rather than opening one
per level.  Self time is a span's duration minus the time its child
spans cover.

The package is not changed: tracing lives only in the benchmark.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable

# (module under higgsnum, attribute, span name)
LAYERS = (
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "load_surface", "cli.load_surface"),
    ("cli", "encode", "cli.encode"),
    ("cli", "_print_envelope", "cli.print"),
    ("ns_lattice", "pair", "ns_lattice.pair"),
    ("ns_lattice", "inertia", "ns_lattice.inertia"),
    ("ns_lattice", "NSLattice.__post_init__", "ns_lattice.validate"),
    ("surface_chow", "chow_mul", "surface_chow.chow_mul"),
    ("surface_chow", "todd_surface", "surface_chow.todd_surface"),
    ("surface_chow", "chi", "surface_chow.chi"),
    ("proj_bundle", "y_mul", "proj_bundle.y_mul"),
    ("spectral", "grr_pushforward", "spectral.grr_pushforward"),
    ("spectral", "chi_two_ways", "spectral.chi_two_ways"),
    ("hitchin_criterion", "classify", "hitchin_criterion.classify"),
    ("hitchin_criterion", "c2_gbun", "hitchin_criterion.c2_gbun"),
    ("hn_branches", "monopole_components", "hn_branches.monopole_components"),
    ("hn_branches", "discriminant_identity", "hn_branches.discriminant_identity"),
    ("verify", "run_suites", "verify.run_suites"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] is name:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "higgsnum" or n.startswith("higgsnum.")) and m is not None]
        for module, attr, name in LAYERS:
            owner = sys.modules.get(f"higgsnum.{module}")
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if path:
                self._rebind(owner, last, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapped)

    def remove(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def self_times(self, scales: list[float]) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in ns, each op's scaled by scales[op])."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls, self_ns = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_ns + (end - start - covered[i]) * scales[op])
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: [op, name, start_ns, end_ns, parent index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([op, name, start, end, parent]) + "\n")


def count_calls(code, fn: Callable[[], object]) -> int:
    """Run fn under sys.setprofile and count the calls that enter `code`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
