"""Seeded inputs for the benchmark workloads.

Every workload is a closed loop with one client: the next op starts only
after the previous one has finished.  Ops come in cycles.  A cycle holds
the same mix of commands and input sizes every time, with the details
(surface, vectors, c2, verify seed) drawn afresh from the seeded
generator.  Where cycles take turns over several input sets, a rotation
is one cycle on each set, and a run measures whole rotations only.  So
the mix a run measures does not depend on how fast the machine is, and
two seeds give the same mix with different inputs.

The program sees only the generated inputs: command lines, surface
files and, for verify, the HIGGS_SEED variable.  The surface records
kept here are what the oracles recompute the answers from.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

WORKLOADS = ("query_small", "query_lattice", "verify_all", "branches_large")

QUERY_COMMANDS = ("criterion", "grr", "spectral", "ybundle", "surface")
SMALL_PRESETS = ("p2", "hypersurface:1", "hypersurface:3", "hypersurface:4",
                 "hypersurface:5", "hypersurface:6")
LATTICE_RANKS = (8, 12, 16, 20, 24, 28, 32)
# cost varies between random lattices of one rank, so a run visits several
LATTICE_SETS = 4
# (cover rank r, point count n): the components are the partitions of n
# into at most r parts, 9,749 to 15,961 of them.  Components times r,
# which sets the output size, is 64k to 78k for each, so every op of a
# cycle costs about the same and the median op is not a jump between sizes.
BRANCH_SIZES = ((4, 127), (5, 72), (6, 53), (7, 45), (8, 40))


class Surface(NamedTuple):
    """A surface as the benchmark knows it: the --surface text and its data."""

    spec: str
    name: str
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    polarization: tuple[int, ...]
    c2_top: int

    @property
    def rank(self) -> int:
        return len(self.gram)


class Op(NamedTuple):
    """One query: `higgsnum <argv>` with `env` set, and the facts to check it by."""

    command: str
    argv: tuple[str, ...]
    surface: Optional[Surface]
    params: dict
    env: tuple[tuple[str, str], ...] = ()


class Plan(NamedTuple):
    """What one session of a workload runs: `rotation` cycles at a time."""

    warmup: list[Op]
    cycles: Iterator[list[Op]]
    rotation: int
    trace_cycles: int
    count_cycles: int


def pair(gram, v, w) -> int:
    return sum(vi * gram[i][j] * w[j] for i, vi in enumerate(v) if vi for j in range(len(w)))


def preset(spec: str) -> Surface:
    """The preset surfaces: the plane, and degree-d hypersurfaces in P^3."""
    if spec == "p2":
        return Surface(spec, spec, ((1,),), (-3,), (1,), 3)
    d = int(spec.split(":", 1)[1])
    return Surface(spec, spec, ((d,),), (d - 4,), (1,), d**3 - 4 * d**2 + 6 * d)


def random_surface(rng: random.Random, rank: int, spec: str, name: str) -> Surface:
    """A random surface whose lattice has signature (1, rank - 1).

    The gram matrix is U^T D U with D = diag(a, -b_1, ..., -b_{rank-1}) for
    a random unimodular U, and L = U^-1 e_0, so L^2 = a > 0.  K = U^-1 c
    with c_k = D_k mod 2, so K is characteristic (K.v = v.v mod 2 for all
    v, as Wu's formula has it for a real surface), and c2 is chosen so
    that 12 divides K^2 + c2.
    """
    diag = [rng.randint(1, 3)] + [-rng.randint(1, 3) for _ in range(rank - 1)]
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        m = rng.choice((-1, 1))
        # u <- (1 + m E_ij) u and u_inv <- u_inv (1 - m E_ij)
        u[i] = [a + m * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= m * row[i]
    gram = tuple(
        tuple(sum(u[k][i] * diag[k] * u[k][j] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )
    c = [d + 2 * rng.randint(-1, 1) for d in diag]
    canonical = tuple(sum(row[k] * c[k] for k in range(rank)) for row in u_inv)
    c2 = rng.randint(0, 48)
    c2 += -(pair(gram, canonical, canonical) + c2) % 12
    return Surface(spec, name, gram, canonical, tuple(row[0] for row in u_inv), c2)


def write_surface(s: Surface) -> None:
    data = {
        "name": s.name,
        "ns_rank": s.rank,
        "gram": [list(row) for row in s.gram],
        "canonical": list(s.canonical),
        "polarization": list(s.polarization),
        "c2_top": s.c2_top,
    }
    Path(s.spec).write_text(json.dumps(data), encoding="utf-8")


def _vec_text(v) -> str:
    return ",".join(str(c) for c in v)


def c2_threshold_times_24r(s: Surface, r: int, c1) -> int:
    """24 r c2_gbun = 12 (r - 1) c1^2 - r^2 (r^2 - 1) L^2, in integers."""
    l2 = pair(s.gram, s.polarization, s.polarization)
    return 12 * (r - 1) * pair(s.gram, c1, c1) - r * r * (r * r - 1) * l2


def solvable_c1(rng: random.Random, s: Surface, r: int):
    """c1 = r delta - r(r-1)/2 L for a random delta, so delta solves the criterion."""
    delta = [rng.randint(-4, 4) for _ in range(s.rank)]
    shift = r * (r - 1) // 2
    return tuple(r * d - shift * l for d, l in zip(delta, s.polarization))


def _criterion(rng: random.Random, s: Surface) -> Op:
    r = rng.randint(1, 4)
    if rng.random() < 0.5:
        c1 = solvable_c1(rng, s, r)
        # the threshold is an integer when delta exists
        c2 = c2_threshold_times_24r(s, r, c1) // (24 * r) + rng.randint(-3, 12)
    else:
        c1 = tuple(rng.randint(-6, 6) for _ in range(s.rank))
        c2 = rng.randint(-5, 30)
    argv = ("criterion", "--surface", s.spec, "-r", str(r), f"--c1={_vec_text(c1)}",
            "--c2", str(c2))
    return Op("criterion", argv, s, {"r": r, "c1": c1, "c2": c2})


def _grr(rng: random.Random, s: Surface) -> Op:
    r = rng.randint(1, 5)
    delta = tuple(rng.randint(-4, 4) for _ in range(s.rank))
    points = rng.randint(0, 20)
    argv = ("grr", "--surface", s.spec, "-r", str(r), f"--delta={_vec_text(delta)}",
            "--points", str(points))
    return Op("grr", argv, s, {"r": r, "delta": delta, "points": points})


def _spectral(rng: random.Random, s: Surface) -> Op:
    r = rng.randint(1, 6)
    return Op("spectral", ("spectral", "--surface", s.spec, "-r", str(r)), s, {"r": r})


def _ybundle(rng: random.Random, s: Surface) -> Op:
    r = rng.randint(1, 6)
    return Op("ybundle", ("ybundle", "--surface", s.spec, "-r", str(r)), s, {"r": r})


def _surface(rng: random.Random, s: Surface) -> Op:
    return Op("surface", ("surface", "--surface", s.spec), s, {})


QUERY_MAKERS = {
    "criterion": _criterion,
    "grr": _grr,
    "spectral": _spectral,
    "ybundle": _ybundle,
    "surface": _surface,
}


def branches_op(rng: random.Random, s: Surface, r: int, n: int) -> Op:
    """A branches query in the Boundary/Generic regime with n points to place."""
    c1 = solvable_c1(rng, s, r)
    c2 = c2_threshold_times_24r(s, r, c1) // (24 * r) + n
    argv = ("branches", "--surface", s.spec, "-r", str(r), f"--c1={_vec_text(c1)}",
            "--c2", str(c2))
    return Op("branches", argv, s, {"r": r, "c1": c1, "c2": c2})


def verify_op(higgs_seed: int, suite: str = "all") -> Op:
    argv = ("verify",) if suite == "all" else ("verify", "--suite", suite)
    return Op("verify", argv, None, {"seed": higgs_seed, "suite": suite},
              (("HIGGS_SEED", str(higgs_seed)),))


def _small_surfaces(rng: random.Random, input_dir: Path) -> list[Surface]:
    surfaces = [preset(p) for p in SMALL_PRESETS]
    surfaces.append(Surface(str(input_dir / "blowup.json"), "blowup-p2",
                            ((1, 0), (0, -1)), (-3, 1), (2, -1), 4))
    for i in range(3):
        surfaces.append(random_surface(rng, 2, str(input_dir / f"rank2-{i}.json"), f"rank2-{i}"))
    return surfaces


def _write_files(surfaces: list[Surface], input_dir: Path) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for s in surfaces:
        if s.spec.endswith(".json"):
            write_surface(s)


def _query_cycles(rng: random.Random, surface_sets: list[list[Surface]]) -> Iterator[list[Op]]:
    """Cycle i: every command on every surface of set i (mod the number of sets), shuffled."""
    for surfaces in itertools.cycle(surface_sets):
        cycle = [QUERY_MAKERS[c](rng, s) for s in surfaces for c in QUERY_COMMANDS]
        rng.shuffle(cycle)
        yield cycle


def _verify_cycles(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        yield [verify_op(rng.randrange(1, 10**6))]


def _branch_cycles(rng: random.Random, surfaces: list[Surface]) -> Iterator[list[Op]]:
    """Each cycle: one query of every size, on surfaces drawn at random."""
    while True:
        cycle = [branches_op(rng, rng.choice(surfaces), r, n) for r, n in BRANCH_SIZES]
        rng.shuffle(cycle)
        yield cycle


def _warmup_queries(s: Surface) -> list[Op]:
    rng = random.Random(0)
    return [QUERY_MAKERS[c](rng, s) for c in QUERY_COMMANDS]


def plan(workload: str, seed: int, input_dir: Path) -> Plan:
    """Generate the inputs of one session: write its files, return its ops."""
    surface_rng = random.Random(f"{seed}:{workload}:surfaces")
    rng = random.Random(f"{seed}:{workload}:ops")
    if workload == "query_small":
        surfaces = _small_surfaces(surface_rng, input_dir)
        _write_files(surfaces, input_dir)
        return Plan(_warmup_queries(surfaces[-1]), _query_cycles(rng, [surfaces]), 1, 10, 1)
    if workload == "query_lattice":
        sets = [[random_surface(surface_rng, rank, str(input_dir / f"lattice{rank}-{i}.json"),
                                f"lattice{rank}-{i}") for rank in LATTICE_RANKS]
                for i in range(LATTICE_SETS)]
        small = random_surface(surface_rng, 2, str(input_dir / "warmup.json"), "warmup")
        _write_files(sum(sets, [small]), input_dir)
        return Plan(_warmup_queries(small), _query_cycles(rng, sets), LATTICE_SETS, 1, 1)
    if workload == "verify_all":
        return Plan([verify_op(1, "adjunction")], _verify_cycles(rng), 1, 2, 1)
    if workload == "branches_large":
        surfaces = [preset(p) for p in ("p2", "hypersurface:3", "hypersurface:5")]
        surfaces += [random_surface(surface_rng, 2, str(input_dir / f"rank2-{i}.json"),
                                    f"rank2-{i}") for i in range(2)]
        _write_files(surfaces, input_dir)
        warmup = [branches_op(random.Random(0), surfaces[0], 3, 4)]
        return Plan(warmup, _branch_cycles(rng, surfaces), 1, 1, 1)
    raise ValueError(f"unknown workload {workload!r}")
