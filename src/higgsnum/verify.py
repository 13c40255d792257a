"""Self-contained oracle suites behind the verify subcommand.

Each suite is a generator: it draws deterministic pseudo-random inputs
from the seeded generator it is given, checks an exact identity or
inequality, and yields (ok, detail) once per check.  run_suites is the
one place that counts the checks and collects the failures, each with
the command that redraws its inputs.  The identities come in pairs of
independent computations (ring product vs. axioms, chi upstairs vs.
downstairs, enumeration vs. recurrence), so a bookkeeping slip in one
path cannot cancel in the other.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .ns_lattice import NSVector, QNSVector, pair
from .surface_chow import (
    ChowClass,
    HiggsNumerics,
    SurfaceGeometry,
    chow_mul,
    line_bundle_ch,
)
from .proj_bundle import (
    canonical_y,
    dinfty_class,
    hyperplane_class,
    pullback,
    restrict_to_spectral,
    spectral_divisor_class,
    y_mul,
    y_pushforward,
)
from .spectral import SpectralCover, chi_two_ways
from .hitchin_criterion import c2_gbun
from .hn_branches import (
    HNFactor,
    HNType,
    discriminant_identity,
    iter_compositions,
    iter_partitions_at_most,
    monopole_components,
    olympic_sum,
    partition_count,
)
from . import presets

__all__ = ["DEFAULT_SEED", "SUITE_NAMES", "run_suites"]

DEFAULT_SEED = 1729

_Checks = Iterator[tuple[bool, str]]


def _surfaces() -> list[SurfaceGeometry]:
    return [presets.p2(), presets.hypersurface(4), presets.hypersurface(5), presets.blowup(1)]


def _rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 3))


def _rand_qvec(rng: random.Random, rank: int) -> NSVector:
    return QNSVector(tuple(_rand_rat(rng) for _ in range(rank)))


def _rand_vec(rng: random.Random, rank: int, low: int = -9, high: int = 9) -> NSVector:
    return NSVector(tuple(rng.randint(low, high) for _ in range(rank)))


def _rand_chow(rng: random.Random, rank: int) -> ChowClass:
    return ChowClass(_rand_rat(rng), _rand_qvec(rng, rank), _rand_rat(rng))


def _suite_ring(rng: random.Random) -> _Checks:
    for x in _surfaces():
        rank = x.rank
        unit = ChowClass.unit(rank)
        for _ in range(60):
            a, b, c = (_rand_chow(rng, rank) for _ in range(3))
            yield chow_mul(x, a, b) == chow_mul(x, b, a), f"commutativity on {x.name}"
            yield (
                chow_mul(x, a, chow_mul(x, b, c)) == chow_mul(x, chow_mul(x, a, b), c),
                f"associativity on {x.name}",
            )
            yield (
                chow_mul(x, a, b + c) == chow_mul(x, a, b) + chow_mul(x, a, c),
                f"distributivity on {x.name}",
            )
            yield chow_mul(x, a, unit) == a, f"unit on {x.name}"
        for _ in range(40):
            d = _rand_vec(rng, rank)
            e = _rand_vec(rng, rank)
            yield (
                line_bundle_ch(x, d + e)
                == chow_mul(x, line_bundle_ch(x, d), line_bundle_ch(x, e)),
                f"exponential property on {x.name}",
            )


def _suite_chi(rng: random.Random) -> _Checks:
    surfaces = _surfaces()
    for _ in range(500):
        x = rng.choice(surfaces)
        s = SpectralCover(x, rng.randint(1, 6))
        delta = _rand_vec(rng, x.rank, -5, 5)
        n = rng.randint(0, 20)
        upstairs, downstairs = chi_two_ways(s, delta, n)
        yield (
            upstairs == downstairs,
            f"chi mismatch on {x.name}, r={s.r}, delta={delta.coords}, n={n}: "
            f"{upstairs} vs {downstairs}",
        )


def _suite_adjunction(rng: random.Random) -> _Checks:
    for x in _surfaces():
        eta = hyperplane_class(x)
        eta3 = y_mul(y_mul(eta, eta), eta)
        yield y_pushforward(eta3).deg2 == x.l_squared, f"eta^3 integral on {x.name}"
        yield y_mul(eta, dinfty_class(x)) == 0 * eta, f"eta . D_inf on {x.name}"
        for r in range(1, 9):
            restricted = restrict_to_spectral(canonical_y(x) + spectral_divisor_class(x, r), r)
            expected = ChowClass.of_divisor(x.canonical + (r - 1) * x.polarization)
            yield restricted == expected, f"adjunction on {x.name}, r={r}"
            yield (
                spectral_divisor_class(x, r)
                == r * (dinfty_class(x) + pullback(x, x.polarization)),
                f"cover class decomposition on {x.name}, r={r}",
            )


def _suite_olympic(rng: random.Random) -> _Checks:
    # every ordered composition of r <= 12: the max is r^2(r^2-1)/12, at all ones only
    for r in range(1, 13):
        expected = r * r * (r * r - 1) // 12
        sums = [(olympic_sum(comp), comp) for comp in iter_compositions(r)]
        best = max(s for s, _ in sums)
        argmax = [comp for s, comp in sums if s == best]
        yield (
            best == expected and argmax == [(1,) * r],
            f"composition bound at r={r}: max {best} at {argmax}, expected {expected}",
        )


def _suite_discriminant(rng: random.Random) -> _Checks:
    for x in _surfaces():
        for _ in range(250):
            m = rng.randint(1, 5)
            factors = tuple(
                HNFactor(rng.randint(1, 4), _rand_vec(rng, x.rank, -5, 5), rng.randint(-10, 10))
                for _ in range(m)
            )
            lhs, rhs = discriminant_identity(x, HNType(factors))
            yield lhs == rhs, f"discriminant identity on {x.name} with {m} factors: {lhs} vs {rhs}"


def _suite_partition(rng: random.Random) -> _Checks:
    for n in range(41):
        for k in range(1, 7):
            enumerated = sum(1 for _ in iter_partitions_at_most(n, k))
            count = partition_count(n, k)
            yield enumerated == count, f"partition count at n={n}, k={k}: {enumerated} vs {count}"
    x = presets.hypersurface(5)
    for _ in range(50):
        r = rng.randint(1, 4)
        delta = _rand_vec(rng, 1, -4, 4)
        c1 = r * delta - (r * (r - 1) // 2) * x.polarization
        n = rng.randint(0, 12)
        h = HiggsNumerics(r, c1, c2_gbun(x, HiggsNumerics(r, c1, 0))[0] + n)
        comps = monopole_components(x, h)
        count = partition_count(n, r)
        yield len(comps) == count, f"component count r={r}, n={n}: {len(comps)} vs {count}"


def _suite_hodge(rng: random.Random) -> _Checks:
    for x in _surfaces():
        lat = x.lattice
        for _ in range(250):
            d = _rand_vec(rng, lat.rank)
            p = x.polarization if rng.randrange(2) else _rand_vec(rng, lat.rank)
            p2 = pair(lat, p, p)
            if p2 <= 0:
                p = x.polarization
                p2 = x.l_squared
            dl = pair(lat, d, p)
            yield (
                dl * dl >= pair(lat, d, d) * p2,
                f"index inequality on {x.name}: D={d.coords}, P={p.coords}",
            )


_SUITES = {
    "ring": _suite_ring,
    "chi": _suite_chi,
    "adjunction": _suite_adjunction,
    "olympic": _suite_olympic,
    "discriminant": _suite_discriminant,
    "partition": _suite_partition,
    "hodge": _suite_hodge,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(names: tuple[str, ...], seed: int) -> list[dict]:
    """Run the named suites, each on its own generator derived from seed,
    into the verify payload rows.  A failure's detail ends with the
    command that reruns its suite on the same stream."""
    rows = []
    for name in names:
        checks, failures = 0, []
        for ok, detail in _SUITES[name](random.Random(f"{seed}:{name}")):
            checks += 1
            if not ok:
                failures.append(
                    f"{detail}; reproduce: HIGGS_SEED={seed} higgsnum verify --suite {name}"
                )
        rows.append({"name": name, "checks": checks, "failures": failures, "passed": not failures})
    return rows
