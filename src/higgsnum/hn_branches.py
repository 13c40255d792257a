"""Harder-Narasimhan arithmetic and enumeration of monopole components.

Three pieces of bookkeeping around destabilizing filtrations live here.
The exact discriminant identity for a filtration with factors
(r_i, c1_i, c2_i): writing Delta for the Bogomolov discriminant,

    Delta(E)/r = sum_i Delta(E_i)/r_i
                 - sum_{i<j} (r_i r_j / r) (c1_i/r_i - c1_j/r_j)^2,

which needs no ordering assumption at all.  The olympic bound: over
ordered compositions (r_1, ..., r_m) of r, the weighted sum
sum_{i<j} r_i r_j (j-i)^2 is at most r^2(r^2-1)/12, with equality only
for the all-ones composition.  And the monopole components at the
bottom of the Morse flow: for (r, c1, c2) in the Boundary or Generic
regime the candidate components are indexed by partitions of
n = c2 - c2_gbun into at most r parts, all attached to the same fixed
line bundle classes beta_i = delta - (i-1) c1(L).

monopole_components is the one enumeration: it returns each component
as its partition, zero-padded to length r, and component_betas gives
the shared classes once.  The rank-2 inventory for c1 = c1(L),
rank2_fixed_components, is a view of that same list.  The enumeration
describes components by their numerical invariants; the geometric
identification of each candidate is outside the scope of the
arithmetic done here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .ns_lattice import NSVector, Rat, pair, ratnorm
from .surface_chow import HiggsNumerics, SurfaceGeometry, ValidationError, discriminant
from .hitchin_criterion import Regime, RegimeReport, classify

__all__ = [
    "HNFactor",
    "HNType",
    "Rank2Report",
    "RegimeError",
    "component_betas",
    "discriminant_identity",
    "iter_compositions",
    "iter_partitions_at_most",
    "monopole_components",
    "olympic_sum",
    "olympic_verify",
    "rank2_fixed_components",
    "slope_gaps",
]


class RegimeError(ValueError):
    """Raised when an enumeration is requested outside its regime."""

    def __init__(self, message: str, report: RegimeReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class HNFactor:
    """Numerical invariants (rank, c1, c2) of one graded piece."""

    rank: int
    c1: NSVector
    c2: int

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValidationError(f"factor rank must be positive, got {self.rank!r}")


@dataclass(frozen=True)
class HNType:
    """Ordered sequence of graded-piece invariants of a filtration.

    Slope ordering is a property of the pair (type, surface) and is
    checked by slope_gaps, not at construction; the discriminant
    identity below holds for arbitrary orderings.
    """

    factors: tuple[HNFactor, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise ValidationError("a filtration needs at least one factor")
        object.__setattr__(self, "factors", factors)

    @property
    def total_rank(self) -> int:
        return sum(f.rank for f in self.factors)


def _total_numerics(x: SurfaceGeometry, t: HNType) -> HiggsNumerics:
    c1 = NSVector.zero(x.rank)
    c2 = 0
    for f in t.factors:
        c1 = c1 + f.c1
        c2 += f.c2
    fs = t.factors
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            c2 += x.pair(fs[i].c1, fs[j].c1)
    return HiggsNumerics(t.total_rank, c1, c2)


def discriminant_identity(x: SurfaceGeometry, t: HNType) -> tuple[Rat, Rat]:
    """Both sides of the filtration discriminant identity, independently.

    Left: Delta(E)/r from the totals of the factors.  Right: the sum of
    Delta(E_i)/r_i minus the weighted squares of slope-vector
    differences.  Exact equality of the two is the content of the
    identity.
    """
    total = _total_numerics(x, t)
    lhs = Fraction(discriminant(total, x), total.r)

    rhs = Fraction(0)
    for f in t.factors:
        rhs += Fraction(discriminant(HiggsNumerics(f.rank, f.c1, f.c2), x), f.rank)
    fs = t.factors
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            diff = fs[i].c1 / fs[i].rank - fs[j].c1 / fs[j].rank
            rhs -= Fraction(fs[i].rank * fs[j].rank, total.r) * pair(
                x.lattice, diff, diff
            )
    return ratnorm(lhs), ratnorm(rhs)


def slope_gaps(x: SurfaceGeometry, t: HNType) -> tuple[tuple[Rat, ...], bool]:
    """Consecutive slope drops mu_i - mu_{i+1}, and their validity.

    Slopes are taken against the polarization.  The gaps of a
    destabilizing filtration induced by a Higgs field lie in the window
    (0, L^2]; returns the gaps plus whether all of them do.
    """
    slopes = [
        Fraction(x.pair(f.c1, x.polarization), f.rank) for f in t.factors
    ]
    gaps = tuple(
        ratnorm(slopes[i] - slopes[i + 1]) for i in range(len(slopes) - 1)
    )
    l2 = x.l_squared
    valid = all(0 < g <= l2 for g in gaps)
    return gaps, valid


def olympic_sum(composition: Sequence[int]) -> int:
    """sum over i < j of r_i r_j (j - i)^2 for an ordered composition."""
    parts = tuple(composition)
    if not parts:
        raise ValidationError("composition must be nonempty")
    for p in parts:
        if not isinstance(p, int) or p < 1:
            raise ValidationError(f"composition parts must be positive integers, got {p!r}")
    total = 0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += parts[i] * parts[j] * (j - i) ** 2
    return total


def iter_compositions(r: int) -> Iterator[tuple[int, ...]]:
    """All 2^(r-1) ordered compositions of r, first part descending."""
    if r == 0:
        yield ()
        return
    for first in range(r, 0, -1):
        for rest in iter_compositions(r - first):
            yield (first,) + rest


def olympic_verify(r_max: int) -> list[dict]:
    """Exhaustive check of the composition bound for every r up to r_max.

    For each r, maximizes the olympic sum over all ordered compositions
    and compares with r^2(r^2-1)/12; records the maximizers and whether
    the all-ones composition is the unique one.  r_max is capped at 20
    to keep the 2^(r-1) enumeration honest.
    """
    if not isinstance(r_max, int) or not 1 <= r_max <= 20:
        raise ValidationError(f"r_max must be between 1 and 20, got {r_max!r}")
    out = []
    for r in range(1, r_max + 1):
        expected = r * r * (r * r - 1) // 12
        best = -1
        argmax: list[tuple[int, ...]] = []
        for comp in iter_compositions(r):
            s = olympic_sum(comp)
            if s > best:
                best, argmax = s, [comp]
            elif s == best:
                argmax.append(comp)
        ones = tuple([1] * r)
        out.append(
            {
                "r": r,
                "max": best,
                "expected": expected,
                "maximizers": argmax,
                "ok": best == expected and argmax == [ones],
            }
        )
    return out


def iter_partitions_at_most(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most k parts, in decreasing lex order.

    Parts are emitted nonincreasing, without zero padding.
    """
    if n < 0 or k < 0:
        raise ValidationError("partition arguments must be nonnegative")
    if n == 0:
        yield ()
        return
    if k == 0:
        return

    def rec(remaining: int, parts_left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        top = min(cap, remaining)
        # smallest admissible first part still fills the remaining slots
        low = -(-remaining // parts_left)
        for first in range(top, low - 1, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    yield from rec(n, k, n)


def component_betas(x: SurfaceGeometry, r: int, delta: NSVector) -> tuple[NSVector, ...]:
    """The fixed line bundle classes beta_i = delta - (i-1) c1(L), i = 1..r.

    They are shared by every monopole component of one (r, c1, c2).
    """
    return tuple(delta - i * x.polarization for i in range(r))


def monopole_components(
    x: SurfaceGeometry, h: HiggsNumerics, report: Optional[RegimeReport] = None
) -> list[tuple[int, ...]]:
    """Candidate fixed-locus components for (r, c1, c2), by partition.

    Requires the Boundary or Generic regime; the total point count is
    n = c2 - c2_gbun and each component is a partition of n into at most
    r parts, padded with zeros to length r, in decreasing lex order.
    The line bundle classes they share are component_betas.  report is
    classify(x, h), computed here unless the caller already has it.
    """
    if report is None:
        report = classify(x, h)
    if report.regime not in (Regime.BOUNDARY, Regime.GENERIC):
        raise RegimeError(
            f"no components to enumerate in regime {report.regime.value}", report
        )
    assert report.witness is not None
    r = h.r
    return [
        part + (0,) * (r - len(part))
        for part in iter_partitions_at_most(report.witness.n_points, r)
    ]


@dataclass(frozen=True)
class Rank2Report:
    """Fixed-locus inventory for rank 2 with c1 the polarization class."""

    c2: int
    regime: Regime
    instanton_branch: bool
    components: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


def rank2_fixed_components(
    x: SurfaceGeometry, c2: int, report: Optional[RegimeReport] = None
) -> Rank2Report:
    """Type-(1,1) fixed components for rank 2, c1 = c1(L), given c2.

    The threshold vanishes for this c1, so the regime is Empty for
    c2 < 0; otherwise the components are the monopole components of
    (2, c1(L), c2), the pairs (n1, n2) with n1 >= n2 >= 0 summing to c2,
    alongside the branch of sheaves with vanishing Higgs field, which is
    only marked here.  report is the classification of (2, c1(L), c2),
    computed here unless the caller already has it.
    """
    if not isinstance(c2, int):
        raise ValidationError(f"c2 must be an integer, got {c2!r}")
    h = HiggsNumerics(2, x.polarization, c2)
    if report is None:
        report = classify(x, h)
    if report.witness is None:
        return Rank2Report(c2, report.regime, False, ())
    return Rank2Report(c2, report.regime, True, tuple(monopole_components(x, h, report)))
