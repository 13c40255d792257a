"""Intersection ring of the compactified total space of a line bundle.

For a surface X with polarization-bound line bundle L, the threefold is
Y = P(L^dual + O), the projective closure of the total space of L.  Its
ring is generated over the ring of X by a single divisor class eta, the
first Chern class of the relative O(1) twisted by the pullback of L,
subject to

    eta^2 = pi^* c1(L) . eta.

This convention is pinned down by three identities rather than by a
sign choice in a Segre class: the zero section satisfies
eta|_X = c1(L), the divisor at infinity is D_inf = eta - pi^* c1(L)
with eta . D_inf = 0, and pushing forward gives pi_* eta = 1, hence
integral of eta^3 over Y equal to L^2.

A class on Y is pi^* alpha + pi^* beta . eta with alpha, beta truncated
classes on X, stored as a Chow class is: num holds the rank + 2
numerators of alpha and then those of beta, over one den > 0 with
gcd(den, *num) = 1, and alpha and beta are read-only views.  Total
degrees 0 to 3 are covered: the degree-3 piece is the deg2 part of beta,
because a point of X pulled back and cut by eta is a point of Y.  YClass
is a NumDen whose base surface is the slot over after den: + - neg and
scalar multiples are NumDen's, which pass the base on and refuse to add
classes over different bases.  Each kernel here (y_mul, pullback,
restrict_to_spectral and the divisor classes) is one comprehension over
those integers, with its pairings (dot) and at most one gcd reduction
by reduced, which builds the result unchecked.  The checked
constructor is YClass(alpha, beta, over), which brings alpha and beta
over one denominator with ns_lattice.lcm_form.
"""

from __future__ import annotations

from typing import Sequence, Union

from .ns_lattice import (
    Frozen, LatticeError, NSVector, NumDen, Rat, dot, lcm_form, reduced, require_int,
    require_type,
)
from .surface_chow import ChowClass, SurfaceGeometry

__all__ = [
    "YClass",
    "canonical_y",
    "dinfty_class",
    "hyperplane_class",
    "pullback",
    "restrict_to_spectral",
    "spectral_divisor_class",
    "y_mul",
    "y_pushforward",
]


class YClass(NumDen, Frozen):
    """Class pi^* alpha + pi^* beta . eta on the threefold over a surface:
    the numerators of alpha, then of beta, in num over den, and the base
    surface in over.  Sums, differences, negation and scalar multiples
    come from NumDen, with the base passed on; the product of two classes
    on the threefold is y_mul."""

    __slots__ = ("num", "den", "over")

    def __init__(self, alpha: ChowClass, beta: ChowClass, over: SurfaceGeometry) -> None:
        n = require_type(over, SurfaceGeometry, "a surface").rank + 2
        parts = (_fit(alpha, n), alpha.den), (_fit(beta, n), beta.den)
        Frozen.__init__(self, *lcm_form(parts), over)

    @property
    def alpha(self) -> ChowClass:
        return reduced(ChowClass, self.num[:len(self.num) // 2], self.den)

    @property
    def beta(self) -> ChowClass:
        return reduced(ChowClass, self.num[len(self.num) // 2:], self.den)

    def __mul__(self, other: Union["YClass", Rat]) -> "YClass":
        if isinstance(other, YClass):
            return y_mul(self, other)
        return NumDen.__mul__(self, other)


def _fit(part: ChowClass, n: int) -> tuple[int, ...]:
    """The numerators of part, a Chow class with n of them."""
    if not isinstance(part, ChowClass) or len(part.num) != n:
        raise LatticeError("class components do not fit the base lattice")
    return part.num


def _same_base(a: YClass, b: YClass) -> SurfaceGeometry:
    """The base of a and b, which must be one surface."""
    if a.over is not b.over and a.over != b.over:
        raise LatticeError("classes live over different base surfaces")
    return a.over


def _divisor(x: SurfaceGeometry, d: Sequence[int], e: int) -> YClass:
    """pi^* D + e eta for the integral numerators d of a divisor D on x."""
    return reduced(YClass, (0, *d, 0, e, *(0,) * (len(d) + 1)), 1, x)


def pullback(x: SurfaceGeometry, a: Union[ChowClass, NSVector]) -> YClass:
    """pi^* of a class on the base."""
    n = require_type(x, SurfaceGeometry, "a surface").rank + 2
    if isinstance(a, NSVector):
        a = reduced(ChowClass, (0, *a.num, 0), a.den)
    return reduced(YClass, (*_fit(a, n), *(0,) * n), a.den, x)


def hyperplane_class(x: SurfaceGeometry) -> YClass:
    """The generator eta."""
    return _divisor(x, (0,) * require_type(x, SurfaceGeometry, "a surface").rank, 1)


def y_mul(a: YClass, b: YClass) -> YClass:
    """Ring product (p + q eta)(r + s eta) = pr + (ps + qr + qs L) eta, as eta^2 = L eta.

    Over the one denominator a.den * b.den: the truncated product of the
    base in each of the four terms, with its pairings of deg1 parts and
    the pairing of qs with L, reduced once.
    """
    require_type(a, YClass, "a class on the threefold")
    require_type(b, YClass, "a class on the threefold")
    x = _same_base(a, b)
    g, l = x.lattice.gram, x.polarization.num
    m = len(l) + 1
    # a = p + q eta and b = r + s eta, each part (deg0, deg1, deg2) over den
    u, v = a.num, b.num
    p0, p1, p2, q0, q1, q2 = u[0], u[1:m], u[m], u[m + 1], u[m + 2:-1], u[-1]
    r0, r1, r2, s0, s1, s2 = v[0], v[1:m], v[m], v[m + 1], v[m + 2:-1], v[-1]
    # the deg1 part of qs, which meets L in degree 2
    qs1 = [q0 * s + s0 * q for q, s in zip(q1, s1)]
    alpha = (p0 * r0, *[p0 * r + r0 * p for p, r in zip(p1, r1)],
             p0 * r2 + r0 * p2 + dot(g, p1, r1))
    beta = (p0 * s0 + q0 * r0,
            *[p0 * s + s0 * p + q0 * r + r0 * q + q0 * s0 * c
              for p, q, r, s, c in zip(p1, q1, r1, s1, l)],
            p0 * s2 + s0 * p2 + q0 * r2 + r0 * q2
            + dot(g, p1, s1) + dot(g, q1, r1) + dot(g, qs1, l))
    return reduced(YClass, alpha + beta, a.den * b.den, x)


def y_pushforward(a: YClass) -> ChowClass:
    """pi_* to the base: kills pure pullbacks, strips one eta."""
    return require_type(a, YClass, "a class on the threefold").beta


def spectral_divisor_class(x: SurfaceGeometry, r: int) -> YClass:
    """Class r . eta of the divisor cut out by a degree-r characteristic."""
    return require_int(r, "cover degree", 1) * hyperplane_class(x)


def dinfty_class(x: SurfaceGeometry) -> YClass:
    """Class eta - pi^* c1(L) of the divisor at infinity."""
    require_type(x, SurfaceGeometry, "a surface")
    return _divisor(x, [-c for c in x.polarization.num], 1)


def canonical_y(x: SurfaceGeometry) -> YClass:
    """Canonical class pi^* (K + c1(L)) - 2 eta of the threefold."""
    require_type(x, SurfaceGeometry, "a surface")
    return _divisor(x, [k + c for k, c in zip(x.canonical.num, x.polarization.num)], -2)


def restrict_to_spectral(a: YClass, r: int) -> ChowClass:
    """Restriction to a degree-r spectral surface, written as a base class.

    The restriction of eta is the pullback of c1(L), so the answer
    b = alpha + beta . c1(L) does not depend on r: with alpha = (p0, p1, p2)
    and beta = (q0, q1, q2) over a.den, b is (p0, p1 + q0 L, p2 + q1.L)
    over a.den, reduced once.
    """
    require_int(r, "cover degree", 1)
    x = require_type(a, YClass, "a class on the threefold").over
    l, u = x.polarization.num, a.num
    m = len(l) + 1
    return reduced(ChowClass, (u[0], *[p + u[m + 1] * c for p, c in zip(u[1:m], l)],
                               u[m] + dot(x.lattice.gram, u[m + 2:-1], l)), a.den)
