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

A class on Y is stored as pi^* alpha + pi^* beta . eta with alpha, beta
truncated classes on X.  Total degrees 0 to 3 are covered: the degree-3
piece is the deg2 part of beta, because a point of X pulled back and
cut by eta is a point of Y.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .ns_lattice import Frozen, LatticeError, NSVector, Rat, require_int, require_type
from .surface_chow import ChowClass, SurfaceGeometry, chow_mul

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


class YClass(Frozen):
    """Class pi^* alpha + pi^* beta . eta on the threefold over a surface."""

    __slots__ = ("alpha", "beta", "over")

    def __init__(self, alpha: ChowClass, beta: ChowClass, over: SurfaceGeometry) -> None:
        n = require_type(over, SurfaceGeometry, "a surface").rank + 2
        for part in (alpha, beta):
            if not isinstance(part, ChowClass) or len(part.num) != n:
                raise LatticeError("class components do not fit the base lattice")
        Frozen.__init__(self, alpha, beta, over)

    def __add__(self, other: "YClass") -> "YClass":
        if not isinstance(other, YClass):
            return NotImplemented
        _same_base(self, other)
        return YClass._of(self.alpha + other.alpha, self.beta + other.beta, self.over)

    def __sub__(self, other: "YClass") -> "YClass":
        if not isinstance(other, YClass):
            return NotImplemented
        _same_base(self, other)
        return YClass._of(self.alpha - other.alpha, self.beta - other.beta, self.over)

    def __neg__(self) -> "YClass":
        return YClass._of(-self.alpha, -self.beta, self.over)

    def __mul__(self, other: Union["YClass", Rat]) -> "YClass":
        if isinstance(other, YClass):
            return y_mul(self, other)
        if type(other) is int or isinstance(other, Fraction):
            return YClass._of(self.alpha * other, self.beta * other, self.over)
        return NotImplemented

    __rmul__ = __mul__


def _same_base(a: YClass, b: YClass) -> None:
    if a.over is not b.over and a.over != b.over:
        raise LatticeError("classes live over different base surfaces")


def pullback(x: SurfaceGeometry, a: Union[ChowClass, NSVector]) -> YClass:
    """pi^* of a class on the base."""
    require_type(x, SurfaceGeometry, "a surface")
    if isinstance(a, NSVector):
        a = ChowClass.of_divisor(a)
    return YClass(a, ChowClass.zero(x.rank), x)


def hyperplane_class(x: SurfaceGeometry) -> YClass:
    """The generator eta."""
    require_type(x, SurfaceGeometry, "a surface")
    return YClass(ChowClass.zero(x.rank), ChowClass.unit(x.rank), x)


def y_mul(a: YClass, b: YClass) -> YClass:
    """Ring product (a + b eta)(c + d eta) = ac + (ad + b(c + d L)) eta, as eta^2 = L eta."""
    require_type(a, YClass, "a class on the threefold")
    require_type(b, YClass, "a class on the threefold")
    _same_base(a, b)
    x = a.over
    c_l = ChowClass.of_divisor(x.polarization)
    beta = chow_mul(x, a.alpha, b.beta) + chow_mul(x, a.beta, b.alpha + chow_mul(x, b.beta, c_l))
    return YClass._of(chow_mul(x, a.alpha, b.alpha), beta, x)


def y_pushforward(a: YClass) -> ChowClass:
    """pi_* to the base: kills pure pullbacks, strips one eta."""
    return require_type(a, YClass, "a class on the threefold").beta


def spectral_divisor_class(x: SurfaceGeometry, r: int) -> YClass:
    """Class r . eta of the divisor cut out by a degree-r characteristic."""
    return require_int(r, "cover degree", 1) * hyperplane_class(x)


def dinfty_class(x: SurfaceGeometry) -> YClass:
    """Class eta - pi^* c1(L) of the divisor at infinity."""
    return hyperplane_class(x) - pullback(x, x.polarization)


def canonical_y(x: SurfaceGeometry) -> YClass:
    """Canonical class pi^* (K + c1(L)) - 2 eta of the threefold."""
    require_type(x, SurfaceGeometry, "a surface")
    return pullback(x, x.canonical + x.polarization) - 2 * hyperplane_class(x)


def restrict_to_spectral(a: YClass, r: int) -> ChowClass:
    """Restriction to a degree-r spectral surface, written as a base class.

    The restriction of eta is the pullback of c1(L), so the answer
    b = alpha + beta . c1(L) does not depend on r.
    """
    require_int(r, "cover degree", 1)
    x = require_type(a, YClass, "a class on the threefold").over
    c_l = ChowClass.of_divisor(x.polarization)
    return a.alpha + chow_mul(x, a.beta, c_l)
