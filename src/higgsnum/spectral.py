"""Characteristic classes of spectral covers and transport to the base.

A degree-r spectral surface X_s inside P(L^dual + O) is cut out by a
characteristic polynomial with coefficients in powers of L.  For the
numerical work here only r and the base geometry matter, and every class
on X_s that occurs is a pullback plus a 0-cycle.  Pullbacks multiply
like their base classes; the covering map pushes a pullback forward to r
times the class downstairs and a 0-cycle to a 0-cycle of the same
degree.  That is enough to evaluate the canonical class, the Todd class,
the Chern character of the cotangent bundle, and the whole
Grothendieck-Riemann-Roch transport of a line bundle twisted by an ideal
of points, without ever touching X_s itself.

The pullback description of the classes is what makes this exact; it is
valid for the covers considered (X_s integral over a base with the cover
class pulled back), and the chi computed two ways agreeing on random
inputs is the working check of the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ns_lattice import NSVector, Rat, ratio, ratnorm
from .surface_chow import (
    ChowClass,
    SurfaceGeometry,
    ValidationError,
    chi,
    chow_inverse,
    chow_mul,
    cotangent_ch,
    line_bundle_ch,
    todd_surface,
)

__all__ = [
    "SpectralClass",
    "SpectralCover",
    "chi_two_ways",
    "grr_pushforward",
    "pushforward_structure_ch",
    "spectral_c2_tangent",
    "spectral_canonical",
    "spectral_cotangent_ch",
    "spectral_todd",
]


@dataclass(frozen=True)
class SpectralCover:
    """A degree-r spectral surface over a fixed base geometry."""

    base: SurfaceGeometry
    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or self.r < 1:
            raise ValidationError(f"cover degree must be a positive integer, got {self.r!r}")


@dataclass(frozen=True)
class SpectralClass:
    """Class on a spectral surface: a pullback part plus a 0-cycle part.

    Represents pi_s^*(pullback) + points . [point]; points may be any
    exact number, and is nonnegative whenever it stands for an effective
    cycle of points.
    """

    pullback: ChowClass
    points: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", ratnorm(self.points))


def _mul_pullback(s: SpectralCover, a: SpectralClass, c: ChowClass) -> SpectralClass:
    # a 0-cycle meets only the deg0 part of a pullback
    return SpectralClass(chow_mul(s.base, a.pullback, c), a.points * c.deg0)


def _pushforward(s: SpectralCover, a: SpectralClass) -> ChowClass:
    # finite degree-r cover: pullbacks gain a factor r, 0-cycles keep their degree
    pushed = s.r * a.pullback
    return ChowClass(pushed.deg0, pushed.deg1, pushed.deg2 + a.points)


def spectral_canonical(s: SpectralCover) -> NSVector:
    """Canonical class of the cover, as the base class K + (r-1) c1(L).

    Adjunction on the ambient threefold; the actual class on X_s is the
    pullback of the returned vector.
    """
    return s.base.canonical + (s.r - 1) * s.base.polarization


def spectral_cotangent_ch(s: SpectralCover) -> ChowClass:
    """Chern character of the cotangent bundle of the cover (pullback part).

    ch(Omega^1_X) + ch(L^dual) - ch(L^dual)^r as base classes; the
    degree-1 part collapses to K + (r-1) c1(L), matching the canonical
    class.
    """
    x = s.base
    l = x.polarization
    return (
        cotangent_ch(x)
        + line_bundle_ch(x, -l)
        - line_bundle_ch(x, (-s.r) * l)
    )


def spectral_c2_tangent(s: SpectralCover) -> int:
    """Second Chern number coefficient r(r-1)L^2 + (r-1)K.L + c2 of the cover.

    This is the coefficient of the pulled-back point class; the Euler
    number of the cover is r times this value.
    """
    x = s.base
    r = s.r
    return r * (r - 1) * x.l_squared + (r - 1) * x.k_dot_l + x.c2_top


def spectral_todd(s: SpectralCover) -> ChowClass:
    """Todd class of the cover as a base class.

    (1, -(K + (r-1)L)/2, (K^2 + (2r-1)(r-1)L^2 + 3(r-1)K.L + c2)/12);
    chi(O of the cover) is r times the deg2 part.
    """
    x = s.base
    r = s.r
    deg2 = ratio(
        x.k_squared + (2 * r - 1) * (r - 1) * x.l_squared + 3 * (r - 1) * x.k_dot_l + x.c2_top,
        12,
    )
    return ChowClass(1, spectral_canonical(s) / -2, deg2)


def pushforward_structure_ch(s: SpectralCover) -> ChowClass:
    """Chern character of the pushed-forward structure sheaf of the cover.

    The direct image splits as the sum of L^(-i) for i = 0..r-1, so the
    character is (r, -r(r-1)/2 L, r(r-1)(2r-1)/12 L^2).
    """
    x = s.base
    r = s.r
    return ChowClass(
        r,
        (-(r * (r - 1) // 2)) * x.polarization,
        ratio(r * (r - 1) * (2 * r - 1) * x.l_squared, 12),
    )


def grr_pushforward(s: SpectralCover, delta: NSVector, n_points: int) -> ChowClass:
    """Chern character on the base of the pushed-forward twisted line bundle.

    The sheaf upstairs is the pullback of delta tensored with the ideal
    of n_points points.  Riemann-Roch without denominators for the
    finite cover: push forward ch . Td(cover), then divide by Td(base).
    """
    if not isinstance(n_points, int) or n_points < 0:
        raise ValidationError(f"point count must be a nonnegative integer, got {n_points!r}")
    x = s.base
    x.lattice.check_vector(delta)
    ch_upstairs = SpectralClass(line_bundle_ch(x, delta), -n_points)
    pushed = _pushforward(s, _mul_pullback(s, ch_upstairs, spectral_todd(s)))
    return chow_mul(x, pushed, chow_inverse(x, todd_surface(x)))


def chi_two_ways(s: SpectralCover, delta: NSVector, n_points: int) -> tuple[Rat, Rat]:
    """Euler characteristic upstairs and downstairs; the two agree.

    First entry: Riemann-Roch on the cover (r times the deg2 part of
    ch . Td, minus the point correction).  Second entry: chi on the base
    of the transported character.
    """
    if not isinstance(n_points, int) or n_points < 0:
        raise ValidationError(f"point count must be a nonnegative integer, got {n_points!r}")
    x = s.base
    x.lattice.check_vector(delta)
    upstairs_product = chow_mul(x, line_bundle_ch(x, delta), spectral_todd(s))
    chi_cover = ratnorm(s.r * upstairs_product.deg2 - n_points)
    chi_base = chi(x, grr_pushforward(s, delta, n_points))
    return chi_cover, chi_base
