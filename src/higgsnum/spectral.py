"""Characteristic classes of spectral covers and transport to the base.

A degree-r spectral surface X_s inside P(L^dual + O) is cut out by a
characteristic polynomial with coefficients in powers of L.  This module
assumes that Pic(X_s) is pulled back from the base, as the
Noether-Lefschetz theorem for spectral surfaces gives for a very general
X_s under its hypotheses.  The assumption can fail: over P^2 with
L = O(1) and r = 2 the smooth cover is a quadric surface, of Picard rank
2 against rank 1 for P^2.  Under it every class on X_s is a pullback
pi^*c plus a 0-cycle m.pt, and one rule gives every number on the
cover: the integral of pi^*c + m.pt over X_s is r c.deg2 + m.
With it the canonical class, the Todd class, the Chern character of the
cotangent bundle and the whole Grothendieck-Riemann-Roch transport of a
line bundle twisted by an ideal of points are computed on the base,
without ever touching X_s.  The chi computed two ways agreeing on
random inputs is the working check of the bookkeeping.
"""

from __future__ import annotations

from .ns_lattice import Frozen, NSVector, Rat, ratio, ratnorm, require_int, require_type
from .surface_chow import (
    ChowClass,
    SurfaceGeometry,
    chi,
    chow_inverse,
    chow_mul,
    cotangent_ch,
    line_bundle_ch,
    todd_surface,
)

__all__ = [
    "SpectralCover",
    "chi_on_cover",
    "chi_two_ways",
    "grr_pushforward",
    "pushforward_structure_ch",
    "spectral_c2_tangent",
    "spectral_canonical",
    "spectral_cotangent_ch",
    "spectral_todd",
]


class SpectralCover(Frozen):
    """A degree-r spectral surface X_s over a fixed base geometry.

    Every class on X_s is taken to be pi^*c + m.pt.  That is an
    assumption, not a theorem for every cover: over P^2 with r = 2 the
    smooth cover is a quadric of Picard rank 2, while P^2 has rank 1.
    Under it, integral and pushforward are the one place where the degree
    r is a factor.
    """

    __slots__ = ("base", "r")

    def __init__(self, base: SurfaceGeometry, r: int) -> None:
        Frozen.__init__(self, require_type(base, SurfaceGeometry, "a surface"),
                        require_int(r, "cover degree", 1))

    def integral(self, deg2: Rat, points: Rat = 0) -> Rat:
        """Degree of pi^*(deg2 . pt) + points . pt on X_s: r deg2 + points."""
        return ratnorm(self.r * ratnorm(deg2) + ratnorm(points))

    def pushforward(self, c: ChowClass, points: Rat = 0) -> ChowClass:
        """pi_*(pi^*c + points . pt) = r c + points . pt, as a base class."""
        require_type(c, ChowClass, "a Chow class")
        return ChowClass._of(ratnorm(self.r * c.deg0), self.r * c.deg1,
                             self.integral(c.deg2, points))


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

    This is the coefficient of the pulled-back point class.
    """
    x = s.base
    r = s.r
    return r * (r - 1) * x.l_squared + (r - 1) * x.k_dot_l + x.c2_top


def spectral_todd(s: SpectralCover) -> ChowClass:
    """Todd class of the cover as a base class.

    (1, -(K + (r-1)L)/2, (K^2 + (2r-1)(r-1)L^2 + 3(r-1)K.L + c2)/12).
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
    require_int(n_points, "point count", 0)
    x = s.base
    # the 0-cycle of the ideal meets only the deg0 part 1 of Td(cover)
    pushed = s.pushforward(chow_mul(x, line_bundle_ch(x, delta), spectral_todd(s)), -n_points)
    return chow_mul(x, pushed, chow_inverse(x, todd_surface(x)))


def chi_on_cover(s: SpectralCover, delta: NSVector, n_points: int) -> Rat:
    """Riemann-Roch on the cover for the twisted line bundle.

    The integral of ch . Td over the cover, minus the point correction;
    the transport to the base is not used.
    """
    require_int(n_points, "point count", 0)
    x = s.base
    upstairs_product = chow_mul(x, line_bundle_ch(x, delta), spectral_todd(s))
    return s.integral(upstairs_product.deg2, -n_points)


def chi_two_ways(s: SpectralCover, delta: NSVector, n_points: int) -> tuple[Rat, Rat]:
    """Euler characteristic upstairs and downstairs; the two agree.

    First entry: chi_on_cover.  Second entry: chi on the base of the
    character transported by grr_pushforward.
    """
    return chi_on_cover(s, delta, n_points), chi(s.base, grr_pushforward(s, delta, n_points))
