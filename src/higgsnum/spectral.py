"""Spectral covers as surfaces, and Grothendieck-Riemann-Roch transport to the base.

A degree-r spectral surface X_s inside P(L^dual + O) is cut out by a
characteristic polynomial with coefficients in powers of L.  This module
assumes that Pic(X_s) is pulled back from the base, as the
Noether-Lefschetz theorem for spectral surfaces gives for a very general
X_s under its hypotheses.  The assumption can fail: over P^2 with
L = O(1) and r = 2 the smooth cover is a quadric surface, of Picard rank
2 against rank 1 for P^2.  Under it X_s is a surface on pi^*NS(X), where
pi^*a.pi^*b = r (a.b), so surface_chow's ring, Todd class and
Riemann-Roch apply to it as they stand; a cover class read as a base
class keeps its coordinates and has its degree-2 part divided by r.
The chi of a twisted line bundle in the cover's ring and the chi on the
base of its GRR transport agreeing on random inputs is the working
check of the bookkeeping.
"""

from __future__ import annotations

from .ns_lattice import Frozen, NSVector, Rat, ratnorm, reduced, require_int, require_type
from .surface_chow import (
    ChowClass,
    SurfaceGeometry,
    chi,
    chow_inverse,
    chow_mul,
    cotangent_ch,
    ideal_twist_ch,
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


class SpectralCover(SurfaceGeometry):
    """A degree-r spectral surface X_s over a base surface, as a surface.

    Under the module's assumption X_s is the surface on pi^*NS(X), in the
    base's coordinates: gram r G, canonical class K + (r-1)L, polarization
    L and Euler number r (r(r-1)L^2 + (r-1)K.L + c2).  Its surface fields
    are filled once, unchecked, from the checked base, whose Noether and
    Wu give the cover's.  Equality, hash and repr see (base, r) only.
    """

    __slots__ = ("base", "r")

    def __init__(self, base: SurfaceGeometry, r: int) -> None:
        x = require_type(base, SurfaceGeometry, "a surface")
        require_int(r, "cover degree", 1)
        k2, l2, kl = x.k_squared, x.l_squared, x.k_dot_l
        Frozen.__init__(
            self, x.lattice.scaled(r), x.canonical + (r - 1) * x.polarization, x.polarization,
            r * (r * (r - 1) * l2 + (r - 1) * kl + x.c2_top), f"{x.name}/r={r}",
            r * (k2 + 2 * (r - 1) * kl + (r - 1) ** 2 * l2), r * l2, r * (kl + (r - 1) * l2),
            x, r)

    def pushforward(self, c: ChowClass, points: Rat = 0) -> ChowClass:
        """pi_*(pi^*c + points . pt) = r c + points . pt, as a base class."""
        require_type(c, ChowClass, "a Chow class")
        m, d = ratnorm(points), c.den
        *num, top = [self.r * m.denominator * a for a in c.num]
        return reduced(ChowClass, (*num, top + m.numerator * d), d * m.denominator)


def _on_base(s: SpectralCover, c: ChowClass) -> ChowClass:
    """A class of the cover as a base class: the same coordinates, deg2 over r."""
    r = require_type(s, SpectralCover, "a spectral cover").r
    return reduced(ChowClass, (*[r * a for a in c.num[:-1]], c.num[-1]), r * c.den)


def spectral_canonical(s: SpectralCover) -> NSVector:
    """Canonical class K + (r-1) c1(L) of the cover, by adjunction on the ambient threefold.

    As a vector it is both the cover's class and the base class it pulls back from.
    """
    return require_type(s, SpectralCover, "a spectral cover").canonical


def spectral_cotangent_ch(s: SpectralCover) -> ChowClass:
    """Chern character of the cotangent bundle of the cover, as a base class.

    The degree-1 part is the canonical class K + (r-1) c1(L).
    """
    return _on_base(s, cotangent_ch(s))


def spectral_c2_tangent(s: SpectralCover) -> int:
    """Second Chern number coefficient r(r-1)L^2 + (r-1)K.L + c2 of the cover.

    This is the coefficient of the pulled-back point class: e(X_s) / r.
    """
    require_type(s, SpectralCover, "a spectral cover")
    return s.c2_top // s.r


def spectral_todd(s: SpectralCover) -> ChowClass:
    """Todd class of the cover as a base class: (1, -(K + (r-1)L)/2, chi(O_{X_s})/r)."""
    return _on_base(s, todd_surface(s))


def pushforward_structure_ch(s: SpectralCover) -> ChowClass:
    """Chern character of the pushed-forward structure sheaf of the cover.

    The direct image splits as the sum of L^(-i) for i = 0..r-1, so the
    character is (r, -r(r-1)/2 L, r(r-1)(2r-1)/12 L^2).
    """
    x = require_type(s, SpectralCover, "a spectral cover").base
    r = s.r
    return reduced(ChowClass, (12 * r, *[-6 * r * (r - 1) * a for a in x.polarization.num],
                               r * (r - 1) * (2 * r - 1) * x.l_squared), 12)


def grr_pushforward(s: SpectralCover, delta: NSVector, n_points: int) -> ChowClass:
    """Chern character on the base of the pushed-forward twisted line bundle.

    The sheaf upstairs is the pullback of delta tensored with the ideal
    of n_points points.  Riemann-Roch without denominators for the
    finite cover: push forward ch . Td(cover), then divide by Td(base).
    Every product is taken in the base's ring.
    """
    require_int(n_points, "point count", 0)
    x = require_type(s, SpectralCover, "a spectral cover").base
    # the 0-cycle of the ideal meets only the deg0 part 1 of Td(cover)
    pushed = s.pushforward(chow_mul(x, line_bundle_ch(x, delta), spectral_todd(s)), -n_points)
    return chow_mul(x, pushed, chow_inverse(x, todd_surface(x)))


def chi_on_cover(s: SpectralCover, delta: NSVector, n_points: int) -> Rat:
    """Riemann-Roch on the cover, in its own ring, for the twisted line bundle."""
    return chi(s, ideal_twist_ch(s, delta, n_points))


def chi_two_ways(s: SpectralCover, delta: NSVector, n_points: int) -> tuple[Rat, Rat]:
    """Euler characteristic upstairs and downstairs; the two agree.

    First entry: chi_on_cover, in the cover's ring.  Second entry: chi on
    the base of the character transported by grr_pushforward.
    """
    require_type(s, SpectralCover, "a spectral cover")
    return chi_on_cover(s, delta, n_points), chi(s.base, grr_pushforward(s, delta, n_points))
