"""Built-in surface geometries.

Two families cover the worked cases: the projective plane, and smooth
degree-d hypersurfaces in projective 3-space polarized by the hyperplane
class.  blowup_p2, the plane blown up in a point, is the one rank-2
lattice.  For the hypersurface of degree d the numerical data is

    K = (d - 4) H,   H^2 = d,   c2 = d^3 - 4 d^2 + 6 d,

so d = 1 recovers the plane, d = 4 a K3 and d = 5 a quintic of general
type.  The Noether check in SurfaceGeometry reconfirms chi(O) = 1, 2, 5
for d = 1, 4, 5.  The rank-1 lattice Z.H is the whole Neron-Severi
lattice only for d = 1 and, by Noether-Lefschetz, for a very general
surface of degree d >= 4; the quadric (d = 2) and the cubic (d = 3)
have Picard rank 2 and 7.
"""

from __future__ import annotations

from .ns_lattice import NSLattice, NSVector, ValidationError, require_int
from .surface_chow import SurfaceGeometry

__all__ = ["blowup_p2", "by_name", "hypersurface", "p2"]


def p2() -> SurfaceGeometry:
    """The projective plane, polarized by a line: the degree-1 hypersurface."""
    return _hypersurface(1, "p2")


def hypersurface(d: int) -> SurfaceGeometry:
    """Smooth degree-d surface in P^3 with its hyperplane polarization."""
    return _hypersurface(require_int(d, "hypersurface degree", 1), f"hypersurface:{d}")


def blowup_p2() -> SurfaceGeometry:
    """The plane blown up in a point: diag(1, -1), K = (-3, 1), L = (2, -1), c2 = 4."""
    return SurfaceGeometry(
        lattice=NSLattice(2, ((1, 0), (0, -1))),
        canonical=NSVector((-3, 1)),
        polarization=NSVector((2, -1)),
        c2_top=4,
        name="blowup-p2",
    )


def _hypersurface(d: int, name: str) -> SurfaceGeometry:
    return SurfaceGeometry(
        lattice=NSLattice(1, ((d,),)),
        canonical=NSVector((d - 4,)),
        polarization=NSVector((1,)),
        c2_top=d**3 - 4 * d**2 + 6 * d,
        name=name,
    )


def by_name(name: str) -> SurfaceGeometry:
    """Resolve a preset name: "p2" or "hypersurface:<d>"."""
    if name == "p2":
        return p2()
    if name.startswith("hypersurface:"):
        tail = name.split(":", 1)[1]
        try:
            d = int(tail)
        except ValueError:
            raise ValidationError(f"bad hypersurface degree {tail!r}") from None
        return hypersurface(d)
    raise KeyError(name)
