"""Built-in surface geometries.

Two families cover the worked cases: the projective plane, and smooth
degree-d hypersurfaces in projective 3-space polarized by the hyperplane
class.  For the hypersurface of degree d the numerical data is

    K = (d - 4) H,   H^2 = d,   c2 = d^3 - 4 d^2 + 6 d,

so d = 1 recovers the plane, d = 4 a K3 and d = 5 a quintic of general
type.  The Noether check in SurfaceGeometry reconfirms chi(O) = 1, 2, 5
for d = 1, 4, 5.
"""

from __future__ import annotations

from dataclasses import replace

from .ns_lattice import NSLattice, NSVector
from .surface_chow import SurfaceGeometry

__all__ = ["PRESET_NAMES", "by_name", "hypersurface", "p2"]

PRESET_NAMES = ("p2", "hypersurface:d")


def p2() -> SurfaceGeometry:
    """The projective plane, polarized by a line: the degree-1 hypersurface."""
    return replace(hypersurface(1), name="p2")


def hypersurface(d: int) -> SurfaceGeometry:
    """Smooth degree-d surface in P^3 with its hyperplane polarization."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"hypersurface degree must be a positive integer, got {d!r}")
    return SurfaceGeometry(
        lattice=NSLattice(1, ((d,),), basis_labels=("H",)),
        canonical=NSVector((d - 4,)),
        polarization=NSVector((1,)),
        c2_top=d**3 - 4 * d**2 + 6 * d,
        name=f"hypersurface:{d}",
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
            raise ValueError(f"bad hypersurface degree {tail!r}") from None
        return hypersurface(d)
    raise KeyError(name)
