"""Built-in surface geometries, and the one builder of every surface.

surface(name, ns_rank, gram, canonical, polarization, c2_top) turns a
surface's plain data into a checked SurfaceGeometry.  Its parameters are
the six fields of a surface file, in the order of cli.SURFACE_FIELDS:
the presets below call it with their data, and the CLI with a file's
fields by name, so a lattice, a class vector and a surface are built
from plain data here and nowhere else.

Three families cover the worked cases: the projective plane, smooth
degree-d hypersurfaces in projective 3-space polarized by the hyperplane
class, and the plane blown up in k points.  For the hypersurface of
degree d the numerical data is

    K = (d - 4) H,   H^2 = d,   c2 = d^3 - 4 d^2 + 6 d,

so d = 1 recovers the plane, d = 4 a K3 and d = 5 a quintic of general
type.  The Noether check in SurfaceGeometry reconfirms chi(O) = 1, 2, 5
for d = 1, 4, 5.  The rank-1 lattice Z.H is the whole Neron-Severi
lattice only for d = 1 and, by Noether-Lefschetz, for a very general
surface of degree d >= 4; the quadric (d = 2) and the cubic (d = 3)
have Picard rank 2 and 7.

The quadric's true lattice is p1xp1, the hyperbolic plane U with
K = (-2, -2).  The plane blown up in k points has the lattice
diag(1, -1^k) in the basis H, E_1, ..., E_k, with K = -3H + sum E_i,
c2 = 3 + k and the polarization aH - sum E_i for the least a with
a^2 > k, so blowup(1) is polarized by 2H - E.
"""

from __future__ import annotations

from typing import Sequence

from .ns_lattice import LatticeError, NSLattice, NSVector, ValidationError, brief, require_int
from .surface_chow import SurfaceGeometry

__all__ = ["blowup", "by_name", "hypersurface", "p1xp1", "p2", "surface"]

# the most points blowup(k) blows up, so a preset name cannot ask for a huge
# lattice; one more is the most lattice rank that any surface may have
MAX_BLOWUP = 64


def surface(name: str, ns_rank: int, gram: Sequence[Sequence[int]], canonical: Sequence[int],
            polarization: Sequence[int], c2_top: int) -> SurfaceGeometry:
    """The checked surface of a surface file's six fields, taken in the file's
    order: NSLattice(ns_rank, gram), then NSVector(canonical) and
    NSVector(polarization), then SurfaceGeometry, each refusing its own.
    A rank past that of blowup(MAX_BLOWUP) is refused before any of them."""
    if require_int(ns_rank, "rank", 1, error=LatticeError) > MAX_BLOWUP + 1:
        raise LatticeError(f"rank must be at most {MAX_BLOWUP + 1}, got {brief(ns_rank)}")
    return SurfaceGeometry(NSLattice(ns_rank, gram), NSVector(canonical),
                           NSVector(polarization), c2_top, name)


def p2() -> SurfaceGeometry:
    """The projective plane, polarized by a line: the degree-1 hypersurface."""
    return _hypersurface(1, "p2")


def hypersurface(d: int) -> SurfaceGeometry:
    """Smooth degree-d surface in P^3 with its hyperplane polarization."""
    return _hypersurface(require_int(d, "hypersurface degree", 1), f"hypersurface:{d}")


def p1xp1() -> SurfaceGeometry:
    """P^1 x P^1: gram [[0, 1], [1, 0]], K = (-2, -2), L = (1, 1), c2 = 4."""
    return surface("p1xp1", 2, ((0, 1), (1, 0)), (-2, -2), (1, 1), 4)


def blowup(k: int) -> SurfaceGeometry:
    """The plane blown up in k points, 0 <= k <= MAX_BLOWUP."""
    require_int(k, "blowup point count", 0)
    if k > MAX_BLOWUP:
        raise ValidationError(f"blowup point count must be at most {MAX_BLOWUP}, got {brief(k)}")
    a = 1
    while a * a <= k:
        a += 1
    diagonal = (1,) + (-1,) * k
    gram = [[d if i == j else 0 for j in range(k + 1)] for i, d in enumerate(diagonal)]
    return surface(f"blowup:{k}", k + 1, gram, (-3,) + (1,) * k, (a,) + (-1,) * k, 3 + k)


def _hypersurface(d: int, name: str) -> SurfaceGeometry:
    return surface(name, 1, ((d,),), (d - 4,), (1,), d**3 - 4 * d**2 + 6 * d)


# the presets with a number after the colon: builder and what the number is
_FAMILIES = {"hypersurface": (hypersurface, "hypersurface degree"),
             "blowup": (blowup, "blowup point count")}


def by_name(name: str) -> SurfaceGeometry:
    """Resolve a preset name: "p2", "p1xp1", "hypersurface:<d>" or "blowup:<k>"."""
    if name == "p2":
        return p2()
    if name == "p1xp1":
        return p1xp1()
    family, colon, tail = name.partition(":")
    if colon and family in _FAMILIES:
        build, what = _FAMILIES[family]
        try:
            n = int(tail)
        except ValueError:
            raise ValidationError(f"bad {what} {brief(tail)}") from None
        return build(n)
    raise KeyError(name)
