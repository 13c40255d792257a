"""Decision procedure for non-emptiness of a generic spectral fiber.

Fix a surface, a cover degree r and candidate invariants (c1, c2).  The
fiber over a generic, integral spectral surface is nonempty exactly when
two Diophantine conditions hold: the determinant equation

    r . delta = c1 + r(r-1)/2 . c1(L)

has a solution delta in the lattice, and the point count forced by

    (r-1) c1^2 - 2 r c2 = r^2(r^2-1)/12 . c1(L)^2 - 2 r . n

is a nonnegative integer.  The threshold where n = 0 is

    c2_gbun = (r-1)/(2r) . c1^2 - r(r^2-1)/24 . c1(L)^2,

and n = c2 - c2_gbun, so the classification by regime is a comparison
of c2 against the threshold once delta exists.
"""

from __future__ import annotations

import enum
from typing import Optional

from .ns_lattice import Frozen, NSVector, Rat, divide, ratio, require_type
from .surface_chow import HiggsNumerics, SurfaceGeometry

__all__ = [
    "FiberWitness",
    "Regime",
    "RegimeReport",
    "c2_gbun",
    "classify",
    "n_points",
    "solve_delta",
]


class Regime(str, enum.Enum):
    """Outcome of the classification."""

    NO_DELTA_SOLUTION = "NoDeltaSolution"
    EMPTY = "Empty"
    BOUNDARY = "Boundary"
    GENERIC = "Generic"


class FiberWitness(Frozen):
    """Spectral data of a fiber point: a line bundle class delta and a point count."""

    __slots__ = ("delta", "n_points")


class RegimeReport(Frozen):
    """The regime, the threshold c2gbun and, for Boundary and Generic, a witness."""

    __slots__ = ("regime", "c2gbun", "witness")


def solve_delta(x: SurfaceGeometry, h: HiggsNumerics) -> Optional[NSVector]:
    """Lattice solution of r delta = c1 + r(r-1)/2 L, or None."""
    require_type(x, SurfaceGeometry, "a surface")
    require_type(h, HiggsNumerics, "rank, c1 and c2 data")
    x.lattice.check_vector(h.c1)
    shift = (h.r * (h.r - 1) // 2) * x.polarization
    return divide(x.lattice, h.c1 + shift, h.r)


def c2_gbun(x: SurfaceGeometry, h: HiggsNumerics) -> tuple[Rat, bool]:
    """Threshold value of c2 and whether it is an integer.

    (r-1)/(2r) c1^2 - r(r^2-1)/24 L^2.  Whenever r delta = c1 + r(r-1)/2 L
    is solvable this is C(r,2) delta^2 - r(r-1)^2/2 delta.L
    + r(r-1)(r-2)(3r-1)/24 L^2, whose three coefficients are integers.
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_type(h, HiggsNumerics, "rank, c1 and c2 data")
    r = h.r
    value = ratio(
        12 * (r - 1) * x.pair(h.c1, h.c1) - r * r * (r * r - 1) * x.l_squared, 24 * r
    )
    return value, isinstance(value, int)


def n_points(x: SurfaceGeometry, h: HiggsNumerics) -> Rat:
    """Point count forced by the second Chern equation, as an exact value.

    (r^2(r^2-1)/12 L^2 - (r-1) c1^2 + 2 r c2) / (2r); equals
    c2 - c2_gbun identically.  Nonnegative integrality is exactly the
    condition checked by classify.
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_type(h, HiggsNumerics, "rank, c1 and c2 data")
    r = h.r
    numerator = (
        r * r * (r * r - 1) * x.l_squared
        - 12 * (r - 1) * x.pair(h.c1, h.c1)
        + 24 * r * h.c2
    )
    return ratio(numerator, 24 * r)


def classify(x: SurfaceGeometry, h: HiggsNumerics) -> RegimeReport:
    """Full classification of (r, c1, c2) against the two conditions.

    NoDeltaSolution when the determinant equation has no lattice
    solution; otherwise Empty, Boundary or Generic by comparing c2 with
    the threshold.  Boundary and Generic carry a witness.
    """
    threshold, _ = c2_gbun(x, h)
    delta = solve_delta(x, h)
    if delta is None:
        return RegimeReport(Regime.NO_DELTA_SOLUTION, threshold, None)
    if h.c2 < threshold:
        return RegimeReport(Regime.EMPTY, threshold, None)
    # a solvable determinant equation makes the threshold, and so n, an integer
    n = h.c2 - threshold
    regime = Regime.BOUNDARY if n == 0 else Regime.GENERIC
    return RegimeReport(regime, threshold, FiberWitness(delta, n))
