"""Truncated rational intersection ring of a polarized surface.

A class lives in three graded pieces: degree 0 (a multiple of the
fundamental class), degree 1 (a rational divisor class), degree 2 (a
rational multiple of the point class).  Products above the dimension of
the surface vanish, so the ring multiplication is

    (a0, a1, a2) * (b0, b1, b2)
        = (a0*b0, a0*b1 + b0*a1, a0*b2 + b0*a2 + a1.b1)

with a1.b1 the intersection pairing.  On top of the ring this module
provides Chern characters of line bundles and of the cotangent bundle,
the surface Todd class, the Riemann-Roch integral, c2 of a Chern
character, Hilbert polynomial values and the discriminant of rank/c1/c2
data.

The geometry of the surface itself enters only through the lattice, the
canonical class, the polarization and the topological Euler number; the
constructor checks the Noether constraint that K^2 + c2 is divisible by
12, and Wu's formula that K is characteristic (D^2 + K.D is even for
every D), so chi(O) and chi of every line bundle are integers.

The public constructors check: ChowClass(deg0, deg1, deg2) brings deg0
and deg2 to normal form.  Kernel results are built unchecked from checked
parts with ChowClass._of (+, -, negation, scalar *, chow_mul, chow_inverse,
zero, unit); a sum or product that may be an integral Fraction is ratnorm'd.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .ns_lattice import (
    Frozen,
    LatticeError,
    NSLattice,
    NSVector,
    Rat,
    ValidationError,
    lincomb,
    pair,
    pair_num,
    qvec,
    ratio,
    ratnorm,
    require_int,
    require_type,
)

__all__ = [
    "ChowClass",
    "HiggsNumerics",
    "SurfaceGeometry",
    "chern_c2",
    "chi",
    "chow_inverse",
    "chow_mul",
    "cotangent_ch",
    "discriminant",
    "hilbert_polynomial",
    "ideal_twist_ch",
    "line_bundle_ch",
    "todd_surface",
]


class SurfaceGeometry(Frozen):
    """Numerical data of a smooth projective polarized surface.

    canonical and polarization are integral classes in the lattice;
    c2_top is the topological Euler number.  The polarization must have
    positive self-intersection, (K^2 + c2_top) must be divisible by 12,
    and K must be characteristic.  The intersection numbers K^2, L^2 and
    K.L are computed once, on construction, and are the last three fields.
    """

    __slots__ = ("lattice", "canonical", "polarization", "c2_top", "name",
                 "k_squared", "l_squared", "k_dot_l")

    def __init__(self, lattice: NSLattice, canonical: NSVector, polarization: NSVector,
                 c2_top: int, name: str = "") -> None:
        require_type(lattice, NSLattice, "a lattice", LatticeError)
        for v in (canonical, polarization):
            lattice.check_vector(qvec(v))
        if not (canonical.is_integral() and polarization.is_integral()):
            raise ValidationError("canonical and polarization must be integral classes")
        require_int(c2_top, "c2_top")
        l2 = pair(lattice, polarization, polarization)
        if l2 <= 0:
            raise ValidationError("polarization must have positive self-intersection, "
                                  f"got {_shown(l2, 'a negative number')}")
        k2 = pair(lattice, canonical, canonical)
        noether = k2 + c2_top
        if noether % 12 != 0:
            raise ValidationError(f"Noether integrality fails: K^2 + c2 = "
                                  f"{_shown(noether, f'{noether % 12} mod 12')} "
                                  "is not divisible by 12")
        # Wu: e_i^2 = K.e_i (mod 2) on the basis; D^2 + K.D is additive mod 2
        k = canonical.num
        for i, row in enumerate(lattice.gram):
            ke, e2 = sum(map(mul, row, k)), row[i]
            if (e2 - ke) & 1:
                raise ValidationError(
                    f"canonical class is not characteristic: K.e_{i} = "
                    f"{_shown(ke, f'{ke & 1} mod 2')} and e_{i}^2 = "
                    f"{_shown(e2, f'{e2 & 1} mod 2')} differ mod 2"
                )
        Frozen.__init__(self, lattice, canonical, polarization, c2_top, name,
                        k2, l2, pair(lattice, canonical, polarization))

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def chi_structure_sheaf(self) -> int:
        return (self.k_squared + self.c2_top) // 12

    def pair(self, v, w) -> Rat:
        return pair(self.lattice, v, w)


def _shown(n: int, fallback: object) -> str:
    """The text of n, or of fallback when n has more digits than int-to-text
    conversion allows: a refusal names such a number by its sign or residue."""
    try:
        return str(n)
    except ValueError:
        return str(fallback)


class ChowClass(Frozen):
    """Element of the truncated intersection ring of a surface.

    deg0 and deg2 are exact rationals, deg1 a rational divisor class.
    Addition and scalar multiplication are defined here; the ring
    product needs the pairing and lives in chow_mul.
    """

    __slots__ = ("deg0", "deg1", "deg2")

    def __init__(self, deg0: Rat, deg1: NSVector, deg2: Rat) -> None:
        Frozen.__init__(self, ratnorm(deg0), qvec(deg1), ratnorm(deg2))

    @classmethod
    def zero(cls, rank: int) -> "ChowClass":
        return cls._of(0, NSVector.zero(rank), 0)

    @classmethod
    def unit(cls, rank: int) -> "ChowClass":
        return cls._of(1, NSVector.zero(rank), 0)

    @classmethod
    def of_divisor(cls, v: NSVector) -> "ChowClass":
        return cls(0, v, 0)

    @classmethod
    def of_points(cls, x: Rat, rank: int) -> "ChowClass":
        return cls(0, NSVector.zero(rank), x)

    @property
    def rank(self) -> int:
        return len(self.deg1)

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return ChowClass._of(ratnorm(self.deg0 + other.deg0), self.deg1 + other.deg1,
                             ratnorm(self.deg2 + other.deg2))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return ChowClass._of(ratnorm(self.deg0 - other.deg0), self.deg1 - other.deg1,
                             ratnorm(self.deg2 - other.deg2))

    def __neg__(self) -> "ChowClass":
        return ChowClass._of(-self.deg0, -self.deg1, -self.deg2)

    def __mul__(self, k: Rat) -> "ChowClass":
        if type(k) is int or isinstance(k, Fraction):
            return ChowClass._of(ratnorm(k * self.deg0), k * self.deg1, ratnorm(k * self.deg2))
        return NotImplemented

    __rmul__ = __mul__


def chow_mul(x: SurfaceGeometry, a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in the truncated intersection ring of x.

    Each degree is summed over integer numerators and divided once.
    """
    try:
        a0, b0, a2, b2 = a.deg0, b.deg0, a.deg2, b.deg2
        u, v = a.deg1, b.deg1
    except AttributeError:
        raise ValidationError(f"not a pair of Chow classes: {a!r}, {b!r}") from None
    # deg2 = a0 b2 + b0 a2 + u.v over the common denominator d1 d2 d3
    d1 = a0.denominator * b2.denominator
    d2 = b0.denominator * a2.denominator
    d3 = u.den * v.den
    deg2 = ratio(
        (a0.numerator * b2.numerator * d2 + b0.numerator * a2.numerator * d1) * d3
        + pair_num(x.lattice, u, v) * d1 * d2,
        d1 * d2 * d3,
    )
    deg0 = ratio(a0.numerator * b0.numerator, a0.denominator * b0.denominator)
    return ChowClass._of(deg0, lincomb(a0, v, b0, u), deg2)


def chow_inverse(x: SurfaceGeometry, a: ChowClass) -> ChowClass:
    """Multiplicative inverse of a class with invertible degree-0 part.

    With a0 = n/d, n > 0: (d/n, -d^2/n^2 a1, d^3/n^3 a1^2 - d^2/n^2 a2), each divided once.
    """
    try:
        n, d = a.deg0.numerator, a.deg0.denominator
        u, s, t = a.deg1, a.deg2.numerator, a.deg2.denominator
    except AttributeError:
        raise ValidationError(f"not a Chow class: {a!r}") from None
    if n == 0:
        raise ValidationError("class with deg0 = 0 is not invertible")
    if n < 0:
        n, d = -n, -d
    e2 = u.den * u.den
    deg2 = ratio(d * d * (pair_num(x.lattice, u, u) * d * t - s * n * e2), n * n * n * e2 * t)
    return ChowClass._of(ratio(d, n), u * ratio(-d * d, n * n), deg2)


def line_bundle_ch(x: SurfaceGeometry, d: NSVector) -> ChowClass:
    """Chern character exp(D) = (1, D, D^2/2) of a line bundle class."""
    require_type(x, SurfaceGeometry, "a surface")
    return ChowClass(1, d, ratio(pair_num(x.lattice, d, d), 2 * d.den * d.den))


def todd_surface(x: SurfaceGeometry) -> ChowClass:
    """Todd class (1, -K/2, (K^2 + c2)/12) of the surface.

    The degree-2 part is chi(O), an integer by the Noether check.
    """
    require_type(x, SurfaceGeometry, "a surface")
    return ChowClass(1, x.canonical / -2, x.chi_structure_sheaf)


def cotangent_ch(x: SurfaceGeometry) -> ChowClass:
    """Chern character (2, K, (K^2 - 2 c2)/2) of the cotangent bundle."""
    require_type(x, SurfaceGeometry, "a surface")
    return ChowClass(2, x.canonical, ratio(x.k_squared - 2 * x.c2_top, 2))


def chi(x: SurfaceGeometry, ch: ChowClass) -> Rat:
    """Euler characteristic by Riemann-Roch: degree-2 part of ch * Td.

    The value is exact; for the Chern character of an actual sheaf it is
    an integer, but non-integral inputs are legitimate and the result is
    returned as is.
    """
    return chow_mul(x, ch, todd_surface(x)).deg2


def chern_c2(x: SurfaceGeometry, ch: ChowClass) -> Rat:
    """c2 = ch1^2/2 - ch2 of a Chern character, exact: the second Chern
    class of a sheaf with that character, for any rank."""
    require_type(x, SurfaceGeometry, "a surface")
    require_type(ch, ChowClass, "a Chow class")
    # over the one denominator 2 e^2 q, with ch1 = v/e and ch2 = p/q
    e2, p, q = ch.deg1.den ** 2, ch.deg2.numerator, ch.deg2.denominator
    return ratio(pair_num(x.lattice, ch.deg1, ch.deg1) * q - 2 * e2 * p, 2 * e2 * q)


def hilbert_polynomial(x: SurfaceGeometry, ch: ChowClass, n: int) -> Rat:
    """chi of ch twisted by the n-th power of the polarization.

    As a function of n this is the quadratic
    (r L^2 / 2) n^2 + (ch1 - (r/2) K).L n + chi(ch).
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_int(n, "twist")
    twist = line_bundle_ch(x, n * x.polarization)
    return chi(x, chow_mul(x, ch, twist))


def ideal_twist_ch(x: SurfaceGeometry, m: NSVector, n_points: int) -> ChowClass:
    """Chern character of a line bundle twisted by the ideal of n points."""
    require_int(n_points, "point count", 0)
    c = line_bundle_ch(x, m)
    return ChowClass(c.deg0, c.deg1, c.deg2 - n_points)


class HiggsNumerics(Frozen):
    """Rank, first and second Chern class of a torsion-free sheaf."""

    __slots__ = ("r", "c1", "c2")

    def __init__(self, r: int, c1: NSVector, c2: int) -> None:
        require_int(r, "rank", 1)
        require_int(c2, "c2")
        if not qvec(c1).is_integral():
            raise ValidationError(f"c1 must be an integral class, got {c1!r}")
        Frozen.__init__(self, r, c1, c2)


def discriminant(h: HiggsNumerics, x: SurfaceGeometry) -> int:
    """Bogomolov discriminant 2 r c2 - (r - 1) c1^2."""
    return 2 * h.r * h.c2 - (h.r - 1) * pair_num(x.lattice, h.c1, h.c1)
