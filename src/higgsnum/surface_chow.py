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

A class is stored as a vector is: integer numerators num = (n0, n1 ..
n_rank, n2) of its degrees over one den > 0, gcd(den, *num) = 1, with
deg0, deg1 and deg2 as read-only views.  ChowClass is a NumDen, so
+ - neg and scalar multiples are ns_lattice's.  Each kernel here
(chow_mul, chow_inverse, the Chern characters, Todd, chi, chern_c2) is
one comprehension over those integers, at most one pairing (dot) and one
gcd reduction by ns_lattice.reduced, which builds the result unchecked.
The checked constructor is ChowClass(deg0, deg1, deg2), which brings
the three degrees over one denominator with ns_lattice.lcm_form, behind
of_divisor and of_points; zero and unit check the rank.
"""

from __future__ import annotations

from operator import mul

from .ns_lattice import (
    Frozen,
    LatticeError,
    NSLattice,
    NSVector,
    NumDen,
    Rat,
    ValidationError,
    brief,
    dot,
    lcm_form,
    pair,
    pair_num,
    qvec,
    ratio,
    ratnorm,
    reduced,
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


class ChowClass(NumDen, Frozen):
    """Element of the truncated intersection ring of a surface: deg0 and
    deg2 exact rationals, deg1 a rational divisor class, all three held in
    num over den.  Sums, differences and scalar multiples come from NumDen;
    the ring product needs the pairing and lives in chow_mul.
    """

    __slots__ = ("num", "den")

    def __init__(self, deg0: Rat, deg1: NSVector, deg2: Rat) -> None:
        a, v, b = ratnorm(deg0), qvec(deg1), ratnorm(deg2)
        parts = ((a.numerator,), a.denominator), (v.num, v.den), ((b.numerator,), b.denominator)
        Frozen.__init__(self, *lcm_form(parts))

    @classmethod
    def zero(cls, rank: int) -> "ChowClass":
        return reduced(cls, (0,) * (require_int(rank, "rank", 1, error=LatticeError) + 2), 1)

    @classmethod
    def unit(cls, rank: int) -> "ChowClass":
        return reduced(cls, (1,) + (0,) * (require_int(rank, "rank", 1, error=LatticeError) + 1), 1)

    @classmethod
    def of_divisor(cls, v: NSVector) -> "ChowClass":
        return cls(0, v, 0)

    @classmethod
    def of_points(cls, x: Rat, rank: int) -> "ChowClass":
        return cls(0, NSVector.zero(rank), x)

    @property
    def deg0(self) -> Rat:
        return self.num[0] if self.den == 1 else ratio(self.num[0], self.den)

    @property
    def deg1(self) -> NSVector:
        return reduced(NSVector, self.num[1:-1], self.den)

    @property
    def deg2(self) -> Rat:
        return self.num[-1] if self.den == 1 else ratio(self.num[-1], self.den)


def _deg1(x: SurfaceGeometry, a: ChowClass) -> tuple[int, ...]:
    """The numerators of the degree-1 part of a, which must fit the lattice of x."""
    rank = x.lattice.rank
    if len(a.num) != rank + 2:
        raise LatticeError(f"vector of length {len(a.num) - 2} does not fit lattice of rank {rank}")
    return a.num[1:-1]


def chow_mul(x: SurfaceGeometry, a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in the truncated intersection ring of x.

    Over the one denominator a.den * b.den the numerators are
    (a0 b0, a0 b1 + b0 a1, a0 b2 + b0 a2 + a1.b1), reduced once.
    """
    if not (isinstance(a, ChowClass) and isinstance(b, ChowClass)):
        raise ValidationError(f"not a pair of Chow classes: {brief(a)}, {brief(b)}")
    p, q, u, v = a.num, b.num, _deg1(x, a), _deg1(x, b)
    a0, b0 = p[0], q[0]
    return reduced(ChowClass, (a0 * b0, *[a0 * z + b0 * y for y, z in zip(u, v)],
                               a0 * q[-1] + b0 * p[-1] + dot(x.lattice.gram, u, v)),
                   a.den * b.den)


def chow_inverse(x: SurfaceGeometry, a: ChowClass) -> ChowClass:
    """Multiplicative inverse of a class with invertible degree-0 part.

    With a = (n, u, t)/d: (d n^2, -d n u, d (u.u - n t)) / n^3, reduced once.
    """
    if not isinstance(a, ChowClass):
        raise ValidationError(f"not a Chow class: {brief(a)}")
    n = a.num[0]
    if n == 0:
        raise ValidationError("class with deg0 = 0 is not invertible")
    d = a.den if n > 0 else -a.den
    u = _deg1(x, a)
    return reduced(ChowClass, (d * n * n, *[-d * n * y for y in u],
                               d * (dot(x.lattice.gram, u, u) - n * a.num[-1])), n * n * abs(n))


def line_bundle_ch(x: SurfaceGeometry, d: NSVector) -> ChowClass:
    """Chern character exp(D) = (1, D, D^2/2) of a line bundle class."""
    return ideal_twist_ch(x, d, 0)


def todd_surface(x: SurfaceGeometry) -> ChowClass:
    """Todd class (1, -K/2, (K^2 + c2)/12) of the surface.

    The degree-2 part is chi(O), an integer by the Noether check.
    """
    require_type(x, SurfaceGeometry, "a surface")
    return reduced(ChowClass, (2, *[-k for k in x.canonical.num], 2 * x.chi_structure_sheaf), 2)


def cotangent_ch(x: SurfaceGeometry) -> ChowClass:
    """Chern character (2, K, (K^2 - 2 c2)/2) of the cotangent bundle."""
    require_type(x, SurfaceGeometry, "a surface")
    return reduced(ChowClass, (4, *[2 * k for k in x.canonical.num],
                               x.k_squared - 2 * x.c2_top), 2)


def chi(x: SurfaceGeometry, ch: ChowClass) -> Rat:
    """Euler characteristic by Riemann-Roch: degree-2 part of ch * Td.

    That is ch0 chi(O) - ch1.K/2 + ch2, over the one denominator 2 ch.den.
    The value is exact; for the Chern character of an actual sheaf it is
    an integer, but non-integral inputs are legitimate and the result is
    returned as is.
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_type(ch, ChowClass, "a Chow class")
    k = dot(x.lattice.gram, _deg1(x, ch), x.canonical.num)
    return ratio(2 * (ch.num[0] * x.chi_structure_sheaf + ch.num[-1]) - k, 2 * ch.den)


def chern_c2(x: SurfaceGeometry, ch: ChowClass) -> Rat:
    """c2 = ch1^2/2 - ch2 of a Chern character, exact: the second Chern
    class of a sheaf with that character, for any rank."""
    require_type(x, SurfaceGeometry, "a surface")
    require_type(ch, ChowClass, "a Chow class")
    # over the one denominator 2 d^2, with ch1 = u/d and ch2 = t/d
    d, u = ch.den, _deg1(x, ch)
    return ratio(dot(x.lattice.gram, u, u) - 2 * d * ch.num[-1], 2 * d * d)


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
    """Chern character (1, M, M^2/2 - n) of a line bundle twisted by the
    ideal of n points, over the one denominator 2 e^2 with M = v/e."""
    require_int(n_points, "point count", 0)
    require_type(x, SurfaceGeometry, "a surface")
    e = qvec(m).den
    return reduced(ChowClass, (2 * e * e, *[2 * e * y for y in m.num],
                               pair_num(x.lattice, m, m) - 2 * e * e * n_points), 2 * e * e)


class HiggsNumerics(Frozen):
    """Rank, first and second Chern class of a torsion-free sheaf."""

    __slots__ = ("r", "c1", "c2")

    def __init__(self, r: int, c1: NSVector, c2: int) -> None:
        require_int(r, "rank", 1)
        require_int(c2, "c2")
        if not qvec(c1).is_integral():
            raise ValidationError(f"c1 must be an integral class, got {brief(c1)}")
        Frozen.__init__(self, r, c1, c2)


def discriminant(h: HiggsNumerics, x: SurfaceGeometry) -> int:
    """Bogomolov discriminant 2 r c2 - (r - 1) c1^2."""
    require_type(h, HiggsNumerics, "rank, c1 and c2 data")
    require_type(x, SurfaceGeometry, "a surface")
    return 2 * h.r * h.c2 - (h.r - 1) * pair_num(x.lattice, h.c1, h.c1)
