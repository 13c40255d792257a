"""Exact arithmetic on the numerical divisor lattice of a surface.

The lattice is free of finite rank, carries an integer-valued symmetric
intersection form, and is required to have signature (1, rank-1), which
is what the Hodge index theorem forces for divisor classes of a smooth
projective surface modulo numerical equivalence.  Torsion never enters:
we work with the image of divisor classes in rational cohomology, which
is free by construction.

There is one vector type, NSVector: integer numerators over one
positive, gcd-reduced common denominator, which is 1 exactly when the
vector is integral.  NSVector(coords) builds an integral vector and
QNSVector(coords) one from rational coordinates.  Vector sums and the
pairing run over the integer numerators and divide once at the end.
NumDen holds the arithmetic of that layout, which surface_chow's
ChowClass shares: sums and differences through lincomb, scalar multiples
through reduced, the one gcd reduction to normal form.  proj_bundle's
YClass has the same layout with its base surface as a field after den,
which lincomb and reduced pass on.  dot is the pairing's loop on raw
numerator tuples.
The signature test is fraction-free symmetric Bareiss elimination on
the gram's rows, with one exactness check per step.

Every value is a Frozen.  Public constructors check every field and
bring it to normal form, so outside input is checked where it enters;
kernel results are built unchecked from checked parts by Cls._of(*fields),
compiled the first time the class reads it.  Both write the slots
through _set, the one route around Frozen.__setattr__.

Every refusal in the package is a HiggsError (a ValueError):
LatticeError for lattice data, ValidationError for surface and sheaf
data, and RegimeError (hn_branches) and CLIError (cli) downstream.
require_int is the one rule for a rank, degree, count or c2: an int,
never a bool, within the given bound; require_type is the one rule for
an argument of the wrong type.

Everything here is computed with integers and `fractions.Fraction`.
There are no floating-point numbers and no tolerances anywhere in the
package; equality always means exact equality.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul
from reprlib import Repr
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

__all__ = [
    "HiggsError",
    "LatticeError",
    "NSLattice",
    "NSVector",
    "QNSVector",
    "Rat",
    "ValidationError",
    "divide",
    "inertia",
    "lincomb",
    "pair",
    "pair_num",
    "qvec",
    "ratio",
    "ratnorm",
    "require_int",
]

Rat = Union[int, Fraction]
_T = TypeVar("_T")
_V = TypeVar("_V", bound="NumDen")


class HiggsError(ValueError):
    """Input that the package refuses; every refusal derives from this."""


class LatticeError(HiggsError):
    """Malformed lattice data, or vectors that do not fit the lattice."""


class ValidationError(HiggsError):
    """Surface or sheaf data violating a structural invariant."""


# the bounded repr that refusals echo outside input with: a str of up to 30
# characters whole, a longer one cut in the middle
_brief = Repr()
_brief.maxstring = 32
brief = _brief.repr


_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def require_int(
    value: object, what: str, low: Optional[int] = None, error: type[HiggsError] = ValidationError,
) -> int:
    """value itself when it is an int, not a bool, and at least low unless low is None.

    The one rule for ranks, degrees, counts and c2, with low None, 0 or 1;
    anything else raises error("<what> must be <kind>, got <value>").
    """
    if type(value) is int and (low is None or value >= low):
        return value
    raise error(f"{what} must be {_KINDS[low]}, got {value!r}")


def require_type(value: _T, cls: type, what: str, error: type[HiggsError] = ValidationError) -> _T:
    """value itself when it is an instance of cls; else error("not <what>: <value>").

    The one rule for an argument of the wrong type: a lattice, a vector, a
    surface, a class or (rank, c1, c2) data.
    """
    if isinstance(value, cls):
        return value
    raise error(f"not {what}: {value!r}")


def ratnorm(x: Rat) -> Rat:
    """An int (never a bool) or Fraction as a plain int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        raise ValidationError(f"an int or Fraction is required, got {x!r}")
    return int(x) if x.denominator == 1 else x


def ratio(n: int, d: int) -> Rat:
    """The exact quotient n/d of integers with d > 0: an int when d divides n."""
    if n % d == 0:
        return n // d
    return Fraction(n, d)


_new = object.__new__
_set = object.__setattr__


def _unchecked(cls: type) -> Callable[..., "Frozen"]:
    """cls._of: the value of cls with the given fields, written as they are.

    Compiled from cls._fields, one slot write per field, as dataclasses
    compiles __init__.
    """
    # a loop over the slots costs about x2.5 per build: 862 ns against 331 ns
    # on 2 fields (CPython 3.11)
    names = cls._fields
    args = ", ".join(f"f{i}" for i in range(len(names)))
    sets = "".join(f"    _set(v, {name!r}, f{i})\n" for i, name in enumerate(names))
    scope = {"_new": _new, "_set": _set, "cls": cls}
    exec(f"def of({args}):\n    v = _new(cls)\n{sets}    return v\n", scope)
    return scope["of"]


class _Compiled:
    """The _of of each Frozen class until its first read, which compiles it
    with _unchecked and puts it on the class in this one's place: most
    classes are only ever built through their checked __init__."""

    __slots__ = ()

    def __get__(self, obj: object, cls: type) -> Callable[..., "Frozen"]:
        of = _unchecked(cls)
        cls._of = staticmethod(of)
        return of


_COMPILED = _Compiled()


class Frozen:
    """An immutable value whose fields are the __slots__ along its MRO, base first.

    Equal to a value of its own type with equal own __slots__ and hashed
    by them; repr is Name(slot=value, ...).  Assigning or deleting a field
    raises AttributeError; copy and pickle refill every slot through
    __setstate__.  Cls._of(*fields) builds a value unchecked, from checked
    normal fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()))
        cls._key = attrgetter(*cls.__slots__)
        # on the class itself, so a subclass never reads its base's _of
        cls._of = _COMPILED

    def __init__(self, *fields: object) -> None:
        if len(fields) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, fields):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple[None, dict]) -> None:
        for name, value in state[1].items():
            _set(self, name, value)


class NumDen:
    """The arithmetic of a value stored as a tuple num of integer numerators
    over one denominator den > 0 with gcd(den, *num) = 1: NSVector and
    ChowClass.  Sums and differences go through lincomb, a scalar multiple
    through reduced; a value of another type is NotImplemented."""

    __slots__ = ()

    def __add__(self: _V, other: _V) -> _V:
        if not isinstance(other, type(self)):
            return NotImplemented
        return lincomb(1, self, 1, other)

    def __sub__(self: _V, other: _V) -> _V:
        if not isinstance(other, type(self)):
            return NotImplemented
        return lincomb(1, self, -1, other)

    def __neg__(self: _V) -> _V:
        return type(self)._of(tuple([-a for a in self.num]), self.den)

    def __mul__(self: _V, k: Rat) -> _V:
        if type(k) is not int and not isinstance(k, Fraction):
            return NotImplemented
        p = k.numerator
        return reduced(type(self), tuple([p * a for a in self.num]), k.denominator * self.den)

    __rmul__ = __mul__


class NSVector(NumDen, Frozen):
    """Rational coordinate vector num/den in a fixed basis of the lattice.

    num is a tuple of integers and den a positive integer with
    gcd(den, *num) = 1, so equal vectors have equal fields; den == 1
    exactly when the vector is integral.  NSVector(coords) takes int
    coordinates and QNSVector(coords) int or Fraction ones, never bools.
    """

    __slots__ = ("num", "den")

    def __init__(self, coords: Iterable[int]) -> None:
        num = tuple(coords)
        for c in num:
            if type(c) is not int:
                raise LatticeError(f"integer coordinates required, got {brief(c)}")
        _set(self, "num", num)
        _set(self, "den", 1)

    @classmethod
    def rational(cls, coords: Iterable[Rat]) -> "NSVector":
        """The vector with the given int or Fraction coordinates."""
        qs = tuple(coords)
        for c in qs:
            if type(c) is not int and not isinstance(c, Fraction):
                raise LatticeError(f"integer or Fraction coordinates required, got {c!r}")
        den = lcm(*(c.denominator for c in qs))
        # the lcm of reduced denominators leaves gcd(den, *num) = 1
        return cls._of(tuple(c.numerator * (den // c.denominator) for c in qs), den)

    @classmethod
    def zero(cls, rank: int) -> "NSVector":
        return cls._of((0,) * require_int(rank, "rank", 1, error=LatticeError), 1)

    @property
    def coords(self) -> tuple[Rat, ...]:
        """Coordinates as ints when integral, as Fractions otherwise."""
        if self.den == 1:
            return self.num
        return tuple(Fraction(n, self.den) for n in self.num)

    def __len__(self) -> int:
        return len(self.num)

    def __truediv__(self, k: Rat) -> "NSVector":
        if type(k) is not int and not isinstance(k, Fraction):
            return NotImplemented
        if k == 0:
            raise ZeroDivisionError("vector divided by zero")
        p = k.denominator if k > 0 else -k.denominator
        return reduced(NSVector, tuple([p * a for a in self.num]), abs(k.numerator) * self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def as_rational(self) -> "NSVector":
        """The vector itself: one type carries integral and rational vectors."""
        return self

    def to_integral(self) -> Optional["NSVector"]:
        """The vector itself when integral, or None if any coordinate is fractional."""
        return self if self.den == 1 else None


def reduced(cls: type[_V], num: tuple[int, ...], den: int, over: object = None) -> _V:
    """The cls value num/den, from integer numerators over a positive
    denominator, brought to lowest terms by one gcd; over is the base
    surface of a class on the threefold, the one field after den."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([a // g for a in num])
            den //= g
    # a *rest passed on costs every vector and Chow class about 100 ns a call
    return cls._of(num, den) if over is None else cls._of(num, den, over)


def lincomb(s: Rat, v: _V, t: Rat, w: _V, over: object = None) -> _V:
    """s*v + t*w for exact scalars s, t and two values of v's type (two
    vectors, two Chow classes or two classes on the threefold over the
    base over), summed in integers and reduced once."""
    # both types have num and den, so the type is checked, not the fields
    if type(w) is not type(v):
        raise LatticeError(f"not two vectors or two Chow classes: {v!r}, {w!r}")
    vn, wn, vd, wd = v.num, w.num, v.den, w.den
    if len(vn) != len(wn):
        raise LatticeError(f"dimension mismatch: {len(vn)} vs {len(wn)}")
    sd, td = s.denominator, t.denominator
    # s v + t w = (s.num td w.den v.num + t.num sd v.den w.num) / (sd td v.den w.den)
    a, b, den = s.numerator * td * wd, t.numerator * sd * vd, sd * td * vd * wd
    return reduced(type(v), tuple([a * x + b * y for x, y in zip(vn, wn)]), den, over)


# the rational constructor of the one vector type
QNSVector = NSVector.rational


def qvec(v: NSVector) -> NSVector:
    """The vector itself, after checking that it is one."""
    return require_type(v, NSVector, "a lattice vector", LatticeError)


_INT = frozenset((int,))


def _pivot_first(a: list[list[int]]) -> None:
    """Make a[0][0] nonzero in the symmetric block a, in place, by e_0 -> e_0 + c*e_k.

    k is the first index with a_0k != 0 (there is none when e_0 spans a
    kernel) and c in (1, 2) makes the new a_00 = c*(2*a_0k + c*a_kk)
    nonzero.  Row 0 gains c times row k and column 0 c times column k,
    so row 0 and column 0 stay equal.
    """
    k = next((k for k, x in enumerate(a[0]) if x), None)
    if k is None:
        raise LatticeError("gram matrix is degenerate (nonzero kernel)")
    c = 1 if 2 * a[0][k] + a[k][k] else 2
    top = a[0] = [x + c * y for x, y in zip(a[0], a[k])]
    top[0] += c * top[k]
    for row, x in zip(a[1:], top[1:]):
        row[0] = x


def _row(row: Sequence[int]) -> tuple[int, ...]:
    # a str or a mapping iterates, but as characters or keys, not entries
    if isinstance(row, (str, Mapping)):
        raise LatticeError(f"gram rows must be sequences of integers, got {brief(row)}")
    return tuple(row)


def _rows(gram: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows of gram as tuples; a gram that is not a sequence of rows, or
    has a row that is a str or a mapping, raises LatticeError."""
    try:
        return tuple(map(_row, gram))
    except TypeError:
        raise LatticeError(f"gram matrix must be a sequence of rows, got {brief(gram)}") from None


def inertia(gram: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Exact inertia (positive count, negative count) of a symmetric integer matrix.

    Fraction-free symmetric Bareiss elimination with diagonal pivots, on
    the trailing block held as a list of row lists.  After step k each
    entry a_ij of the block is the leading (k+1)-minor bordered by row i
    and column j, so every division by the previous pivot is exact and
    the k-th pivot of the rational reduction, d_k / d_(k-1), has sign
    sign(d_k) * sign(d_(k-1)).  With p = a_00 and r = (a_01, ...), row 0
    past the pivot, a step maps a_ij to (p*a_ij - r_i*r_j) // prev in one
    comprehension and checks it once, by linearity: the numerators sum
    to p*sum(a_ij) - sum(r)**2, and floor remainders share the sign of
    prev, so they all vanish iff their sum does; an inexact division
    raises AssertionError.  A zero pivot goes to _pivot_first; the
    bordered minors are linear in row and column 0, so e_0 -> e_0 + c*e_k
    keeps them minors.  Raises LatticeError, checking in this order, if
    gram is not a sequence of rows (a str or a mapping is no row), an
    entry is not an int (a bool is not one), the matrix is not square,
    it is not symmetric, or the form is degenerate.
    """
    rows = _rows(gram)
    n = len(rows)
    if not _INT.issuperset(map(type, chain(*rows))):
        x = next(x for x in chain(*rows) if type(x) is not int)
        raise LatticeError(f"gram entries must be integers, got {brief(x)}")
    if rows != (*zip(*rows),):
        if any(len(row) != n for row in rows):
            raise LatticeError(
                f"gram matrix is not square: rows of lengths {brief([*map(len, rows)])}")
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] != rows[j][i])
        raise LatticeError(f"gram matrix not symmetric at ({i},{j})")
    a = [*map(list, rows)]
    neg = 0
    prev = 1
    for _ in range(n):
        if a[0][0] == 0:
            _pivot_first(a)
        p, *r = a[0]
        neg += (p > 0) != (prev > 0)
        rest = [row[1:] for row in a[1:]]
        a = [[(p * x - ri * rj) // prev for x, rj in zip(row, r)] for row, ri in zip(rest, r)]
        if p * sum(map(sum, rest)) - sum(r) ** 2 != prev * sum(map(sum, a)):
            raise AssertionError("inexact Bareiss division")
        prev = p
    return n - neg, neg


class NSLattice(Frozen):
    """Free lattice with an integral intersection form of signature (1, rank-1).

    The gram matrix is the intersection pairing in a fixed basis.  It is
    validated on construction: rank rows here; square, symmetric, integer
    and nondegenerate by inertia; and of hyperbolic-type signature.
    """

    __slots__ = ("rank", "gram")

    def __init__(self, rank: int, gram: Sequence[Sequence[int]]) -> None:
        require_int(rank, "rank", 1, error=LatticeError)
        gram = _rows(gram)
        if len(gram) != rank:
            raise LatticeError(f"gram matrix must be {rank}x{rank}, got rows of lengths "
                               f"{brief([*map(len, gram)])}")
        pos, neg = inertia(gram)
        if (pos, neg) != (1, rank - 1):
            raise LatticeError(f"signature must be (1, {rank - 1}), got ({pos}, {neg})")
        Frozen.__init__(self, rank, gram)

    def check_vector(self, v: NSVector) -> None:
        if len(v) != self.rank:
            raise LatticeError(
                f"vector of length {len(v)} does not fit lattice of rank {self.rank}"
            )

    def zero(self) -> NSVector:
        return NSVector.zero(self.rank)

    def basis(self, i: int) -> NSVector:
        return NSVector(tuple(1 if j == i else 0 for j in range(self.rank)))


def pair_num(lat: NSLattice, v: NSVector, w: NSVector) -> int:
    """Integer numerator of v.w over the denominator v.den * w.den."""
    # a Chow class has num and den too, so the type is checked, not the fields
    if not (isinstance(v, NSVector) and isinstance(w, NSVector)):
        raise LatticeError(f"not a pair of lattice vectors: {v!r}, {w!r}")
    vn, wn = v.num, w.num
    if len(vn) != lat.rank or len(wn) != lat.rank:
        lat.check_vector(v)
        lat.check_vector(w)
    return dot(lat.gram, vn, wn)


def dot(gram: tuple[tuple[int, ...], ...], vn: Sequence[int], wn: Sequence[int]) -> int:
    """The form gram on integer coordinate tuples vn and wn of its size."""
    total = 0
    for vi, row in zip(vn, gram):
        if vi:
            total += vi * sum(map(mul, row, wn))
    return total


def pair(lat: NSLattice, v: NSVector, w: NSVector) -> Rat:
    """Intersection pairing v.w, exact.

    Summed over the integer numerators and divided once by the common
    denominator: an int exactly when the value is integral, a Fraction
    otherwise.
    """
    return ratio(pair_num(lat, v, w), v.den * w.den)


def divide(lat: NSLattice, v: NSVector, r: int) -> Optional[NSVector]:
    """v/r as a lattice vector, or None when v is not divisible by r."""
    require_type(lat, NSLattice, "a lattice", LatticeError)
    require_int(r, "divisor", 1, error=LatticeError)
    lat.check_vector(qvec(v))
    return (v / r).to_integral()
