"""Kernel results are in the normal form the public constructors give.

The ring operations build their results with the unchecked constructor
Cls._of, so nothing downstream brings a field to normal form.  Each
result is rebuilt here through the public constructor, field by field,
and must come back equal and with the same type in every field:
Fraction(1, 1) == 1, so equality alone would miss an integral Fraction
left unnormalized.  The ring axioms and the exponential property of
line_bundle_ch are checked on the same draws, over random characteristic
surfaces of rank 1 to 8, p1xp1 and the plane blown up in up to 8 points.
"""

import random
from fractions import Fraction

import pytest

from higgsnum import (
    ChowClass,
    NSVector,
    QNSVector,
    SpectralCover,
    YClass,
    chow_inverse,
    chow_mul,
    hyperplane_class,
    lincomb,
    line_bundle_ch,
    presets,
    pullback,
    y_mul,
)

from conftest import characteristic_surface

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

PRESETS = ["p1xp1"] + [f"blowup:{k}" for k in range(9)]

surfaces = st.one_of(
    st.builds(lambda seed, rank: characteristic_surface(random.Random(seed), rank),
              st.integers(0, 10**6), st.integers(1, 8)),
    st.sampled_from(PRESETS).map(presets.by_name),
)
# small denominators, so that sums and products often come out integral
rationals = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=3))
scalars = rationals.filter(lambda k: k != 0)


def vectors(rank):
    return st.lists(rationals, min_size=rank, max_size=rank).map(QNSVector)


def integral_vectors(rank):
    return st.lists(st.integers(-6, 6), min_size=rank, max_size=rank).map(NSVector)


def chow_classes(rank):
    return st.builds(ChowClass, rationals, vectors(rank), rationals)


@st.composite
def surface_and_classes(draw, count=3):
    x = draw(surfaces)
    return x, [draw(chow_classes(x.rank)) for _ in range(count)]


def fields(v):
    """The fields of v down to its ints and Fractions, each as (type, value)."""
    if isinstance(v, NSVector):
        return tuple((type(n), n) for n in v.num), (type(v.den), v.den)
    if isinstance(v, ChowClass):
        return (type(v.deg0), v.deg0), fields(v.deg1), (type(v.deg2), v.deg2)
    return fields(v.alpha), fields(v.beta), v.over


def rebuild(v):
    """v built again through the public constructors, from its coordinates."""
    if isinstance(v, NSVector):
        return QNSVector(v.coords)
    if isinstance(v, ChowClass):
        return ChowClass(v.deg0, rebuild(v.deg1), v.deg2)
    return YClass(rebuild(v.alpha), rebuild(v.beta), v.over)


def normal(v):
    """v itself, after checking that the public constructors give it back."""
    again = rebuild(v)
    assert v == again
    assert fields(v) == fields(again)
    return v


@SETTINGS
@given(surface_and_classes(2), scalars, st.integers(1, 5), rationals)
def test_chow_results_are_normal(data, k, r, points):
    x, (a, b) = data
    n = x.rank
    for v in (a + b, a - b, -a, a + -a, k * a, a * k, chow_mul(x, a, b),
              ChowClass.zero(n), ChowClass.unit(n), SpectralCover(x, r).pushforward(a, points)):
        normal(v)
    if a.deg0 != 0:
        normal(chow_inverse(x, a))
    u, w = a.deg1, b.deg1
    for v in (u + w, u - w, -u, k * u, u / k, lincomb(k, u, a.deg2, w), NSVector.zero(n)):
        normal(v)


@SETTINGS
@given(surface_and_classes(), scalars)
def test_chow_ring_axioms(data, k):
    x, (a, b, c) = data
    mul = lambda p, q: normal(chow_mul(x, p, q))
    zero, unit = ChowClass.zero(x.rank), ChowClass.unit(x.rank)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, normal(b + c)) == normal(mul(a, b) + mul(a, c))
    assert mul(a, unit) == a and mul(a, zero) == zero
    assert normal(a + normal(-a)) == zero and normal(a - b) == normal(a + normal(-b))
    assert normal(k * normal(b + c)) == normal(normal(k * b) + normal(k * c))
    assert mul(normal(k * a), b) == normal(k * mul(a, b))


@st.composite
def surface_and_y_classes(draw):
    x, (a, b, c, d, e, f) = draw(surface_and_classes(6))
    return x, [YClass(p, q, x) for p, q in ((a, b), (c, d), (e, f))]


@settings(SETTINGS, max_examples=60)
@given(surface_and_y_classes(), scalars)
def test_y_results_are_normal_and_form_a_ring(data, k):
    x, (a, b, c) = data
    mul = lambda p, q: normal(y_mul(p, q))
    one = pullback(x, ChowClass.unit(x.rank))
    eta = hyperplane_class(x)
    built = pullback(x, a.alpha) + y_mul(pullback(x, a.beta), eta)
    for v in (a + b, a - b, -a, k * a, a * k, built):
        normal(v)
    assert built == a
    assert mul(a, b) == mul(b, a) == normal(a * b)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, normal(b + c)) == normal(mul(a, b) + mul(a, c))
    assert mul(a, one) == a
    assert normal(a + normal(-a)) == pullback(x, ChowClass.zero(x.rank))


@st.composite
def surface_and_divisors(draw):
    x = draw(surfaces)
    vector = st.one_of(integral_vectors(x.rank), vectors(x.rank))
    return x, draw(vector), draw(vector)


@SETTINGS
@given(surface_and_divisors())
def test_line_bundle_ch_is_exponential(data):
    x, d, e = data
    ch = lambda v: normal(line_bundle_ch(x, v))
    assert ch(normal(d + e)) == normal(chow_mul(x, ch(d), ch(e)))
    assert normal(chow_mul(x, ch(d), ch(normal(-d)))) == ChowClass.unit(x.rank)
    assert ch(NSVector.zero(x.rank)) == ChowClass.unit(x.rank)


def test_integral_fraction_sums_come_back_as_ints():
    half = ChowClass(Fraction(1, 2), QNSVector((Fraction(1, 2),)), Fraction(-1, 2))
    total = half + half
    assert fields(total) == ((int, 1), (((int, 1),), (int, 1)), (int, -1))
    assert fields(half - half) == fields(ChowClass.zero(1))
    assert type((2 * half).deg0) is int and type((half * Fraction(4)).deg2) is int
