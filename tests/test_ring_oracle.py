"""The Chow rings against an independent oracle.

The oracle holds a class of a surface as plain (deg0, [deg1 coordinates],
deg2) Fractions and pairs two divisor classes by the double sum
sum_ij u_i G_ij v_j over the surface's gram G.  It reads the surface's
fields (gram, K, L, c2) and nothing else, and never calls into
surface_chow, so the integer kernels (one numerator tuple over one
denominator, one pairing, one reduction) are checked against the
textbook formulas: sums, differences, scalar multiples, chow_mul,
chow_inverse, line_bundle_ch, todd_surface, chi, chern_c2 and y_mul with
eta^2 = L.eta.  A class on the threefold is a pair (alpha, beta) of such
triples, and the oracle never calls into proj_bundle either: it checks
the sums, differences, negation and scalar multiples of such classes,
pullback, hyperplane_class, the divisor classes r eta, D_inf and the
canonical class, restrict_to_spectral and y_pushforward.  Every class
the library returns is also in normal form: den >= 1,
gcd(den, *num) = 1, integral views are ints, and the checked constructor
gives the class back from its views.  Surfaces are random characteristic
surfaces of rank 1 to 8 and the 17 presets, and the classes drawn on
them have denominators up to 4 in each degree.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from higgsnum import (
    ChowClass,
    QNSVector,
    YClass,
    canonical_y,
    chern_c2,
    chi,
    chow_inverse,
    chow_mul,
    dinfty_class,
    hyperplane_class,
    line_bundle_ch,
    presets,
    pullback,
    restrict_to_spectral,
    spectral_divisor_class,
    todd_surface,
    y_mul,
    y_pushforward,
)

from conftest import PRESET_NAMES, characteristic_surface

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

surfaces = st.one_of(
    st.builds(lambda seed, rank: characteristic_surface(random.Random(seed), rank),
              st.integers(0, 10**6), st.integers(1, 8)),
    st.sampled_from(PRESET_NAMES).map(presets.by_name),
)
# Fractions, integral ones among them, with small denominators
rationals = st.fractions(-6, 6, max_denominator=4)
scalars = st.one_of(st.integers(-6, 6), rationals).filter(lambda k: k != 0)


# -- the oracle: a class is (Fraction, [Fraction, ...], Fraction) ------------

def pairing(x, u, v):
    g = x.lattice.gram
    return sum(u[i] * g[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def o_add(a, b, t=1):
    """a + t b."""
    return a[0] + t * b[0], [p + t * q for p, q in zip(a[1], b[1])], a[2] + t * b[2]


def o_scale(k, a):
    return k * a[0], [k * p for p in a[1]], k * a[2]


def o_mul(x, a, b):
    return (a[0] * b[0], [a[0] * q + b[0] * p for p, q in zip(a[1], b[1])],
            a[0] * b[2] + b[0] * a[2] + pairing(x, a[1], b[1]))


def o_inverse(x, a):
    """1/a0 - a1/a0^2 + (a1^2/a0^3 - a2/a0^2), the truncated geometric series."""
    a0, a1, a2 = a
    return (1 / a0, [-p / a0**2 for p in a1], pairing(x, a1, a1) / a0**3 - a2 / a0**2)


def o_exp(x, d):
    return Fraction(1), list(d), pairing(x, d, d) / 2


def o_todd(x):
    k = [Fraction(c) for c in x.canonical.num]
    return Fraction(1), [-c / 2 for c in k], (pairing(x, k, k) + x.c2_top) / Fraction(12)


def o_chi(x, ch):
    return o_mul(x, ch, o_todd(x))[2]


def o_c2(x, ch):
    return pairing(x, ch[1], ch[1]) / 2 - ch[2]


def o_divisor(d):
    """The class (0, D, 0) of a divisor with integer coordinates d."""
    return Fraction(0), [Fraction(c) for c in d], Fraction(0)


def o_y_mul(x, a, b):
    """(p + q eta)(r + s eta) with eta^2 = L.eta, on pairs (alpha, beta)."""
    (p, q), (r, s) = a, b
    c_l = o_divisor(x.polarization.num)
    beta = o_add(o_add(o_mul(x, p, s), o_mul(x, q, r)), o_mul(x, o_mul(x, q, s), c_l))
    return o_mul(x, p, r), beta


def o_y_add(a, b, t=1):
    """a + t b on pairs (alpha, beta)."""
    return o_add(a[0], b[0], t), o_add(a[1], b[1], t)


def o_y_scale(k, a):
    return o_scale(k, a[0]), o_scale(k, a[1])


def o_zero(x):
    return Fraction(0), [Fraction(0)] * x.rank, Fraction(0)


def o_eta(x):
    """eta = pi^* 0 + pi^* 1 . eta."""
    return o_zero(x), (Fraction(1), [Fraction(0)] * x.rank, Fraction(0))


def o_restrict(x, a):
    """alpha + beta . L: eta restricts to the pullback of L."""
    return o_add(a[0], o_mul(x, a[1], o_divisor(x.polarization.num)))


# -- between the two -----------------------------------------------------------

def normal(c):
    """The oracle triple of a library class, after checking its normal form."""
    assert type(c) is ChowClass
    assert type(c.den) is int and c.den >= 1 and gcd(c.den, *c.num) == 1
    assert all(type(n) is int for n in c.num)
    for q in (c.deg0, c.deg2):
        assert type(q) is int or (type(q) is Fraction and q.denominator != 1)
    assert ChowClass(c.deg0, c.deg1, c.deg2) == c
    model = (Fraction(c.num[0], c.den), [Fraction(n, c.den) for n in c.num[1:-1]],
             Fraction(c.num[-1], c.den))
    assert (c.deg0, list(c.deg1.coords), c.deg2) == model
    return model


def build(a):
    return ChowClass(a[0], QNSVector(a[1]), a[2])


def y_normal(y):
    """The oracle pair of a library class on the threefold, after checking
    its normal form and that of each of its parts."""
    assert type(y) is YClass
    assert type(y.den) is int and y.den >= 1 and gcd(y.den, *y.num) == 1
    assert all(type(n) is int for n in y.num) and len(y.num) == 2 * (y.over.rank + 2)
    assert YClass(y.alpha, y.beta, y.over) == y
    return normal(y.alpha), normal(y.beta)


@st.composite
def surface_and_triples(draw, count=2):
    x = draw(surfaces)
    triple = st.tuples(rationals, st.lists(rationals, min_size=x.rank, max_size=x.rank),
                       rationals)
    return x, [draw(triple) for _ in range(count)]


@SETTINGS
@given(surface_and_triples(), scalars)
def test_sums_and_scalar_multiples_match_the_oracle(data, k):
    x, (a, b) = data
    ca, cb = build(a), build(b)
    assert normal(ca) == a and normal(cb) == b
    assert normal(ca + cb) == o_add(a, b)
    assert normal(ca - cb) == o_add(a, b, -1)
    assert normal(-ca) == o_scale(-1, a)
    assert normal(k * ca) == normal(ca * k) == o_scale(k, a)


@SETTINGS
@given(surface_and_triples())
def test_product_and_inverse_match_the_oracle(data):
    x, (a, b) = data
    ca, cb = build(a), build(b)
    assert normal(chow_mul(x, ca, cb)) == o_mul(x, a, b)
    if a[0] != 0:
        inverse = normal(chow_inverse(x, ca))
        assert inverse == o_inverse(x, a)
        assert o_mul(x, a, inverse) == (1, [0] * x.rank, 0)


@SETTINGS
@given(surface_and_triples(1))
def test_characters_chi_and_c2_match_the_oracle(data):
    x, (a,) = data
    d = QNSVector(a[1])
    assert normal(line_bundle_ch(x, d)) == o_exp(x, a[1])
    assert normal(todd_surface(x)) == o_todd(x)
    ca = build(a)
    assert chi(x, ca) == o_chi(x, a)
    assert chern_c2(x, ca) == o_c2(x, a)
    for value in (chi(x, ca), chern_c2(x, ca)):
        assert type(value) is int or value.denominator != 1


@settings(SETTINGS, max_examples=40)
@given(surface_and_triples(4))
def test_y_mul_matches_the_oracle(data):
    x, (p, q, r, s) = data
    a = YClass(build(p), build(q), x)
    b = YClass(build(r), build(s), x)
    product = y_mul(a, b)
    assert (normal(product.alpha), normal(product.beta)) == o_y_mul(x, (p, q), (r, s))


# denominators 12 = lcm(3, 4) in alpha and 2 in beta: den 12 over both parts
@settings(SETTINGS, max_examples=40)
@given(surface_and_triples(4), scalars)
@example((presets.blowup(2), [(Fraction(1, 3), [Fraction(1, 4), 2, Fraction(-1, 2)], 1),
                              (Fraction(1, 2), [0, Fraction(3, 2), 1], Fraction(-5, 2)),
                              (2, [1, Fraction(2, 3), 0], Fraction(1, 4)),
                              (0, [Fraction(1, 3), 0, 0], 0)]), Fraction(-3, 4))
def test_y_sums_pullbacks_and_restrictions_match_the_oracle(data, k):
    x, (p, q, r, s) = data
    a, b = YClass(build(p), build(q), x), YClass(build(r), build(s), x)
    assert y_normal(a) == (p, q) and y_normal(b) == (r, s)
    assert y_normal(a + b) == o_y_add((p, q), (r, s))
    assert y_normal(a - b) == o_y_add((p, q), (r, s), -1)
    assert y_normal(-a) == o_y_scale(-1, (p, q))
    assert y_normal(k * a) == y_normal(a * k) == o_y_scale(k, (p, q))
    assert y_normal(pullback(x, build(p))) == (p, o_zero(x))
    assert y_normal(pullback(x, QNSVector(p[1]))) == ((0, p[1], 0), o_zero(x))
    assert y_normal(hyperplane_class(x)) == o_eta(x)
    for degree in (1, 3):
        assert normal(restrict_to_spectral(a, degree)) == o_restrict(x, (p, q))
    assert normal(y_pushforward(a)) == q
    assert normal(y_pushforward(y_mul(a, hyperplane_class(x)))) == o_restrict(x, (p, q))


@SETTINGS
@given(surfaces, st.integers(1, 9))
def test_divisor_classes_match_the_oracle(x, r):
    l, k = x.polarization.num, x.canonical.num
    eta = o_eta(x)
    assert y_normal(spectral_divisor_class(x, r)) == o_y_scale(r, eta)
    assert y_normal(dinfty_class(x)) == o_y_add(eta, (o_divisor(l), o_zero(x)), -1)
    canonical = o_divisor([a + b for a, b in zip(k, l)])
    assert y_normal(canonical_y(x)) == o_y_add((canonical, o_zero(x)), eta, -2)
