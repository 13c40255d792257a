import random
from fractions import Fraction

import pytest

from higgsnum import (
    ChowClass,
    LatticeError,
    NSVector,
    QNSVector,
    YClass,
    canonical_y,
    chow_mul,
    dinfty_class,
    hyperplane_class,
    lincomb,
    presets,
    pullback,
    restrict_to_spectral,
    spectral_divisor_class,
    y_mul,
    y_pushforward,
)


def rand_chow(rng, rank):
    return ChowClass(
        Fraction(rng.randint(-12, 12), rng.randint(1, 3)),
        QNSVector(tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(rank))),
        Fraction(rng.randint(-12, 12), rng.randint(1, 3)),
    )


def test_eta_relation(quintic):
    """eta^2 rewrites to pi^* c1(L) . eta."""
    eta = hyperplane_class(quintic)
    sq = y_mul(eta, eta)
    assert sq.alpha == ChowClass.zero(1)
    assert sq.beta == ChowClass.of_divisor(quintic.polarization)


def test_eta_kills_dinfty(quintic, blowup):
    for x in (quintic, blowup):
        eta = hyperplane_class(x)
        product = y_mul(eta, dinfty_class(x))
        assert product.alpha == ChowClass.zero(x.rank)
        assert product.beta == ChowClass.zero(x.rank)


def test_spectral_divisor_decomposition(quintic, k3, plane):
    """r . eta = r (D_inf + pi^* c1 L) for every cover degree."""
    for x in (quintic, k3, plane):
        for r in range(1, 9):
            assert spectral_divisor_class(x, r) == r * (
                dinfty_class(x) + pullback(x, x.polarization)
            )
    with pytest.raises(ValueError):
        spectral_divisor_class(quintic, 0)


def test_pushforward_basics(quintic):
    eta = hyperplane_class(quintic)
    h = quintic.lattice.basis(0)
    assert y_pushforward(eta) == ChowClass.unit(1)
    assert y_pushforward(pullback(quintic, h)) == ChowClass.zero(1)
    point_over_fiber = y_mul(pullback(quintic, ChowClass.of_points(1, 1)), eta)
    assert y_pushforward(point_over_fiber) == ChowClass.of_points(1, 1)


def test_eta_cubed_integral():
    for name, expected in (("p2", 1), ("hypersurface:4", 4), ("hypersurface:5", 5)):
        x = presets.by_name(name)
        eta = hyperplane_class(x)
        cubed = y_mul(y_mul(eta, eta), eta)
        assert y_pushforward(cubed).deg2 == expected == x.l_squared


def test_pullback_products(quintic):
    h = quintic.lattice.basis(0)
    p = y_mul(pullback(quintic, h), pullback(quintic, h))
    assert p.alpha == ChowClass.of_points(5, 1)
    assert p.beta == ChowClass.zero(1)


def test_projection_formula(blowup):
    """pi_*(pi^* a . b) = a . pi_* b."""
    rng = random.Random(21)
    for _ in range(200):
        a = rand_chow(rng, 2)
        b_alpha, b_beta = rand_chow(rng, 2), rand_chow(rng, 2)
        b = pullback(blowup, b_alpha) + y_mul(pullback(blowup, b_beta), hyperplane_class(blowup))
        lhs = y_pushforward(y_mul(pullback(blowup, a), b))
        rhs = chow_mul(blowup, a, y_pushforward(b))
        assert lhs == rhs


def test_y_ring_axioms(blowup):
    rng = random.Random(22)
    eta = hyperplane_class(blowup)
    for _ in range(120):
        ys = []
        for _ in range(3):
            ys.append(pullback(blowup, rand_chow(rng, 2)) + y_mul(pullback(blowup, rand_chow(rng, 2)), eta))
        a, b, c = ys
        assert y_mul(a, b) == y_mul(b, a)
        assert y_mul(y_mul(a, b), c) == y_mul(a, y_mul(b, c))
        assert y_mul(a, b + c) == y_mul(a, b) + y_mul(a, c)
        assert a * b == y_mul(a, b)
        assert -a == (-1) * a and a + -a == pullback(blowup, ChowClass.zero(2))


def test_canonical_y(quintic):
    """On the quintic: omega = pi^*(K + L) - 2 eta = pi^*(2H) - 2 eta."""
    w = canonical_y(quintic)
    assert w.alpha == ChowClass.of_divisor(NSVector((2,)))
    assert w.beta == -2 * ChowClass.unit(1)


def test_restriction_adjunction(quintic, k3, plane):
    """(omega_Y + X_s)|_{X_s} is the pullback of K + (r-1) c1(L)."""
    for x in (quintic, k3, plane):
        for r in range(1, 9):
            total = canonical_y(x) + spectral_divisor_class(x, r)
            restricted = restrict_to_spectral(total, r)
            expected = x.canonical + (r - 1) * x.polarization
            assert restricted.deg0 == 0
            assert restricted.deg2 == 0
            assert restricted.deg1.to_integral() == expected


def test_restriction_of_eta(quintic):
    for r in (1, 2, 5):
        assert restrict_to_spectral(hyperplane_class(quintic), r) == ChowClass.of_divisor(
            quintic.polarization
        )
    with pytest.raises(ValueError):
        restrict_to_spectral(hyperplane_class(quintic), 0)


def test_base_mismatch(quintic, k3):
    """Classes over two surfaces do not combine, however they are combined."""
    a, b = hyperplane_class(quintic), hyperplane_class(k3)
    with pytest.raises(LatticeError):
        y_mul(a, b)
    for combine in (lambda: a + b, lambda: a - b, lambda: lincomb(1, a, Fraction(1, 2), b)):
        with pytest.raises(LatticeError, match="^classes live over different base surfaces$"):
            combine()


def test_equal_bases_combine():
    """Two surfaces built apart from the same data are one base: classes over
    them add, subtract and negate, and scalar multiples keep type and base."""
    x, x2 = presets.p2(), presets.p2()
    assert x == x2 and x is not x2
    y, z = canonical_y(x), dinfty_class(x2)
    expected = YClass(y.alpha + z.alpha, y.beta + z.beta, x)
    assert y + z == expected and (y + z).over is x
    assert y - z == YClass(y.alpha - z.alpha, y.beta - z.beta, x)
    assert -z == YClass(-z.alpha, -z.beta, x2) and (-z).over is x2
    assert lincomb(2, z, -1, y) == z + z - y
    for scaled, k in ((3 * y, 3), (y * Fraction(1, 3), Fraction(1, 3))):
        assert type(scaled) is YClass and scaled.over is x
        assert scaled == YClass(k * y.alpha, k * y.beta, x)
