import random
from fractions import Fraction

import pytest

from higgsnum import (
    ChowClass,
    NSVector,
    SpectralCover,
    ValidationError,
    chi,
    chi_two_ways,
    grr_pushforward,
    ideal_twist_ch,
    line_bundle_ch,
    presets,
    pushforward_structure_ch,
    spectral_c2_tangent,
    spectral_canonical,
    spectral_cotangent_ch,
    spectral_todd,
    todd_surface,
)

SURFACES = lambda: (presets.p2(), presets.hypersurface(4), presets.hypersurface(5))


def test_cover_validation(quintic):
    with pytest.raises(ValidationError):
        SpectralCover(quintic, 0)
    with pytest.raises(ValidationError):
        SpectralCover(quintic, -1)


def test_spectral_canonical(quintic, k3, plane):
    h = quintic.lattice.basis(0)
    assert spectral_canonical(SpectralCover(quintic, 2)) == 2 * h
    assert spectral_canonical(SpectralCover(k3, 3)) == 2 * k3.lattice.basis(0)
    assert spectral_canonical(SpectralCover(plane, 1)) == plane.canonical


def test_cotangent_ch_quintic(quintic):
    c = spectral_cotangent_ch(SpectralCover(quintic, 2))
    assert c.deg0 == 2
    assert c.deg1.to_integral() == NSVector((2,))
    assert c.deg2 == -60


def test_cotangent_first_chern_is_canonical():
    """deg1 of the cotangent character always equals the canonical class."""
    for x in SURFACES():
        for r in range(1, 7):
            s = SpectralCover(x, r)
            c = spectral_cotangent_ch(s)
            assert c.deg0 == 2
            assert c.deg1.to_integral() == spectral_canonical(s)


def test_cotangent_determines_c2():
    """c2 recovered from (c1^2 - 2 ch2)/2 matches the direct formula."""
    for x in SURFACES():
        for r in range(1, 7):
            s = SpectralCover(x, r)
            c = spectral_cotangent_ch(s)
            c1sq = x.pair(c.deg1, c.deg1)
            assert Fraction(c1sq - 2 * Fraction(c.deg2), 2) == spectral_c2_tangent(s)


def test_c2_tangent_values(quintic, plane):
    assert spectral_c2_tangent(SpectralCover(quintic, 2)) == 70
    assert spectral_c2_tangent(SpectralCover(plane, 2)) == 2
    for x in SURFACES():
        assert spectral_c2_tangent(SpectralCover(x, 1)) == x.c2_top


def test_todd_values(quintic, k3):
    td = spectral_todd(SpectralCover(quintic, 2))
    assert td.deg0 == 1
    assert td.deg1.to_integral() == NSVector((-1,))
    assert td.deg2 == Fraction(15, 2)
    td_k3 = spectral_todd(SpectralCover(k3, 2))
    assert td_k3.deg1 * 2 == -k3.lattice.basis(0).as_rational()
    assert td_k3.deg2 == 3


def test_todd_degree_one_cover():
    for x in SURFACES():
        assert spectral_todd(SpectralCover(x, 1)) == todd_surface(x)


def test_cover_noether():
    """12 chi(O) = K^2 + e on the cover, all pullback coefficients."""
    for x in SURFACES():
        for r in range(1, 9):
            s = SpectralCover(x, r)
            td2 = Fraction(spectral_todd(s).deg2)
            k = spectral_canonical(s)
            assert 12 * td2 == x.pair(k, k) + spectral_c2_tangent(s)


def test_chi_structure_sheaf_three_routes(quintic):
    """chi(O of the cover) = 15 for the rank-2 quintic cover, three ways."""
    s = SpectralCover(quintic, 2)
    via_todd = 2 * spectral_todd(s).deg2
    k = spectral_canonical(s)
    via_noether = Fraction(2 * quintic.pair(k, k) + 2 * spectral_c2_tangent(s), 12)
    via_splitting = sum(
        chi(quintic, line_bundle_ch(quintic, (-i) * quintic.polarization)) for i in range(2)
    )
    assert via_todd == via_noether == via_splitting == 15


def test_chi_structure_sheaf_all_covers():
    for x in SURFACES():
        for r in range(1, 9):
            s = SpectralCover(x, r)
            via_todd = r * Fraction(spectral_todd(s).deg2)
            via_splitting = sum(
                chi(x, line_bundle_ch(x, (-i) * x.polarization)) for i in range(r)
            )
            assert via_todd == via_splitting


def test_pushforward_structure_ch(quintic):
    c = pushforward_structure_ch(SpectralCover(quintic, 3))
    assert c.deg0 == 3
    assert c.deg1.to_integral() == NSVector((-3,))
    assert c.deg2 == Fraction(25, 2)


def test_pushforward_structure_closed_form():
    """The closed form against the splitting into L^(-i), i = 0..r-1."""
    for x in SURFACES():
        for r in range(1, 41):
            c = pushforward_structure_ch(SpectralCover(x, r))
            l = x.polarization
            assert c.deg0 == r
            assert 2 * c.deg1 == (-(r * (r - 1))) * l.as_rational()
            assert 12 * Fraction(c.deg2) == r * (r - 1) * (2 * r - 1) * Fraction(x.l_squared)
            assert c == sum(
                (line_bundle_ch(x, (-i) * l) for i in range(r)), ChowClass.zero(x.rank)
            )


def test_grr_recovers_structure_pushforward():
    """grr at delta = 0, no points, against the splitting: two routes."""
    for x in SURFACES():
        zero = x.lattice.zero()
        for r in range(1, 7):
            s = SpectralCover(x, r)
            assert grr_pushforward(s, zero, 0) == pushforward_structure_ch(s)


def test_grr_example(quintic):
    """Transport of 3H on the rank-2 quintic cover, checked against the
    second Chern equation: c2 = ((r-1) c1^2 - r^2(r^2-1)/12 L^2 + 2r n)/(2r)."""
    s = SpectralCover(quintic, 2)
    h = quintic.lattice.basis(0)
    ch = grr_pushforward(s, 3 * h, 0)
    assert ch.deg0 == 2
    assert ch.deg1.to_integral() == 5 * h
    c1sq = quintic.pair(5 * h, 5 * h)
    c2 = Fraction(1 * c1sq - 4 * (4 - 1) * quintic.l_squared // 12 + 0, 4)
    assert c2 == 30
    assert ch.deg2 == Fraction(c1sq, 2) - c2
    assert ch.deg2 == Fraction(65, 2)


def test_grr_rank_one_is_ideal_twist(quintic):
    h = quintic.lattice.basis(0)
    s = SpectralCover(quintic, 1)
    for n in (0, 1, 7):
        assert grr_pushforward(s, 2 * h, n) == ideal_twist_ch(quintic, 2 * h, n)


def test_grr_first_chern_closed_form(blowup):
    """ch1 of the transport is r delta - r(r-1)/2 L, independent of points."""
    rng = random.Random(31)
    for _ in range(100):
        r = rng.randint(1, 6)
        s = SpectralCover(blowup, r)
        delta = NSVector((rng.randint(-5, 5), rng.randint(-5, 5)))
        n = rng.randint(0, 15)
        ch = grr_pushforward(s, delta, n)
        assert ch.deg0 == r
        assert 2 * ch.deg1 == (2 * r) * delta.as_rational() - (r * (r - 1)) * blowup.polarization.as_rational()


def test_grr_rejects_negative_points(quintic):
    with pytest.raises(ValidationError):
        grr_pushforward(SpectralCover(quintic, 2), quintic.lattice.zero(), -1)
    with pytest.raises(ValidationError):
        chi_two_ways(SpectralCover(quintic, 2), quintic.lattice.zero(), -3)


def test_chi_two_ways_spot_values(quintic, plane):
    assert chi_two_ways(SpectralCover(quintic, 2), quintic.lattice.zero(), 0) == (15, 15)
    h = plane.lattice.basis(0)
    assert chi_two_ways(SpectralCover(plane, 1), h, 0) == (3, 3)
    # each ideal point drops chi by one
    assert chi_two_ways(SpectralCover(quintic, 2), quintic.lattice.zero(), 4) == (11, 11)


def test_chi_two_ways_random(blowup):
    rng = random.Random(32)
    surfaces = list(SURFACES()) + [blowup]
    for _ in range(500):
        x = rng.choice(surfaces)
        s = SpectralCover(x, rng.randint(1, 6))
        delta = NSVector(tuple(rng.randint(-5, 5) for _ in range(x.rank)))
        n = rng.randint(0, 20)
        upstairs, downstairs = chi_two_ways(s, delta, n)
        assert upstairs == downstairs
