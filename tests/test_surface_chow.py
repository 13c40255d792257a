import random
from fractions import Fraction
from pathlib import Path

import pytest

from higgsnum import (
    ChowClass,
    HiggsNumerics,
    LatticeError,
    NSLattice,
    NSVector,
    QNSVector,
    SurfaceGeometry,
    ValidationError,
    chern_c2,
    chi,
    chow_inverse,
    chow_mul,
    cotangent_ch,
    discriminant,
    hilbert_polynomial,
    ideal_twist_ch,
    line_bundle_ch,
    pair,
    presets,
    todd_surface,
)
from higgsnum.cli import load_surface

from conftest import characteristic_surface

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def rand_chow(rng, rank):
    return ChowClass(
        Fraction(rng.randint(-20, 20), rng.randint(1, 3)),
        QNSVector(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(rank))),
        Fraction(rng.randint(-20, 20), rng.randint(1, 3)),
    )


def test_geometry_validation():
    lat = NSLattice(1, ((5,),))
    with pytest.raises(ValidationError):
        SurfaceGeometry(lat, NSVector((1,)), NSVector((0,)), 55)  # L^2 = 0
    with pytest.raises(ValidationError):
        SurfaceGeometry(lat, NSVector((1,)), NSVector((1,)), 56)  # Noether fails
    with pytest.raises(LatticeError):
        SurfaceGeometry(lat, NSVector((1, 0)), NSVector((1,)), 55)
    lat2 = NSLattice(2, ((1, 0), (0, -1)))
    with pytest.raises(ValidationError):
        # exceptional curve as polarization: E^2 = -1
        SurfaceGeometry(lat2, NSVector((-3, 1)), NSVector((0, 1)), 4)


def test_wu_formula_refuses_a_non_characteristic_canonical_class():
    """K.e_i and e_i^2 must agree mod 2 on the basis, off-diagonal terms included."""
    with pytest.raises(ValidationError, match="^canonical class is not characteristic"):
        SurfaceGeometry(NSLattice(1, ((1,),)), NSVector((0,)), NSVector((1,)), 12)
    lat = NSLattice(2, ((1, 1), (1, 0)))
    x = SurfaceGeometry(lat, NSVector((0, 1)), NSVector((1, 0)), 12)
    assert (x.k_squared, x.chi_structure_sheaf) == (0, 1)
    # K^2 + c2 = 1 + 11 passes Noether, but K.e_1 = 1 while e_1^2 = 0
    with pytest.raises(ValidationError, match="K.e_1 = 1 and e_1.2 = 0 differ mod 2$"):
        SurfaceGeometry(lat, NSVector((1, 0)), NSVector((1, 0)), 11)


def test_wu_formula_matches_every_divisor():
    """The basis check against D^2 + K.D even for every small D."""
    rng = random.Random(41)
    lat = NSLattice(3, ((1, 1, 0), (1, 0, 1), (0, 1, -2)))
    for _ in range(60):
        k = NSVector(tuple(rng.randint(-3, 3) for _ in range(3)))
        k2 = pair(lat, k, k)
        every_d = all(
            (pair(lat, d, d) + pair(lat, k, d)) % 2 == 0
            for d in (NSVector((a, b, c)) for a in range(2) for b in range(2) for c in range(2))
        )
        try:
            SurfaceGeometry(lat, k, NSVector((1, 0, 0)), -k2 % 12)
        except ValidationError:
            accepted = False
        else:
            accepted = True
        assert accepted == every_d, k.num


def test_preset_chi_values():
    for d, expected in ((1, 1), (4, 2), (5, 5)):
        x = presets.hypersurface(d)
        assert x.chi_structure_sheaf == expected
        assert chi(x, ChowClass.unit(1)) == expected
    assert presets.p2().chi_structure_sheaf == 1


def test_preset_data():
    x = presets.hypersurface(5)
    assert x.k_squared == 5
    assert x.l_squared == 5
    assert x.c2_top == 55
    assert presets.p2().canonical == NSVector((-3,))
    h1 = presets.hypersurface(1)
    assert presets.p2() == SurfaceGeometry(h1.lattice, h1.canonical, h1.polarization, h1.c2_top, "p2")
    with pytest.raises(ValueError):
        presets.hypersurface(0)


@pytest.mark.parametrize("name", ["p1xp1"] + [f"blowup:{k}" for k in range(9)])
def test_new_presets_pass_noether_and_wu(name):
    """Recomputed from the gram rows, apart from the constructor's checks:
    12 divides K^2 + c2, e_i^2 = K.e_i (mod 2), L^2 > 0 and chi(O) = 1."""
    x = presets.by_name(name)
    gram, k, l = x.lattice.gram, x.canonical.num, x.polarization.num
    form = lambda v, w: sum(v[i] * gram[i][j] * w[j] for i in range(x.rank) for j in range(x.rank))
    assert (form(k, k) + x.c2_top) % 12 == 0
    assert all((gram[i][i] - sum(map(int.__mul__, gram[i], k))) % 2 == 0 for i in range(x.rank))
    assert form(l, l) > 0
    assert (form(k, k) + x.c2_top) // 12 == x.chi_structure_sheaf == 1
    assert x.name == name


@pytest.mark.parametrize("k", range(9))
def test_blowup_data(k):
    x = presets.blowup(k)
    a = x.polarization.num[0]
    assert (x.rank, x.k_squared, x.c2_top) == (k + 1, 9 - k, 3 + k)
    assert (a - 1) ** 2 <= k < a * a and x.l_squared == a * a - k
    assert x.lattice.gram == tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k + 1)) for i in range(k + 1))
    assert x.canonical.num == (-3,) + (1,) * k and x.polarization.num == (a,) + (-1,) * k


def test_blowup_one_is_blowup_p2_and_p1xp1_is_the_quadric():
    """blowup:1 is the surface of tests/data/blowup_p2.json under another name."""
    b = load_surface(str(Path(__file__).parent / "data" / "blowup_p2.json"))
    one = presets.blowup(1)
    assert (b.name, one.name) == ("blowup-p2", "blowup:1")
    assert b == SurfaceGeometry(one.lattice, one.canonical, one.polarization, one.c2_top,
                                "blowup-p2")
    q, quadric = presets.p1xp1(), presets.hypersurface(2)
    assert (q.k_squared, q.l_squared, q.c2_top) == (
        quadric.k_squared, quadric.l_squared, quadric.c2_top) == (8, 2, 4)
    assert q.lattice.gram == ((0, 1), (1, 0))


@pytest.mark.parametrize("k, message", [
    (65, "blowup point count must be at most 64, got 65"),
    (-1, "blowup point count must be a nonnegative integer, got -1"),
    (True, "blowup point count must be a nonnegative integer, got True"),
    ("3", "blowup point count must be a nonnegative integer, got '3'"),
])
def test_blowup_refuses_counts_outside_its_range(k, message):
    with pytest.raises(ValidationError) as excinfo:
        presets.blowup(k)
    assert str(excinfo.value) == message
    if type(k) is int:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            presets.by_name(f"blowup:{k}")
    with pytest.raises(ValidationError, match="^bad blowup point count 'x'$"):
        presets.by_name("blowup:x")
    assert presets.blowup(64).rank == 65


def test_todd(quintic, plane):
    td = todd_surface(quintic)
    assert td.deg0 == 1
    assert td.deg1 == QNSVector((Fraction(-1, 2),))
    assert td.deg2 == 5
    td_p = todd_surface(plane)
    assert td_p.deg1 == QNSVector((Fraction(3, 2),))
    assert td_p.deg2 == 1


def test_chow_mul_truncation(quintic):
    h = ChowClass.of_divisor(quintic.lattice.basis(0))
    assert chow_mul(quintic, h, h) == ChowClass.of_points(5, 1)
    pts = ChowClass.of_points(3, 1)
    # degree beyond the surface dimension vanishes
    assert chow_mul(quintic, pts, pts) == ChowClass.zero(1)
    assert chow_mul(quintic, pts, h) == ChowClass.zero(1)


def test_chow_ring_axioms(blowup):
    rng = random.Random(11)
    unit = ChowClass.unit(2)
    for _ in range(300):
        a, b, c = (rand_chow(rng, 2) for _ in range(3))
        assert chow_mul(blowup, a, b) == chow_mul(blowup, b, a)
        assert chow_mul(blowup, chow_mul(blowup, a, b), c) == chow_mul(
            blowup, a, chow_mul(blowup, b, c)
        )
        assert chow_mul(blowup, a, b + c) == chow_mul(blowup, a, b) + chow_mul(blowup, a, c)
        assert chow_mul(blowup, a, unit) == a


def test_class_rank_mismatch(quintic):
    with pytest.raises(LatticeError):
        chow_mul(quintic, ChowClass.unit(2), ChowClass.unit(2))


def test_line_bundle_ch(quintic):
    h = quintic.lattice.basis(0)
    c = line_bundle_ch(quintic, 3 * h)
    assert (c.deg0, c.deg2) == (1, Fraction(45, 2))
    assert c.deg1.to_integral() == 3 * h


def test_line_bundle_exponential(blowup):
    rng = random.Random(12)
    for _ in range(200):
        d = NSVector((rng.randint(-9, 9), rng.randint(-9, 9)))
        e = NSVector((rng.randint(-9, 9), rng.randint(-9, 9)))
        assert line_bundle_ch(blowup, d + e) == chow_mul(
            blowup, line_bundle_ch(blowup, d), line_bundle_ch(blowup, e)
        )


def test_chow_inverse(blowup):
    rng = random.Random(13)
    unit = ChowClass.unit(2)
    for _ in range(100):
        a = rand_chow(rng, 2)
        if a.deg0 == 0:
            continue
        assert chow_mul(blowup, a, chow_inverse(blowup, a)) == unit
    with pytest.raises(ValidationError):
        chow_inverse(blowup, ChowClass.of_points(1, 2))


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def surface_and_invertible_class(draw):
    """A random characteristic surface of rank up to 8 and a class with rational deg0 != 0."""
    x = characteristic_surface(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(1, 8)))
    deg0 = draw(rationals.filter(lambda q: q != 0))
    deg1 = QNSVector(tuple(draw(st.lists(rationals, min_size=x.rank, max_size=x.rank))))
    return x, ChowClass(deg0, deg1, draw(rationals))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(surface_and_invertible_class())
def test_chow_inverse_is_the_ring_inverse(data):
    x, a = data
    unit = ChowClass.unit(x.rank)
    inverse = chow_inverse(x, a)
    assert chow_mul(x, a, inverse) == unit
    assert chow_mul(x, inverse, a) == unit
    assert inverse.deg0 == 1 / Fraction(a.deg0)


def test_chi(quintic, plane):
    assert chi(quintic, ChowClass.zero(1)) == 0
    assert chi(quintic, ChowClass.unit(1)) == 5
    assert chi(plane, line_bundle_ch(plane, plane.lattice.basis(0))) == 3
    # O(n) on the plane: (n+1)(n+2)/2 for all n
    for n in range(-5, 8):
        expected = Fraction((n + 1) * (n + 2), 2)
        assert chi(plane, line_bundle_ch(plane, n * plane.lattice.basis(0))) == expected


def test_cotangent_ch(quintic):
    c = cotangent_ch(quintic)
    assert c.deg0 == 2
    assert c.deg1.to_integral() == quintic.canonical
    assert c.deg2 == Fraction(5 - 110, 2)


def test_hilbert_polynomial_spot_values(quintic):
    one = ChowClass.unit(1)
    assert hilbert_polynomial(quintic, one, 0) == 5
    assert hilbert_polynomial(quintic, one, 1) == 5
    assert hilbert_polynomial(quintic, one, -1) == 10


def test_hilbert_polynomial_closed_form(blowup, quintic):
    """Agreement with (r L^2/2) n^2 + (ch1 - r/2 K).L n + chi(ch), exactly."""
    rng = random.Random(14)
    for x in (blowup, quintic):
        rank = x.rank
        for _ in range(60):
            ch = rand_chow(rng, rank)
            l = x.polarization
            a2 = Fraction(ch.deg0) * x.l_squared / 2
            slope = x.pair(ch.deg1 - Fraction(ch.deg0, 2) * x.canonical.as_rational(), l)
            a0 = chi(x, ch)
            for n in range(-10, 11):
                assert hilbert_polynomial(x, ch, n) == a2 * n * n + slope * n + a0


def test_ideal_twist(quintic):
    h = quintic.lattice.basis(0)
    c = ideal_twist_ch(quintic, h, 3)
    assert (c.deg0, c.deg2) == (1, Fraction(-1, 2))
    assert c.deg1.to_integral() == h
    assert ideal_twist_ch(quintic, h, 0) == line_bundle_ch(quintic, h)
    with pytest.raises(ValidationError):
        ideal_twist_ch(quintic, h, -1)


def test_discriminant(quintic):
    h = quintic.lattice.basis(0)
    assert discriminant(HiggsNumerics(2, 5 * h, 30), quintic) == -5
    assert discriminant(HiggsNumerics(1, 7 * h, 4), quintic) == 8
    assert discriminant(HiggsNumerics(2, 0 * h, 3), quintic) == 12


def test_chern_c2_round_trip():
    """c2 = ch1^2/2 - ch2 of a class with rational ch1 and ch2, on random
    characteristic surfaces of rank 1 to 8, whatever the class's rank."""
    rng = random.Random(36)
    for rank in range(1, 9):
        x = characteristic_surface(rng, rank)
        for _ in range(25):
            v = QNSVector(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                                for _ in range(rank)))
            ch2 = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
            r = rng.randint(1, 8)
            assert chern_c2(x, ChowClass(r, v, ch2)) == Fraction(x.pair(v, v)) / 2 - ch2


def test_chern_c2_of_a_twisted_ideal(quintic):
    """A line bundle twisted by the ideal of n points has c2 = n."""
    h = quintic.lattice.basis(0)
    for n in range(5):
        assert chern_c2(quintic, ideal_twist_ch(quintic, 3 * h, n)) == n


def test_higgs_numerics_validation(quintic):
    h = quintic.lattice.basis(0)
    with pytest.raises(ValidationError):
        HiggsNumerics(0, h, 1)
    with pytest.raises(ValidationError):
        HiggsNumerics(2, h, Fraction(1, 2))


def test_class_arithmetic():
    a = ChowClass(1, QNSVector((Fraction(2),)), Fraction(1, 2))
    b = ChowClass(2, QNSVector((Fraction(-1),)), 3)
    assert a + b == ChowClass(3, QNSVector((Fraction(1),)), Fraction(7, 2))
    assert a - b == ChowClass(-1, QNSVector((Fraction(3),)), Fraction(-5, 2))
    assert 2 * a == ChowClass(2, QNSVector((Fraction(4),)), 1)
    assert -a == ChowClass(-1, QNSVector((Fraction(-2),)), Fraction(-1, 2))
