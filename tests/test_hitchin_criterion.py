import math
import random
from fractions import Fraction

import pytest

from higgsnum import (
    FiberWitness,
    HiggsNumerics,
    NSVector,
    Regime,
    SpectralCover,
    c2_gbun,
    chern_c2,
    classify,
    grr_pushforward,
    n_points,
    presets,
    solve_delta,
)

from conftest import PRESET_NAMES, characteristic_surface


def test_solve_delta_examples(quintic):
    h = quintic.lattice.basis(0)
    assert solve_delta(quintic, HiggsNumerics(2, h, 0)) == h
    assert solve_delta(quintic, HiggsNumerics(2, 0 * h, 0)) is None
    assert solve_delta(quintic, HiggsNumerics(3, 0 * h, 0)) == h
    assert solve_delta(quintic, HiggsNumerics(2, 3 * h, 0)) == 2 * h


def test_solve_delta_rank_one_cover(quintic, blowup):
    # r = 1: the equation is delta = c1
    rng = random.Random(41)
    for x in (quintic, blowup):
        for _ in range(50):
            c1 = NSVector(tuple(rng.randint(-9, 9) for _ in range(x.rank)))
            assert solve_delta(x, HiggsNumerics(1, c1, 0)) == c1


def test_solve_delta_linearity(blowup):
    """delta exists iff c1 is congruent to -r(r-1)/2 L mod r, and then
    r delta - r(r-1)/2 L returns c1."""
    rng = random.Random(42)
    for _ in range(200):
        r = rng.randint(1, 6)
        delta = NSVector((rng.randint(-6, 6), rng.randint(-6, 6)))
        c1 = r * delta - (r * (r - 1) // 2) * blowup.polarization
        assert solve_delta(blowup, HiggsNumerics(r, c1, 0)) == delta


def test_c2_gbun_examples(quintic):
    h = quintic.lattice.basis(0)
    assert c2_gbun(quintic, HiggsNumerics(3, 0 * h, 0)) == (-5, True)
    assert c2_gbun(quintic, HiggsNumerics(2, 0 * h, 0)) == (Fraction(-5, 4), False)
    assert c2_gbun(quintic, HiggsNumerics(2, h, 0)) == (0, True)
    assert c2_gbun(quintic, HiggsNumerics(1, 7 * h, 0)) == (0, True)


def test_c2_gbun_integral_when_delta_exists(blowup, quintic):
    rng = random.Random(43)
    for x in (blowup, quintic):
        for _ in range(300):
            r = rng.randint(1, 8)
            c1 = NSVector(tuple(rng.randint(-10, 10) for _ in range(x.rank)))
            h = HiggsNumerics(r, c1, 0)
            if solve_delta(x, h) is not None:
                value, integral = c2_gbun(x, h)
                assert integral, (x.name, r, c1, value)


def test_c2_gbun_closed_form_when_delta_exists():
    """With r delta = c1 + C(r,2) L the threshold is the integer
    C(r,2) delta^2 - r(r-1)^2/2 delta.L + r(r-1)(r-2)(3r-1)/24 L^2."""
    rng = random.Random(46)
    for _ in range(400):
        x = characteristic_surface(rng, rng.randint(1, 8))
        gram = x.lattice.gram

        def dot(v, w):
            return sum(a * g * b for a, row in zip(v, gram) for g, b in zip(row, w))

        r = rng.randint(1, 9)
        delta = NSVector(tuple(rng.randint(-6, 6) for _ in range(x.rank)))
        c1 = r * delta - (r * (r - 1) // 2) * x.polarization
        d, pol = delta.coords, x.polarization.coords
        expected = (
            r * (r - 1) // 2 * dot(d, d)
            - r * (r - 1) ** 2 // 2 * dot(d, pol)
            + r * (r - 1) * (r - 2) * (3 * r - 1) // 24 * dot(pol, pol)
        )
        assert c2_gbun(x, HiggsNumerics(r, c1, 0)) == (expected, True), (x, r, delta)


def test_n_points_examples(quintic):
    h = quintic.lattice.basis(0)
    assert n_points(quintic, HiggsNumerics(2, h, 3)) == 3
    assert n_points(quintic, HiggsNumerics(3, 0 * h, -5)) == 0
    assert n_points(quintic, HiggsNumerics(3, 0 * h, 1)) == 6
    assert n_points(quintic, HiggsNumerics(2, 0 * h, 0)) == Fraction(5, 4)


def test_n_points_is_c2_minus_threshold(blowup, quintic, plane):
    """The two formulas are computed independently; they agree identically."""
    rng = random.Random(44)
    for _ in range(1000):
        x = rng.choice((blowup, quintic, plane))
        r = rng.randint(1, 8)
        c1 = NSVector(tuple(rng.randint(-10, 10) for _ in range(x.rank)))
        c2 = rng.randint(-30, 30)
        h = HiggsNumerics(r, c1, c2)
        assert n_points(x, h) == c2 - Fraction(c2_gbun(x, h)[0])


def test_n_points_closed_form():
    """n = (r^2(r^2-1) L^2 - 12(r-1) c1^2 + 24 r c2) / (24 r), summed here in
    Fractions from the gram and the coordinates: an int exactly when integral."""
    rng = random.Random(45)
    surfaces = [presets.p2(), presets.blowup(1), *map(presets.hypersurface, range(1, 9))]
    surfaces += [characteristic_surface(rng, rank) for rank in range(1, 9)]
    for x in surfaces:
        gram, pol = x.lattice.gram, x.polarization.coords

        def dot(v, w):
            return Fraction(sum(a * g * b for a, row in zip(v, gram) for g, b in zip(row, w)))

        for r in range(1, 7):
            for _ in range(20):
                c1 = tuple(rng.randint(-6, 6) for _ in range(x.rank))
                if rng.randrange(2):
                    # a c1 with a delta, where n is an integer
                    c1 = tuple(r * c - r * (r - 1) // 2 * p for c, p in zip(c1, pol))
                c2 = rng.randint(-20, 20)
                expected = (r * r * (r * r - 1) * dot(pol, pol) - 12 * (r - 1) * dot(c1, c1)
                            + 24 * r * c2) / (24 * r)
                value = n_points(x, HiggsNumerics(r, NSVector(c1), c2))
                assert value == expected, (x.name, r, c1, c2)
                assert type(value) is (int if expected.denominator == 1 else Fraction)


def test_classify_examples(quintic):
    h = quintic.lattice.basis(0)
    report = classify(quintic, HiggsNumerics(2, h, 3))
    assert report.regime is Regime.GENERIC
    assert report.c2gbun == 0
    assert report.witness is not None
    assert report.witness.delta == h
    assert report.witness.n_points == 3

    report = classify(quintic, HiggsNumerics(2, h, 0))
    assert report.regime is Regime.BOUNDARY
    assert report.witness == FiberWitness(h, 0)

    report = classify(quintic, HiggsNumerics(2, h, -1))
    assert report.regime is Regime.EMPTY
    assert report.witness is None

    report = classify(quintic, HiggsNumerics(2, 0 * h, 5))
    assert report.regime is Regime.NO_DELTA_SOLUTION
    assert report.c2gbun == Fraction(-5, 4)
    assert report.witness is None


def test_classify_sweep_around_threshold(quintic):
    """Empty below, Boundary at, Generic above the threshold."""
    h = quintic.lattice.basis(0)
    threshold, _ = c2_gbun(quintic, HiggsNumerics(3, 0 * h, 0))
    assert threshold == -5
    for offset in range(-3, 4):
        report = classify(quintic, HiggsNumerics(3, 0 * h, threshold + offset))
        if offset < 0:
            assert report.regime is Regime.EMPTY
        elif offset == 0:
            assert report.regime is Regime.BOUNDARY
            assert report.witness.n_points == 0
        else:
            assert report.regime is Regime.GENERIC
            assert report.witness.n_points == offset


def test_witness_presence_matches_regime(blowup):
    rng = random.Random(45)
    for _ in range(500):
        r = rng.randint(1, 6)
        c1 = NSVector((rng.randint(-8, 8), rng.randint(-8, 8)))
        c2 = rng.randint(-20, 20)
        report = classify(blowup, HiggsNumerics(r, c1, c2))
        if report.regime in (Regime.BOUNDARY, Regime.GENERIC):
            assert report.witness is not None
            assert report.witness.n_points == c2 - report.c2gbun
            assert report.witness.n_points >= 0
        else:
            assert report.witness is None


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_witness_realizes_the_query(name):
    """For Boundary and Generic the witness (delta, n) is spectral data of the
    query: grr_pushforward(s, delta, n) has rank r, first Chern class c1 and
    c1^2/2 - ch2 = c2, by hand and by chern_c2."""
    x = presets.by_name(name)
    rng = random.Random(name)
    seen = {Regime.BOUNDARY: 0, Regime.GENERIC: 0}
    for r in range(1, 7):
        s = SpectralCover(x, r)
        for _ in range(20):
            c1 = NSVector(tuple(rng.randint(-6, 6) for _ in range(x.rank)))
            if rng.randrange(4):
                # a c1 with a delta
                c1 = r * c1 - (r * (r - 1) // 2) * x.polarization
            c2 = math.ceil(c2_gbun(x, HiggsNumerics(r, c1, 0))[0]) + rng.randint(-2, 8)
            report = classify(x, HiggsNumerics(r, c1, c2))
            if report.witness is None:
                continue
            seen[report.regime] += 1
            ch = grr_pushforward(s, report.witness.delta, report.witness.n_points)
            assert (ch.deg0, ch.deg1) == (r, c1), (r, c1, c2)
            assert Fraction(x.pair(c1, c1)) / 2 - ch.deg2 == c2, (r, c1, c2)
            assert chern_c2(x, ch) == c2, (r, c1, c2)
    assert min(seen.values()) > 0, seen


def test_rank_two_polarization_case():
    """For r = 2, c1 = c1(L) the threshold vanishes and n = c2."""
    for d in range(5, 9):
        x = presets.hypersurface(d)
        h = x.lattice.basis(0)
        for c2 in range(0, 31):
            report = classify(x, HiggsNumerics(2, h, c2))
            assert report.c2gbun == 0
            assert report.witness is not None
            assert report.witness.delta == h
            assert report.witness.n_points == c2
            assert report.regime is (Regime.BOUNDARY if c2 == 0 else Regime.GENERIC)
        for c2 in range(-5, 0):
            assert classify(x, HiggsNumerics(2, h, c2)).regime is Regime.EMPTY


def test_regime_string_values():
    assert Regime.NO_DELTA_SOLUTION.value == "NoDeltaSolution"
    assert Regime.EMPTY.value == "Empty"
    assert Regime.BOUNDARY.value == "Boundary"
    assert Regime.GENERIC.value == "Generic"
