"""Identities on random lattices, and a spectral oracle from the gram alone.

The surfaces are conftest.characteristic_surface at ranks 1 to 8, p1xp1
and blowup:0..8.  The oracle recomputes chi(O) of a spectral cover as the
sum of chi(L^-i) over i < r, by Riemann-Roch on the base, with K^2, L^2
and K.L summed from the gram matrix by hand; nothing of spectral or chi
is called on that side.
"""

import json
import random
from fractions import Fraction

import pytest

from higgsnum import NSVector, QNSVector, SpectralCover, chi_two_ways, divide, pair, presets
from higgsnum.cli import main

from conftest import PRESET_NAMES, characteristic_surface


def identity_surfaces():
    rng = random.Random(2201)
    yield presets.p1xp1()
    for k in range(9):
        yield presets.blowup(k)
    for rank in range(1, 9):
        for _ in range(3):
            yield characteristic_surface(rng, rank)


def rand_vec(rng, rank, span=5):
    return NSVector(tuple(rng.randint(-span, span) for _ in range(rank)))


def test_chi_two_ways_agree_on_random_lattices():
    rng = random.Random(2202)
    for x in identity_surfaces():
        for r in range(1, 6):
            delta, n = rand_vec(rng, x.rank), rng.randint(0, 4)
            upstairs, downstairs = chi_two_ways(SpectralCover(x, r), delta, n)
            assert upstairs == downstairs and type(upstairs) is int, (x.name, r, delta, n)


def test_hodge_index_on_random_lattices():
    """(D.L)^2 >= D^2 L^2 for rational D and every L with L^2 > 0."""
    rng = random.Random(2203)
    for x in identity_surfaces():
        lat = x.lattice
        done = 0
        while done < 40:
            d = QNSVector(Fraction(c, rng.randint(1, 6)) for c in rand_vec(rng, x.rank).num)
            # near a multiple of the polarization, so that L^2 > 0 is common at every rank
            l = x.polarization * rng.randint(1, 6) + rand_vec(rng, x.rank, 1)
            l2 = pair(lat, l, l)
            if l2 <= 0:
                continue
            done += 1
            dl = pair(lat, d, l)
            assert dl * dl >= pair(lat, d, d) * l2, (x.name, d, l)


def test_divide_undoes_multiplication_on_random_lattices():
    rng = random.Random(2204)
    for x in identity_surfaces():
        for _ in range(20):
            v, r = rand_vec(rng, x.rank), rng.randint(1, 9)
            assert divide(x.lattice, r * v, r) == v, (x.name, v, r)
            if r > 1 and any(c % r for c in v.num):
                assert divide(x.lattice, v, r) is None, (x.name, v, r)


def gram_form(gram, v, w):
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def oracle_chi_cover(x, r):
    """chi(O) of the degree-r cover: sum over i < r of chi(O) + (i^2 L^2 + i K.L)/2."""
    gram, k, l = x.lattice.gram, x.canonical.num, x.polarization.num
    k2, l2, kl = gram_form(gram, k, k), gram_form(gram, l, l), gram_form(gram, k, l)
    chi_o = Fraction(k2 + x.c2_top, 12)
    return sum(chi_o + Fraction(i * i * l2 + i * kl, 2) for i in range(r))


def spectral_payload(capsys, name, r):
    assert main(["spectral", "--surface", name, "-r", str(r)]) == 0
    return json.loads(capsys.readouterr().out)["payload"]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_spectral_chi_matches_the_gram_oracle(capsys, name):
    x = presets.by_name(name)
    for r in range(1, 9):
        assert spectral_payload(capsys, name, r)["chi_structure_sheaf"] == oracle_chi_cover(x, r), r


@pytest.mark.parametrize("r", range(1, 9))
def test_plane_covers_are_hypersurfaces(capsys, r):
    """The degree-r cover of P^2 in the total space of O(1) is a degree-r surface in P^3."""
    payload, hyper = spectral_payload(capsys, "p2", r), presets.hypersurface(r)
    assert (payload["euler_number"], payload["chi_structure_sheaf"]) == (
        hyper.c2_top, hyper.chi_structure_sheaf)
