"""The covariance oracle: every answer is covariant under a change of NS basis.

For g in GL(rho, Z), the surface with gram g^T G g and classes g^-1 K and
g^-1 L is the same surface written in another basis.  A query whose
classes are carried to g^-1 of theirs has the same regime, threshold,
point count, component count, chi and spectral scalars, and its delta,
betas and cover canonical class are carried to g^-1 of theirs.  The
surfaces are conftest.characteristic_surface at ranks 1 to 8; each g is
a product of random elementary matrices and sign flips, its inverse
built alongside.
"""

import random

import pytest

from higgsnum import (
    HiggsNumerics, NSLattice, NSVector, Regime, SpectralCover, SurfaceGeometry,
    branches_report, c2_gbun, chi_two_ways, classify, spectral_c2_tangent, spectral_canonical,
)

from conftest import characteristic_surface


def unimodular(rng, rank):
    """(g, g^-1) for a random g in GL(rank, Z): each step multiplies g on the
    right by an elementary matrix or a sign flip E, and g^-1 on the left by
    E^-1, so g g^-1 stays the identity."""
    g = [[int(i == j) for j in range(rank)] for i in range(rank)]
    g_inv = [row[:] for row in g]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if i == j or rng.randrange(5) == 0:
            # column i of g and row i of g^-1 change sign
            for row in g:
                row[i] = -row[i]
            g_inv[i] = [-a for a in g_inv[i]]
        else:
            m = rng.choice((-2, -1, 1, 2))
            # column i of g gains m times column j; row j of g^-1 loses m times row i
            for row in g:
                row[i] += m * row[j]
            g_inv[j] = [a - m * b for a, b in zip(g_inv[j], g_inv[i])]
    return g, g_inv


def carry(g_inv, v):
    """g^-1 v for an integral vector v."""
    assert v.den == 1
    return NSVector(tuple(sum(a * b for a, b in zip(row, v.num)) for row in g_inv))


def in_basis(x, g, g_inv):
    """x in the basis g: gram g^T G g, canonical and polarization g^-1 of x's."""
    n, gram = x.rank, x.lattice.gram
    new = tuple(tuple(sum(g[k][a] * gram[k][m] * g[m][b] for k in range(n) for m in range(n))
                      for b in range(n)) for a in range(n))
    return SurfaceGeometry(NSLattice(n, new), carry(g_inv, x.canonical),
                           carry(g_inv, x.polarization), x.c2_top, name=f"{x.name}/g")


def random_vector(rng, rank):
    return NSVector(tuple(rng.randint(-4, 4) for _ in range(rank)))


def query(rng, x, r):
    """(r, c1, c2) near the threshold; half the time c1 = r delta - r(r-1)/2 L,
    so the delta equation is solvable."""
    if rng.randrange(2):
        c1 = r * random_vector(rng, x.rank) - (r * (r - 1) // 2) * x.polarization
    else:
        c1 = random_vector(rng, x.rank)
    threshold, _ = c2_gbun(x, HiggsNumerics(r, c1, 0))
    return HiggsNumerics(r, c1, threshold // 1 + rng.randint(-2, 4))


@pytest.mark.parametrize("rank", range(1, 9))
def test_answers_are_covariant_under_a_change_of_basis(rank):
    rng = random.Random(3700 + rank)
    regimes = set()
    for _ in range(3):
        x = characteristic_surface(rng, rank)
        for _ in range(3):
            g, g_inv = unimodular(rng, rank)
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*g_inv)]
                    for row in g] == [[int(i == j) for j in range(rank)] for i in range(rank)]
            y = in_basis(x, g, g_inv)
            for r in range(1, 5):
                h = query(rng, x, r)
                h_y = HiggsNumerics(r, carry(g_inv, h.c1), h.c2)
                ours, theirs = classify(x, h), classify(y, h_y)
                regimes.add(ours.regime)
                assert (theirs.regime, theirs.c2gbun) == (ours.regime, ours.c2gbun)
                assert (theirs.witness is None) == (ours.witness is None)
                if ours.witness is not None:
                    assert theirs.witness.n_points == ours.witness.n_points
                    assert theirs.witness.delta == carry(g_inv, ours.witness.delta)
                b, b_y = branches_report(x, h), branches_report(y, h_y)
                assert (b_y.count, b_y.instanton_branch) == (b.count, b.instanton_branch)
                assert b_y.betas == (None if b.betas is None
                                     else tuple(carry(g_inv, beta) for beta in b.betas))

                s, s_y = SpectralCover(x, r), SpectralCover(y, r)
                assert (spectral_c2_tangent(s_y), s_y.c2_top, s_y.chi_structure_sheaf) == (
                    spectral_c2_tangent(s), s.c2_top, s.chi_structure_sheaf)
                assert spectral_canonical(s_y) == carry(
                    g_inv, x.canonical + (r - 1) * x.polarization)
                delta, n = random_vector(rng, rank), rng.randint(0, 4)
                assert chi_two_ways(s_y, carry(g_inv, delta), n) == chi_two_ways(s, delta, n)
    assert regimes == set(Regime)
