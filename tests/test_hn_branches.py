import math
import random
from fractions import Fraction

import pytest

from higgsnum import (
    HiggsNumerics,
    HNFactor,
    HNType,
    NSVector,
    Regime,
    RegimeError,
    ValidationError,
    c2_gbun,
    classify,
    component_betas,
    discriminant_identity,
    iter_compositions,
    iter_partitions_at_most,
    monopole_components,
    olympic_sum,
    olympic_verify,
    pair,
    qvec,
    rank2_fixed_components,
    slope_gaps,
)


def partition_count(n, k, _memo={}):
    """Partitions of n into at most k parts, by the recurrence
    p(n, k) = p(n, k-1) + p(n-k, k)."""
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    key = (n, k)
    if key not in _memo:
        _memo[key] = partition_count(n, k - 1) + partition_count(n - k, k)
    return _memo[key]


def rand_type(rng, x, max_factors=5):
    m = rng.randint(1, max_factors)
    return HNType(
        tuple(
            HNFactor(
                rng.randint(1, 4),
                NSVector(tuple(rng.randint(-6, 6) for _ in range(x.rank))),
                rng.randint(-10, 10),
            )
            for _ in range(m)
        )
    )


def valid_slope_type(rng, x):
    """Random type on a rank-one lattice whose slope drops lie in (0, L^2].

    With c1 = a H the slope is a L^2 / r, so a sits in the half-open
    window [r (mu_prev - L^2) / L^2, r mu_prev / L^2) of length r, which
    always contains an integer.
    """
    l2 = x.l_squared
    h = x.lattice.basis(0)
    m = rng.randint(2, 4)
    ranks = [rng.randint(1, 3) for _ in range(m)]
    coeffs = [rng.randint(-2, 4) * ranks[0]]
    for i in range(1, m):
        prev_mu = Fraction(coeffs[i - 1] * l2, ranks[i - 1])
        low = Fraction(ranks[i]) * (prev_mu - l2) / l2
        high = Fraction(ranks[i]) * prev_mu / l2
        candidates = [a for a in range(math.ceil(low), math.floor(high) + 1) if low <= a < high]
        coeffs.append(rng.choice(candidates))
    return HNType(
        tuple(HNFactor(r_i, a * h, rng.randint(0, 8)) for r_i, a in zip(ranks, coeffs))
    )


def test_discriminant_identity_example(quintic):
    h = quintic.lattice.basis(0)
    t = HNType((HNFactor(1, 3 * h, 0), HNFactor(1, 2 * h, 0)))
    lhs, rhs = discriminant_identity(quintic, t)
    assert lhs == rhs == Fraction(-5, 2)


def test_discriminant_identity_single_factor(quintic):
    h = quintic.lattice.basis(0)
    t = HNType((HNFactor(2, 3 * h, 7),))
    lhs, rhs = discriminant_identity(quintic, t)
    assert lhs == rhs


def test_discriminant_identity_random(quintic, blowup):
    rng = random.Random(51)
    for _ in range(1000):
        x = quintic if rng.random() < 0.5 else blowup
        t = rand_type(rng, x)
        lhs, rhs = discriminant_identity(x, t)
        assert lhs == rhs, (x.name, t)


def test_discriminant_identity_order_free(blowup):
    """No slope assumption: both sides are invariant under reordering."""
    rng = random.Random(52)
    for _ in range(100):
        t = rand_type(rng, blowup)
        shuffled = list(t.factors)
        rng.shuffle(shuffled)
        assert discriminant_identity(blowup, t) == discriminant_identity(
            blowup, HNType(tuple(shuffled))
        )


def test_slope_gaps(quintic):
    h = quintic.lattice.basis(0)
    delta = 3 * h
    t = HNType((HNFactor(1, delta, 0), HNFactor(1, delta - h, 0)))
    gaps, valid = slope_gaps(quintic, t)
    assert gaps == (5,)
    assert valid  # gap equal to L^2 sits on the boundary of the window

    t_wide = HNType((HNFactor(1, delta, 0), HNFactor(1, delta - 2 * h, 0)))
    gaps, valid = slope_gaps(quintic, t_wide)
    assert gaps == (10,)
    assert not valid

    t_flat = HNType((HNFactor(1, delta, 0), HNFactor(1, delta, 0)))
    assert slope_gaps(quintic, t_flat) == ((0,), False)

    t_up = HNType((HNFactor(1, delta - h, 0), HNFactor(1, delta, 0)))
    gaps, valid = slope_gaps(quintic, t_up)
    assert gaps == (-5,)
    assert not valid


def test_slope_gaps_fractional(quintic):
    h = quintic.lattice.basis(0)
    t = HNType((HNFactor(2, 3 * h, 0), HNFactor(1, h, 0)))
    gaps, valid = slope_gaps(quintic, t)
    assert gaps == (Fraction(5, 2),)
    assert valid


def test_hodge_step_and_gap_step(quintic):
    """The two inequality steps behind the filtration bound, exactly.

    For every pair of factors, (c1_i/r_i - c1_j/r_j)^2 L^2 is at most
    the squared slope difference; for valid gap windows the slope
    difference between positions i < j is at most (j - i) L^2.
    """
    rng = random.Random(53)
    l2 = quintic.l_squared
    lat = quintic.lattice
    for _ in range(200):
        t = valid_slope_type(rng, quintic)
        gaps, valid = slope_gaps(quintic, t)
        assert valid, (t, gaps)
        fs = t.factors
        slopes = [Fraction(quintic.pair(f.c1, quintic.polarization), f.rank) for f in fs]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                diff = qvec(fs[i].c1) / fs[i].rank - qvec(fs[j].c1) / fs[j].rank
                mu_diff = slopes[i] - slopes[j]
                assert pair(lat, diff, diff) * l2 <= mu_diff * mu_diff
                assert mu_diff <= (j - i) * l2


def test_olympic_sum_values():
    assert olympic_sum((1, 1, 1, 1)) == 20
    assert olympic_sum((2, 2)) == 4
    assert olympic_sum((1, 2, 1)) == 8
    assert olympic_sum((4,)) == 0
    assert olympic_sum((1,) * 12) == 1716


def test_olympic_sum_validation():
    with pytest.raises(ValidationError):
        olympic_sum(())
    with pytest.raises(ValidationError):
        olympic_sum((1, 0, 2))
    with pytest.raises(ValidationError):
        olympic_sum((1, -1))


def test_iter_compositions():
    assert list(iter_compositions(1)) == [(1,)]
    assert set(iter_compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    for r in range(1, 11):
        comps = list(iter_compositions(r))
        assert len(comps) == 2 ** (r - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == r for c in comps)


def test_olympic_verify():
    rows = olympic_verify(8)
    assert len(rows) == 8
    assert all(row["ok"] for row in rows)
    assert rows[3]["r"] == 4 and rows[3]["max"] == 20
    assert rows[3]["maximizers"] == [(1, 1, 1, 1)]
    assert rows[0]["max"] == 0
    with pytest.raises(ValidationError):
        olympic_verify(21)
    with pytest.raises(ValidationError):
        olympic_verify(0)


def test_partitions_exact_list():
    assert list(iter_partitions_at_most(3, 2)) == [(3,), (2, 1)]
    assert list(iter_partitions_at_most(6, 3)) == [
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
        (2, 2, 2),
    ]
    assert list(iter_partitions_at_most(0, 4)) == [()]
    assert list(iter_partitions_at_most(5, 0)) == []


def test_partitions_against_recurrence():
    for n in range(31):
        for k in range(7):
            got = list(iter_partitions_at_most(n, k))
            assert len(got) == partition_count(n, k)
            assert all(sum(p) == n for p in got)
            assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in got)
            assert got == sorted(got, reverse=True)


def test_monopole_components_example(quintic):
    h = quintic.lattice.basis(0)
    numerics = HiggsNumerics(2, h, 3)
    comps = monopole_components(quintic, numerics)
    assert comps == [(3, 0), (2, 1)]
    delta = classify(quintic, numerics).witness.delta
    assert component_betas(quintic, 2, delta) == (h, 0 * h)
    assert len(comps) == 2


def test_monopole_components_boundary(quintic):
    h = quintic.lattice.basis(0)
    comps = monopole_components(quintic, HiggsNumerics(2, h, 0))
    assert comps == [(0, 0)]


def test_monopole_components_rank_three(quintic):
    h = quintic.lattice.basis(0)
    numerics = HiggsNumerics(3, 0 * h, 1)
    comps = monopole_components(quintic, numerics)
    # threshold is -5, so six points split into at most three groups
    assert len(comps) == 7 == partition_count(6, 3)
    delta = classify(quintic, numerics).witness.delta
    assert component_betas(quintic, 3, delta) == (h, 0 * h, -1 * h)
    assert comps[:3] == [(6, 0, 0), (5, 1, 0), (4, 2, 0)]


def test_monopole_betas_step_by_polarization(blowup):
    rng = random.Random(54)
    for _ in range(50):
        r = rng.randint(1, 4)
        delta = NSVector((rng.randint(-4, 4), rng.randint(-4, 4)))
        c1 = r * delta - (r * (r - 1) // 2) * blowup.polarization
        threshold, integral = c2_gbun(blowup, HiggsNumerics(r, c1, 0))
        assert integral
        n = rng.randint(0, 10)
        numerics = HiggsNumerics(r, c1, threshold + n)
        comps = monopole_components(blowup, numerics)
        assert len(comps) == partition_count(n, r)
        betas = component_betas(blowup, r, classify(blowup, numerics).witness.delta)
        assert len(betas) == r
        assert betas[0] == delta
        for i in range(1, r):
            assert betas[i] == betas[i - 1] - blowup.polarization
        for comp in comps:
            assert sum(comp) == n
            assert len(comp) == r


def test_monopole_requires_witness_regime(quintic):
    h = quintic.lattice.basis(0)
    with pytest.raises(RegimeError) as err:
        monopole_components(quintic, HiggsNumerics(2, h, -2))
    assert err.value.report.regime is Regime.EMPTY
    with pytest.raises(RegimeError) as err:
        monopole_components(quintic, HiggsNumerics(2, 0 * h, 5))
    assert err.value.report.regime is Regime.NO_DELTA_SOLUTION


def test_rank2_fixed_components(quintic):
    report = rank2_fixed_components(quintic, 3)
    assert report.regime is Regime.GENERIC
    assert report.instanton_branch
    assert report.components == ((3, 0), (2, 1))
    assert report.count == 2

    report0 = rank2_fixed_components(quintic, 0)
    assert report0.regime is Regime.BOUNDARY
    assert report0.components == ((0, 0),)

    empty = rank2_fixed_components(quintic, -1)
    assert empty.regime is Regime.EMPTY
    assert empty.components == ()
    assert not empty.instanton_branch


def test_rank2_count_formula(quintic):
    for c2 in range(31):
        report = rank2_fixed_components(quintic, c2)
        assert report.count == c2 // 2 + 1
        assert all(a >= b >= 0 and a + b == c2 for a, b in report.components)
        assert list(report.components) == sorted(report.components, reverse=True)


def test_rank2_matches_monopole_enumeration(quintic):
    h = quintic.lattice.basis(0)
    for c2 in range(25):
        report = rank2_fixed_components(quintic, c2)
        comps = monopole_components(quintic, HiggsNumerics(2, h, c2))
        assert report.count == len(comps)
        assert comps == list(report.components)


def test_hntype_validation(quintic):
    with pytest.raises(ValidationError):
        HNType(())
    with pytest.raises(ValidationError):
        HNFactor(0, quintic.lattice.basis(0), 1)
    t = HNType((HNFactor(2, quintic.lattice.basis(0), 1), HNFactor(3, quintic.lattice.basis(0), 0)))
    assert t.total_rank == 5
