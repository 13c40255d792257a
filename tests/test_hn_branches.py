import json
import math
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from itertools import zip_longest

import pytest

from higgsnum import cli, hn_branches
from higgsnum import (
    HiggsNumerics,
    HNFactor,
    HNType,
    NSVector,
    Regime,
    RegimeError,
    ValidationError,
    branches_report,
    c2_gbun,
    classify,
    component_betas,
    discriminant_identity,
    iter_compositions,
    iter_monopole_components,
    iter_partition_blocks,
    iter_partitions_at_most,
    monopole_components,
    olympic_sum,
    pair,
    presets,
    qvec,
    rank2_fixed_components,
    slope_gaps,
)

from conftest import PRESET_NAMES, characteristic_surface, partitions_at_most

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


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


def gram_pair(x, v, w):
    """v.w for coordinate sequences, as a double sum of Fractions over the gram matrix."""
    return sum(Fraction(a) * g * b for a, row in zip(v, x.lattice.gram) for g, b in zip(row, w))


def fraction_discriminant_identity(x, t):
    """Both sides with a Fraction at every step, as the identity is written."""
    fs = t.factors
    cs = [f.c1.coords for f in fs]
    r = sum(f.r for f in fs)
    c1 = [sum(c[k] for c in cs) for k in range(x.rank)]
    c2 = sum(f.c2 for f in fs) + sum(
        gram_pair(x, cs[i], cs[j]) for i in range(len(fs)) for j in range(i + 1, len(fs))
    )
    lhs = Fraction(2 * r * c2 - (r - 1) * gram_pair(x, c1, c1), r)
    rhs = sum(
        Fraction(2 * f.r * f.c2 - (f.r - 1) * gram_pair(x, c, c), f.r)
        for f, c in zip(fs, cs)
    )
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            diff = [Fraction(a, fs[i].r) - Fraction(b, fs[j].r) for a, b in zip(cs[i], cs[j])]
            rhs -= Fraction(fs[i].r * fs[j].r, r) * gram_pair(x, diff, diff)
    return tuple(int(v) if v.denominator == 1 else v for v in (lhs, rhs))


PRESETS = (presets.p2(), presets.hypersurface(4), presets.hypersurface(5), presets.hypersurface(7))


@st.composite
def surface_and_type(draw):
    """A preset or a random characteristic surface of rank up to 8, with 1 to 6 factors."""
    if draw(st.booleans()):
        x = draw(st.sampled_from(PRESETS))
    else:
        x = characteristic_surface(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(1, 8)))
    factor = st.builds(
        HNFactor,
        st.integers(1, 6),
        st.lists(st.integers(-9, 9), min_size=x.rank, max_size=x.rank).map(
            lambda c: NSVector(tuple(c))),
        st.integers(-20, 20),
    )
    return x, HNType(tuple(draw(st.lists(factor, min_size=1, max_size=6))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(surface_and_type())
def test_discriminant_identity_matches_fraction_formula(data):
    """The one-denominator integer sums give the Fraction formula's values and types."""
    x, t = data
    got = discriminant_identity(x, t)
    expected = fraction_discriminant_identity(x, t)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert got[0] == got[1]


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
        slopes = [Fraction(quintic.pair(f.c1, quintic.polarization), f.r) for f in fs]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                diff = qvec(fs[i].c1) / fs[i].r - qvec(fs[j].c1) / fs[j].r
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


def naive_olympic_sum(parts):
    return sum(
        parts[i] * parts[j] * (j - i) ** 2
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=24))
def test_olympic_sum_matches_double_sum(parts):
    assert olympic_sum(parts) == naive_olympic_sum(parts)


def recursive_compositions(r):
    """Compositions of r with the first part descending, by recursion on the rest."""
    if r == 0:
        yield ()
        return
    for first in range(r, 0, -1):
        for rest in recursive_compositions(r - first):
            yield (first,) + rest


def test_iter_compositions_in_recursive_order():
    for r in range(13):
        assert list(iter_compositions(r)) == list(recursive_compositions(r)), r


def test_iter_compositions():
    assert list(iter_compositions(1)) == [(1,)]
    assert set(iter_compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    for r in range(1, 11):
        comps = list(iter_compositions(r))
        assert len(comps) == 2 ** (r - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == r for c in comps)


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
    assert report.count == 2

    report0 = rank2_fixed_components(quintic, 0)
    assert report0.regime is Regime.BOUNDARY
    assert report0.count == 1

    empty = rank2_fixed_components(quintic, -1)
    assert empty.regime is Regime.EMPTY
    assert empty.count == 0
    assert not empty.instanton_branch


def test_rank2_count_formula(quintic):
    h = quintic.lattice.basis(0)
    for c2 in range(31):
        assert rank2_fixed_components(quintic, c2).count == c2 // 2 + 1
        comps = monopole_components(quintic, HiggsNumerics(2, h, c2))
        assert all(a >= b >= 0 and a + b == c2 for a, b in comps)
        assert comps == sorted(comps, reverse=True)


def test_rank2_matches_monopole_enumeration(quintic):
    h = quintic.lattice.basis(0)
    for c2 in range(25):
        report = rank2_fixed_components(quintic, c2)
        assert report.count == len(monopole_components(quintic, HiggsNumerics(2, h, c2)))


def test_rank2_counts_without_enumerating(quintic, monkeypatch):
    def refuse(*args):
        raise AssertionError("rank2_fixed_components enumerated its components")

    monkeypatch.setattr(hn_branches, "iter_partition_blocks", refuse)
    for c2 in range(400):
        count = rank2_fixed_components(quintic, c2).count
        assert count == c2 // 2 + 1 == hn_branches.partition_count(c2, 2)
    assert rank2_fixed_components(quintic, 10**6).count == 500_001
    # no O(c2) table either: this one would need 10^12 entries
    assert rank2_fixed_components(quintic, 10**12).count == 5 * 10**11 + 1


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_branches_report_is_classify_betas_count_and_the_rank2_rule(name):
    """Over random (r, c1, c2), drawn as the witness test of
    test_hitchin_criterion draws them, and c1 = c1(L) beside each at r = 2: the
    report is classify's, and with a witness its betas are component_betas,
    its count the recurrence's, and the instanton branch is marked exactly
    for r = 2 and c1 = c1(L)."""
    x = presets.by_name(name)
    rng = random.Random(name)
    seen = {False: 0, True: 0}
    for r in range(1, 7):
        for _ in range(20):
            d = NSVector(tuple(rng.randint(-6, 6) for _ in range(x.rank)))
            if rng.randrange(4):
                # a c1 with a delta
                d = r * d - (r * (r - 1) // 2) * x.polarization
            for c1 in (d, x.polarization) if r == 2 else (d,):
                c2 = math.ceil(c2_gbun(x, HiggsNumerics(r, c1, 0))[0]) + rng.randint(-2, 8)
                h = HiggsNumerics(r, c1, c2)
                b = branches_report(x, h)
                assert b.report == classify(x, h)
                w = b.report.witness
                if w is None:
                    assert (b.betas, b.count, b.instanton_branch) == (None, 0, False)
                    continue
                assert b.betas == component_betas(x, r, w.delta)
                assert b.count == partition_count(w.n_points, r)
                assert b.instanton_branch == (r == 2 and c1 == x.polarization)
                seen[b.instanton_branch] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_rank2_fixed_components_reads_the_branches_report(name):
    x = presets.by_name(name)
    for c2 in range(-3, 31):
        b = branches_report(x, HiggsNumerics(2, x.polarization, c2))
        report = rank2_fixed_components(x, c2)
        assert (report.c2, report.regime, report.instanton_branch, report.count) == (
            c2, b.report.regime, b.instanton_branch, b.count)


@pytest.mark.parametrize("c2", [10**11, 10**20])
def test_branches_report_refuses_past_the_partition_table(plane, c2):
    """r = 4 and n past 10^6 is refused by partition_count's line, while the
    lazy enumeration, which counts nothing, still takes the query."""
    h = HiggsNumerics(4, NSVector((-6,)), c2)
    with pytest.raises(ValidationError) as info:
        branches_report(plane, h)
    assert str(info.value) == "partition size must be at most 1000000 for more than 3 parts"
    assert classify(plane, h).regime is Regime.GENERIC
    assert next(iter_monopole_components(plane, h))[1:] == (0, 0, 0)


def test_hntype_validation(quintic):
    with pytest.raises(ValidationError):
        HNType(())
    with pytest.raises(ValidationError, match="^rank must be a positive integer, got 0$"):
        HNFactor(0, quintic.lattice.basis(0), 1)
    assert HNFactor is HiggsNumerics
    t = HNType((HNFactor(2, quintic.lattice.basis(0), 1), HNFactor(3, quintic.lattice.basis(0), 0)))
    assert t.total_rank == 5


def test_partitions_against_sympy():
    sympy_iterables = pytest.importorskip("sympy.utilities.iterables")
    for n in range(31):
        for k in range(9):
            got = list(iter_partitions_at_most(n, k))
            if k == 0:
                # sympy yields one empty partition for m = 0 whatever n is
                expected = [()] if n == 0 else []
            else:
                expected = [
                    tuple(sorted((part for part, mult in p.items() for _ in range(mult)),
                                 reverse=True))
                    for p in sympy_iterables.partitions(n, m=k)
                ]
            assert sorted(got) == sorted(expected), (n, k)
            assert len(got) == partition_count(n, k) == hn_branches.partition_count(n, k)
            assert all(a > b for a, b in zip(got, got[1:])), (n, k)
            assert all(list(p) == sorted(p, reverse=True) and 0 not in p for p in got)


def test_partition_count_table():
    """The iterative table at sizes the recursive oracle cannot reach."""
    assert hn_branches.partition_count(200, 10) == 1_212_199_424
    assert hn_branches.partition_count(1000, 4) == 7_049_112
    assert hn_branches.partition_count(0, 0) == 1
    assert hn_branches.partition_count(5, 0) == 0
    assert hn_branches.partition_count(5, 40) == 7


@pytest.mark.parametrize("n, k", [(10**6 + 1, 4), (10**11, 10), (10**20, 4)])
def test_partition_count_refuses_past_its_table(n, k):
    """More than 3 parts past n = 10^6 is refused before a table of n ints is
    asked for; the message leaves n out, which may be past the int-to-text limit."""
    with pytest.raises(ValidationError) as info:
        hn_branches.partition_count(n, k)
    assert str(info.value) == "partition size must be at most 1000000 for more than 3 parts"
    assert hn_branches.partition_count(n, 2) == n // 2 + 1


def test_partition_count_closed_form_below_three_parts():
    """k = 0, 1, 2 and 3 are answered without an O(n) table, and agree with it."""
    tracemalloc.start()
    try:
        counts = [hn_branches.partition_count(10**7, k) for k in range(4)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [0, 1, 5_000_001, 8_333_338_333_334]
    assert peak < 2**20
    table = [1] + [0] * 60
    assert [hn_branches.partition_count(n, 0) for n in range(61)] == table
    for k in (1, 2, 3):
        # pass k leaves p(m, k) in entry m
        for m in range(k, 61):
            table[m] += table[m - k]
        assert [hn_branches.partition_count(n, k) for n in range(61)] == table


def expand(block):
    """The rows of one block: prefix + t for each tail t of each run, in order."""
    return [c + t for c, part in block for t in part]


def blocks_as_rows(n, k, cell):
    blocks = list(iter_partition_blocks(n, k, cell, cell))
    # each block a nonempty list of its own, not one list yielded again, of
    # (prefix, tails) runs with at least one tail each
    assert all(type(b) is list and b for b in blocks)
    assert len({id(b) for b in blocks}) == len(blocks)
    assert all(len(run) == 2 and run[1] for b in blocks for run in b)
    return [row for block in blocks for row in expand(block)]


def test_partition_blocks_are_the_reference_rows():
    """With tuple cells the runs of the blocks hold the partitions, padded or
    not, in the order of the test's own recursive enumeration, k = 0 and
    k > n included; iter_partitions_at_most gives the unpadded rows one by
    one.  The larger cases cross many block breaks: whole rows of two slots
    in one run (k = 2), boxes of three slots (k = 3) and wide rows (k >= 30)."""
    cases = [(n, k) for n in range(41) for k in range(9)]
    for n, k in cases + [(12000, 2), (600, 3), (40, 30), (25, 120)]:
        parts = list(partitions_at_most(n, k))
        assert blocks_as_rows(n, k, lambda v: (v,) if v else ()) == parts
        assert blocks_as_rows(n, k, lambda v: (v,)) == [p + (0,) * (k - len(p)) for p in parts]
        assert list(iter_partitions_at_most(n, k)) == parts
    assert len(list(iter_partition_blocks(12000, 2, str, str))) > 1


@pytest.mark.parametrize(
    "n, k", [(12000, 2), (600, 3), (127, 4), (60, 8), (40, 30), (25, 120), (12, 5000)],
)
def test_partition_blocks_hold_one_flush_of_cells(n, k):
    """Every block but the last holds at least ceil(_BOX_ROWS / k) rows, so
    _BOX_ROWS cells, and fewer than 75 rows more: a block is yielded as soon
    as it holds that many, and one step adds at most a box, p(27, <= 3) = 75
    rows, or one row.  Rows are counted over the runs, not the runs."""
    least = -(-hn_branches._BOX_ROWS // k)
    sizes = [sum(len(part) for _, part in b) for b in iter_partition_blocks(n, k, str, str)]
    assert sum(sizes) == hn_branches.partition_count(n, k)
    assert len(sizes) > 1
    assert all(least <= size < least + 75 for size in sizes[:-1])
    assert 0 < sizes[-1] < least + 75


@pytest.mark.parametrize("n, k", [(12, 6), (9, 200), (3, 5000)])
def test_partition_blocks_survive_a_dropped_memo(monkeypatch, n, k):
    """Dropping the memo at every insert leaves the rows as they were; wide
    rows (more slots than any memoized box) take the same walk."""
    parts = [p + (0,) * (k - len(p)) for p in partitions_at_most(n, k)]
    assert blocks_as_rows(n, k, lambda v: (v,)) == parts
    monkeypatch.setattr(hn_branches, "_MEMO_CELLS", 0)
    assert blocks_as_rows(n, k, lambda v: (v,)) == parts


@pytest.mark.parametrize("n, k", [(12000, 2), (600, 3), (60, 8), (25, 120)])
def test_partition_blocks_keep_their_rows_whatever_the_consumer_does(n, k):
    """A block expanded as it is yielded and again after the walk has the
    same rows, so the walk adds to no run it has yielded.  A consumer that
    empties every run's tails it can change, once it has read them, still
    gets the reference rows: the memoized tails are tuples, so the walk's
    memo cannot be changed through a run."""
    parts = [p + (0,) * (k - len(p)) for p in partitions_at_most(n, k)]
    blocks, first = [], []
    for block in iter_partition_blocks(n, k, hn_branches._padded, hn_branches._padded):
        blocks.append(block)
        first.append(expand(block))
    assert [expand(block) for block in blocks] == first
    assert [row for rows in first for row in rows] == parts

    rows = []
    for block in iter_partition_blocks(n, k, hn_branches._padded, hn_branches._padded):
        rows += expand(block)
        for _, part in block:
            if type(part) is not tuple:
                part.clear()
    assert rows == parts
    # the memo outlives the walk, whole: a pair of tuples at every box (two
    # slots take no box, their rows are made whole), and at every frame a
    # tuple of (cell, tails) pairs with tuple tails
    boxes, frames = memo_entries()
    assert boxes or k == 2
    for value in boxes.values():
        assert type(value) is tuple and len(value) == 2
        assert all(type(half) is tuple for half in value)
    assert frames or k <= 3
    for value in frames.values():
        assert type(value) is tuple and value
        assert all(type(run) is tuple and len(run) == 2 and type(run[1]) is tuple for run in value)
    assert blocks_as_rows(n, k, hn_branches._padded) == parts


def is_box(m, s):
    """Whether the walk takes (m, s) as a box; past the box bound it takes a frame."""
    return m <= 1 or (s < len(hn_branches._BOX) and m <= hn_branches._BOX[s])


def memo_entries():
    """The entries of the one memo table, split into boxes and frames by their key."""
    boxes, frames = {}, {}
    for key, value in hn_branches._MEMO.items():
        (boxes if is_box(key[2], key[3]) else frames)[key] = value
    return boxes, frames


def oracle_rows(n, k, cell, last):
    """The reference partitions padded to length k, each row cell(v_1) + ...
    + cell(v_{k-1}) + last(v_k), the empty row last(0)[:0] for k = 0."""
    rows = []
    for p in partitions_at_most(n, k):
        p += (0,) * (k - len(p))
        row = last(0)[:0]
        for v in p[:-1]:
            row += cell(v)
        rows.append(row + last(p[-1]) if p else row)
    return rows


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo table for the test, the module's own put back after it."""
    monkeypatch.setattr(hn_branches, "_MEMO", {})
    monkeypatch.setattr(hn_branches, "_held", 0)


def test_interleaved_walks_survive_a_memo_cleared_inside_both(monkeypatch):
    """Two live walks zipped block by block, the same view at two (n, k) or two
    views, each give the reference rows while the one memo is emptied between
    blocks of both: a walk looks every box up in the table as it is then."""
    events = []

    class Table(dict):
        def clear(self):
            events.append("clear")
            dict.clear(self)

    monkeypatch.setattr(hn_branches, "_MEMO", Table())
    monkeypatch.setattr(hn_branches, "_held", 0)
    monkeypatch.setattr(hn_branches, "_MEMO_CELLS", 2000)
    pad, part = hn_branches._padded, hn_branches._part
    one = lambda v: (v,)  # noqa: E731
    walks = [
        ((pad, pad, 40, 6), (pad, pad, 60, 5)),
        ((part, part, 40, 6), (pad, pad, 45, 7)),
        ((one, one, 50, 6), (lambda v: f"{v},", lambda v: f"{v};", 40, 7)),
    ]
    for views in walks:
        events.clear()
        rows = [[], []]
        live = [iter_partition_blocks(n, k, cell, last) for cell, last, n, k in views]
        for pair in zip_longest(*live):
            for side, block in enumerate(pair):
                if block is not None:
                    rows[side] += expand(block)
                    events.append(side)
        for side, (cell, last, n, k) in enumerate(views):
            assert rows[side] == oracle_rows(n, k, cell, last), views[side]
        # some clear falls after the first and before the last block of each walk
        spans = [range(events.index(side), len(events) - events[::-1].index(side)) for side in (0, 1)]
        assert any(i in spans[0] and i in spans[1] for i, e in enumerate(events) if e == "clear")


def test_tails_memo_stays_bounded_over_fresh_views(empty_memo):
    """1,000 walks, each with a cell made for it, leave the one memo holding at
    most _MEMO_CELLS cells plus its largest entry, as _held counts them: a
    box's rows times its slots, a frame's tails and one cell per run.  Boxes
    and frames were emptied together on the way, keys included, so both
    hold only the cells of the walks since the last clear, and keep no
    earlier cell alive."""
    refs = []
    for _ in range(1000):
        cell = lambda v: (v,)  # noqa: E731
        refs.append(weakref.ref(cell))
        for _block in iter_partition_blocks(20, 5, cell, cell):
            pass
    del cell
    boxes, frames = memo_entries()
    # (20, 5) takes the frame (16, 4) under its first part 4
    assert frames and all(s >= 3 for _, _, _, s in frames)
    sizes = [len(rows) * s for (_, _, _, s), (rows, _) in boxes.items()]
    sizes += [sum(len(part) + 1 for _, part in runs) for runs in frames.values()]
    assert sum(sizes) == hn_branches._held <= hn_branches._MEMO_CELLS + max(sizes)
    live = [i for i, ref in enumerate(refs) if ref() is not None]
    assert 0 < live[0] and live == list(range(live[0], len(refs)))
    assert {key[0] for key in boxes} == {key[0] for key in frames} == {refs[i]() for i in live}
    assert all(key[0] is key[1] for key in hn_branches._MEMO)


def test_each_box_built_once_per_view(empty_memo, capsys):
    """One in-process verify --suite partition builds each (cell, last, m, s)
    entry of the memo, box or frame, at most once, and a second on the warm
    memo builds none; nor does a second branches query of the same layout,
    whose text cells _text_cells makes once.  Three slots take a frame at
    the top below the frame bound (n = 30), and boxes only past it (n =
    150); the partition suite and four slots take frames too."""

    def builds(argv):
        built = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is hn_branches._entry.__code__:
                f = frame.f_locals
                key = (f["cell"], f["last"], f["m"], f["s"])
                if key not in hn_branches._MEMO:
                    built.append(("box" if is_box(key[2], key[3]) else "frame", key))

        sys.setprofile(profile)
        try:
            assert cli.main(argv) == 0
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        return built

    branches = ["branches", "--surface", "hypersurface:5"]
    for argv, built in ((["verify", "--suite", "partition"], {"box", "frame"}),
                        (branches + ["-r", "3", "--c1", "3", "--c2", "40"], {"box", "frame"}),
                        (branches + ["-r", "3", "--c1", "3", "--c2", "160"], {"box"}),
                        (branches + ["-r", "4", "--c1", "2", "--c2", "40"], {"box", "frame"})):
        first = builds(argv)
        assert len(set(first)) == len(first), argv
        assert {kind for kind, _ in first} == built, argv
        assert builds(argv) == [], argv


def test_frame_runs_give_the_reference_rows(empty_memo, monkeypatch):
    """The CLI's text, _part and _padded views give the reference rows for
    k = 3..12 and every n <= 130 with at most 5,000 rows, and for (60, 10)
    and (40, 12) past that, from an empty memo on, in blocks of one flush
    of cells as test_partition_blocks_hold_one_flush_of_cells counts them.
    The walk looks frames up for every k >= 4 in that range; for k = 3 only
    at the top (n, 3) itself, when it is a frame, as its frames of two
    slots would end in whole rows."""
    looked = []

    class Table(dict):
        def get(self, key, default=None):
            if not is_box(key[2], key[3]):
                looked.append(key)
            return dict.get(self, key, default)

    monkeypatch.setattr(hn_branches, "_MEMO", Table())
    reached = set()
    cases = [(n, k) for k in range(3, 13) for n in range(131) if partition_count(n, k) <= 5000]
    for n, k in cases + [(60, 10), (40, 12)]:
        looked.clear()
        parts = list(partitions_at_most(n, k))
        padded = [p + (0,) * (k - len(p)) for p in parts]
        rows = [row for block in iter_partition_blocks(n, k, hn_branches._part, hn_branches._part)
                for row in expand(block)]
        assert rows == parts, (n, k)
        blocks = list(iter_partition_blocks(n, k, hn_branches._padded, hn_branches._padded))
        assert [row for block in blocks for row in expand(block)] == padded, (n, k)
        # a frame's runs may cross the block bound: the block is yielded there
        sizes = [sum(len(part) for _, part in block) for block in blocks]
        least = -(-hn_branches._BOX_ROWS // k)
        assert all(least <= size < least + 75 for size in sizes[:-1]), (n, k)
        text = []
        cli._dump_rows(cli.Rows(k, n), "\n    ", text.append)
        assert json.loads("".join(text)) == [list(p) for p in padded], (n, k)
        if k == 3:
            assert {key[2:] for key in looked} <= {(n, 3)}, n
        if looked:
            reached.add((n, k))
    assert {k for _, k in reached} == set(range(3, 13))
    assert (60, 10) in reached and (40, 12) in reached


@pytest.mark.parametrize("n, k", [(12, 3), (100, 3), (30, 4), (19, 5), (13, 6)])
def test_a_top_box_or_frame_is_served_whole_from_a_warm_memo(empty_memo, n, k):
    """(n, k) itself a box, (12, 3), or a frame, the others: a second walk on
    the warm memo formats no part, its one call the last(0) that gives the
    empty row, and its rows are the first walk's, the reference rows."""
    calls = []

    def cell(v):
        calls.append(v)
        return (v,)

    def last(v):
        calls.append(-v)
        return (v, None)

    first = [row for block in iter_partition_blocks(n, k, cell, last) for row in expand(block)]
    assert (cell, last, n, k) in hn_branches._MEMO
    calls.clear()
    second = [row for block in iter_partition_blocks(n, k, cell, last) for row in expand(block)]
    assert calls == [0]
    assert first == second == oracle_rows(n, k, cell, last)


def test_monopole_rows_are_padded_partitions(quintic):
    h = quintic.lattice.basis(0)
    n = 12
    for r in range(1, 6):
        # c1 = -r(r-1)/2 H makes delta = 0 solve r delta = c1 + r(r-1)/2 H
        c1 = -(r * (r - 1) // 2) * h
        numerics = HiggsNumerics(r, c1, c2_gbun(quintic, HiggsNumerics(r, c1, 0))[0] + n)
        assert classify(quintic, numerics).witness.n_points == n
        rows = monopole_components(quintic, numerics)
        parts = list(partitions_at_most(n, r))
        assert len(rows) == len(parts) == partition_count(n, r)
        assert rows == [p + (0,) * (r - len(p)) for p in parts]


def test_both_enumerations_are_views_of_the_one_walk(quintic, monkeypatch):
    """With iter_partition_blocks refusing, iter_partitions_at_most and
    iter_monopole_components refuse as soon as a row is asked for."""
    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked

    monkeypatch.setattr(hn_branches, "iter_partition_blocks", walk)
    numerics = HiggsNumerics(2, quintic.lattice.basis(0), 3)
    with pytest.raises(Walked):
        next(iter_partitions_at_most(6, 3))
    with pytest.raises(Walked):
        next(iter_monopole_components(quintic, numerics))
    with pytest.raises(Walked):
        monopole_components(quintic, numerics)


def test_iter_monopole_components_refuses_at_the_call(quintic):
    """The regime is checked when the iterator is made, not on its first row."""
    h = quintic.lattice.basis(0)
    for numerics, regime in ((HiggsNumerics(2, h, -2), Regime.EMPTY),
                             (HiggsNumerics(2, 0 * h, 5), Regime.NO_DELTA_SOLUTION)):
        with pytest.raises(RegimeError) as err:
            iter_monopole_components(quintic, numerics)
        assert err.value.report.regime is regime


def test_iter_monopole_components_is_the_enumeration(quintic):
    h = quintic.lattice.basis(0)
    numerics = HiggsNumerics(3, 3 * h, 19)
    report = classify(quintic, numerics)
    assert report.witness.n_points == 9
    rows = iter_monopole_components(quintic, numerics)
    assert iter(rows) is rows
    listed = list(rows)
    assert listed == monopole_components(quintic, numerics)
    assert len(listed) == hn_branches.partition_count(9, 3) == 12


def test_monopole_pads_are_no_larger_than_the_partitions():
    """At n = 0 the one row is r zeros: no O(r^2) table of pads before it."""
    x = presets.p2()
    r = 5000
    c1 = -(r * (r - 1) // 2) * x.polarization
    numerics = HiggsNumerics(r, c1, c2_gbun(x, HiggsNumerics(r, c1, 0))[0])
    tracemalloc.start()
    try:
        rows = list(iter_monopole_components(x, numerics))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [(0,) * r]
    assert peak < 2**20
