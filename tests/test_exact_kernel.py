"""Property tests of the integer kernel against independent oracles.

inertia is checked against the characteristic polynomial computed by
sympy: a real symmetric matrix has only real eigenvalues, so Descartes'
rule of signs counts its positive and negative ones exactly.  At the
benchmark's ranks it is checked against Sylvester's law of inertia on
grams built with known signs.  pair is
checked against a plain double sum over Fraction coordinates, and the
vector type against coordinatewise Fraction arithmetic.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from higgsnum import LatticeError, NSLattice, NSVector, QNSVector, inertia, ns_lattice, pair, qvec

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def charpoly_inertia(a):
    """(positive, negative, zero) eigenvalue counts of a symmetric integer matrix."""
    coeffs = [int(c) for c in sympy.Matrix(a).charpoly().all_coeffs()]
    n = len(coeffs) - 1
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1
    flipped = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(flipped), zero


def symmetric(rng, n, lo=-3, hi=3, zero_diagonal=False, density=1.0):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() > density:
                continue
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return a


def congruent(rng, diag):
    """U^T diag(d) U for a random unimodular U."""
    n = len(diag)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((-2, -1, 1, 2))
        u[i] = [x + m * y for x, y in zip(u[i], u[j])]
    return [
        [sum(u[k][i] * diag[k] * u[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def hyperbolic_sum(rng, planes, extra):
    """Permuted direct sum of scaled hyperbolic planes and a diagonal part."""
    n = 2 * planes + len(extra)
    a = [[0] * n for _ in range(n)]
    for p in range(planes):
        a[2 * p][2 * p + 1] = a[2 * p + 1][2 * p] = rng.choice((-3, -2, -1, 1, 2, 3))
    for k, d in enumerate(extra):
        a[2 * planes + k][2 * planes + k] = d
    perm = list(range(n))
    rng.shuffle(perm)
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def low_rank(rng, n, m):
    """B diag(d) B^T with B of size n x m, m < n: always degenerate."""
    b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
    d = [rng.choice((-2, -1, 1, 2)) for _ in range(m)]
    return [
        [sum(b[i][k] * d[k] * b[j][k] for k in range(m)) for j in range(n)]
        for i in range(n)
    ]


def matrices():
    rng = random.Random(20241017)
    for _ in range(120):
        n = rng.randint(1, 8)
        yield symmetric(rng, n)
        yield symmetric(rng, n, zero_diagonal=True)
        yield symmetric(rng, n, density=0.3)
        yield symmetric(rng, n, lo=-1, hi=1, zero_diagonal=rng.random() < 0.5, density=0.5)
        yield congruent(rng, [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)])
        yield hyperbolic_sum(rng, rng.randint(0, 4), [rng.choice((-2, -1, 0, 1, 2))
                                                      for _ in range(rng.randint(0, 2))])
        if n > 1:
            yield low_rank(rng, n, rng.randint(1, n - 1))


def test_inertia_matches_charpoly_sign_counts():
    degenerate = nondegenerate = 0
    for a in matrices():
        pos, neg, zero = charpoly_inertia(a)
        if zero:
            degenerate += 1
            with pytest.raises(LatticeError):
                inertia(a)
        else:
            nondegenerate += 1
            assert inertia(a) == (pos, neg), a
    assert degenerate > 100 and nondegenerate > 300


def test_inertia_on_hyperbolic_lattices():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        diag = [rng.randint(1, 4)] + [-rng.randint(1, 4) for _ in range(n - 1)]
        gram = congruent(rng, diag)
        assert charpoly_inertia(gram) == (1, n - 1, 0)
        assert inertia(gram) == (1, n - 1)
        assert NSLattice(n, tuple(map(tuple, gram))).rank == n


def test_inertia_obeys_sylvester_at_benchmark_ranks(monkeypatch):
    # Sylvester's law of inertia: U^T D U has the sign counts of D, and a
    # hyperbolic plane adds one of each; no charpoly needed at rank 32
    pivots = []
    first = ns_lattice._pivot_first
    monkeypatch.setattr(ns_lattice, "_pivot_first", lambda a: pivots.append(len(a)) or first(a))
    rng = random.Random(20241018)
    for n in range(9, 33):
        diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        gram = congruent(rng, diag)
        assert inertia(gram) == (sum(d > 0 for d in diag), sum(d < 0 for d in diag)), gram
    mid = 0
    for planes in range(1, 17):
        extra = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 8))]
        gram = hyperbolic_sum(rng, planes, extra)
        pivots.clear()
        expected = (planes + sum(d > 0 for d in extra), planes + sum(d < 0 for d in extra))
        assert inertia(gram) == expected, gram
        mid += any(m < len(gram) for m in pivots)
    assert mid >= 8


def test_inertia_leaves_input_alone_and_rejects_non_integers():
    gram = [[0, 2], [2, 0]]
    assert inertia(gram) == (1, 1)
    assert gram == [[0, 2], [2, 0]]
    with pytest.raises(LatticeError):
        inertia([[Fraction(1, 2)]])


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def lattice_and_vectors(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 6))
    gram = congruent(rng, [rng.randint(1, 4)] + [-rng.randint(1, 4) for _ in range(n - 1)])
    vs = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(2)]
    return gram, vs[0], vs[1]


def as_vector(coords):
    if all(q.denominator == 1 for q in coords):
        return NSVector(tuple(int(q) for q in coords))
    return QNSVector(tuple(coords))


@SETTINGS
@given(lattice_and_vectors())
def test_pair_matches_fraction_double_sum(data):
    gram, v, w = data
    lat = NSLattice(len(gram), tuple(map(tuple, gram)))
    expected = sum(
        (v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w))), Fraction(0)
    )
    got = pair(lat, as_vector(v), as_vector(w))
    assert got == expected
    if expected.denominator == 1:
        assert type(got) is int
    else:
        assert type(got) is Fraction


@SETTINGS
@given(st.lists(rationals, min_size=1, max_size=6))
def test_one_vector_type_normalises_its_denominator(coords):
    v = QNSVector(coords)
    assert type(v) is NSVector
    assert v.den >= 1 and gcd(v.den, *v.num) == 1
    assert [Fraction(n, v.den) for n in v.num] == coords
    assert list(v.coords) == coords
    integral = all(q.denominator == 1 for q in coords)
    assert v.is_integral() is integral
    if integral:
        w = NSVector(tuple(int(q) for q in coords))
        assert v == w and hash(v) == hash(w)
        assert v.to_integral() == w
        assert all(type(c) is int for c in v.coords)
    else:
        assert v.to_integral() is None
    assert qvec(v) is v and v.as_rational() is v


@SETTINGS
@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
    rationals,
)
def test_vector_arithmetic_matches_coordinatewise_fractions(a, b, k):
    v, w = QNSVector(a), QNSVector(b)
    assert v + w == QNSVector([x + y for x, y in zip(a, b)])
    assert v - w == QNSVector([x - y for x, y in zip(a, b)])
    assert -v == QNSVector([-x for x in a])
    assert k * v == v * k == QNSVector([k * x for x in a])
    if k != 0:
        assert v / k == QNSVector([x / k for x in a])
        assert (v * k) / k == v
    assert hash(v + w) == hash(QNSVector([x + y for x, y in zip(a, b)]))


def test_vector_type_contract():
    assert QNSVector((Fraction(9, 1),)) == NSVector((9,))
    assert QNSVector((Fraction(1, 2), Fraction(3, 2))) * 2 == NSVector((1, 3))
    assert (QNSVector((Fraction(1, 6), Fraction(1, 3))) + QNSVector((Fraction(1, 6), 0))).den == 3
    assert QNSVector((Fraction(2, 4), 1)).den == 2
    assert {NSVector((1, 2)), QNSVector((Fraction(2, 2), Fraction(4, 2)))} == {NSVector((1, 2))}
    with pytest.raises(LatticeError):
        NSVector((1, Fraction(1, 2)))
    with pytest.raises(LatticeError):
        QNSVector((0.5,))
    with pytest.raises(ZeroDivisionError):
        NSVector((1,)) / 0
    v = NSVector((1, 2))
    with pytest.raises(AttributeError):
        v.den = 2
    assert NSVector((1, 2)) * Fraction(1, 2) == QNSVector((Fraction(1, 2), 1))
    assert (NSVector((3, 6)) / 3).to_integral() == NSVector((1, 2))
