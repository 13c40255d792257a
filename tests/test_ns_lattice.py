import copy
import pickle
import random
from fractions import Fraction

import pytest

import higgsnum
from higgsnum import (
    BranchesReport,
    ChowClass,
    FiberWitness,
    HiggsNumerics,
    HNType,
    LatticeError,
    NSLattice,
    NSVector,
    QNSVector,
    Rank2Report,
    Regime,
    RegimeReport,
    SpectralCover,
    divide,
    hyperplane_class,
    inertia,
    pair,
    presets,
    qvec,
    branches_report,
    ratnorm,
)
from higgsnum.cli import Rows
from higgsnum.ns_lattice import Frozen


def rand_vec(rng, rank, lo=-50, hi=50):
    return NSVector(tuple(rng.randint(lo, hi) for _ in range(rank)))


def test_pair_rank_one(quintic):
    h = quintic.lattice.basis(0)
    assert pair(quintic.lattice, 3 * h, 2 * h) == 30
    assert pair(quintic.lattice, h, h) == 5


def test_pair_plane(plane):
    h = plane.lattice.basis(0)
    assert pair(plane.lattice, h, h) == 1
    assert pair(plane.lattice, plane.canonical, plane.canonical) == 9


def test_pair_rational_inputs(quintic):
    h = quintic.lattice.basis(0)
    half = qvec(h) / 2
    assert pair(quintic.lattice, half, half) == Fraction(5, 4)
    assert pair(quintic.lattice, half, h) == Fraction(5, 2)


def test_pair_bilinear_and_symmetric(blowup):
    lat = blowup.lattice
    rng = random.Random(101)
    for _ in range(300):
        u, v, w = (rand_vec(rng, 2) for _ in range(3))
        a, b = rng.randint(-7, 7), rng.randint(-7, 7)
        assert pair(lat, u, v) == pair(lat, v, u)
        assert pair(lat, a * u + b * v, w) == a * pair(lat, u, w) + b * pair(lat, v, w)


def test_pair_dimension_mismatch(quintic, blowup):
    with pytest.raises(LatticeError):
        pair(quintic.lattice, NSVector((1, 2)), NSVector((1,)))
    with pytest.raises(LatticeError):
        pair(blowup.lattice, NSVector((1,)), NSVector((1, 0)))


def test_divide_examples(quintic):
    lat = quintic.lattice
    h = lat.basis(0)
    assert divide(lat, 6 * h, 2) == 3 * h
    assert divide(lat, 5 * h, 2) is None
    assert divide(lat, h, 1) == h


def test_divide_rejects_bad_divisor(quintic):
    with pytest.raises(LatticeError):
        divide(quintic.lattice, quintic.lattice.basis(0), 0)
    with pytest.raises(LatticeError):
        divide(quintic.lattice, quintic.lattice.basis(0), -2)


def test_divide_round_trip(blowup):
    lat = blowup.lattice
    rng = random.Random(202)
    for _ in range(300):
        v = rand_vec(rng, 2)
        r = rng.randint(1, 10)
        assert divide(lat, r * v, r) == v


def test_divide_rational_intermediate(quintic):
    lat = quintic.lattice
    v = QNSVector((Fraction(9, 1),))
    assert divide(lat, v, 3) == NSVector((3,))
    assert divide(lat, QNSVector((Fraction(1, 2),)), 1) is None


def test_signature_examples():
    assert inertia(((5,),)) == (1, 0)
    assert inertia(((2, 1), (1, -3))) == (1, 1)
    assert inertia(((1, 0), (0, -1))) == (1, 1)


def test_signature_off_diagonal_pivot():
    # hyperbolic plane: zero diagonal forces the basis-change step
    assert inertia(((0, 1), (1, 0))) == (1, 1)
    assert inertia(((0, -3), (-3, 0))) == (1, 1)
    lat = NSLattice(2, ((0, 1), (1, 0)))
    assert inertia(lat.gram) == (1, 1)


def test_signature_degenerate_rejected():
    with pytest.raises(LatticeError):
        inertia(((0,),))
    with pytest.raises(LatticeError):
        inertia(((1, 1), (1, 1)))
    with pytest.raises(LatticeError):
        NSLattice(1, ((0,),))


def test_lattice_validation():
    with pytest.raises(LatticeError):
        NSLattice(2, ((5,), (1, 2)))  # ragged
    with pytest.raises(LatticeError):
        NSLattice(2, ((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(LatticeError):
        NSLattice(2, ((1, 0), (0, 1)))  # positive definite, wrong signature
    with pytest.raises(LatticeError):
        NSLattice(2, ((-1, 0), (0, -1)))
    with pytest.raises(LatticeError):
        NSLattice(1, ((Fraction(1, 2),),))  # non-integer entry
    with pytest.raises(LatticeError):
        NSLattice(0, ())


@pytest.mark.parametrize(
    "gram, at",
    [
        ([[1, 2], [3, 4]], (0, 1)),
        ([[1, 2, 0], [0, 1, 0], [0, 0, -1]], (0, 1)),
        ([[1, 0, 0], [0, -1, 2], [0, 3, -1]], (1, 2)),
        ([[1, 0, 5], [0, -1, 0], [4, 0, -1]], (0, 2)),
    ],
)
def test_asymmetric_gram_refused_at_first_entry(gram, at):
    # the kernel reads only the upper triangle, so asymmetry is refused before it runs
    for build in (inertia, lambda g: NSLattice(len(g), tuple(map(tuple, g)))):
        with pytest.raises(LatticeError) as exc:
            build(gram)
        assert str(exc.value) == f"gram matrix not symmetric at ({at[0]},{at[1]})"


def test_inertia_refuses_a_non_square_matrix():
    # NSLattice checks the row count only and leaves the rows' lengths to inertia
    for build in (inertia, lambda g: NSLattice(2, g)):
        with pytest.raises(LatticeError, match="^gram matrix is not square: rows of lengths \\[2, 1\\]$"):
            build([[1, 0], [0]])
    for gram in ([[1, 0]], [[1, 0], [0, -1], [0, 0]]):
        with pytest.raises(LatticeError, match="^gram matrix must be 2x2, got rows of lengths \\[2"):
            NSLattice(2, gram)


@pytest.mark.parametrize(
    "gram, message",
    [
        ([[1, True], [0, -1]], "gram entries must be integers, got True"),
        ([[1, "0"], [0]], "gram entries must be integers, got '0'"),
        ([[1, 2], [3]], "gram matrix is not square: rows of lengths [2, 1]"),
    ],
    ids=["entry-before-symmetric", "entry-before-square", "square-before-symmetric"],
)
def test_inertia_checks_entries_then_square_then_symmetric(gram, message):
    with pytest.raises(LatticeError) as exc:
        inertia(gram)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [True, Fraction(1), 1.0], ids=["bool", "Fraction", "float"])
@pytest.mark.parametrize("col", [0, 2], ids=["below-diagonal", "diagonal"])
def test_non_integer_entry_in_last_row_is_named(bad, col):
    # the entry is equal to its int mirror, so only its type is wrong
    gram = [[1, 0, 1], [0, -1, 0], [1, 0, 1]]
    gram[2][col] = bad
    message = f"gram entries must be integers, got {bad!r}"
    with pytest.raises(LatticeError) as exc:
        inertia(gram)
    assert str(exc.value) == message
    with pytest.raises(LatticeError) as exc:
        NSLattice(3, tuple(map(tuple, gram)))
    assert str(exc.value) == message


def test_signature_random_diagonal_lattices():
    # diag(d, -a_2, ..., -a_k) always has signature (1, k-1)
    rng = random.Random(303)
    for _ in range(100):
        k = rng.randint(1, 6)
        diag = [rng.randint(1, 9)] + [-rng.randint(1, 9) for _ in range(k - 1)]
        gram = tuple(
            tuple(diag[i] if i == j else 0 for j in range(k)) for i in range(k)
        )
        assert inertia(gram) == (1, k - 1)
        assert inertia(NSLattice(k, gram).gram) == (1, k - 1)


def test_vector_arithmetic():
    v = NSVector((1, -2))
    w = NSVector((3, 4))
    assert v + w == NSVector((4, 2))
    assert v - w == NSVector((-2, -6))
    assert -v == NSVector((-1, 2))
    assert 3 * v == NSVector((3, -6))
    assert Fraction(1, 2) * v == QNSVector((Fraction(1, 2), Fraction(-1)))
    assert v / 2 == QNSVector((Fraction(1, 2), Fraction(-1)))
    assert (qvec(v) + w).to_integral() == NSVector((4, 2))


def test_vector_integrality():
    with pytest.raises(LatticeError):
        NSVector((1, Fraction(1, 2)))
    assert QNSVector((Fraction(3, 1), Fraction(1))).to_integral() == NSVector((3, 1))
    assert QNSVector((Fraction(1, 3),)).to_integral() is None


def test_hodge_index_inequality(blowup):
    """(D.P)^2 >= D^2 P^2 whenever P^2 > 0, on a rank-2 lattice."""
    lat = blowup.lattice
    rng = random.Random(404)
    done = 0
    while done < 1000:
        d = rand_vec(rng, 2)
        p = rand_vec(rng, 2)
        p2 = pair(lat, p, p)
        if p2 <= 0:
            continue
        done += 1
        dp = pair(lat, d, p)
        assert dp * dp >= pair(lat, d, d) * p2


def test_hodge_index_on_hyperbolic_plane():
    lat = NSLattice(2, ((0, 1), (1, 0)))
    rng = random.Random(505)
    done = 0
    while done < 1000:
        d = rand_vec(rng, 2)
        p = rand_vec(rng, 2)
        p2 = pair(lat, p, p)
        if p2 <= 0:
            continue
        done += 1
        dp = pair(lat, d, p)
        assert dp * dp >= pair(lat, d, d) * p2


def test_ratnorm():
    assert ratnorm(Fraction(6, 2)) == 3
    assert isinstance(ratnorm(Fraction(6, 2)), int)
    assert ratnorm(Fraction(1, 2)) == Fraction(1, 2)
    assert ratnorm(7) == 7


# The reprs are the text the dataclasses printed, with three differences: a
# surface also shows its last three fields, K^2, L^2 and K.L, Rows, which
# had the default object repr, shows its fields, and a Chow class and a class
# on the threefold show their stored numerators and denominator, as a vector does.
P2 = ("SurfaceGeometry(lattice=NSLattice(rank=1, gram=((1,),)), canonical=NSVector(num=(-3,), "
      "den=1), polarization=NSVector(num=(1,), den=1), c2_top=3, name='p2', k_squared=9, "
      "l_squared=1, k_dot_l=-3)")
H = "HiggsNumerics(r=2, c1=NSVector(num=(1,), den=1), c2=3)"
W = "FiberWitness(delta=NSVector(num=(1,), den=1), n_points=2)"
VALUES = [
    (lambda: QNSVector((Fraction(1, 2), 3)), "NSVector(num=(1, 6), den=2)"),
    (lambda: NSLattice(2, ((1, 0), (0, -1))), "NSLattice(rank=2, gram=((1, 0), (0, -1)))"),
    (presets.p2, P2),
    (lambda: ChowClass(1, NSVector((1,)), Fraction(1, 2)),
     "ChowClass(num=(2, 2, 1), den=2)"),
    (lambda: hyperplane_class(presets.p2()),
     f"YClass(num=(0, 0, 0, 1, 0, 0), den=1, over={P2})"),
    (lambda: SpectralCover(presets.p2(), 2), f"SpectralCover(base={P2}, r=2)"),
    (lambda: HiggsNumerics(2, NSVector((1,)), 3), H),
    (lambda: HNType((HiggsNumerics(2, NSVector((1,)), 3), HiggsNumerics(1, NSVector((0,)), 0))),
     f"HNType(factors=({H}, HiggsNumerics(r=1, c1=NSVector(num=(0,), den=1), c2=0)))"),
    (lambda: FiberWitness(NSVector((1,)), 2), W),
    (lambda: RegimeReport(Regime.GENERIC, 1, FiberWitness(NSVector((1,)), 2)),
     f"RegimeReport(regime=<Regime.GENERIC: 'Generic'>, c2gbun=1, witness={W})"),
    (lambda: Rank2Report(3, Regime.GENERIC, True, 2),
     "Rank2Report(c2=3, regime=<Regime.GENERIC: 'Generic'>, instanton_branch=True, count=2)"),
    (lambda: branches_report(presets.p2(), HiggsNumerics(2, NSVector((1,)), 2)),
     f"BranchesReport(report=RegimeReport(regime=<Regime.GENERIC: 'Generic'>, c2gbun=0, "
     f"witness={W}), betas=(NSVector(num=(1,), den=1), NSVector(num=(0,), den=1)), count=2, "
     "instanton_branch=True)"),
    (lambda: Rows(2, 3), "Rows(r=2, n=3)"),
]


def test_values_hold_every_exported_frozen_class():
    """VALUES has one instance of Rows and of each Frozen class that the math
    modules' __all__ lists, which higgsnum re-exports: a class left out fails here."""
    exported = {v for v in vars(higgsnum).values() if isinstance(v, type) and issubclass(v, Frozen)}
    held = [type(make()) for make, _ in VALUES]
    assert len(held) == len(set(held))
    assert set(held) == exported | {Rows}
    assert BranchesReport in exported


@pytest.mark.parametrize("make, text", VALUES, ids=[text.split("(")[0] for _, text in VALUES])
def test_frozen_value_contract(make, text):
    """Every value type: equality and hash by type and fields, a build from
    too few fields refused, no writes, no __dict__, copies and pickles that
    compare equal, and a fixed repr."""
    v, w = make(), make()
    assert isinstance(v, Frozen) and v is not w
    assert v == w and hash(v) == hash(w)
    names = type(v).__slots__
    fields = [getattr(v, name) for name in names]
    other = type("Other", (Frozen,), {"__slots__": names})(*fields)
    assert v != other and other != v
    with pytest.raises(TypeError, match=f"^Other takes {len(names)} fields$"):
        type(other)(*fields[1:])
    with pytest.raises(AttributeError):
        setattr(v, names[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(v, names[0])
    assert not hasattr(v, "__dict__")
    for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(c) is type(v) and c == v
    assert repr(v) == text


def test_cover_copies_keep_the_surface_fields():
    """A cover is equal by (base, r) only, so the contract test's == cannot see
    its inherited surface fields; copies and pickles must keep them too."""
    s = SpectralCover(presets.blowup(2), 3)
    assert type(s)._fields[:3] == ("lattice", "canonical", "polarization")
    for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert (c.lattice, c.c2_top, c.k_squared) == (s.lattice, s.c2_top, s.k_squared)
        assert [getattr(c, name) for name in type(s)._fields] == [
            getattr(s, name) for name in type(s)._fields]


def test_frozen_subclass_of_a_subclass_takes_every_field():
    """__init__ and _of of a Frozen subclass fill the slots along its MRO,
    base first, at 1, 2, 3, 5 and 10 fields, and _of builds what __init__
    builds, slot for slot; equality, hash and repr stay on the class's own slots."""
    a = type("A", (Frozen,), {"__slots__": ("a",)})
    p = type("P", (Frozen,), {"__slots__": ("a", "b")})
    b = type("B", (a,), {"__slots__": ("b", "c")})
    c = type("C", (b,), {"__slots__": ("d", "e")})
    d = type("D", (c,), {"__slots__": tuple("fghij")})
    for cls, names in ((a, "a"), (p, "ab"), (b, "abc"), (c, "abcde"), (d, "abcdefghij")):
        fields = list(range(len(names)))
        assert cls._fields == tuple(names)
        made, fast = cls(*fields), cls._of(*fields)
        assert type(made) is type(fast) is cls
        assert [getattr(fast, n) for n in names] == [getattr(made, n) for n in names] == fields
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(names)} fields$"):
            cls(*fields[1:])
    v, w = c(0, 1, 2, 3, 4), c(9, 9, 9, 3, 4)
    assert v == w and hash(v) == hash(w) and repr(v) == "C(d=3, e=4)"
