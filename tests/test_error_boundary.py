"""The error boundary: one base class, one integer rule, one type rule, one refusal line.

Every rank, degree, count and c2 goes through require_int, so a bool, a
float or a Fraction is refused exactly like an out-of-range int, with
the error type of the module that owns the input; an argument of the
wrong type goes through require_type the same way.  The CLI catches the
one base class, so any input yields an answer (exit 0) or a one-line
refusal (exit 2), never a traceback.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import higgsnum
from higgsnum import (
    ChowClass,
    HiggsError,
    HiggsNumerics,
    HNFactor,
    HNType,
    LatticeError,
    NSLattice,
    NSVector,
    QNSVector,
    RegimeError,
    SpectralCover,
    SurfaceGeometry,
    ValidationError,
    YClass,
    branches_report,
    c2_gbun,
    canonical_y,
    chern_c2,
    chi_two_ways,
    chow_inverse,
    chow_mul,
    classify,
    component_betas,
    cotangent_ch,
    dinfty_class,
    discriminant,
    discriminant_identity,
    divide,
    grr_pushforward,
    inertia,
    lincomb,
    pair_num,
    hilbert_polynomial,
    hyperplane_class,
    ideal_twist_ch,
    iter_compositions,
    iter_partitions_at_most,
    line_bundle_ch,
    n_points,
    olympic_sum,
    partition_count,
    presets,
    pullback,
    pushforward_structure_ch,
    rank2_fixed_components,
    ratnorm,
    require_int,
    restrict_to_spectral,
    slope_gaps,
    solve_delta,
    spectral_c2_tangent,
    spectral_canonical,
    spectral_cotangent_ch,
    spectral_divisor_class,
    spectral_todd,
    todd_surface,
    y_mul,
    y_pushforward,
)
from higgsnum.cli import CLIError, batch, main
from higgsnum.ns_lattice import Frozen, require_type

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DATA = Path(__file__).parent / "data"

X = presets.p2()
L = X.polarization
T = HNType((HNFactor(1, L, 0), HNFactor(1, 0 * L, 0)))

POSITIVE = (True, 1.5, Fraction(3, 2), 0, -1)
NONNEGATIVE = (True, 1.5, Fraction(1, 2), -1)
INTEGER = (True, 1.5, Fraction(3, 2))

PROBES = [
    ("NSLattice-rank", lambda v: NSLattice(v, ((1,),)), POSITIVE, LatticeError),
    ("NSLattice.scaled", lambda v: X.lattice.scaled(v), POSITIVE, LatticeError),
    ("NSVector.zero", NSVector.zero, POSITIVE, LatticeError),
    ("ChowClass.zero", ChowClass.zero, POSITIVE, LatticeError),
    ("ChowClass.unit", ChowClass.unit, POSITIVE, LatticeError),
    ("ChowClass.of_points", lambda v: ChowClass.of_points(1, v), POSITIVE, LatticeError),
    ("divide", lambda v: divide(X.lattice, NSVector((2,)), v), POSITIVE, LatticeError),
    ("HiggsNumerics-rank", lambda v: HiggsNumerics(v, L, 0), POSITIVE, ValidationError),
    ("HiggsNumerics-c2", lambda v: HiggsNumerics(2, L, v), INTEGER, ValidationError),
    ("SurfaceGeometry-c2_top", lambda v: SurfaceGeometry(X.lattice, X.canonical, L, v),
     INTEGER, ValidationError),
    ("SpectralCover", lambda v: SpectralCover(X, v), POSITIVE, ValidationError),
    ("spectral_divisor_class", lambda v: spectral_divisor_class(X, v), POSITIVE, ValidationError),
    ("restrict_to_spectral", lambda v: restrict_to_spectral(canonical_y(X), v), POSITIVE,
     ValidationError),
    ("hypersurface", lambda v: presets.hypersurface(v), POSITIVE, ValidationError),
    ("HNFactor", lambda v: HNFactor(v, L, 0), POSITIVE, ValidationError),
    ("olympic_sum", lambda v: olympic_sum((v, 2)), POSITIVE, ValidationError),
    ("rank2_fixed_components", lambda v: rank2_fixed_components(X, v), INTEGER, ValidationError),
    ("ideal_twist_ch", lambda v: ideal_twist_ch(X, L, v), NONNEGATIVE, ValidationError),
    ("grr_pushforward", lambda v: grr_pushforward(SpectralCover(X, 2), L, v), NONNEGATIVE,
     ValidationError),
    ("chi_two_ways", lambda v: chi_two_ways(SpectralCover(X, 2), L, v), NONNEGATIVE,
     ValidationError),
    ("partitions-n", lambda v: list(iter_partitions_at_most(v, 2)), NONNEGATIVE, ValidationError),
    ("partitions-k", lambda v: list(iter_partitions_at_most(3, v)), NONNEGATIVE, ValidationError),
    ("partition_count-n", lambda v: partition_count(v, 2), NONNEGATIVE, ValidationError),
    ("partition_count-k", lambda v: partition_count(3, v), NONNEGATIVE, ValidationError),
    ("component_betas", lambda v: component_betas(X, v, L), POSITIVE, ValidationError),
    ("hilbert_polynomial", lambda v: hilbert_polynomial(X, ChowClass.unit(1), v), INTEGER,
     ValidationError),
    ("iter_compositions", lambda v: list(iter_compositions(v)), NONNEGATIVE, ValidationError),
    ("HNFactor-c2", lambda v: HNFactor(1, L, v), INTEGER, ValidationError),
    # arguments of the wrong type are refused where they enter, as bad integers are
    ("HNFactor-c1", lambda v: HNFactor(1, v, 0), (5, None), LatticeError),
    ("HNFactor-c1-rational", lambda v: HNFactor(1, QNSVector((v,)), 0), (Fraction(1, 2),),
     ValidationError),
    ("SurfaceGeometry-lattice", lambda v: SurfaceGeometry(v, X.canonical, L, 12),
     (5, None, ((1,),)), LatticeError),
    ("chow_mul", lambda v: chow_mul(X, v, v), (1, None, L), ValidationError),
    # a vector has num and den too, but is no Chow class
    ("chow_mul-mixed", lambda v: chow_mul(X, ChowClass.unit(1), v), (L,), ValidationError),
    ("hilbert_polynomial-class", lambda v: hilbert_polynomial(X, v, 1), (5, L), ValidationError),
    ("classify", lambda v: classify(X, v), (5, None, L), ValidationError),
    ("component_betas-delta", lambda v: component_betas(X, 2, v), (5, None, NSVector((1, 2))),
     LatticeError),
    ("SpectralCover-base", lambda v: SpectralCover(v, 2), (5, None, X.lattice), ValidationError),
    ("YClass-over", lambda v: YClass(ChowClass.unit(1), ChowClass.unit(1), v), (5, None),
     ValidationError),
    ("c2_gbun", lambda v: c2_gbun(X, v), (5, None, X), ValidationError),
    ("n_points", lambda v: n_points(X, v), (5, None, X), ValidationError),
    ("solve_delta", lambda v: solve_delta(X, v), (5, None, X), ValidationError),
    ("chow_inverse", lambda v: chow_inverse(X, v), (5, None, L), ValidationError),
    ("SpectralCover.pushforward", lambda v: SpectralCover(X, 2).pushforward(v), (5, None, L),
     ValidationError),
    ("todd_surface", lambda v: todd_surface(v), (5, None, X.lattice), ValidationError),
    ("rank2_fixed_components-surface", lambda v: rank2_fixed_components(v, 3), (5, None),
     ValidationError),
    ("branches_report-surface", lambda v: branches_report(v, HiggsNumerics(2, L, 3)),
     (5, None, X.lattice), ValidationError),
    ("branches_report-numerics", lambda v: branches_report(X, v), (5, None, L), ValidationError),
    ("chern_c2-surface", lambda v: chern_c2(v, ChowClass.unit(1)), (5, None, X.lattice),
     ValidationError),
    ("chern_c2-class", lambda v: chern_c2(X, v), (5, None, L), ValidationError),
    ("y_mul", lambda v: y_mul(v, v), (5, None, ChowClass.unit(1)), ValidationError),
    ("HNType", lambda v: HNType((v,)), (5, None, L), ValidationError),
    ("SurfaceGeometry-rational", lambda v: SurfaceGeometry(X.lattice, v, L, 12),
     (QNSVector((Fraction(-3, 2),)),), ValidationError),
    ("lincomb", lambda v: lincomb(1, L, 1, v), (NSVector((1, 2)),), LatticeError),
    # a class of rank 1 has as many numerators as a vector of rank 3
    ("lincomb-class", lambda v: lincomb(1, NSVector((1, 2, 3)), 1, v), (ChowClass.unit(1),),
     LatticeError),
    # two values of one type that is no vector or class type
    ("lincomb-values", lambda v: lincomb(1, v, 1, v), (3, None, Fraction(1, 2), (1, 2)),
     LatticeError),
    # a scalar is an int, never a bool, or a Fraction, in either place
    ("lincomb-s", lambda v: lincomb(v, L, 1, L), (True, 0.5, "1", None), LatticeError),
    ("lincomb-t", lambda v: lincomb(1, L, v, L), (False, 0.5, "1", None), LatticeError),
    ("lincomb-base", lambda v: lincomb(1, hyperplane_class(X), 1, hyperplane_class(v)),
     (presets.hypersurface(4),), LatticeError),
    ("pair_num", lambda v: pair_num(X.lattice, v, L), (5, None), LatticeError),
    ("pair_num-second", lambda v: pair_num(X.lattice, L, v), (NSVector((1, 2)),), LatticeError),
    ("pair_num-class", lambda v: pair_num(X.lattice, v, L), (ChowClass.unit(1),), LatticeError),
    # a gram whose rows are not sequences
    ("NSLattice-gram", lambda v: NSLattice(2, v), ((1, 2), 5), LatticeError),
    ("inertia", inertia, (5, [5]), LatticeError),
    ("component_betas-surface", lambda v: component_betas(v, 2, L), (5, None, X.lattice),
     ValidationError),
    ("slope_gaps", lambda v: slope_gaps(v, T), (5, None, X.lattice), ValidationError),
    ("discriminant_identity", lambda v: discriminant_identity(v, T), (5, None, X.lattice),
     ValidationError),
    # an HN type is checked as its surface is, not read for its factors
    ("slope_gaps-type", lambda v: slope_gaps(X, v), (5, None, L, X), ValidationError),
    ("discriminant_identity-type", lambda v: discriminant_identity(X, v), (5, None, L, X),
     ValidationError),
    ("discriminant-numerics", lambda v: discriminant(v, X), (5, None, L), ValidationError),
    ("discriminant-surface", lambda v: discriminant(HiggsNumerics(2, L, 3), v),
     (5, None, X.lattice), ValidationError),
    ("divide-lattice", lambda v: divide(v, NSVector((2,)), 2), (5, None, X), LatticeError),
    ("divide-vector", lambda v: divide(X.lattice, v, 2), (5, None), LatticeError),
    ("line_bundle_ch", lambda v: line_bundle_ch(v, L), (5, None, X.lattice), ValidationError),
    ("cotangent_ch", cotangent_ch, (5, None, X.lattice), ValidationError),
    ("hilbert_polynomial-surface", lambda v: hilbert_polynomial(v, ChowClass.unit(1), 1),
     (5, None, X.lattice), ValidationError),
    ("ideal_twist_ch-surface", lambda v: ideal_twist_ch(v, L, 1), (5, None, X.lattice),
     ValidationError),
    ("y_pushforward", y_pushforward, (5, None, ChowClass.unit(1)), ValidationError),
    ("restrict_to_spectral-class", lambda v: restrict_to_spectral(v, 2),
     (5, None, ChowClass.unit(1)), ValidationError),
    ("pullback-surface", lambda v: pullback(v, L), (5, None, X.lattice), ValidationError),
    ("hyperplane_class", hyperplane_class, (5, None, X.lattice), ValidationError),
    ("dinfty_class", dinfty_class, (5, None, X.lattice), ValidationError),
    ("canonical_y", canonical_y, (5, None, X.lattice), ValidationError),
    ("spectral_divisor_class-surface", lambda v: spectral_divisor_class(v, 2), (5, None, X.lattice),
     ValidationError),
    # a plain surface is no cover
    ("grr_pushforward-cover", lambda v: grr_pushforward(v, L, 1), (5, None, X), ValidationError),
    ("pushforward_structure_ch", pushforward_structure_ch, (5, None, X), ValidationError),
    ("spectral_canonical", spectral_canonical, (5, None, X), ValidationError),
    ("spectral_c2_tangent", spectral_c2_tangent, (5, None, X), ValidationError),
    ("spectral_todd", spectral_todd, (5, None, X), ValidationError),
    ("spectral_cotangent_ch", spectral_cotangent_ch, (5, None, X), ValidationError),
    ("chi_two_ways-cover", lambda v: chi_two_ways(v, L, 0), (5, None, X), ValidationError),
]


def probe_id(name: str, value: object) -> str:
    """The probe name and the value: a package value by its type name, whose
    repr changes with the package, and any other value by its repr."""
    return f"{name}-{type(value).__name__ if isinstance(value, Frozen) else repr(value)}"


@pytest.mark.parametrize(
    "call, value, error",
    [
        pytest.param(call, value, error, id=probe_id(name, value))
        for name, call, values, error in PROBES
        for value in values
    ],
)
def test_bad_integer_is_refused_by_the_owning_module(call, value, error):
    with pytest.raises(HiggsError) as excinfo:
        call(value)
    assert type(excinfo.value) is error
    assert "\n" not in str(excinfo.value)


NOT_EXACT = (0.5, True, "3/4")

EXACT_PROBES = [
    ("ChowClass-deg0", lambda v: ChowClass(v, L, 0)),
    ("ChowClass-deg2", lambda v: ChowClass(0, L, v)),
    ("SpectralCover.pushforward-points",
     lambda v: SpectralCover(X, 2).pushforward(ChowClass.unit(1), v)),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}-{value!r}")
        for name, call in EXACT_PROBES
        for value in NOT_EXACT
    ],
)
def test_inexact_rational_is_refused(call, value):
    """A float, a bool or a string is not an exact rational, whatever Fraction() makes of it."""
    with pytest.raises(ValidationError, match=f"^an int or Fraction is required, got {value!r}$"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: NSVector((2,)) * True, id="NSVector-mul"),
        pytest.param(lambda: True * NSVector((2,)), id="NSVector-rmul"),
        pytest.param(lambda: NSVector((2,)) / True, id="NSVector-truediv"),
        pytest.param(lambda: ChowClass(1, NSVector((2,)), 3) * True, id="ChowClass-mul"),
        pytest.param(lambda: hyperplane_class(X) * True, id="YClass-mul"),
        pytest.param(lambda: NSVector((2,)) + 5, id="NSVector-add"),
        pytest.param(lambda: NSVector((2,)) - 5, id="NSVector-sub"),
        pytest.param(lambda: ChowClass.unit(1) + 5, id="ChowClass-add"),
        pytest.param(lambda: ChowClass.unit(1) - 5, id="ChowClass-sub"),
        pytest.param(lambda: hyperplane_class(X) + 5, id="YClass-add"),
        pytest.param(lambda: hyperplane_class(X) - 5, id="YClass-sub"),
    ],
)
def test_bool_scalar_is_refused(call):
    """A bool is no scalar, as it is no coordinate or degree; nor is an int a
    vector or class to add or subtract.  The operator returns NotImplemented."""
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: SurfaceGeometry(X.lattice, 5, L, 12), id="SurfaceGeometry-canonical"),
        pytest.param(lambda: SurfaceGeometry(X.lattice, X.canonical, 5, 3),
                     id="SurfaceGeometry-polarization"),
        pytest.param(lambda: pullback(X, 5), id="pullback"),
        pytest.param(lambda: YClass(ChowClass.unit(1), L, X), id="YClass-beta"),
    ],
)
def test_non_vector_or_non_class_is_refused(call):
    with pytest.raises(LatticeError):
        call()


def test_one_base_class():
    for cls in (LatticeError, ValidationError, RegimeError, CLIError):
        assert issubclass(cls, HiggsError)
    assert issubclass(HiggsError, ValueError)
    assert higgsnum.HiggsError is HiggsError


def test_refusal_messages_kept():
    with pytest.raises(ValidationError, match="^rank must be a positive integer, got 0$"):
        HiggsNumerics(0, L, 0)
    with pytest.raises(ValidationError, match="^cover degree must be a positive integer, got 0$"):
        SpectralCover(X, 0)
    with pytest.raises(ValidationError, match="^hypersurface degree must be a positive integer"):
        presets.hypersurface(0)


# an int past the int-to-text limit, and a str of a million characters
HUGE = 10**5000
LONG = "x" * 10**6


@pytest.mark.parametrize("call", [
    pytest.param(lambda: require_int(-HUGE, "rank", 1), id="require_int"),
    pytest.param(lambda: presets.blowup(HUGE), id="blowup"),
    pytest.param(lambda: classify(HUGE, None), id="classify"),
    pytest.param(lambda: olympic_sum((-HUGE,)), id="olympic_sum"),
    pytest.param(lambda: require_type((1, -HUGE), NSVector, "a vector"), id="in-a-tuple"),
])
def test_an_int_too_long_to_print_is_echoed_as_a_fixed_phrase(call):
    """Turning such an int into text raises a bare ValueError; the refusal
    names it by one fixed phrase instead."""
    with pytest.raises(HiggsError) as excinfo:
        call()
    assert "<an int too long to print>" in str(excinfo.value) and len(str(excinfo.value)) < 100


@pytest.mark.parametrize("call", [
    pytest.param(lambda: require_type(LONG, NSVector, "a vector"), id="require_type"),
    pytest.param(lambda: ratnorm(LONG), id="ratnorm"),
    pytest.param(lambda: QNSVector((LONG,)), id="NSVector.rational"),
    pytest.param(lambda: lincomb(1, LONG, 1, LONG), id="lincomb"),
    pytest.param(lambda: pair_num(X.lattice, LONG, L), id="pair_num"),
    pytest.param(lambda: chow_mul(X, LONG, LONG), id="chow_mul"),
    pytest.param(lambda: chow_inverse(X, LONG), id="chow_inverse"),
    pytest.param(lambda: HiggsNumerics(1, QNSVector((Fraction(1, 2),) * 10**5), 0),
                 id="HiggsNumerics-c1"),
])
def test_a_long_value_is_echoed_cut(call):
    """A refusal echoes outside input through brief, so a long str or a long
    vector is cut in the middle, never echoed whole."""
    with pytest.raises(HiggsError) as excinfo:
        call()
    assert "..." in str(excinfo.value) and len(str(excinfo.value)) < 200


def test_lincomb_names_all_three_value_types():
    with pytest.raises(LatticeError) as excinfo:
        lincomb(1, hyperplane_class(X), 1, L)
    assert str(excinfo.value).startswith(
        "not two vectors, two Chow classes or two classes on the threefold: YClass(")


@pytest.mark.parametrize("call, value", [
    (ChowClass.unit, -2),
    (ChowClass.zero, True),
    (ChowClass.zero, 2.0),
    (NSVector.zero, 0),
])
def test_zero_and_unit_refuse_a_rank_that_is_no_positive_int(call, value):
    """A negative rank, a bool and a float are refused with one line, as 0 is."""
    with pytest.raises(LatticeError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"rank must be a positive integer, got {value!r}"


# ---------------------------------------------------------------------------
# fuzz of the CLI flags and the surface loader

PRESETS = ["p2", "hypersurface:1", "hypersurface:4", "hypersurface:5", "hypersurface:8"]
BAD_SPECS = ["hypersurface:0", "hypersurface:-2", "hypersurface:x", "hypersurface:", "nope",
             str(DATA)]
JUNK = st.sampled_from([None, True, 1.5, "x", [], {}, [[True]], [1.5]])


def _field(strategy):
    return st.one_of(strategy, JUNK)


# free-form surface records: mostly refused, by the loader or by validation
loose_surface = st.fixed_dictionaries(
    {},
    optional={
        "name": _field(st.text(max_size=4)),
        "ns_rank": _field(st.integers(0, 2)),
        "gram": _field(st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2)),
        "canonical": _field(st.lists(st.integers(-3, 3), max_size=2)),
        "polarization": _field(st.lists(st.integers(-1, 1), max_size=2)),
        "c2_top": _field(st.integers(-20, 40)),
    },
)


@st.composite
def diagonal_surface(draw):
    """Rank-2 diag(a, -b) records that pass the Noether and Wu checks, with L^2 <= 8.

    K is characteristic: K_i is odd wherever the diagonal entry is odd.
    """
    a, b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    k = [2 * draw(st.integers(-2, 1)) + 1 if d % 2 else draw(st.integers(-3, 3)) for d in (a, b)]
    return {
        "name": "fuzz",
        "ns_rank": 2,
        "gram": [[a, 0], [0, -b]],
        "canonical": k,
        "polarization": [draw(st.sampled_from([1, 2, -1])), draw(st.integers(-1, 1))],
        "c2_top": 12 * draw(st.integers(-1, 3)) - a * k[0] ** 2 + b * k[1] ** 2,
    }


surface_text = st.one_of(
    diagonal_surface().map(json.dumps),
    diagonal_surface().map(json.dumps),
    loose_surface.map(json.dumps),
    st.one_of(st.integers(), st.lists(st.integers(-1, 1), max_size=2)).map(json.dumps),
    st.text(max_size=12),
)


# integers of 2,200 to 4,400 digits, as text: a flag past the int-to-text
# limit (4,300 digits), or one under it whose answer is past it
BIG_TEXT = st.builds(lambda sign, digit, size: sign + digit * size,
                     st.sampled_from(["", "-"]), st.sampled_from("1379"), st.integers(2200, 4400))


def int_text(lo, hi, big):
    """An integer in lo..hi as text, or with big now and then one of BIG_TEXT."""
    small = st.integers(lo, hi).map(str)
    return st.one_of(small, small, small, BIG_TEXT) if big else small


def vector_text(rank, big):
    """Mostly rank coordinates in -2..2, which keeps branches near 10^3 components."""
    coords = st.lists(int_text(-2, 2, big), min_size=rank, max_size=rank)
    return st.one_of(
        coords, coords, coords, st.lists(st.integers(-2, 2).map(str), max_size=3),
        st.sampled_from(["", "a", "1,", " 1", "1.5", "1/2", ",", "+1"]),
    ).map(lambda v: v if isinstance(v, str) else ",".join(v))


# tokens that no flag takes and that a refusal may echo: a few characters,
# control characters among them, or a run of 5,000; none holds an integer
# that fits, so a branches query drawing one is refused, not enumerated
WILD = st.one_of(
    st.text(st.sampled_from("\n\t\r\x00\x1b\x7f\x85\u2028a,-"), min_size=1, max_size=6),
    st.builds(lambda c: c * 5000, st.sampled_from("9xa,\n")),
)


@st.composite
def argvs(draw, path):
    command = draw(st.sampled_from(
        ["surface", "ybundle", "spectral", "criterion", "branches", "grr"]))
    kind = draw(st.sampled_from(["preset", "preset", "file", "file", "bad", "text"]))
    rank = 2 if kind == "file" else 1
    if kind == "file":
        path.write_text(draw(surface_text), encoding="utf-8")
        spec = str(path)
    else:
        spec = draw({"preset": st.sampled_from(PRESETS), "bad": st.sampled_from(BAD_SPECS),
                     "text": st.text(max_size=6)}[kind])
    argv = [command, f"--surface={spec}", f"--format={draw(st.sampled_from(['json', 'table']))}"]
    # branches stays small: a valid point count of 10^3000 streams its rows without end
    big = command != "branches"
    if command != "surface":
        argv.append(f"--rank={draw(int_text(-1, 4, big))}")
    if command in ("criterion", "branches"):
        argv += [f"--c1={draw(vector_text(rank, big))}", f"--c2={draw(int_text(-10, 10, big))}"]
    if command == "grr":
        argv.append(f"--delta={draw(vector_text(rank, big))}")
        if draw(st.booleans()):
            argv.append(f"--points={draw(int_text(-3, 10, big))}")
    if draw(st.integers(0, 2)) == 0:
        # a WILD token in place of the command or of a flag's value, or after them all
        i, token = draw(st.integers(0, len(argv))), draw(WILD)
        flag = argv[i].partition("=")[0] + "=" if 0 < i < len(argv) else ""
        argv[i:i + 1] = [flag + token]
    return argv


def test_cli_fuzz_answers_or_refuses_in_one_line(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "surface.json"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argvs(path))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 2), (argv, err)
        assert "Traceback" not in err
        if rc == 0:
            assert out and not err
        else:
            assert not out
            assert err.endswith("\n") and len(err.splitlines()) == 1, (argv, err)
            assert len(err) <= 241, (argv, err)
            batch_out = io.StringIO()
            assert batch([json.dumps(argv)], batch_out) == 2
            assert json.loads(batch_out.getvalue()) == {"error": err[:-1], "exit": 2}

    check()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: NSLattice(1, ((True,),)), id="NSLattice-gram-True"),
        pytest.param(lambda: NSLattice(2, ((1, False), (False, -1))), id="NSLattice-gram-False"),
        pytest.param(lambda: NSVector((True,)), id="NSVector-True"),
        pytest.param(lambda: NSVector((1, False)), id="NSVector-False"),
        pytest.param(lambda: QNSVector((True, False)), id="QNSVector-True"),
        pytest.param(lambda: QNSVector((Fraction(1, 2), False)), id="QNSVector-False"),
    ],
)
def test_bool_lattice_entries_are_refused(call):
    with pytest.raises(LatticeError, match="integer"):
        call()
