import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import higgsnum
from higgsnum import (
    ChowClass, HiggsError, HiggsNumerics, NSLattice, NSVector, SpectralCover, SurfaceGeometry,
    YClass, classify, cli, grr_pushforward, ns_lattice, presets, spectral, verify,
)
from higgsnum.cli import CLIError, build_parser, encode, load_surface, main

from conftest import clear_memos, partitions_at_most

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_criterion_generic(capsys):
    doc = run_json(
        capsys, "criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "1", "--c2", "3"
    )
    assert doc["command"] == "criterion"
    assert doc["exact"] is True
    payload = doc["payload"]
    assert payload["regime"] == "Generic"
    assert payload["delta"] == [1]
    assert payload["n_points"] == 3
    assert payload["c2_gbun"] == 0


def test_criterion_no_solution_payload_not_error(capsys):
    doc = run_json(
        capsys, "criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "0", "--c2", "5"
    )
    payload = doc["payload"]
    assert payload["regime"] == "NoDeltaSolution"
    assert payload["delta"] is None
    assert payload["n_points"] is None
    assert payload["c2_gbun"] == "-5/4"
    assert payload["c2_gbun_integral"] is False


def test_criterion_empty_payload_not_error(capsys):
    doc = run_json(
        capsys, "criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "1", "--c2", "-1"
    )
    assert doc["payload"]["regime"] == "Empty"


def test_surface_preset(capsys):
    doc = run_json(capsys, "surface", "--surface", "hypersurface:4")
    payload = doc["payload"]
    assert payload["name"] == "hypersurface:4"
    assert payload["gram"] == [[4]]
    assert payload["canonical"] == [0]
    assert payload["chi_structure_sheaf"] == 2
    assert payload["signature"] == [1, 0]


def test_surface_from_file(capsys):
    doc = run_json(capsys, "surface", "--surface", str(DATA / "blowup_p2.json"))
    payload = doc["payload"]
    assert payload["ns_rank"] == 2
    assert payload["k_squared"] == 8
    assert payload["l_squared"] == 3
    assert payload["signature"] == [1, 1]
    assert payload["chi_structure_sheaf"] == 1


def test_surface_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc, out, err = run(capsys, "surface", "--surface", str(missing))
    assert rc == 2 and "cannot read" in err
    assert not err.startswith("validation error")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run(capsys, "surface", "--surface", str(bad))
    assert rc == 2 and "parse error" in err and "line 1" in err

    ragged = tmp_path / "ragged.json"
    ragged.write_text(
        json.dumps(
            {
                "name": "x",
                "ns_rank": 2,
                "gram": [[5], [1, 2]],
                "canonical": [0, 0],
                "polarization": [1, 0],
                "c2_top": 12,
            }
        )
    )
    rc, out, err = run(capsys, "surface", "--surface", str(ragged))
    assert rc == 2
    assert err == "validation error: gram matrix is not square: rows of lengths [1, 2]\n"

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(
        json.dumps(
            {
                "name": "x",
                "ns_rank": 1,
                "gram": [[0]],
                "canonical": [0],
                "polarization": [1],
                "c2_top": 12,
            }
        )
    )
    rc, out, err = run(capsys, "surface", "--surface", str(degenerate))
    assert rc == 2 and "degenerate" in err

    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"name": "x", "ns_rank": 1}))
    rc, out, err = run(capsys, "surface", "--surface", str(missing_field))
    assert rc == 2 and "missing field" in err


def test_bad_preset_degree(capsys):
    rc, out, err = run(capsys, "surface", "--surface", "hypersurface:x")
    assert rc == 2
    rc, out, err = run(capsys, "surface", "--surface", "hypersurface:0")
    assert rc == 2


@pytest.mark.parametrize("name, answer", [
    ("blowup:1.json", "parse error: bad blowup point count '1.json'\n"),
    ("hypersurface:5.json", "parse error: bad hypersurface degree '5.json'\n"),
    ("blowup:2", "blowup:2"),
    ("p2", "p2"),
    ("p1xp1", "p1xp1"),
])
def test_a_preset_name_shadows_a_surface_file(tmp_path, monkeypatch, capsys, name, answer):
    """--surface reads p2, p1xp1 and any value starting hypersurface: or
    blowup: as a preset name, whether or not a file of that name exists: a
    tail that is no integer is refused, and a preset answers as itself.
    ./<name> reads the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text((DATA / "blowup_p2.json").read_text(encoding="utf-8"))
    rc, out, err = run(capsys, "surface", "--surface", name)
    if answer.startswith("parse error"):
        assert (rc, out, err) == (2, "", answer)
    else:
        assert rc == 0 and json.loads(out)["payload"]["name"] == answer
    assert run_json(capsys, "surface", "--surface", f"./{name}")["payload"]["name"] == "blowup-p2"


def test_bad_vector_input(capsys):
    rc, out, err = run(
        capsys, "criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "1,2", "--c2", "0"
    )
    assert rc == 2
    assert err == "validation error: vector of length 2 does not fit lattice of rank 1\n"
    rc, out, err = run(
        capsys, "criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "a", "--c2", "0"
    )
    assert rc == 2


def test_unknown_flags_exit_two(capsys):
    assert run(capsys, "criterion", "--nope")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys, "criterion", "--surface", "p2")[0] == 2  # missing required


def test_deterministic_output(capsys):
    args = ("spectral", "--surface", "hypersurface:5", "-r", "3")
    rc1, out1, err1 = run(capsys, *args)
    rc2, out2, err2 = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_ybundle_payload(capsys):
    doc = run_json(capsys, "ybundle", "--surface", "hypersurface:5", "-r", "3")
    payload = doc["payload"]
    assert payload["eta_top_integral"] == 5
    assert payload["restriction_adjunction"] == [3]
    assert payload["dinfty"]["beta"]["deg0"] == 1
    assert payload["dinfty"]["alpha"]["deg1"] == [-1]
    assert payload["canonical"]["beta"]["deg0"] == -2
    assert payload["spectral_divisor"]["beta"]["deg0"] == 3


def test_spectral_payload(capsys):
    doc = run_json(capsys, "spectral", "--surface", "hypersurface:5", "-r", "2")
    payload = doc["payload"]
    assert payload["canonical"] == [2]
    assert payload["c2_tangent"] == 70
    assert payload["euler_number"] == 140
    assert payload["chi_structure_sheaf"] == 15
    assert payload["todd"]["deg2"] == "15/2"
    assert payload["cotangent_ch"]["deg1"] == [2]
    assert payload["cotangent_ch"]["deg2"] == -60


def test_grr_payload(capsys):
    doc = run_json(
        capsys, "grr", "--surface", "hypersurface:5", "-r", "2", "--delta", "3", "--points", "0"
    )
    payload = doc["payload"]
    assert payload["ch"] == {"rank": 2, "c1": [5], "ch2": "65/2"}
    assert payload["c2"] == 30
    assert payload["chi_cover"] == payload["chi_base"] == 30
    assert payload["chi_integral"] is True
    rc, out, err = run(
        capsys, "grr", "--surface", "hypersurface:5", "-r", "2", "--delta", "3", "--points", "-1"
    )
    assert rc == 2
    assert err.startswith("validation error: ")
    assert err.count("\n") == 1


def test_branches_payload(capsys):
    doc = run_json(
        capsys, "branches", "--surface", "hypersurface:5", "-r", "2", "--c1", "1", "--c2", "3"
    )
    payload = doc["payload"]
    assert payload["regime"] == "Generic"
    assert payload["n_total"] == 3
    assert payload["betas"] == [[1], [0]]
    assert payload["components"] == [[3, 0], [2, 1]]
    assert payload["count"] == 2
    assert payload["rank2_fixed"]["count"] == 2
    assert payload["rank2_fixed"]["instanton_branch"] is True


def test_branches_rank2_fixed_is_the_component_list(capsys):
    for n in range(7):
        doc = run_json(
            capsys, "branches", "--surface", "hypersurface:5", "-r", "2", "--c1", "1",
            "--c2", str(n),
        )
        payload = doc["payload"]
        assert payload["rank2_fixed"]["components"] == payload["components"]
        assert payload["count"] == payload["rank2_fixed"]["count"] == n // 2 + 1


def test_branches_empty_regime_is_payload(capsys):
    doc = run_json(
        capsys, "branches", "--surface", "hypersurface:5", "-r", "2", "--c1", "1", "--c2", "-2"
    )
    payload = doc["payload"]
    assert payload["regime"] == "Empty"
    assert payload["components"] is None
    assert payload["count"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--surface", "hypersurface:5", "-r", "2", "--c1=1,2", "--c2=3"],
        ["--surface", "hypersurface:5", "-r", "0", "--c1=1", "--c2=3"],
        ["--surface", str(DATA / "no_such_surface.json"), "-r", "2", "--c1=1", "--c2=3"],
    ],
    ids=["c1-length", "rank-0", "missing-file"],
)
def test_refused_branches_query_writes_no_stdout(capsys, argv):
    rc, out, err = run(capsys, "branches", *argv)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1


def test_empty_regime_branches_writes_one_whole_document(capsys):
    rc, out, err = run(
        capsys, "branches", "--surface", "hypersurface:5", "-r", "2", "--c1", "1", "--c2", "-2"
    )
    assert rc == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def count_calls(fn, call):
    """Calls that enter fn's code while call() runs, under whatever name it is bound."""
    code, calls = fn.__code__, 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def test_one_transport_per_grr_and_one_inertia_per_surface(tmp_path, capsys):
    """inertia runs once for a file's text on a cold memo, not at all on a warm
    one, and once again after the file is edited."""
    grr = ["grr", "--surface", "hypersurface:5", "-r", "3", "--delta", "1", "--points", "2"]
    assert count_calls(spectral.grr_pushforward, lambda: main(grr)) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["chi_cover"] == payload["chi_base"] == 18
    path = tmp_path / "blowup.json"
    path.write_text((DATA / "blowup_p2.json").read_text())
    surface = ["surface", "--surface", str(path)]
    clear_memos()
    for calls, name in [(1, "blowup-p2"), (0, "blowup-p2"), (1, "edited"), (0, "edited")]:
        if name == "edited":
            path.write_text(json.dumps({**BLOWUP, "name": name}))
        assert count_calls(ns_lattice.inertia, lambda: main(surface)) == calls
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["name"], payload["signature"]) == (name, [1, 1])
    clear_memos()
    assert count_calls(ns_lattice.inertia, lambda: main(["surface", "--surface", "p1xp1"])) == 1
    assert count_calls(ns_lattice.inertia, lambda: main(["surface", "--surface", "p1xp1"])) == 0


def test_one_cover_per_query_built_without_pairing_or_inertia(capsys):
    """spectral and grr build their cover once, in SpectralCover.__init__,
    whose surface fields come from the base's stored K^2, L^2 and K.L: no
    pairing, lattice check or surface check runs inside it, and on a warm
    memo inertia runs nowhere in the query."""
    init = SpectralCover.__init__.__code__
    watched = {f.__code__: f.__qualname__ for f in (
        ns_lattice.pair, ns_lattice.pair_num, ns_lattice.inertia, NSLattice.__init__,
        SurfaceGeometry.__init__)}
    for argv in (["spectral", "--surface", "hypersurface:5", "-r", "3"],
                 ["grr", "--surface", "blowup:3", "-r", "4", "--delta", "1,0,0,0",
                  "--points", "2"]):
        assert main(argv) == 0  # fill the surface memo
        builds, depth, inside = 0, 0, []

        def profile(frame, event, arg):
            nonlocal builds, depth
            code = frame.f_code
            if code is init:
                builds += event == "call"
                depth += {"call": 1, "return": -1}.get(event, 0)
            elif event == "call" and depth and code in watched:
                inside.append(watched[code])

        sys.setprofile(profile)
        try:
            assert main(argv) == 0
        finally:
            sys.setprofile(None)
        assert (builds, depth, inside) == (1, 0, []), argv
        assert count_calls(ns_lattice.inertia, lambda: main(argv)) == 0
        capsys.readouterr()


def test_ybundle_checks_only_the_classes_built_from_the_surface(capsys):
    """Neither public constructor runs: K and L were checked with the surface,
    so the divisor classes eta, r eta, D_inf and the canonical class are
    built from their numerators unchecked, and so is every ring result."""
    argv = ["ybundle", "--surface", "p2", "-r", "3"]
    main(argv)
    first = capsys.readouterr().out
    assert count_calls(ChowClass.__init__, lambda: main(argv)) == 0
    assert count_calls(YClass.__init__, lambda: main(argv)) == 0
    assert capsys.readouterr().out == first * 2
    assert json.loads(first)["payload"]["eta_top_integral"] == 1


def test_edited_surface_file_gives_the_new_answer(tmp_path, capsys):
    """The memo is keyed on the file's text: same path, same size, new lattice."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(BLOWUP))
    argv = ("criterion", "--surface", str(path), "-r", "2", "--c1=0,1", "--c2=3")
    before = run_json(capsys, *argv)["payload"]
    # the plane blown up in a point again, its basis permuted: E before H
    path.write_text(json.dumps({**BLOWUP, "gram": [[-1, 0], [0, 1]], "canonical": [1, -3],
                                "polarization": [-1, 2]}))
    assert len(path.read_text()) == len(json.dumps(BLOWUP))
    after = run_json(capsys, *argv)["payload"]
    assert (before["regime"], before["delta"]) == ("Generic", [1, 0])
    assert (after["regime"], after["delta"]) == ("NoDeltaSolution", None)
    assert run_json(capsys, "surface", "--surface", str(path))["payload"]["gram"] == [
        [-1, 0], [0, 1]]


def test_refused_file_is_refused_on_every_call(tmp_path, capsys):
    """Refusals are not memoized: each call validates again, with the same line."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({**BLOWUP, "gram": [[1, 0], [0, 1]]}))
    clear_memos()
    answers = []
    for _ in range(3):
        calls = count_calls(ns_lattice.inertia, lambda: answers.append(
            run(capsys, "surface", "--surface", str(path))))
        assert calls == 1
    assert answers == [(2, "", "validation error: signature must be (1, 1), got (2, 0)\n")] * 3
    assert cli._parse_surface.cache_info().currsize == 0


def test_table_format(capsys):
    rc, out, err = run(capsys, "surface", "--surface", "p2", "--format", "table")
    assert rc == 0
    assert "payload.chi_structure_sheaf" in out
    assert '"p2"' in out


def test_verify_single_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "olympic")
    payload = doc["payload"]
    assert payload["all_passed"] is True
    assert payload["seed"] == 1729
    assert len(payload["suites"]) == 1
    assert payload["suites"][0]["name"] == "olympic"
    assert payload["suites"][0]["checks"] == 12
    assert payload["suites"][0]["failures"] == []


def test_failing_suite_exits_one_with_the_whole_envelope(capsys, monkeypatch):
    def failing(rng):
        yield True, "kept"
        yield False, "forced failure"

    monkeypatch.setitem(verify._SUITES, "olympic", failing)
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    rc, out, err = run(capsys, "verify", "--suite", "olympic")
    assert (rc, err) == (1, "")
    assert json.loads(out) == {
        "command": "verify",
        "input": {"suite": "olympic"},
        "exact": True,
        "payload": {
            "seed": 1729,
            "suites": [
                {
                    "name": "olympic",
                    "checks": 2,
                    "failures": [
                        "forced failure; reproduce: HIGGS_SEED=1729 higgsnum verify --suite olympic"
                    ],
                    "passed": False,
                }
            ],
            "all_passed": False,
        },
    }
    rc, out, err = run(capsys, "verify", "--suite", "olympic", "--format", "table")
    assert (rc, err) == (1, "")
    assert "payload.all_passed  false\n" in out


def test_failure_detail_reproduces_with_its_command(capsys, monkeypatch):
    """The printed command redraws the failing suite's inputs: same detail."""
    def failing(rng):
        yield True, "kept"
        yield False, f"drew {rng.getrandbits(64)}"

    monkeypatch.setitem(verify._SUITES, "hodge", failing)
    monkeypatch.setenv("HIGGS_SEED", "-31")
    rc, out, err = run(capsys, "verify")
    assert (rc, err) == (1, "")
    rows = json.loads(out)["payload"]["suites"]
    assert [s["name"] for s in rows if not s["passed"]] == ["hodge"]
    (detail,) = rows[-1]["failures"]
    command = detail.rpartition("; reproduce: ")[2]
    env, prog, *argv = command.split()
    assert (env, prog, argv) == ("HIGGS_SEED=-31", "higgsnum", ["verify", "--suite", "hodge"])
    monkeypatch.setenv(*env.split("="))
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (1, "")
    assert json.loads(out)["payload"]["suites"][0]["failures"] == [detail]


def test_verify_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("HIGGS_SEED", "4242")
    doc = run_json(capsys, "verify", "--suite", "partition")
    assert doc["payload"]["seed"] == 4242
    assert doc["payload"]["all_passed"] is True
    monkeypatch.setenv("HIGGS_SEED", "not-a-number")
    rc, out, err = run(capsys, "verify", "--suite", "partition")
    assert rc == 2


def test_every_suite_passes_at_other_seeds():
    """The suites hold on any stream, with the check counts of the default seed."""
    counts = {row["name"]: row["checks"] for row in verify.run_suites(verify.SUITE_NAMES, 1729)}
    for seed in (0, 131, -7, 2**70):
        rows = verify.run_suites(verify.SUITE_NAMES, seed)
        assert [row["failures"] for row in rows] == [[]] * len(rows)
        assert {row["name"]: row["checks"] for row in rows} == counts


def test_verify_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify", "--suite", "discriminant")
    rc2, out2, _ = run(capsys, "verify", "--suite", "discriminant")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_encode_fractions():
    from fractions import Fraction

    assert encode(Fraction(65, 2)) == "65/2"
    assert encode(Fraction(-5, 4)) == "-5/4"
    assert encode(Fraction(6, 3)) == 2
    assert encode(Fraction(5, -4)) == "-5/4"  # normalized denominator stays positive


# every preset family, at each size up to 9 points and at the largest blowup
SCHEMA_PRESETS = ["p2", "p1xp1", *(f"hypersurface:{d}" for d in range(1, 7)),
                  *(f"blowup:{k}" for k in (*range(10), presets.MAX_BLOWUP))]


def test_surface_files_are_the_builder_and_the_surface_payload(tmp_path, capsys):
    """The surface file schema is presets.surface's parameters, in order, and the
    first six keys of a preset's `surface` payload, as a file, load to that preset."""
    assert tuple(cli.SURFACE_FIELDS) == tuple(inspect.signature(presets.surface).parameters)
    path = tmp_path / "surface.json"
    for name in SCHEMA_PRESETS:
        payload = run_json(capsys, "surface", "--surface", name)["payload"]
        path.write_text(json.dumps(dict(list(payload.items())[:len(cli.SURFACE_FIELDS)])))
        assert load_surface(str(path)) == presets.by_name(name), name


def test_load_surface_preset_roundtrip():
    x = load_surface("p2")
    assert x.name == "p2"
    with pytest.raises(CLIError):
        load_surface("/no/such/file.json")


@pytest.mark.parametrize("rank", ["0", "-2"])
def test_ybundle_nonpositive_rank_is_one_line_refusal(capsys, rank):
    rc, out, err = run(capsys, "ybundle", "--surface", "p2", "-r", rank)
    assert rc == 2
    assert out == ""
    assert err.startswith("validation error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, start",
    [
        (b"\xff\xfe{", "cannot read surface "),
        (b"[" * 100_000, "parse error in "),
        (b'{"c2_top": 1' + b"0" * 5000 + b"}", "parse error in "),
    ],
    ids=["not-utf8", "deep-nesting", "huge-integer"],
)
def test_unreadable_surface_file_is_one_line_refusal(tmp_path, capsys, content, start):
    path = tmp_path / "surface.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, "surface", "--surface", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"{start}{str(path)!r}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_non_characteristic_canonical_class_is_one_line_refusal(tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(
        {"name": "x", "ns_rank": 1, "gram": [[1]], "canonical": [0], "polarization": [1],
         "c2_top": 12}
    ))
    for argv in (["surface"], ["spectral", "-r", "2"], ["grr", "-r", "1", "--delta=1"]):
        rc, out, err = run(capsys, *argv, "--surface", str(path))
        assert rc == 2
        assert out == ""
        assert err == (
            "validation error: canonical class is not characteristic: "
            "K.e_0 = 0 and e_0^2 = 1 differ mod 2\n"
        )


BLOWUP = json.loads((DATA / "blowup_p2.json").read_text())


# a surface file's fields replaced by values of the right JSON shape that
# no valid surface has, and the library's refusal of them
MALFORMED_RANK2 = {
    "bool-gram-entry": ("gram", [[1, True], [0, -1]], "gram entries must be integers, got True"),
    **{f"last-row-{name}": ("gram", [[1, 0], [0, entry]],
                            f"gram entries must be integers, got {entry!r}")
       for name, entry in zip(["true", "float", "null", "string", "list"],
                              [True, 1.5, None, "1", [1]])},
    "float-canonical": ("canonical", [-3, 1.0], "integer coordinates required, got 1.0"),
    "one-gram-row": ("gram", [[1, 0]], "gram matrix must be 2x2, got rows of lengths [2]"),
    "short-canonical": ("canonical", [-3], "vector of length 1 does not fit lattice of rank 2"),
    "zero-rank": ("ns_rank", 0, "rank must be a positive integer, got 0"),
    "negative-rank": ("ns_rank", -1, "rank must be a positive integer, got -1"),
}


@pytest.mark.parametrize("field, value, message", MALFORMED_RANK2.values(),
                         ids=MALFORMED_RANK2.keys())
def test_malformed_rank2_file_is_one_line_refusal(tmp_path, capsys, field, value, message):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({**BLOWUP, field: value}))
    rc, out, err = run(capsys, "surface", "--surface", str(path))
    assert (rc, out) == (2, "")
    assert err == f"validation error: {message}\n"


# surfaces whose refusal computes a number past the int-to-text limit from
# entries of 2,500 to 3,000 digits, and the text that names it
WIDE = int("3" * 3000)
LARGE_NUMBERS = {
    "negative-polarization": {"polarization": [0, 10**2500]},
    "non-noether": {"canonical": [10**2500, 1]},
    "non-characteristic": {"gram": [[2, WIDE], [WIDE, 0]], "canonical": [0, WIDE],
                           "polarization": [1, 0], "c2_top": 0},
}
LARGE_NUMBER_REFUSALS = [
    "polarization must have positive self-intersection, got a negative number",
    f"Noether integrality fails: K^2 + c2 = {(10**5000 + 3) % 12} mod 12 is not divisible by 12",
    "canonical class is not characteristic: K.e_0 = 1 mod 2 and e_0^2 = 2 differ mod 2",
]


WRONG_VALUES = {
    **{key: {field: value} for key, (field, value, _) in MALFORMED_RANK2.items()},
    "ragged-gram": {"gram": [[1], [0, -1]]},
    "string-rows": {"gram": ["10", "0-"]},
    "dict-rows": {"gram": [{"a": 1}, {"b": -1}]},
    "int-rows": {"gram": [1, -1]},
    "no-rows": {"gram": []},
    "long-polarization": {"polarization": [2, -1, 0]},
    "rank-above-rows": {"ns_rank": 3},
    "long-int-rows": {"gram": [1] * 10**5},
    "long-list-entry": {"gram": [[1, [0] * 10**5], [0, -1]]},
    "long-list-coordinate": {"canonical": [[0] * 10**5, 1]},
    "many-rows": {"gram": [[1]] * 10**5},
    "many-ragged-rows": {"ns_rank": 10**5, "gram": [[1]] * 10**5},
    **LARGE_NUMBERS,
}


def library_refusal(build):
    """The text of the HiggsError that build(), a call of library constructors, raises."""
    with pytest.raises(HiggsError) as info:
        build()
    assert not isinstance(info.value, CLIError)
    return str(info.value)


@pytest.mark.parametrize("fields", WRONG_VALUES.values(), ids=WRONG_VALUES.keys())
def test_wrong_surface_values_are_refused_by_the_library(tmp_path, capsys, fields):
    """A file the CLI parses is judged by the constructors alone, word for word,
    in one short line however long the value it refuses."""
    data = {**BLOWUP, **fields}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    message = library_refusal(lambda: SurfaceGeometry(
        NSLattice(data["ns_rank"], data["gram"]), NSVector(data["canonical"]),
        NSVector(data["polarization"]), data["c2_top"], data["name"]))
    assert len(message) < 100
    assert run(capsys, "surface", "--surface", str(path)) == (
        2, "", f"validation error: {message}\n")


WRONG_LENGTHS = [
    ("criterion", "p2", 2, (1, 2), lambda x, r, v: classify(x, HiggsNumerics(r, v, 0))),
    ("branches", "p1xp1", 2, (1,), lambda x, r, v: classify(x, HiggsNumerics(r, v, 0))),
    ("grr", "p1xp1", 2, (1,), lambda x, r, v: grr_pushforward(SpectralCover(x, r), v, 0)),
    ("grr", "blowup:2", 3, (1, 2), lambda x, r, v: grr_pushforward(SpectralCover(x, r), v, 0)),
]


@pytest.mark.parametrize("command, surface, r, coords, compute", WRONG_LENGTHS,
                         ids=[f"{c[0]}-{c[1]}" for c in WRONG_LENGTHS])
def test_wrong_length_vector_is_refused_by_the_library(capsys, command, surface, r, coords,
                                                       compute):
    flag = "--delta" if command == "grr" else "--c1"
    argv = [command, "--surface", surface, "-r", str(r), f"{flag}={','.join(map(str, coords))}"]
    if command != "grr":
        argv.append("--c2=0")
    message = library_refusal(lambda: compute(presets.by_name(surface), r, NSVector(coords)))
    assert run(capsys, *argv) == (2, "", f"validation error: {message}\n")


PARSER_SEQUENCE = [
    ["criterion", "--surface", "p2", "-r", "2", "--c1", "1", "--c2", "x"],
    ["--help"],
    ["surface", "--surface", "p2"],
    ["ybundle", "--surface", "hypersurface:4", "-r", "2"],
    ["spectral", "--surface", "p2", "-r", "3", "--format", "table"],
    ["grr", "--surface", "hypersurface:5", "-r", "2", "--delta", "1", "--points", "2"],
    ["criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "1", "--c2", "3"],
    ["branches", "--surface", str(DATA / "blowup_p2.json"), "-r", "2", "--c1=2,-1", "--c2=4"],
    ["verify", "--suite", "olympic"],
    ["branches", "--help"],
    ["nosuchcommand"],
]


def test_reused_parser_answers_like_a_first_call(capsys, monkeypatch):
    # help and usage text wrap at COLUMNS; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    src = str(Path(higgsnum.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    script = "import sys\nfrom higgsnum.cli import main\nsys.exit(main(sys.argv[1:]))"
    assert build_parser() is build_parser()
    for argv in PARSER_SEQUENCE:
        first = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert run(capsys, *argv) == (first.returncode, first.stdout, first.stderr), argv


@pytest.mark.parametrize("missing", [False, True], ids=["p2", "missing-file"])
def test_python_m_answers_like_main(tmp_path, capsys, missing):
    """`python -m higgsnum` goes through __main__.py and main_entry to the same bytes and exit."""
    argv = ["surface", "--surface", str(tmp_path / "missing.json") if missing else "p2"]
    src = str(Path(higgsnum.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "higgsnum", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == (2 if missing else 0)
    assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)


def test_gone_reader_ends_the_run_quietly():
    """`higgsnum branches ... | head -c 10`: the first bytes, then EXIT_NO_STDOUT
    and an empty stderr, not a BrokenPipeError traceback."""
    src = str(Path(higgsnum.__file__).parent.parent)
    # 50,688 components in about 3.2 MB, far more than a pipe buffers
    argv = ["branches", "--surface", "p2", "-r", "4", "--c1=-6", "--c2=200"]
    proc = subprocess.Popen([sys.executable, "-m", "higgsnum", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (head, proc.wait(timeout=60), err) == (b'{\n  "comma', cli.EXIT_NO_STDOUT, b"")


def test_closed_stdout_ends_the_run_quietly():
    """`higgsnum surface --surface p2 >&-`: EXIT_NO_STDOUT and an empty stderr."""
    src = str(Path(higgsnum.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "higgsnum", "surface", "--surface", "p2"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_NO_STDOUT, b"", b"")


def test_closed_stderr_keeps_the_exit_code():
    """`higgsnum surface --surface nope 2>&-`: exit 2 and no output, not exit 1."""
    src = str(Path(higgsnum.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "higgsnum", "surface", "--surface", "nope"],
                          stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, b"")


def run_batch(lines):
    """batch over lines: (exit code, the answer of each line as JSON)."""
    out = io.StringIO()
    code = cli.batch(lines, out)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def test_batch_line_edited_between_lines_gives_the_new_answer(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(BLOWUP))
    line = json.dumps(["surface", "--surface", str(path)])

    def lines():
        yield line
        path.write_text(json.dumps({**BLOWUP, "name": "edited"}))
        yield line
        path.write_text(json.dumps({**BLOWUP, "gram": [[1, 0], [0, 1]]}))
        yield line

    code, answers = run_batch(lines())
    assert code == 2
    assert [a["payload"]["name"] for a in answers[:2]] == ["blowup-p2", "edited"]
    assert answers[2] == {"error": "validation error: signature must be (1, 1), got (2, 0)",
                          "exit": 2}


def test_batch_failing_verify_line_exits_one(monkeypatch):
    def failing(rng):
        yield False, "forced failure"

    monkeypatch.setitem(verify._SUITES, "olympic", failing)
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    lines = ['["verify", "--suite", "olympic"]', '["surface", "--surface", "p2"]']
    code, answers = run_batch(lines)
    assert code == 1
    assert answers[0]["payload"]["all_passed"] is False
    assert answers[1]["payload"]["name"] == "p2"


BAD_LINES = [
    ("not-json", "{", "parse error in line 1: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("blank", "\n", "parse error in line 1: Expecting value: line 1 column 1 (char 0)"),
    ("cut-short", '{"a": \n', "parse error in line 1: Expecting value: line 1 column 7 (char 6)"),
    ("cut-short-crlf", b'{"a": \r\n',
     "parse error in line 1: Expecting value: line 1 column 7 (char 6)"),
    ("not-utf8", b"\xff\n", "parse error in line 1: 'utf-8' codec can't decode byte 0xff in "
     "position 0: invalid start byte"),
    ("not-a-list", '{"surface": "p2"}', "parse error in line 1: expected a JSON list of strings"),
    ("not-strings", '["surface", "--surface", 2]',
     "parse error in line 1: expected a JSON list of strings"),
    ("bad-flag", '["criterion", "--surface", "p2", "-r", "2", "--c1", "1", "--c2", "x"]',
     "higgsnum criterion: error: argument --c2: invalid int value: 'x'"),
    ("no-command", "[]", "higgsnum: error: the following arguments are required: command"),
    ("help", '["surface", "--help"]', "parse error: help is not a query"),
    ("nested", '["batch"]',
     "parse error: batch reads its queries from stdin, not from a batch line"),
    ("refusal", '["surface", "--surface", "blowup:65"]',
     "parse error: blowup point count must be at most 64, got 65"),
]


@pytest.mark.parametrize("line, error", [b[1:] for b in BAD_LINES], ids=[b[0] for b in BAD_LINES])
def test_batch_refuses_a_bad_line_and_carries_on(capsys, line, error):
    code, answers = run_batch([line, '["surface", "--surface", "p2"]'])
    assert code == 2
    assert answers[0] == {"error": error, "exit": 2}
    assert answers[1]["payload"]["name"] == "p2"
    assert capsys.readouterr() == ("", "")


def test_batch_runs_inertia_once_per_distinct_surface_text(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(BLOWUP))
    second.write_text(json.dumps({**BLOWUP, "name": "other"}))
    commands = (["surface"], ["spectral", "-r", "2"],
                ["criterion", "-r", "2", "--c1=0,1", "--c2=3"])
    lines = [json.dumps(argv + ["--surface", str(path)])
             for path in (first, second, first) for argv in commands]
    lines += ['["surface", "--surface", "p1xp1"]'] * 3
    clear_memos()
    answers = []
    assert count_calls(ns_lattice.inertia, lambda: answers.append(run_batch(lines))) == 3
    code, docs = answers[0]
    assert code == 0 and len(docs) == 12
    assert [doc["command"] for doc in docs[:3]] == ["surface", "spectral", "criterion"]


def test_batch_from_a_shell():
    """`python -m higgsnum batch`: one line per line, and the largest exit code."""
    src = str(Path(higgsnum.__file__).parent.parent)
    lines = ['["surface", "--surface", "p2"]', "oops", '["surface", "--surface", "p1xp1"]']
    proc = subprocess.run([sys.executable, "-m", "higgsnum", "batch"], input="\n".join(lines),
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    answers = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [a.get("exit", 0) for a in answers] == [0, 2, 0]
    assert answers[2]["payload"]["gram"] == [[0, 1], [1, 0]]
    for stdin in (subprocess.DEVNULL, None):
        # an empty stdin, and a closed one, which Python reads as sys.stdin None
        proc = subprocess.run(
            [sys.executable, "-m", "higgsnum", "batch"], stdin=stdin, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src},
            preexec_fn=None if stdin is not None else lambda: os.close(0))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("name, rank, k2, l2", [("p1xp1", 2, 8, 2), ("blowup:0", 1, 9, 1),
                                                ("blowup:1", 2, 8, 3), ("blowup:8", 9, 1, 1)])
def test_new_presets_answer(capsys, name, rank, k2, l2):
    payload = run_json(capsys, "surface", "--surface", name)["payload"]
    assert (payload["name"], payload["ns_rank"], payload["k_squared"], payload["l_squared"]) == (
        name, rank, k2, l2)
    assert payload["signature"] == [1, rank - 1]


QUERIES = {
    "surface": ["surface", "--surface", "p2"],
    "ybundle": ["ybundle", "--surface", "p2", "-r", "2"],
    "spectral": ["spectral", "--surface", "p2", "-r", "2"],
    "criterion": ["criterion", "--surface", "p2", "-r", "2", "--c1", "1", "--c2", "3"],
    "branches": ["branches", "--surface", "p2", "-r", "2", "--c1", "1", "--c2", "3"],
    "grr": ["grr", "--surface", "p2", "-r", "2", "--delta", "1"],
}


def without_flag(argv, flag):
    """argv with the flag and its value removed."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


BAD_FLAGS = {
    **{f"{name}-no{flag}": without_flag(argv, flag) for name, argv in QUERIES.items()
       for flag in argv[1::2] if flag.startswith("-")},
    "rank-not-int": ["spectral", "--surface", "p2", "-r", "two"],
    "c2-not-int": QUERIES["criterion"][:-1] + ["3.5"],
    "points-not-int": QUERIES["grr"] + ["--points", "1/2"],
    "rank-past-int-limit": ["spectral", "--surface", "p2", "-r", "9" * 5000],
    "unknown-flag": QUERIES["surface"] + ["--colour"],
    "unknown-choice": ["verify", "--suite", "nosuch"],
    "unknown-command": ["nosuchcommand"],
    "empty": [],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_bad_flags_are_one_line_refusals_like_batch_lines(capsys, argv):
    """A bad flag is refused by _query like any other input: exit 2, no stdout,
    one stderr line, and that line is what batch answers for the same argv."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1, err
    code, answers = run_batch([json.dumps(argv)])
    assert (code, answers) == (2, [{"error": err[:-1], "exit": 2}])


def test_bad_flag_refusal_is_argparse_last_line(capsys):
    assert run(capsys, "criterion", "--surface", "p2", "-r", "2", "--c1", "1") == (
        2, "", "higgsnum criterion: error: the following arguments are required: --c2\n")
    assert run(capsys, "criterion", "--surface", "p2", "-r", "x", "--c1=1", "--c2=0") == (
        2, "", "higgsnum criterion: error: argument -r/--rank: invalid int value: 'x'\n")


# a flag's integers are read by int(): (argv, the input key and its echo,
# the payload key and its value)
INT_SYNTAX = {
    "rank-spaces": (["spectral", "--surface", "p2", "-r", " 3 "], "rank", 3, "r", 3),
    "rank-underscore": (["spectral", "--surface", "p2", "-r=3_0"], "rank", 30, "r", 30),
    "c1-underscore": (QUERIES["criterion"][:5] + ["--c1=1_0", "--c2", "0"],
                      "c1", "1_0", "c1", [10]),
}


@pytest.mark.parametrize("argv, key, echo, field, value", INT_SYNTAX.values(),
                         ids=INT_SYNTAX.keys())
def test_a_flag_integer_takes_the_syntax_of_int(capsys, argv, key, echo, field, value):
    """Spaces around an integer and "_" between its digits are int()'s syntax,
    so they answer; -r, --c2 and --points echo the int, --c1 and --delta
    their text."""
    doc = run_json(capsys, *argv)
    assert (doc["input"][key], doc["payload"][field]) == (echo, value)


def test_every_parser_refuses_through_cli_error():
    """Each subcommand refuses a missing required flag and a bad value of a
    typed or choice flag with a CLIError in its own name, so every
    subparser is a _Parser too."""
    parser = build_parser()
    assert len(parser.tables) == 8 and type(parser) is cli._Parser
    refusing = set()
    for name, (flags, required, _) in parser.tables.items():
        bad = [[name]] if required else []
        bad += [[name, option, "x"] for option, action in flags.items()
                if action.type is not None or action.choices is not None]
        for argv in bad:
            with pytest.raises(CLIError, match=f"^higgsnum {name}: error: "):
                parser.parse_args(argv)
            refusing.add(name)
    assert refusing == set(parser.tables) - {"batch"}
    with pytest.raises(CLIError, match="^higgsnum spectral: error: argument -r/--rank: "):
        parser.parse_args(["spectral", "--surface", "p2", "-r", "x"])


# each subcommand's flags in help order, as (option strings, dest, type,
# choices, default, required), and the keys of its template in order
SUITES = ("all", "ring", "chi", "adjunction", "olympic", "discriminant", "partition", "hodge")
DECLARED = {
    "surface": ([(("--surface",), "surface", None, None, None, True),
                 (("--format",), "format", None, ("json", "table"), "json", False)],
                ["surface", "format", "run"]),
    "ybundle": ([(("--surface",), "surface", None, None, None, True),
                 (("--format",), "format", None, ("json", "table"), "json", False),
                 (("-r", "--rank"), "rank", int, None, None, True)],
                ["surface", "format", "rank", "run"]),
    "spectral": ([(("--surface",), "surface", None, None, None, True),
                  (("--format",), "format", None, ("json", "table"), "json", False),
                  (("-r", "--rank"), "rank", int, None, None, True)],
                 ["surface", "format", "rank", "run"]),
    "criterion": ([(("--surface",), "surface", None, None, None, True),
                   (("--format",), "format", None, ("json", "table"), "json", False),
                   (("-r", "--rank"), "rank", int, None, None, True),
                   (("--c1",), "c1", None, None, None, True),
                   (("--c2",), "c2", int, None, None, True)],
                  ["surface", "format", "rank", "c1", "c2", "run"]),
    "branches": ([(("--surface",), "surface", None, None, None, True),
                  (("--format",), "format", None, ("json", "table"), "json", False),
                  (("-r", "--rank"), "rank", int, None, None, True),
                  (("--c1",), "c1", None, None, None, True),
                  (("--c2",), "c2", int, None, None, True)],
                 ["surface", "format", "rank", "c1", "c2", "run"]),
    "grr": ([(("--surface",), "surface", None, None, None, True),
             (("--format",), "format", None, ("json", "table"), "json", False),
             (("-r", "--rank"), "rank", int, None, None, True),
             (("--delta",), "delta", None, None, None, True),
             (("--points",), "points", int, None, 0, False)],
            ["surface", "format", "rank", "delta", "points", "run"]),
    "batch": ([], ["run", "surface"]),
    "verify": ([(("--suite",), "suite", None, SUITES, "all", False),
                (("--format",), "format", None, ("json", "table"), "json", False)],
               ["suite", "format", "run", "surface"]),
}


def test_the_parser_declares_what_is_pinned():
    """Each subcommand, in order, declares the flags pinned in DECLARED, in
    help order, and its template holds the pinned keys in order; its run is
    its own handler."""
    parser = build_parser()
    assert list(parser.tables) == list(DECLARED)
    for name, (flags, required, template) in parser.tables.items():
        actions = list(dict.fromkeys(flags.values()))
        assert [(tuple(a.option_strings), a.dest, a.type, a.choices, a.default, a.required)
                for a in actions] == DECLARED[name][0], name
        assert list(template) == DECLARED[name][1], name
        assert required == {a.dest for a in actions if a.required}, name
        assert template["run"] is (None if name == "batch" else getattr(cli, f"_cmd_{name}"))


def test_no_option_string_looks_like_a_negative_number():
    """argparse reads a separate -3 as a value because no option string of any
    of its parsers looks like a negative number; _read takes such a word by
    argparse's own pattern, so that pattern is the one argparse uses."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in [parser, *subparsers.choices.values()]:
        assert p._has_negative_number_optionals == [], p.prog
        assert p._negative_number_matcher.pattern == cli._NEGATIVE_NUMBER.pattern, p.prog


# argvs that the one-pass dispatch must read as argparse's top pass does: one
# well-formed query per subcommand, with --format table and in the
# --flag=value forms, and the edge cases of argparse's own reading
DISPATCH = {
    **QUERIES,
    "verify": ["verify", "--suite", "olympic"],
    "batch": ["batch"],
    **{f"{name}-table": argv + ["--format", "table"] for name, argv in QUERIES.items()},
    "criterion-equals": ["criterion", "--surface=p2", "-r=2", "--c1=1", "--c2=3", "--format=table"],
    "grr-equals": ["grr", "--surface=p1xp1", "--rank=3", "--delta=1,-1", "--points=2"],
    "branches-joined": ["branches", "--surface=p2", "-r3", "--c1=0", "--c2=2"],
    "verify-equals": ["verify", "--suite=olympic", "--format=table"],
    "help": ["-h"],
    "help-long": ["--help"],
    "help-before-command": ["-h", "surface"],
    "help-after-command": ["surface", "-h"],
    "help-after-flags": ["criterion", "--surface", "p2", "-h"],
    "help-abbreviated": ["surface", "--he"],
    "help-unknown-command": ["nosuch", "-h"],
    "help-batch": ["batch", "-h"],
    "abbreviation": ["surface", "--surf", "p2"],
    "ambiguous-abbreviation": ["criterion", "--surface", "p2", "-r", "2", "--c", "1", "--c2", "3"],
    "negative-rank": ["spectral", "--surface", "p2", "-r", "-2"],
    "negative-vector": ["criterion", "--surface", "p2", "-r", "2", "--c1", "-3", "--c2", "0"],
    "negative-c2": QUERIES["branches"][:-1] + ["-3"],
    "negative-unicode-digits": QUERIES["criterion"][:-1] + ["-\u0663"],
    "dashed-vector": ["criterion", "--surface", "p2", "-r", "2", "--c1", "-1,1", "--c2", "0"],
    "repeated-flag": ["spectral", "--surface", "p2", "-r", "2", "-r", "3"],
    "trailing-dashes-word": QUERIES["surface"] + ["--", "x"],
    "trailing-dashes": QUERIES["surface"] + ["--"],
    "dashes-before-flags": ["surface", "--", "--surface", "p2"],
    "leading-dashes": ["--"] + QUERIES["surface"],
    "only-dashes": ["--"],
    "empty": [],
    "unknown-command": ["nosuch"],
    "command-case": ["Surface"] + QUERIES["surface"][1:],
    "verify-word": ["verify", "x"],
    "batch-word": ["batch", "x"],
    "unrecognized-words": QUERIES["surface"] + ["x", "y"],
    "unknown-flag": QUERIES["surface"] + ["--colour"],
    "no-flags": ["surface"],
}


def parse_outcome(parse, argv):
    """What parse(argv) gives: the namespace's items in order, a refusal, or
    argparse's exit with the help it wrote."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            args = parse(argv)
        except CLIError as exc:
            return "refused", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue()
    return "args", list(vars(args).items())


def query_outcome(argv, one_line, capsys):
    """_query(argv, one_line) as text: (exit code, the answer or refusal line
    or None, what was written to stdout, as help is)."""
    code, answer = cli._query(argv, one_line)
    if type(answer) is list:
        text = io.StringIO()
        cli._print_envelope(answer, text.write)
        answer = text.getvalue()
    return code, answer, capsys.readouterr().out


@pytest.mark.parametrize("argv", DISPATCH.values(), ids=DISPATCH.keys())
def test_dispatch_reads_argv_as_the_top_parser(capsys, monkeypatch, argv):
    """_parse gives the namespace, refusal or help of build_parser().parse_args,
    and _query the same answer or refusal line in both layouts."""
    def reference(argv):
        return build_parser().parse_args(argv)

    assert parse_outcome(cli._parse, argv) == parse_outcome(reference, argv)
    for one_line in (False, True):
        ours = query_outcome(argv, one_line, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse", reference)
            assert query_outcome(argv, one_line, capsys) == ours


def test_a_query_takes_no_top_level_pass(capsys, monkeypatch):
    """A query of plain words (each flag with its value, separate or after
    "=", a separate value a negative number too), through main or a batch
    line, makes no argparse pass at all; an abbreviation, a joined -r3 or
    help makes exactly one, the top parser's."""
    parser, calls = build_parser(), []
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *a, parse=parser.parse_known_args: calls.append(a) or parse(*a))
    plain = [*QUERIES.values(), DISPATCH["verify"], ["verify"],
             *(argv for name, argv in DISPATCH.items() if name.endswith("-equals")),
             QUERIES["criterion"][:-1] + ["-3"], DISPATCH["negative-unicode-digits"]]
    assert {argv[0] for argv in plain} == set(parser.tables) - {"batch"}
    for argv in plain:
        assert run(capsys, *argv)[0] == 0
    code, answers = run_batch([json.dumps(argv) for argv in plain])
    assert code == 0 and all("payload" in answer for answer in answers)
    assert calls == []
    for argv in (DISPATCH["abbreviation"], DISPATCH["branches-joined"],
                 ["surface", "-h"], ["-h", "surface"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv


# --flag=--, whose value argparse strips to no words at all, for each command
# and form that answered or crashed with it: (argv, the flag's name)
DASHED = {
    "criterion-c1": (["criterion", "--surface", "p2", "-r", "2", "--c1=--", "--c2", "0"], "--c1"),
    "spectral-rank": (["spectral", "--surface", "p2", "-r=--"], "-r/--rank"),
    "surface-surface": (["surface", "--surface=--"], "--surface"),
    "surface-format": (["surface", "--surface", "p2", "--format=--"], "--format"),
    "verify-suite": (["verify", "--suite=--"], "--suite"),
    "grr-delta": (["grr", "--surface", "p2", "-r", "2", "--delta=--"], "--delta"),
}


@pytest.mark.parametrize("argv, flag", DASHED.values(), ids=DASHED.keys())
def test_a_flag_value_of_two_dashes_is_refused_as_a_missing_value(capsys, argv, flag):
    """--flag=-- is refused with the line argparse gives --flag --: exit 2,
    in main and as a batch line's error, and the batch carries on."""
    line = f"higgsnum {argv[0]}: error: argument {flag}: expected one argument"
    assert run(capsys, *argv) == (2, "", line + "\n")
    separate = [word for w in argv for word in ([w[:-3], "--"] if w.endswith("=--") else [w])]
    assert run(capsys, *separate) == (2, "", line + "\n")
    code, answers = run_batch([json.dumps(argv), json.dumps(QUERIES["surface"])])
    assert code == 2 and answers[0] == {"error": line, "exit": 2}
    assert answers[1]["payload"]["name"] == "p2"


RANKED = ["--surface", "--format", "-r", "--rank"]
OPTIONS = {
    "surface": RANKED[:2], "ybundle": RANKED, "spectral": RANKED,
    "criterion": RANKED + ["--c1", "--c2"], "branches": RANKED + ["--c1", "--c2"],
    "grr": RANKED + ["--delta", "--points"], "verify": ["--suite", "--format"], "batch": [],
}
WELL_FORMED = {**QUERIES, "verify": DISPATCH["verify"], "batch": ["batch"]}
VALUES = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.sampled_from(["-", "--", "", " 3 ", "3_0", "9" * 5000, "1,-1", "p2", "x",
                     "json", "table", "all", "olympic", "nosuch"]),
)


@st.composite
def parser_argvs(draw):
    """A subcommand and words: its option strings whole, cut to a prefix,
    joined as -rN or with =, values of every kind, help and stray words;
    half the time the well-formed query's flags, in any order, with some
    values redrawn and some flags written with =."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    option = st.sampled_from(OPTIONS[name] + ["--colour"])
    word = st.one_of(
        st.tuples(option, VALUES).map(list),
        st.tuples(option, VALUES).map(lambda t: ["=".join(t)]),
        st.tuples(option, st.integers(1, 7)).map(lambda t: [t[0][:t[1]]]),
        VALUES.map(lambda v: ["-r" + v]),
        VALUES.map(lambda v: [v]),
        st.sampled_from([["-h"], ["--help"], ["x"]]),
    )
    if draw(st.booleans()):
        base = WELL_FORMED[name]
        pairs = draw(st.permutations(list(zip(base[1::2], base[2::2]))))
        words = [[flag, draw(st.one_of(st.just(value), VALUES))] for flag, value in pairs]
        words = [["=".join(w)] if draw(st.booleans()) else w for w in words]
        words += draw(st.lists(word, max_size=1))
    else:
        words = draw(st.lists(word, max_size=6))
    return [name, *(w for ws in words for w in ws)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(parser_argvs())
def test_plain_read_gives_what_argparse_gives(argv):
    """_parse gives build_parser().parse_args's namespace items in order, its
    refusal or its help, except that a flag argparse hands a list (--flag=--)
    is refused as a flag with no value."""
    ours = parse_outcome(cli._parse, argv)
    theirs = parse_outcome(build_parser().parse_args, argv)
    if theirs[0] == "args" and any(type(v) is list for _, v in theirs[1]):
        assert ours[0] == "refused" and ours[1].endswith(": expected one argument"), ours
    else:
        assert ours == theirs


# flag values under the int-to-text limit whose answers are past it
ONES, SEVENS = ",".join(["1" * 3000]), "7" * 3000
OVERSIZED = {
    "criterion": ["criterion", "--surface", "p2", "-r", "2", f"--c1={ONES}", "--c2=0"],
    "grr": ["grr", "--surface", "p2", "-r", "2", f"--delta={SEVENS}"],
    "branches": ["branches", "--surface", "p2", "-r", "2", f"--c1=-{ONES}", "--c2=0"],
}
TOO_LARGE = (f"result too large: a number in the answer has more than "
             f"{sys.get_int_max_str_digits()} digits")


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_answer_is_refused_before_any_write(capsys, argv, fmt):
    """An answer holding a number past the int-to-text limit: no half envelope,
    no traceback, exit 2 and one line."""
    assert run(capsys, *argv, "--format", fmt) == (2, "", TOO_LARGE + "\n")


def test_batch_answers_past_an_oversized_line():
    good = json.dumps(QUERIES["surface"])
    code, answers = run_batch([good, json.dumps(OVERSIZED["criterion"]), good])
    assert code == 2
    assert answers[1] == {"error": TOO_LARGE, "exit": 2}
    assert answers[0] == answers[2] and answers[0]["payload"]["name"] == "p2"


@pytest.mark.parametrize("c2", [10**11, 10**20])
def test_branches_past_the_partition_table_refuses(capsys, c2):
    """More than 3 parts and a point count past 10^6: a refusal, not a
    MemoryError or an OverflowError.  criterion counts nothing, so the same
    query answers there."""
    argv = ("--surface", "p2", "-r", "4", "--c1=-6", f"--c2={c2}")
    assert run(capsys, "branches", *argv) == (
        2, "", "validation error: partition size must be at most 1000000 for more than 3 parts\n")
    code, out, err = run(capsys, "criterion", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["regime"] == "Generic"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_wide_branches_rows_are_written_in_blocks(monkeypatch, fmt):
    """r = 30 and n = 30: rows of 30 cells, where a box of memoized tails holds
    m <= 2 points, are the reference partitions, and go out in writes of at
    most 256 KiB, a few dozen of them rather than one per row."""
    r, n = 30, 30
    c1 = -(r * (r - 1) // 2)
    c2 = higgsnum.c2_gbun(presets.p2(), HiggsNumerics(r, NSVector((c1,)), 0))[0] + n
    sizes, out = [], io.StringIO()

    def write(text):
        sizes.append(len(text.encode()))
        return out.write(text)

    monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=write))
    argv = ["branches", "--surface", "p2", "-r", str(r), f"--c1={c1}", f"--c2={c2}"]
    assert main(argv + ["--format", fmt]) == 0
    if fmt == "json":
        payload = json.loads(out.getvalue())["payload"]
        assert payload["n_total"] == n
        components = payload["components"]
    else:
        (line,) = [ln for ln in out.getvalue().splitlines() if ln.startswith("payload.components ")]
        components = json.loads(line.split(None, 1)[1])
    rows = [list(p) + [0] * (r - len(p)) for p in partitions_at_most(n, r)]
    assert components == rows
    assert max(sizes) <= 256 * 1024
    assert len(sizes) < len(rows) // 10


LONG = {
    "int-flag": (["spectral", "--surface", "p2", "-r", "9" * 5000], {},
                 "higgsnum spectral: error: argument -r/--rank: invalid int value: "),
    "vector": (["criterion", "--surface", "p2", "-r", "2", "--c1", "9" * 5000 + "x", "--c2", "0"],
               {}, "parse error: --c1 must be comma-separated integers, got "),
    "seed": (["verify", "--suite", "olympic"], {"HIGGS_SEED": "s" * 5000},
             "parse error: HIGGS_SEED must be an integer, got "),
    "path": (["surface", "--surface", "a" * 5000], {}, "cannot read surface "),
    "preset": (["surface", "--surface", "hypersurface:" + "9" * 5000], {},
               "parse error: bad hypersurface degree "),
}


@pytest.mark.parametrize("argv, env, start", LONG.values(), ids=LONG.keys())
def test_long_outside_values_are_cut_short_in_refusals(capsys, monkeypatch, argv, env, start):
    """A refusal echoes a value of 5,000 characters cut in the middle, once or
    twice, on one line well under 300 bytes."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(start) and err.count("\n") == 1, err
    assert "..." in err and len(err.encode()) < 300


def test_values_of_up_to_30_characters_are_echoed_whole(capsys, monkeypatch):
    thirty = "9" * 29 + "x"
    assert run(capsys, "spectral", "--surface", "p2", "-r", thirty) == (
        2, "", f"higgsnum spectral: error: argument -r/--rank: invalid int value: '{thirty}'\n")
    assert run(capsys, "criterion", "--surface", "p2", "-r", "2", "--c1", thirty, "--c2", "0") == (
        2, "", f"parse error: --c1 must be comma-separated integers, got '{thirty}'\n")
    monkeypatch.setenv("HIGGS_SEED", thirty)
    assert run(capsys, "verify", "--suite", "olympic") == (
        2, "", f"parse error: HIGGS_SEED must be an integer, got '{thirty}'\n")
    path = "no/such/surface/file/here.json"
    assert len(path) == 30
    assert run(capsys, "surface", "--surface", path) == (
        2, "", f"cannot read surface '{path}': No such file or directory\n")


@pytest.mark.parametrize("gram, row", [([{"a": 1}, {"b": -1}], {"a": 1}), (["10", "0-"], "10")],
                         ids=["dict-rows", "string-rows"])
def test_gram_row_that_is_no_row_is_named(tmp_path, capsys, gram, row):
    """A str or an object read from a file is refused as a row, not by a
    character or a key of it."""
    message = f"gram rows must be sequences of integers, got {row!r}"
    with pytest.raises(ns_lattice.LatticeError) as info:
        NSLattice(2, gram)
    assert str(info.value) == message
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({**BLOWUP, "gram": gram}))
    assert run(capsys, "surface", "--surface", str(path)) == (
        2, "", f"validation error: {message}\n")


@pytest.mark.parametrize("fields, message", zip(LARGE_NUMBERS.values(), LARGE_NUMBER_REFUSALS),
                         ids=LARGE_NUMBERS.keys())
def test_large_number_refusals_name_what_converts(tmp_path, capsys, fields, message):
    """A check whose number is past the int-to-text limit still refuses in one
    line, naming the number by its sign or residue, and a batch answers the
    lines after it."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({**BLOWUP, **fields}))
    argv = ["surface", "--surface", str(path)]
    assert run(capsys, *argv) == (2, "", f"validation error: {message}\n")
    good = json.dumps(QUERIES["surface"])
    code, answers = run_batch([good, json.dumps(argv), good])
    assert code == 2
    assert answers[1] == {"error": f"validation error: {message}", "exit": 2}
    assert answers[0] == answers[2] and answers[0]["payload"]["name"] == "p2"


def surface_file(directory, name, text):
    """The path of a file name under directory, made with its parents, holding text."""
    path = directory / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("text, detail", [
    ("{", "Expecting property name enclosed in double quotes at line 1 column 2"),
    ("[]", "expected a JSON object"),
    ("{}", "missing field 'name'"),
    (json.dumps({**BLOWUP, "ns_rank": "2"}), "field 'ns_rank' must be int"),
], ids=["not-json", "not-an-object", "missing-field", "wrong-type"])
def test_parse_refusals_quote_the_path(tmp_path, capsys, text, detail):
    """A refusal of a file's JSON names the path by its repr, so a path
    holding ': ' cannot be read as part of the detail (the deep-nesting and
    huge-integer refusals are checked the same way above)."""
    path = surface_file(tmp_path, "a: b.json", text)
    assert run(capsys, "surface", "--surface", path) == (
        2, "", f"parse error in {path!r}: {detail}\n")


# inputs whose refusal echoes argparse's own text, a path or a list at length,
# or a newline: each argv is made under a fresh directory
LONG_OR_BROKEN = {
    "invalid-choice": lambda tmp: QUERIES["surface"] + ["--format", "x" * 5000],
    "unrecognized-argument": lambda tmp: QUERIES["surface"] + ["y" * 5000],
    "unknown-subcommand": lambda tmp: ["z" * 5000],
    "long-path": lambda tmp: ["surface", "--surface",
                              surface_file(tmp, "/".join(["d" * 200] * 12) + "/s.json", "{")],
    "newline-argument": lambda tmp: QUERIES["surface"] + ["a\nb"],
    "newline-path": lambda tmp: ["surface", "--surface", surface_file(tmp, "a\nb/s.json", "{")],
    "many-rows": lambda tmp: ["surface", "--surface", surface_file(
        tmp, "s.json", json.dumps({**BLOWUP, "gram": [[1]] * 10**5}))],
}


@pytest.mark.parametrize("make_argv", LONG_OR_BROKEN.values(), ids=LONG_OR_BROKEN.keys())
def test_every_refusal_is_one_short_line_like_batch(tmp_path, capsys, make_argv):
    """However long or broken the text a refusal echoes: exit 2, no stdout, one
    stderr line of at most 240 characters, and that line is batch's error."""
    argv = make_argv(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.endswith("\n") and len(err.splitlines()) == 1 and len(err) <= 241, err
    assert run_batch([json.dumps(argv)]) == (2, [{"error": err[:-1], "exit": 2}])


def test_refusal_line_escapes_and_cuts_only_what_it_must():
    """A printable line that fits is kept byte for byte; a control character
    is escaped as repr escapes it; a longer line keeps its head and tail."""
    fits = "é\\'" + "x" * 237
    assert cli._refusal_line(fits) == fits
    assert len(cli._refusal_line(fits + "x")) == 240
    assert cli._refusal_line("a\nb\tc\x00\u2028") == "a\\nb\\tc\\x00\\u2028"
    cut = cli._refusal_line("h" * 200 + "t" * 200)
    assert cut == "h" * 119 + "..." + "t" * 118
