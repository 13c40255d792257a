import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import higgsnum
from higgsnum import ns_lattice, spectral, verify
from higgsnum.cli import CLIError, build_parser, encode, load_surface, main

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
    assert rc == 2 and "gram row 0" in err
    assert err.startswith(f"parse error in {ragged}: ")

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


def test_bad_vector_input(capsys):
    rc, out, err = run(
        capsys, "criterion", "--surface", "hypersurface:5", "-r", "2", "--c1", "1,2", "--c2", "0"
    )
    assert rc == 2 and "lattice rank" in err
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


def test_one_transport_per_grr_and_one_inertia_per_surface(capsys):
    grr = ["grr", "--surface", "hypersurface:5", "-r", "3", "--delta", "1", "--points", "2"]
    assert count_calls(spectral.grr_pushforward, lambda: main(grr)) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["chi_cover"] == payload["chi_base"] == 18
    surface = ["surface", "--surface", str(DATA / "blowup_p2.json")]
    assert count_calls(ns_lattice.inertia, lambda: main(surface)) == 1
    assert json.loads(capsys.readouterr().out)["payload"]["signature"] == [1, 1]


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
    assert err.startswith(start)
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gram", [[1, True], [0, -1]], "gram row 0 must be a list of integers"),
        *(("gram", [[1, 0], [0, entry]], "gram row 1 must be a list of integers")
          for entry in (True, 1.5, None, "1", [1])),
        ("canonical", [-3, 1.0], "canonical must be a list of integers"),
        ("gram", [[1, 0]], "gram has 1 rows, expected 2"),
        ("canonical", [-3], "class vectors must have length 2"),
        ("ns_rank", 0, "field 'ns_rank' must be a positive integer"),
        ("ns_rank", -1, "field 'ns_rank' must be a positive integer"),
    ],
    ids=["bool-gram-entry", "last-row-true", "last-row-float", "last-row-null",
         "last-row-string", "last-row-list", "float-canonical", "one-gram-row",
         "short-canonical", "zero-rank", "negative-rank"],
)
def test_malformed_rank2_file_is_one_line_refusal(tmp_path, capsys, field, value, message):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({**BLOWUP, field: value}))
    rc, out, err = run(capsys, "surface", "--surface", str(path))
    assert (rc, out) == (2, "")
    assert err == f"parse error in {path}: {message}\n"


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
