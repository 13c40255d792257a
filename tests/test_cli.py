import json
import os
from pathlib import Path

import pytest

from higgsnum.cli import CLIError, encode, load_surface, main

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


def test_verify_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("HIGGS_SEED", "4242")
    doc = run_json(capsys, "verify", "--suite", "partition")
    assert doc["payload"]["seed"] == 4242
    assert doc["payload"]["all_passed"] is True
    monkeypatch.setenv("HIGGS_SEED", "not-a-number")
    rc, out, err = run(capsys, "verify", "--suite", "partition")
    assert rc == 2


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
