"""The benchmark's oracles, run on the CLI in process.

perfbench/oracles.py recomputes every answer from the surface data in
closed form, without the package, and perfbench/workloads.py generates
the queries.  Both are imported from perfbench/ as they are, so the
benchmark and the tests check the CLI against one oracle.
"""

import random
import sys
from pathlib import Path

import pytest

from higgsnum.cli import main

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402

PRESETS = ("p2", "hypersurface:3", "hypersurface:5")
RANDOM_RANKS = (2, 12)


@pytest.fixture(scope="module")
def surfaces(tmp_path_factory):
    """The presets, and random surfaces of rank 2 and 12 written to files."""
    found = {spec: workloads.preset(spec) for spec in PRESETS}
    folder = tmp_path_factory.mktemp("surfaces")
    rng = random.Random(2409)
    for rank in RANDOM_RANKS:
        s = workloads.random_surface(rng, rank, str(folder / f"rank{rank}.json"), f"rank{rank}")
        workloads.write_surface(s)
        found[f"rank{rank}"] = s
    return found


def check_op(op, capsys, monkeypatch):
    """Run op through cli.main with its env; the oracle must pass it and catch its corruptions."""
    for key, value in op.env:
        monkeypatch.setenv(key, value)
    rc = main(list(op.argv))
    out = capsys.readouterr().out
    error, _ = oracles.check(op, rc, out)
    assert error is None, (op.argv, error)
    assert oracles.self_test(op, out) is None, op.argv


@pytest.mark.parametrize("command", workloads.QUERY_COMMANDS)
@pytest.mark.parametrize("surface", PRESETS + tuple(f"rank{r}" for r in RANDOM_RANKS))
def test_query_passes_the_oracle(surfaces, surface, command, capsys, monkeypatch):
    rng = random.Random(f"{surface}:{command}")
    check_op(workloads.QUERY_MAKERS[command](rng, surfaces[surface]), capsys, monkeypatch)


@pytest.mark.parametrize("surface, r, n", [("p2", 3, 7), ("rank2", 2, 5)])
def test_branches_passes_the_oracle(surfaces, surface, r, n, capsys, monkeypatch):
    check_op(workloads.branches_op(random.Random(r), surfaces[surface], r, n), capsys, monkeypatch)


def test_verify_passes_the_oracle(capsys, monkeypatch):
    check_op(workloads.verify_op(90296, "olympic"), capsys, monkeypatch)
