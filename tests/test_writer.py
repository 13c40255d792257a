"""The one-pass JSON writer of the CLI.

cli._dump must return the text of json.dumps(encode_tree(v), indent=2)
for every exact value the CLI prints, each Rows view streamed where its
NUL stands, where encode_tree is the recursive encoder the CLI once had,
kept here as an oracle; an answer must be one str per stretch between
Rows views, so an answer without them is one write; and the CLI's stdout
must stay the bytes it was before the writer replaced that two-pass path.
"""

import hashlib
import io
import json
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import islice
from pathlib import Path

import pytest

from higgsnum import (
    ChowClass, HiggsNumerics, NSVector, QNSVector, Regime, ValidationError, YClass, c2_gbun,
    classify, monopole_components, partition_count, presets,
)
from higgsnum import cli
from higgsnum.cli import Rows, _dump, _print_envelope, encode, main

from conftest import clear_memos, partitions_at_most

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ROOT = Path(__file__).parent.parent
X = presets.p2()


def encode_tree(value):
    """Exact data to JSON-ready data, recursively; fractions become 'p/q' strings."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, NSVector):
        return [encode_tree(c) for c in value.coords]
    if isinstance(value, ChowClass):
        return {"deg0": encode_tree(value.deg0), "deg1": encode_tree(value.deg1),
                "deg2": encode_tree(value.deg2)}
    if isinstance(value, YClass):
        return {"alpha": encode_tree(value.alpha), "beta": encode_tree(value.beta)}
    if isinstance(value, dict):
        return {str(k): encode_tree(v) for k, v in value.items()}
    if isinstance(value, Rows):
        return [encode_tree(v) for v in padded_partitions(value.n, value.r)]
    if isinstance(value, (list, tuple)):
        return [encode_tree(v) for v in value]
    raise TypeError(f"cannot encode {value!r}")


def padded_partitions(n, r):
    """The rows of Rows(r, n) from the test's own recursive enumeration:
    partitions padded to length r."""
    return [p + (0,) * (r - len(p)) for p in partitions_at_most(n, r)]


def dump_text(value, ind):
    """The text the CLI's writer gives for value, as one string: the text of
    _dump, with each Rows view that a NUL stands for streamed by
    _print_envelope."""
    views, out = [], []
    pieces = _dump(value, ind, views).split("\0")
    answer = [pieces[0]]
    for view, piece in zip(views, pieces[1:]):
        answer += [view, piece]
    _print_envelope(answer, out.append)
    return "".join(out)


def to_json(value):
    """The indented text the CLI's writer gives for value, as one string."""
    return dump_text(value, "\n")


ints = st.integers(-(10**30), 10**30)
fractions = st.builds(Fraction, ints, st.integers(1, 10**6))
rationals = st.one_of(ints, fractions)
vectors = st.one_of(
    st.lists(ints, max_size=4).map(NSVector),
    st.lists(rationals, max_size=4).map(QNSVector),
)
# the plane blown up in 0 to 7 points: ranks 1 to 8
BASES = [presets.blowup(k) for k in range(8)]


def chow_classes(rank):
    return st.builds(ChowClass, rationals,
                     st.lists(rationals, min_size=rank, max_size=rank).map(QNSVector), rationals)


chow = st.integers(1, 8).flatmap(chow_classes)
ycls = st.sampled_from(BASES).flatmap(
    lambda x: st.builds(YClass, chow_classes(x.rank), chow_classes(x.rank), st.just(x)))
# quotes, backslashes, control and non-ASCII characters, surrogates included
texts = st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00é✓😀 ab', max_size=8))
int_tuples = st.lists(ints, max_size=3).map(tuple)


# a Rows view: at most 4 columns and 15 rows
row_views = st.builds(Rows, st.integers(1, 4), st.integers(0, 8))


leaves = st.one_of(
    ints, st.booleans(), st.none(), fractions, vectors, chow, ycls,
    st.sampled_from(Regime), texts, int_tuples, row_views,
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(values)
@example({})
@example([])
@example(())
@example((7,))
@example([(), (0,), (3, 1), {}, [], {"": ()}])
@example({"k": [(1, 2), (True, 2), (1, Fraction(1, 2))], "é\"\\": None})
@example({"1": Fraction(3, 1), "regime": Regime.EMPTY,
          "y": [YClass(ChowClass.zero(1), ChowClass.zero(1), X)]})
def test_writer_matches_encode_then_dumps(value):
    assert to_json(value) == json.dumps(encode_tree(value), indent=2)


def monopole_rows(x, r, n):
    """The monopole_components rows of (r, c1, c2) on x with n points to place."""
    # c1 = -r(r-1)/2 L makes delta = 0 solve r delta = c1 + r(r-1)/2 L
    c1 = -(r * (r - 1) // 2) * x.polarization
    numerics = HiggsNumerics(r, c1, c2_gbun(x, HiggsNumerics(r, c1, 0))[0] + n)
    assert classify(x, numerics).witness.n_points == n
    return monopole_components(x, numerics)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(row_views)
def test_row_view_writes_and_encodes_as_its_rows(view):
    rows = padded_partitions(view.n, view.r)
    assert len(rows) == partition_count(view.n, view.r)
    assert to_json(view) == json.dumps(encode_tree(rows), indent=2)
    assert to_json({"a": [view, view]}) == json.dumps({"a": [encode_tree(rows)] * 2}, indent=2)


def assert_rows_text(view, rows):
    """The streamed text of view in the indented, the one-line (batch) and
    the table layout is json.dumps of rows laid out the same way, at the
    depth the components of `branches` take in its envelope."""
    doc = {"payload": {"components": view}}
    expected = {"payload": {"components": rows}}
    for fmt, text in (("json", json.dumps(expected, indent=2) + "\n"),
                      (None, json.dumps(expected) + "\n"),
                      ("table", "payload.components  " + json.dumps(rows) + "\n")):
        out = []
        _print_envelope(cli._render(doc, fmt), out.append)
        # a failure names the first character that differs, not a diff of megabytes
        got = "".join(out)
        same = got == text
        assert same, (view, fmt, len(os.path.commonprefix([got, text])))


@pytest.mark.parametrize("r", range(1, 10))
def test_row_view_writes_the_monopole_rows(r):
    """Every layout of Rows(r, n) is json.dumps of the rows monopole_components
    enumerates, and those are the padded partitions of the test's own
    enumeration."""
    for n in range(41):
        rows = [list(row) for row in monopole_rows(X, r, n)]
        assert rows == [list(row) for row in padded_partitions(n, r)]
        view = Rows(r, n)
        assert to_json(view) == json.dumps(rows, indent=2)
        assert_rows_text(view, rows)


@pytest.mark.parametrize("n, r", [(12000, 2), (600, 3), (40, 30), (25, 120), (3, 5000),
                                  (127, 4), (72, 5), (53, 6), (45, 7), (40, 8), (60, 10)])
def test_row_view_past_a_block_writes_the_monopole_rows(n, r):
    """Shapes whose rows cross many block breaks of the walk: whole rows of
    two slots in one run (r = 2, crossing breaks at n = 12,000), boxes of
    three slots (r = 3), wide rows of runs of one or two rows, and rows
    served by frames of boxes over many blocks (r = 4..8 at the benchmark's
    branches shapes, and r = 10), byte for byte."""
    assert_rows_text(Rows(r, n), [list(row) for row in monopole_rows(X, r, n)])


def test_wide_row_view_of_no_points_is_one_row_of_zeros():
    """r = 5000, n = 0: one row of r zeros, with nothing before it that grows like r^2."""
    tracemalloc.start()
    try:
        text = to_json(Rows(5000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps([[0] * 5000], indent=2)
    assert peak < 2**20


@pytest.mark.parametrize(
    "r, n", [(True, 3), (2, Fraction(3)), (0, 3), (2, -1), (2, 3.0), ([2], 3)],
    ids=["bool", "fraction", "rank-0", "negative", "float", "list"],
)
def test_row_view_refuses_all_but_plain_ints(r, n):
    """Every number a row prints is the str of an int from a range, because
    Rows takes r >= 1 and n >= 0 as plain ints only."""
    with pytest.raises(ValidationError, match="^(rank|point count) must be a"):
        Rows(r, n)


def test_writer_refuses_what_encode_refuses():
    for bad in (1.5, {"a": [1, 2.0]}, object(), {1: "int"}):
        with pytest.raises(TypeError):
            to_json(bad)


VIEWS = ("deg0", "deg1", "deg2", "alpha", "beta", "coords")


def test_encode_writes_exact_leaves_from_num_and_den(monkeypatch):
    """Each coordinate of num over den is an int, or "p/q" in lowest terms,
    whatever the class's common denominator: (1, 2)/4 writes "1/4", "1/2".
    encode builds no view: with every view refusing, it writes the same."""
    c = ChowClass(Fraction(1, 2), QNSVector((Fraction(1, 4), 3)), 4)
    half = {"deg0": "1/2", "deg1": ["1/4", 3], "deg2": 4}
    b = presets.blowup(1)
    cases = [
        (Fraction(6, 3), 2), (Fraction(-1, 2), "-1/2"), (NSVector((1, -2)), (1, -2)),
        (QNSVector((Fraction(1, 4), Fraction(1, 2))), ["1/4", "1/2"]),
        (c, half), (ChowClass.unit(2), {"deg0": 1, "deg1": (0, 0), "deg2": 0}),
        (YClass(c, ChowClass.zero(2), b),
         {"alpha": half, "beta": {"deg0": 0, "deg1": [0, 0], "deg2": 0}}),
        (YClass(ChowClass.unit(2), 2 * ChowClass.unit(2), b),
         {"alpha": {"deg0": 1, "deg1": (0, 0), "deg2": 0},
          "beta": {"deg0": 2, "deg1": (0, 0), "deg2": 0}}),
    ]
    for value, written in cases:
        assert encode(value) == written
    for cls in (NSVector, ChowClass, YClass):
        for name in VIEWS:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, property(lambda v: pytest.fail("view read")))
    for value, written in cases:
        assert encode(value) == written
    for bad in (1, "s", None, True, [1], (1,), {"a": 1}, Rows(1, 1)):
        with pytest.raises(TypeError):
            encode(bad)


# ---------------------------------------------------------------------------
# CLI stdout against digests of the output before the one-pass writer

SURFACES = ["p2", "hypersurface:3", "hypersurface:4", "hypersurface:5",
            "tests/data/blowup_p2.json"]
# per surface: c1 candidates (the polarization is always included), then the
# four regimes come from c2 below, at and above each threshold
C1 = {
    "p2": ["0", "1", "2", "-3"],
    "hypersurface:3": ["0", "1", "-1"],
    "hypersurface:4": ["0", "1", "2"],
    "hypersurface:5": ["0", "1", "3"],
    "tests/data/blowup_p2.json": ["0,0", "2,-1", "0,1", "1,-1", "-3,1"],
}
DELTA = {name: c1s[-1] for name, c1s in C1.items()}


def cases(surface):
    """Subcommand -> argv lists (without --format) for one surface."""
    out = {
        "surface": [["surface", "--surface", surface]],
        "ybundle": [["ybundle", "--surface", surface, "-r", str(r)] for r in (1, 2, 3)],
        "spectral": [["spectral", "--surface", surface, "-r", str(r)] for r in (1, 2, 4)],
        "grr": [
            ["grr", "--surface", surface, "-r", str(r), f"--delta={DELTA[surface]}",
             "--points", str(p)]
            for r in (1, 2, 3) for p in (0, 3)
        ],
    }
    for cmd in ("criterion", "branches"):
        out[cmd] = [
            [cmd, "--surface", surface, "-r", str(r), f"--c1={c1}", f"--c2={c2}"]
            for r in (1, 2, 3) for c1 in C1[surface] for c2 in range(-4, 9, 3)
        ]
    return out


GROUPS = [(s, cmd, argvs) for s in SURFACES for cmd, argvs in cases(s).items()]
GROUPS.append(("-", "verify", [["verify"], ["verify", "--suite", "olympic"]]))


def group_digest(argvs, before=lambda: None):
    """SHA-256 over argv, exit code and stdout of each run, json and table;
    before() runs before each run."""
    h = hashlib.sha256()
    for argv in argvs:
        for fmt in ("json", "table"):
            before()
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv + ["--format", fmt])
            assert not err.getvalue(), (argv, err.getvalue())
            h.update(f"{argv} {fmt} {rc}\n".encode())
            h.update(out.getvalue().encode())
    return h.hexdigest()


# computed from the output of the two-pass encode + json.dumps(indent=2) path
EXPECTED = {
    "p2 surface": "76c73d2d35d181cd2dcd50d899912e83a950b178c3b8682e5d5a162081ff16e9",
    "p2 ybundle": "d16e732708256f72f947862985c59a6ff25b39764859ac3a0b3678fc4c51d577",
    "p2 spectral": "0e5bc2b9890e75a1aacf60e855a3a0bf7272cb94eab842f595dded2298400e35",
    "p2 grr": "6e9ef439b360cda264511d7866ec8ba55469c29c0d78e235545b82da4aa5c4a4",
    "p2 criterion": "042904a6b975c60899a5219ac5ea4e99c0f7b719c53d4ee9b57cd1c3257e14d4",
    "p2 branches": "ee33e15824cf1c87e94b549f9af28749264fff0ba2fd55426b3a9088fb8b303a",
    "hypersurface:3 surface": "802a5c50f1cd0b3d48855c5b0b26337a4e6eb99e0f3ef6793f599002be6183a6",
    "hypersurface:3 ybundle": "9fb6b865f253cc1c1744d2d72968b9ad5ebdf55c839e668167b01aede705eee9",
    "hypersurface:3 spectral": "31e028dbf8822b95d7fd500d068badb2281201a9bba05934d8476ae0c321c611",
    "hypersurface:3 grr": "07dd01a99242eb80242ff96da86d2ece5e4e94e4ff540ada527fc5d30dd35814",
    "hypersurface:3 criterion": "9090dc0d2a08831bf6b7a6710c7814bb17c0c169f98c4b1070c0b149476f74a1",
    "hypersurface:3 branches": "3370cef9f90ff44c6bf639b3ff162e79469d3c2a7e690b1446b0f7bc4038ab62",
    "hypersurface:4 surface": "314a5280d5067353255c6db6517c6522c8e39ab6a8dee46fc8b13bc12b670039",
    "hypersurface:4 ybundle": "cdadb5b86a86dcc7ee9b1abbbb9f98c5462458d17631395fb5c9c805ea29c30d",
    "hypersurface:4 spectral": "c5a2aef5dccb654113942455ba2967b6897780ba8a988bc3085e967f028aea9e",
    "hypersurface:4 grr": "a84ebf87577e8ccbb7e84297c4156b590b43c4020e14c7fa395ace1800a7aa4b",
    "hypersurface:4 criterion": "24837c5e668c3c8d0ce4c7fe2edd41662b3731c5dda4a235055274b091b66da4",
    "hypersurface:4 branches": "b2a77ca589921d6dfb4162a733c6bca79ec6075e7c322594cc9d06eed10448d8",
    "hypersurface:5 surface": "6f5e65ca72bc9d183822b587515569051cf2c9e1c2cc9eda31a1907f31f890cb",
    "hypersurface:5 ybundle": "3b53b1cb2de60d88fe841d2b462defee124c7b75df6561a2441f710db3c8d8e1",
    "hypersurface:5 spectral": "26074948e5280462093c4b8c4dddaaa0e0edb00e976140abb9e90aecc2fca39e",
    "hypersurface:5 grr": "1713f968b717d2efe62fb2057c36a443556d3a49457452f6470325fa1d92604b",
    "hypersurface:5 criterion": "8ff52daf7eab5605e24f947595ec0bc63f5c0f3a48b3bd7ed8bc7ee28da2b678",
    "hypersurface:5 branches": "4e115d68c7d2a52017dbbb371465cf83ff128b24c89f409e01c377b1e0c084af",
    "tests/data/blowup_p2.json surface": "4cee4a9274908fa9d5357fd196847403fd496e9b33f1608839b43940571ff233",
    "tests/data/blowup_p2.json ybundle": "fc60a7357bf79caca1bcd94a8f5b746242e7fb5b2c27adbed7e1882044c08f03",
    "tests/data/blowup_p2.json spectral": "f369818023373b7cabe106cf9bb7ee19859d54e68becc6b9a349d20d697b65bc",
    "tests/data/blowup_p2.json grr": "bcaca1f54063389763c049fc32e9ab62cb9dd37e14f080fd40e626cb76d79066",
    "tests/data/blowup_p2.json criterion": "6c832e9fe5a604ec3918708e5277b305ef4bb56176479b4a07600ea4f66f0305",
    "tests/data/blowup_p2.json branches": "deeaa5a0cbab258b3b7f6ffc4b338200c09e477325aae505c3ef591f37f76b98",
    "- verify": "6d3c977ba82e4fa017050d988e223ff25032ade75e03c41be1b6f9b45b13425e",
}


@pytest.mark.parametrize(
    "surface, command, argvs", GROUPS, ids=[f"{s}-{c}" for s, c, _ in GROUPS]
)
def test_cli_stdout_unchanged(surface, command, argvs, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    assert group_digest(argvs) == EXPECTED[f"{surface} {command}"]


@pytest.mark.parametrize(
    "surface, command, argvs", GROUPS, ids=[f"{s}-{c}" for s, c, _ in GROUPS]
)
def test_cold_and_warm_surface_memo_give_the_same_stdout(surface, command, argvs, monkeypatch):
    """Each run on a cold memo, then each on the memo the first pass warmed."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    cold = group_digest(argvs, before=clear_memos)
    assert group_digest(argvs) == cold == EXPECTED[f"{surface} {command}"]


def test_batch_lines_parse_as_the_single_query_stdout(monkeypatch):
    """One batch over every GROUPS argv: each line is the JSON the query prints alone."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    argvs = [argv for _, _, group in GROUPS for argv in group]
    out = StringIO()
    assert cli.batch(map(json.dumps, argvs), out) == 0
    lines = out.getvalue().split("\n")
    assert lines.pop() == "" and len(lines) == len(argvs)
    for argv, line in zip(argvs, lines):
        single = StringIO()
        with redirect_stdout(single):
            assert main(argv) == 0
        assert json.loads(line) == json.loads(single.getvalue()), argv
        assert line == json.dumps(json.loads(line)), argv


def test_digest_cases_cover_every_regime_and_rank2_block(monkeypatch):
    monkeypatch.chdir(ROOT)
    regimes, rank2 = set(), 0
    for surface in SURFACES:
        for argv in cases(surface)["branches"]:
            out = StringIO()
            with redirect_stdout(out):
                assert main(argv) == 0
            payload = json.loads(out.getvalue())["payload"]
            regimes.add(payload["regime"])
            rank2 += "rank2_fixed" in payload
    assert regimes == {r.value for r in Regime}
    assert rank2 > 0


def test_an_answer_is_one_piece_per_stretch_between_row_views(monkeypatch):
    """Over every GROUPS argv in both formats, _query's answer is 2v + 1
    pieces for its v Rows views: one str for every subcommand but branches;
    for branches, strs and (Rows, ind) pairs in turn, one view for the
    components and one more for the rank2_fixed block."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("HIGGS_SEED", raising=False)
    seen = set()
    for _, command, argvs in GROUPS:
        for argv in argvs:
            out = StringIO()
            with redirect_stdout(out):
                assert main(argv) == 0
            payload = json.loads(out.getvalue())["payload"]
            inds = {"json": [], "table": []}
            if command == "branches" and payload["components"] is not None:
                inds = {"json": ["\n    "], "table": [None]}
                if "rank2_fixed" in payload:
                    inds = {"json": ["\n    ", "\n      "], "table": [None, None]}
            for fmt in ("json", "table"):
                code, answer = cli._query(argv + ["--format", fmt])
                assert code == 0 and type(answer) is list, argv
                assert all(type(piece) is str for piece in answer[::2]), argv
                views = [(payload["r"], payload["n_total"], ind) for ind in inds[fmt]]
                assert [(v.r, v.n, ind) for v, ind in answer[1::2]] == views, argv
                assert all(type(v) is Rows for v, _ in answer[1::2]), argv
                assert len(answer) == 2 * len(views) + 1, argv
                seen.add((command == "branches", len(answer)))
    assert seen == {(False, 1), (True, 1), (True, 3), (True, 5)}


class RecordingStdout(io.TextIOBase):
    """A stdout that keeps every write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def writable(self):
        return True

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_a_criterion_answer_is_one_write():
    out = RecordingStdout()
    with redirect_stdout(out):
        assert main(["criterion", "--surface", "p2", "-r", "2", "--c1=1", "--c2=5"]) == 0
    assert len(out.writes) == 1
    assert json.loads(out.writes[0])["command"] == "criterion"


def test_branches_streams_its_rows():
    """r = 4, n = 120 on p2: over 10^4 rows, one bounded write per block of the
    walk, with many rows in each."""
    x = presets.p2()
    c1, n = x.polarization * 2, 120
    numerics = HiggsNumerics(4, c1, n - 1)
    assert classify(x, numerics).witness.n_points == n
    rows = monopole_components(x, numerics)
    assert len(rows) == partition_count(n, 4) > 10**4

    out = RecordingStdout()
    with redirect_stdout(out):
        rc = main(["branches", "--surface", "p2", "-r", "4", "--c1=2", f"--c2={n - 1}"])
    assert rc == 0
    sizes = [len(w.encode()) for w in out.writes]
    assert max(sizes) <= 256 * 1024
    assert len(rows) >= 50 * len(sizes)
    text = "".join(out.writes)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    payload = doc["payload"]
    assert payload["components"] == [list(row) for row in rows]
    assert payload["count"] == len(payload["components"]) == partition_count(n, 4)
    assert "rank2_fixed" not in payload


class Enough(Exception):
    """Raised by FirstBytes once it has taken its share of a document."""


class FirstBytes(io.TextIOBase):
    """A stdout that keeps the first 64 KiB and stops the run past `limit` bytes."""

    def __init__(self, limit):
        super().__init__()
        self.limit, self.size, self.head = limit, 0, ""

    def writable(self):
        return True

    def write(self, text):
        if len(self.head) < 1 << 16:
            self.head += text[: (1 << 16) - len(self.head)]
        self.size += len(text)
        if self.size > self.limit:
            raise Enough
        return len(text)


@pytest.mark.parametrize("r, c1", [(10, -45), (3, -3)], ids=["r10-n200", "r3-n1e6"])
def test_branches_streams_in_fixed_memory(r, c1):
    """r = 10 with n = 200 (1,212,199,424 rows) and r = 3 with n = 10^6: the first
    2 MB of the document, in decreasing lex row order, within a few MiB."""
    x = presets.p2()
    n = 200 if r == 10 else 10**6
    c2 = c2_gbun(x, HiggsNumerics(r, c1 * x.polarization, 0))[0] + n
    out = FirstBytes(2 * 10**6)
    tracemalloc.start()
    try:
        with redirect_stdout(out), pytest.raises(Enough):
            main(["branches", "--surface", "p2", "-r", str(r), f"--c1={c1}", f"--c2={c2}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    head = out.head[out.head.index('"components": ['):]
    first = [p + (0,) * (r - len(p)) for p in islice(partitions_at_most(n, r), 3000)]
    expected = json.dumps({"payload": {"components": first}}, indent=2)
    expected = expected[expected.index('"components": ['):]
    assert len(expected) > len(head) > 10**4
    assert head == expected[: len(head)]


def test_rank2_block_streams_the_rows_twice():
    out = RecordingStdout()
    with redirect_stdout(out):
        assert main(["branches", "--surface", "p2", "-r", "2", "--c1=1", "--c2=20001"]) == 0
    payload = json.loads("".join(out.writes))["payload"]
    block = payload["rank2_fixed"]
    assert block["components"] == payload["components"]
    assert block["count"] == payload["count"] == len(payload["components"])
    assert payload["count"] == partition_count(payload["n_total"], 2) > 10**4


def test_rank2_rows_past_the_box_are_the_reference_rows():
    """n = 12,000 points in rank 2: the rows (n - i, i) for i <= n / 2, each
    with its last cell formatted in place, across many full lists of rows."""
    x = presets.p2()
    c2 = c2_gbun(x, HiggsNumerics(2, x.polarization, 0))[0] + 12000
    out = StringIO()
    with redirect_stdout(out):
        assert main(["branches", "--surface", "p2", "-r", "2", "--c1=1", f"--c2={c2}"]) == 0
    payload = json.loads(out.getvalue())["payload"]
    n = payload["n_total"]
    assert n == 12000
    rows = [[n - i, i] for i in range(n // 2 + 1)]
    assert payload["components"] == payload["rank2_fixed"]["components"] == rows


def old_table(encoded):
    """The table text as it was built whole: one json.dumps per leaf of the encoded tree."""
    rows = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        else:
            rows.append((prefix, json.dumps(value)))

    walk("", encoded)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def test_branches_table_streams_its_rows():
    """The rank-2 block on p2: two lines of 2 * 10^4 rows, one bounded write per
    block of the walk, with many rows in each."""
    argv = ["branches", "--surface", "p2", "-r", "2", "--c1=1", "--c2=40001"]
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    encoded = json.loads(out.getvalue())
    assert encoded["payload"]["count"] > 2 * 10**4

    out = RecordingStdout()
    with redirect_stdout(out):
        assert main(argv + ["--format", "table"]) == 0
    sizes = [len(w.encode()) for w in out.writes]
    assert max(sizes) <= 256 * 1024
    assert 2 * encoded["payload"]["count"] >= 50 * len(sizes)
    assert "".join(out.writes) == old_table(encoded)
