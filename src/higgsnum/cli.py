"""Command line interface.

Subcommands: surface, ybundle, spectral, criterion, branches, grr,
verify, and batch, which answers one JSON argv list per stdin line with
one line each.  Every query prints a single JSON document (or a flat
table with --format table).  main and batch share _query, the one path
from argv to an exit code and an envelope or a one-line refusal.

Each subcommand and each flag is declared once, in _COMMANDS: a
subcommand's help, its defaults and its flags, each flag one spec of its
option strings and add_argument keywords.  build_parser, one loop over
that table, builds the parser once per process, with a table per
subcommand made from the actions of its own flags.  An argv takes one of
two routes.  A subcommand name and plain words, each flag with its value
whole (separate, not starting with "-" unless it is a negative number by
argparse's own pattern, or after "=", not "--"), is read from that table
with no argparse pass: each value through its flag's type and choices,
the last of a repeated flag winning, every required flag there, into the
namespace argparse would give, keys in its order.  Any other argv takes
argparse's one top pass, so help, abbreviations and every refusal are
argparse's own.  A flag that argparse hands a list, as --c1=-- once it
has stripped the "--", is refused as --c1 -- is.

A --surface value names a preset before it names a file: p2, p1xp1 and
any value starting "hypersurface:" or "blowup:" is read as a preset name,
and refused as one if its tail is no integer, even when a file of that
name exists; ./blowup:1.json reads the file.

A surface is validated once per process and content: presets are
memoized by name, and a surface file, read on every query, is parsed and
validated once per (path, text), so an edited file is never served
stale.  Both memos are bounded least-recently-used caches, refusals are
not memoized, and the Frozen surfaces are shared by every query.

Exact rationals serialize as "p/q" strings with q > 0 and gcd(p, q) = 1,
or as bare integers when q = 1; identical invocations produce
byte-identical output.  encode writes a vector or class from its stored
numerators and denominator, with one gcd per coordinate, and builds none
of its views.

The JSON document is the text json.dumps(..., indent=2) gives for the
envelope with each exact leaf (a Fraction, vector, Chow or Y class)
replaced by its encode; a payload key that is no str raises TypeError.
The table has one line per leaf of the same tree, a Chow or Y class
split into dotted keys, in the one-line layout of json.dumps.  _dump is
the one walk from payload to text: it returns the text of a value, one
join per dict, list or tuple.  The components of `branches` are a Rows
view (r, n), the partitions of n into at most r parts padded with zeros
to r columns, which _dump sets aside and marks with a NUL, a character
no other text of an answer holds.  _render makes the whole text before
the first write, so an answer holding a number too long for int-to-text
conversion is refused, not cut short, and splits it at the NULs: an
answer is one str per stretch between views.  _print_envelope writes
each str and streams each view's rows by _dump_rows, one write per
block that hn_branches.iter_partition_blocks yields, so neither the list
of components nor the text of the document is built whole.  Rows takes
r and n as plain ints, and every number a row prints is the str of an
int from a range no longer than n, so every cell converts.

Exit codes: 0 for a computed answer, including Empty and no-solution
answers, which are payload rather than failures; 1 when a verify suite
fails; 2 for input errors (bad flags, unreadable or invalid surface
data, an answer too large to write); EXIT_NO_STDOUT, 141, when stdout is
closed or its reader has gone, as in `higgsnum branches ... | head`.
Every refusal is a HiggsError, caught in one place, _query: its text, a
CLIError's (files, schemas, flags, which argparse refuses through
_Parser.error) as it is and any other's after "validation error: ", is
made one line of at most 240 characters by _refusal_line and printed on
stderr (in batch, as the line's error).  The CLI owns only the surface
file's schema and a flag's integer syntax; every rule about the values
is the library's, and so is every answer.  The schema is the six
SURFACE_FIELDS and their JSON types, and the fields are the parameters
of presets.surface, the one builder of a surface.  Most subcommands map
the fields of a library report to payload keys: branches writes
hn_branches.branches_report and grr's c2 is surface_chow.chern_c2.
ybundle composes the library's y_mul, restrict_to_spectral and a YClass
sum itself, and surface writes the signature (1, rank - 1) that
NSLattice has checked; no subcommand counts components or pairs
vectors.  That syntax is Python's int(): each integer of
-r, --c2, --points and the comma-separated --c1 and --delta may carry
surrounding spaces, "_" between digits and non-ASCII decimal digits, so
-r ' 3 ' is r = 3 and -r=3_0 is r = 30.  The input echo shows -r, --c2
and --points as the int read, and --c1 and --delta as their text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterable, NoReturn, Optional, Sequence, TextIO, Union

from .ns_lattice import Frozen, HiggsError, NSVector, ValidationError, require_int
from .surface_chow import ChowClass, HiggsNumerics, SurfaceGeometry, chern_c2, chi
from .proj_bundle import (
    YClass,
    canonical_y,
    dinfty_class,
    hyperplane_class,
    restrict_to_spectral,
    spectral_divisor_class,
    y_mul,
    y_pushforward,
)
from .spectral import (
    SpectralCover,
    chi_on_cover,
    grr_pushforward,
    pushforward_structure_ch,
    spectral_c2_tangent,
    spectral_canonical,
    spectral_cotangent_ch,
    spectral_todd,
)
from .hitchin_criterion import classify
from .hn_branches import branches_report, iter_partition_blocks
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suites
from . import presets

__all__ = ["CLIError", "EXIT_NO_STDOUT", "batch", "load_surface", "main", "main_entry"]

# the exit code when stdout is closed or its reader has gone: 128 + SIGPIPE
EXIT_NO_STDOUT = 141


class CLIError(HiggsError):
    """Input that the CLI refuses: bad files, bad schemas, bad flags."""


SURFACE_FIELDS = {
    "name": str,
    "ns_rank": int,
    "gram": list,
    "canonical": list,
    "polarization": list,
    "c2_top": int,
}


# presets by name; the values are Frozen, so every query can share them
_preset = functools.lru_cache(maxsize=64)(presets.by_name)


def load_surface(spec: str) -> SurfaceGeometry:
    """Resolve a preset name or read a surface description file.

    A file is read on every call and validated once per text: the memo
    _parse_surface is keyed on the path and the file's whole text, so an
    edited file is parsed anew.  Refusals are never memoized.
    """
    try:
        return _preset(spec)
    except KeyError:
        pass
    except ValidationError as exc:
        raise CLIError(f"parse error: {exc}") from None
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:
        # ValueError: bytes that are not UTF-8, or a path with a NUL byte
        detail = exc.strerror if isinstance(exc, OSError) else exc
        raise CLIError(f"cannot read surface {spec!r}: {detail}") from None
    return _parse_surface(spec, raw)


@functools.lru_cache(maxsize=64)
def _parse_surface(spec: str, raw: str) -> SurfaceGeometry:
    """The surface that the text raw of the file spec describes: a CLIError
    unless it is a JSON object with the SURFACE_FIELDS of their JSON types,
    whose values go to presets.surface by name, as they are."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CLIError(
            f"parse error in {spec!r}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder's recursion limit, or an integer
        # literal longer than the interpreter's int conversion limit
        raise CLIError(f"parse error in {spec!r}: {exc}") from None
    if not isinstance(data, dict):
        raise CLIError(f"parse error in {spec!r}: expected a JSON object")
    for key, typ in SURFACE_FIELDS.items():
        if key not in data:
            raise CLIError(f"parse error in {spec!r}: missing field {key!r}")
        if not isinstance(data[key], typ) or isinstance(data[key], bool):
            raise CLIError(f"parse error in {spec!r}: field {key!r} must be {typ.__name__}")
    return presets.surface(**{key: data[key] for key in SURFACE_FIELDS})


def _parse_vector(text: str, what: str) -> NSVector:
    """The vector of the comma-separated integers text; its length is for
    the computation that uses it to judge."""
    try:
        coords = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise CLIError(f"parse error: {what} must be comma-separated integers, "
                       f"got {text!r}") from None
    return NSVector(coords)


class Rows(Frozen):
    """The components of one branches query: the partitions of n into at most
    r parts, each a row of r ints padded with zeros, written by _dump_rows.

    r and n are plain ints, r >= 1 and n >= 0, so every number a row prints
    is the str of an int from a range.
    """

    __slots__ = ("r", "n")

    def __init__(self, r: int, n: int) -> None:
        Frozen.__init__(self, require_int(r, "rank", 1), require_int(n, "point count", 0))


def encode(value: Any) -> Any:
    """One exact leaf as ints and "p/q" strs, read straight from its num and
    den with one gcd per coordinate: a Fraction as an int or "p/q", a vector
    as its coordinates, a Chow class as the dict of its degrees and a Y class
    as the dicts of its parts alpha and beta."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, (NSVector, ChowClass, YClass)):
        d = value.den
        q = value.num if d == 1 else [n // g if (g := gcd(n, d)) == d else f"{n // g}/{d // g}"
                                      for n in value.num]
        if isinstance(value, YClass):
            return {"alpha": _degrees(q[:len(q) // 2]), "beta": _degrees(q[len(q) // 2:])}
        return q if isinstance(value, NSVector) else _degrees(q)
    raise TypeError(f"cannot encode {value!r}")


def _degrees(q: Sequence) -> dict:
    """The degrees of a Chow class from its coordinates q, as encode writes them."""
    return {"deg0": q[0], "deg1": q[1:-1], "deg2": q[-1]}


_INT_ONLY = {int}
# the text json.dumps gives a str and an int; a bool, None or str enum goes through json.dumps
_quote = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _pads(ind: Optional[str]) -> tuple[Optional[str], str, str, str]:
    """(inner ind, text after "[", between items, text before "]") for ind.

    ind None is the one-line layout of json.dumps without indent.
    """
    if ind is None:
        return None, "", ", ", ""
    inner = ind + "  "
    return inner, inner, "," + inner, ind


@functools.lru_cache(maxsize=8)
def _text_cells(inner: Optional[str]) -> tuple[Callable[[int], str], Callable[[int], str]]:
    """The cell and last cell of the text rows at layout inner, made once per
    layout: the one memo of iter_partition_blocks is keyed by them, so every
    query with this layout finds the entries built before it."""
    _, _, cell_comma, cell_last = _pads(inner)
    close = cell_last + "]"
    return (lambda v: str(v) + cell_comma), (lambda v: str(v) + close)


def _dump_rows(rows: Rows, ind: Optional[str], write: Callable[[str], Any]) -> None:
    """Write a Rows view as a JSON list, one write per block of runs that
    iter_partition_blocks yields (about 4,096 cells each, whatever r).

    The row text comes from the walk with the text cells of _text_cells: a
    cell is str(v) and the JSON separator after it, and the last cell of a
    row str(v) and the row's closer.  They are made once per layout, so the
    walk's memo, shared by every call, serves each query after the first.
    The row opener is written here: a run (prefix, tails) is s + s.join(tails)
    with s = opener + prefix, opener the list's separator and the row's "[",
    so each row comes after its separator, a block is one join of its runs,
    and the first block drops its leading separator for the list's "[".
    """
    inner, first, comma, last = _pads(ind)
    opener = comma + "[" + _pads(inner)[1]
    start, cut = "[" + first, len(comma)
    for block in iter_partition_blocks(rows.n, rows.r, *_text_cells(inner)):
        text = "".join([(s := opener + c) + s.join(part) for c, part in block])
        write(start + text[cut:])
        start, cut = "", 0
    write(last + "]")


def _dump(value: Any, ind: Optional[str], views: list) -> str:
    """The JSON text of value: the module's one walk.

    ind is the newline and indentation of the line value starts on, or
    None for the one-line layout of json.dumps.  A dict with str keys, a
    list or a tuple is one join of its items' texts, and a list or tuple
    of plain ints one join of their strs.  A Rows view is appended to
    views as (view, ind) and stands in the text as one NUL, which no
    other text here holds: every str is escaped, a NUL as \\u0000.  A
    plain str or int is written as json.dumps writes it, any other str,
    int, bool or None goes through json.dumps, and any other leaf is
    encoded and walked.
    """
    t = type(value)
    if t is str:
        return _quote(value)
    if t is int:
        return _int_text(value)
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner, first, comma, last = _pads(ind)
        if set(map(type, value)) == _INT_ONLY:
            return f"[{first}{comma.join(map(str, value))}{last}]"
        return f"[{first}{comma.join([_dump(v, inner, views) for v in value])}{last}]"
    if t is dict:
        if not value:
            return "{}"
        inner, first, comma, last = _pads(ind)
        items = []
        for k, v in value.items():
            if type(k) is not str:
                raise TypeError(f"payload keys must be str, got {k!r}")
            items.append(f"{_quote(k)}: {_dump(v, inner, views)}")
        return f"{{{first}{comma.join(items)}{last}}}"
    if t is Rows:
        views.append((value, ind))
        return "\0"
    if value is None or isinstance(value, (str, int)):
        return json.dumps(value)
    return _dump(encode(value), ind, views)


def _echo(args: argparse.Namespace) -> dict:
    skip = {"command", "format", "run"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _cmd_surface(x: SurfaceGeometry, args: argparse.Namespace) -> dict:
    return {
        "name": x.name,
        "ns_rank": x.rank,
        "gram": x.lattice.gram,
        "canonical": x.canonical,
        "polarization": x.polarization,
        "c2_top": x.c2_top,
        # NSLattice refuses every signature but (1, rank - 1)
        "signature": [1, x.rank - 1],
        "k_squared": x.k_squared,
        "l_squared": x.l_squared,
        "chi_structure_sheaf": x.chi_structure_sheaf,
    }


def _cmd_ybundle(x: SurfaceGeometry, args: argparse.Namespace) -> dict:
    r = args.rank
    eta = hyperplane_class(x)
    eta3 = y_mul(y_mul(eta, eta), eta)
    spectral_divisor, canonical = spectral_divisor_class(x, r), canonical_y(x)
    restricted = restrict_to_spectral(canonical + spectral_divisor, r)
    return {
        "r": r,
        "eta_top_integral": y_pushforward(eta3).deg2,
        "spectral_divisor": spectral_divisor,
        "dinfty": dinfty_class(x),
        "canonical": canonical,
        "restriction_adjunction": restricted.deg1,
    }


def _cmd_spectral(x: SurfaceGeometry, args: argparse.Namespace) -> dict:
    s = SpectralCover(x, args.rank)
    return {
        "r": s.r,
        "canonical": spectral_canonical(s),
        "cotangent_ch": spectral_cotangent_ch(s),
        "c2_tangent": spectral_c2_tangent(s),
        "euler_number": s.c2_top,
        "todd": spectral_todd(s),
        "chi_structure_sheaf": s.chi_structure_sheaf,
        "structure_pushforward_ch": pushforward_structure_ch(s),
    }


def _cmd_criterion(x: SurfaceGeometry, args: argparse.Namespace) -> dict:
    c1 = _parse_vector(args.c1, "--c1")
    h = HiggsNumerics(args.rank, c1, args.c2)
    report = classify(x, h)
    return {
        "r": h.r,
        "c1": h.c1,
        "c2": h.c2,
        "regime": report.regime,
        "c2_gbun": report.c2gbun,
        "c2_gbun_integral": isinstance(report.c2gbun, int),
        "delta": report.witness.delta if report.witness else None,
        "n_points": report.witness.n_points if report.witness else None,
    }


def _cmd_branches(x: SurfaceGeometry, args: argparse.Namespace) -> dict:
    c1 = _parse_vector(args.c1, "--c1")
    h = HiggsNumerics(args.rank, c1, args.c2)
    b = branches_report(x, h)
    w = b.report.witness
    comps = Rows(h.r, w.n_points) if w else None
    payload = {
        "r": h.r,
        "c1": h.c1,
        "c2": h.c2,
        "c2_gbun": b.report.c2gbun,
        "regime": b.report.regime,
        "n_total": w.n_points if w else None,
        "betas": b.betas,
        "components": comps,
        "count": b.count,
    }
    if b.instanton_branch:
        payload["rank2_fixed"] = {"instanton_branch": True, "components": comps, "count": b.count}
    return payload


def _cmd_grr(x: SurfaceGeometry, args: argparse.Namespace) -> dict:
    s = SpectralCover(x, args.rank)
    delta = _parse_vector(args.delta, "--delta")
    ch = grr_pushforward(s, delta, args.points)
    chi_base = chi(x, ch)
    return {
        "r": s.r,
        "delta": delta,
        "n_points": args.points,
        "ch": {"rank": ch.deg0, "c1": ch.deg1, "ch2": ch.deg2},
        "c2": chern_c2(x, ch),
        "chi_cover": chi_on_cover(s, delta, args.points),
        "chi_base": chi_base,
        "chi_integral": isinstance(chi_base, int),
    }


def _cmd_verify(x: None, args: argparse.Namespace) -> dict:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    seed_text = os.environ.get("HIGGS_SEED")
    if seed_text is not None:
        try:
            seed = int(seed_text)
        except ValueError:
            raise CLIError(f"parse error: HIGGS_SEED must be an integer, "
                           f"got {seed_text!r}") from None
    else:
        seed = DEFAULT_SEED
    suites = run_suites(names, seed)
    return {"seed": seed, "suites": suites, "all_passed": all(s["passed"] for s in suites)}


def _flatten(prefix: str, value: Any, rows: list[tuple[str, Any]]) -> None:
    """Table rows (dotted key, leaf) of value: a dict, or the dict of a Chow
    or Y class, splits into dotted keys (a key that is no str raises
    TypeError); any other value is a leaf."""
    if isinstance(value, (ChowClass, YClass)):
        value = encode(value)
    if type(value) is dict:
        for k, v in value.items():
            _flatten(prefix + "." + k if prefix else k, v, rows)
    else:
        rows.append((prefix, value))


def _render(envelope: dict, fmt: Optional[str]) -> list:
    """The text of envelope in fmt, "json", "table" or None for the one-line
    layout, as the pieces _print_envelope writes: for v Rows views, 2v + 1
    strs with the view's (view, ind) pair between each two.

    The whole text is made here, before any write, and split at the NULs
    that stand for the views.  A number past the interpreter's int-to-text
    limit refuses the whole answer with a CLIError.  A cell is at most the
    view's n, which is in the text as n_total, so the streamed rows always
    convert.
    """
    views: list = []
    try:
        if fmt == "table":
            rows: list[tuple[str, Any]] = []
            _flatten("", envelope, rows)
            width = max(len(k) for k, _ in rows)
            text = "".join([f"{k.ljust(width)}  {_dump(v, None, views)}\n" for k, v in rows])
        else:
            text = _dump(envelope, "\n" if fmt == "json" else None, views) + "\n"
    except ValueError:
        # int-to-text conversion refuses more digits than this limit
        raise CLIError(f"result too large: a number in the answer has more than "
                       f"{sys.get_int_max_str_digits()} digits") from None
    pieces: list = [None] * (2 * len(views) + 1)
    pieces[::2] = text.split("\0")
    pieces[1::2] = views
    return pieces


def _print_envelope(pieces: list, write: Callable[[str], Any]) -> None:
    """Write what _render made: each str as it is, and each (view, ind)
    pair's rows by _dump_rows, streamed."""
    for piece in pieces:
        if type(piece) is str:
            write(piece)
        else:
            _dump_rows(*piece, write)


class _Parser(argparse.ArgumentParser):
    """A parser that refuses bad flags with a CLIError of argparse's own last
    line, so _query refuses them as it refuses every other input.  Its
    subparsers are of its type, so one override covers them all."""

    def error(self, message: str) -> NoReturn:
        raise CLIError(f"{self.prog}: error: {message}")


# one spec per flag: its option strings and its add_argument keywords; -r/--rank
# has two, with the help "cover degree" where r is one and without it elsewhere
_SURFACE = ("--surface",), {"required": True, "help": "preset name (p2, p1xp1, "
                             "hypersurface:<d>, blowup:<k>) or path to a surface JSON file"}
_FORMAT = ("--format",), {"choices": ("json", "table"), "default": "json"}
_DEGREE = ("-r", "--rank"), {"type": int, "required": True, "help": "cover degree"}
_RANK = ("-r", "--rank"), {"type": int, "required": True}
_C1 = ("--c1",), {"required": True, "help": "comma-separated lattice coordinates"}
_C2 = ("--c2",), {"type": int, "required": True}
_DELTA = ("--delta",), {"required": True, "help": "comma-separated lattice coordinates"}
_POINTS = ("--points",), {"type": int, "default": 0, "help": "ideal point count (default 0)"}
_SUITE = ("--suite",), {"choices": ("all",) + SUITE_NAMES, "default": "all"}

# each subcommand in help order: its help, its set_defaults values and its flags in help order
_COMMANDS = {
    "surface": ("validate and report a surface", {"run": _cmd_surface}, (_SURFACE, _FORMAT)),
    "ybundle": ("intersection data of the compactified total space", {"run": _cmd_ybundle},
                (_SURFACE, _FORMAT, _DEGREE)),
    "spectral": ("characteristic classes of a spectral cover", {"run": _cmd_spectral},
                 (_SURFACE, _FORMAT, _DEGREE)),
    "criterion": ("classify (r, c1, c2) by fiber regime", {"run": _cmd_criterion},
                  (_SURFACE, _FORMAT, _RANK, _C1, _C2)),
    "branches": ("enumerate fixed-locus component candidates", {"run": _cmd_branches},
                 (_SURFACE, _FORMAT, _RANK, _C1, _C2)),
    "grr": ("push a twisted line bundle character to the base", {"run": _cmd_grr},
            (_SURFACE, _FORMAT, _RANK, _DELTA, _POINTS)),
    "batch": ("answer one JSON argv list per stdin line, one line each",
              {"run": None, "surface": None}, ()),
    "verify": ("run the oracle suites", {"run": _cmd_verify, "surface": None}, (_SUITE, _FORMAT)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built from _COMMANDS alone.

    One loop adds each subcommand with its help and defaults, then its
    flags from their specs.  The tables attribute maps each subcommand name
    to the table _read reads a plain argv by, made from the Action objects
    those add_argument calls return: each option string's action, the
    required dests, and the namespace argparse starts from, each action's
    default in add_argument order and then the set_defaults values.
    """
    parser = _Parser(prog="higgsnum",
                     description="Exact spectral-surface and Higgs sheaf calculator.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.tables = {}
    for name, (summary, defaults, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(**defaults)
        actions = [p.add_argument(*names, **kwargs) for names, kwargs in specs]
        template = {a.dest: a.default for a in actions}
        template.update((k, v) for k, v in defaults.items() if k not in template)
        flags = {s: a for a in actions for s in a.option_strings}
        parser.tables[name] = flags, {a.dest for a in actions if a.required}, template
    return parser


# a word that argparse reads as a value, not a flag, while no option string
# looks like a negative number: its own pattern, with Unicode \d as it has it
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read(argv: list[str], table: tuple) -> Optional[argparse.Namespace]:
    """The namespace argparse gives argv, a subcommand name and then plain
    words only, from the subcommand's table; None for any other argv.

    A plain word is one of the table's option strings followed by a value
    that does not start with "-" or is a negative number by argparse's
    pattern, or option=value with any value but "--", which argparse
    strips.  Each value goes through its action's type and choices, the
    last of a repeated flag wins, and every required flag must be there.
    A value whose type raises an error that argparse catches, a value past
    the choices or a missing flag is None too, so that argparse refuses it
    in its own words.  The namespace is the template updated, so its keys
    keep argparse's order.
    """
    flags, required, template = table
    values, seen, i = dict(template), set(), 1
    while i < len(argv):
        action = flags.get(argv[i])
        if action is not None and i + 1 < len(argv) and (
                argv[i + 1][:1] != "-" or _NEGATIVE_NUMBER.match(argv[i + 1])):
            text, i = argv[i + 1], i + 2
        else:
            name, eq, text = argv[i].partition("=")
            action = flags.get(name) if eq and text != "--" else None
            if action is None:
                return None
            i += 1
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action.dest)
    return argparse.Namespace(command=argv[0], **values) if required <= seen else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), read by _read with no argparse pass
    when argv is a subcommand name and plain words.

    Any other argv takes argparse's one top pass, so help, abbreviations, a
    joined -r3, a separate value that starts with "-" and is no negative
    number, and every refusal are argparse's own.  A flag that argparse
    hands a list, as it does for --c1=-- once it has stripped the "--", is
    refused as argparse refuses --c1 -- .
    """
    parser = build_parser()
    table = parser.tables.get(argv[0]) if argv else None
    args = None if table is None else _read(argv, table)
    if args is not None:
        return args
    args = parser.parse_args(argv)
    for action in parser.tables[args.command][0].values():
        if type(getattr(args, action.dest)) is list:
            raise CLIError(f"{parser.prog} {args.command}: error: argument "
                           f"{'/'.join(action.option_strings)}: expected one argument")
    return args


def _refusal_line(text: str) -> str:
    """text with each character that does not print escaped as repr escapes
    it, cut in the middle to 240 characters when longer: the one line rule."""
    if not text.isprintable():
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)
    return text if len(text) <= 240 else text[:119] + "..." + text[-118:]


def _query(argv: list[str], one_line: bool = False) -> tuple[int, Union[list, str, None]]:
    """The one query path: argv, parsed by _parse, to (exit code, answer).

    The answer is the envelope as _render's pieces, in the one-line layout
    if one_line, else in the query's --format (exit 0, or 1 when verify
    finds a failing check); the refusal line of a HiggsError, which a bad
    flag is too (exit 2); or None when argparse has written help.
    """
    try:
        args = _parse(argv)
        if args.run is None:
            raise CLIError("parse error: batch reads its queries from stdin, not from a batch line")
        x = None if args.surface is None else load_surface(args.surface)
        payload = args.run(x, args)
        envelope = {
            "command": args.command,
            "input": _echo(args),
            "exact": True,
            "payload": payload,
        }
        answer = _render(envelope, None if one_line else args.format)
    except SystemExit:
        # the one exit argparse still takes: after writing help
        return 0, None
    except HiggsError as exc:
        label = "" if isinstance(exc, CLIError) else "validation error: "
        return 2, _refusal_line(f"{label}{exc}")
    return (1 if payload.get("all_passed") is False else 0), answer


def batch(lines: Iterable[Union[str, bytes]], out: TextIO) -> int:
    """Answer each line, one JSON argv list, with one line on out: the
    envelope in the one-line layout, or {"error": <one line>, "exit": 2}.

    Each line is decoded without its terminator, LF or CR LF, so a JSON
    refusal gives a position within the line.  Every line goes through
    _query in the one-line layout, whatever its --format, and out is
    flushed after each answer.  A line that is no JSON list of strings or
    asks for help is refused, as _query refuses bad flags, and the batch
    carries on.  The result is the largest exit code of the lines, 0 for
    none.
    """
    worst = 0
    for number, line in enumerate(lines, 1):
        crlf, lf = ("\r\n", "\n") if isinstance(line, str) else (b"\r\n", b"\n")
        try:
            argv = json.loads(line[:-2] if line.endswith(crlf) else line.removesuffix(lf))
            if type(argv) is not list or not all(type(a) is str for a in argv):
                raise ValueError("expected a JSON list of strings")
        except (RecursionError, ValueError) as exc:
            # ValueError: bad JSON, bytes that are not UTF-8, or no list of strings
            code, answer = 2, f"parse error in line {number}: {exc}"
        else:
            # swallows the help argparse writes
            with contextlib.redirect_stdout(io.StringIO()):
                code, answer = _query(argv, one_line=True)
            if answer is None:
                code, answer = 2, "parse error: help is not a query"
        if type(answer) is str:
            answer = _render({"error": answer, "exit": code}, None)
        _print_envelope(answer, out.write)
        out.flush()
        worst = max(worst, code)
    return worst


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["batch"]:
        # a closed stdin (None) is a batch of no lines
        return batch(sys.stdin.buffer if sys.stdin is not None else (), sys.stdout)
    code, answer = _query(argv)
    if type(answer) is list:
        _print_envelope(answer, sys.stdout.write)
    elif answer is not None and sys.stderr is not None:
        # a closed stderr (None) loses the refusal's line, not its exit code
        sys.stderr.write(answer + "\n")
    return code


def main_entry() -> None:
    """main as a program: a closed stdout, or one whose reader has gone,
    exits with EXIT_NO_STDOUT and no traceback."""
    if sys.stdout is None:
        sys.exit(EXIT_NO_STDOUT)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_NO_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
