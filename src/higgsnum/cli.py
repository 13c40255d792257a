"""Command line interface.

Subcommands: surface, ybundle, spectral, criterion, branches, grr,
verify.  Every run prints a single JSON document (or a flat table with
--format table).  Exact rationals serialize as "p/q" strings with q > 0
and gcd(p, q) = 1, or as bare integers when q = 1; identical invocations
produce byte-identical output.

Exit codes: 0 for a computed answer, including Empty and no-solution
answers, which are payload rather than failures; 1 when a verify suite
fails; 2 for input errors (bad flags, unreadable or invalid surface
data).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any, Optional

from .ns_lattice import LatticeError, NSLattice, NSVector
from .surface_chow import (
    ChowClass,
    HiggsNumerics,
    SurfaceGeometry,
    ValidationError,
    chi,
)
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
    chi_two_ways,
    grr_pushforward,
    pushforward_structure_ch,
    spectral_c2_tangent,
    spectral_canonical,
    spectral_cotangent_ch,
    spectral_todd,
)
from .hitchin_criterion import Regime, classify
from .hn_branches import component_betas, monopole_components
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suites
from . import presets
from .ns_lattice import signature

__all__ = ["CLIError", "load_surface", "main", "main_entry"]


class CLIError(ValueError):
    """Input that the CLI refuses: bad files, bad schemas, bad flags."""


SURFACE_FIELDS = {
    "name": str,
    "ns_rank": int,
    "gram": list,
    "canonical": list,
    "polarization": list,
    "c2_top": int,
}


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise CLIError(f"parse error: {what} must be a list of integers")
    return value


def load_surface(spec: str) -> SurfaceGeometry:
    """Resolve a preset name or read a surface description file."""
    try:
        return presets.by_name(spec)
    except KeyError:
        pass
    except ValueError as exc:
        raise CLIError(f"parse error: {exc}") from None
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(f"cannot read surface {spec!r}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CLIError(
            f"parse error in {spec}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the decoder's recursion limit, or an integer
        # literal longer than the interpreter's int conversion limit
        raise CLIError(f"parse error in {spec}: {exc}") from None
    if not isinstance(data, dict):
        raise CLIError(f"parse error in {spec}: expected a JSON object")
    for key, typ in SURFACE_FIELDS.items():
        if key not in data:
            raise CLIError(f"parse error in {spec}: missing field {key!r}")
        if not isinstance(data[key], typ) or isinstance(data[key], bool):
            raise CLIError(f"parse error in {spec}: field {key!r} must be {typ.__name__}")
    rank = data["ns_rank"]
    gram = data["gram"]
    for i, row in enumerate(gram):
        row = _int_list(row, f"gram row {i}")
        if len(row) != rank:
            raise CLIError(
                f"parse error in {spec}: gram row {i} has length {len(row)}, expected {rank}"
            )
    if len(gram) != rank:
        raise CLIError(
            f"parse error in {spec}: gram has {len(gram)} rows, expected {rank}"
        )
    canonical = _int_list(data["canonical"], "canonical")
    polarization = _int_list(data["polarization"], "polarization")
    if len(canonical) != rank or len(polarization) != rank:
        raise CLIError(f"parse error in {spec}: class vectors must have length {rank}")
    lattice = NSLattice(rank, tuple(tuple(row) for row in gram))
    return SurfaceGeometry(
        lattice=lattice,
        canonical=NSVector(tuple(canonical)),
        polarization=NSVector(tuple(polarization)),
        c2_top=data["c2_top"],
        name=data["name"],
    )


def _parse_vector(text: str, x: SurfaceGeometry, what: str) -> NSVector:
    parts = text.split(",")
    try:
        coords = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise CLIError(f"parse error: {what} must be comma-separated integers, got {text!r}") from None
    if len(coords) != x.rank:
        raise CLIError(
            f"parse error: {what} has {len(coords)} coordinates, lattice rank is {x.rank}"
        )
    return NSVector(coords)


def encode(value: Any) -> Any:
    """Exact data to JSON-ready data; fractions become 'p/q' strings."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, Regime):
        return value.value
    if isinstance(value, NSVector):
        return [encode(c) for c in value.coords]
    if isinstance(value, ChowClass):
        return {"deg0": encode(value.deg0), "deg1": encode(value.deg1), "deg2": encode(value.deg2)}
    if isinstance(value, YClass):
        return {"alpha": encode(value.alpha), "beta": encode(value.beta)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {value!r}")


def _echo(args: argparse.Namespace) -> dict:
    skip = {"command", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _cmd_surface(args: argparse.Namespace) -> tuple[dict, int]:
    x = load_surface(args.surface)
    payload = {
        "name": x.name,
        "ns_rank": x.rank,
        "gram": [list(row) for row in x.lattice.gram],
        "canonical": x.canonical,
        "polarization": x.polarization,
        "c2_top": x.c2_top,
        "signature": list(signature(x.lattice)),
        "k_squared": x.k_squared,
        "l_squared": x.l_squared,
        "chi_structure_sheaf": x.chi_structure_sheaf,
    }
    return {**_echo(args), "payload": payload}, 0


def _cmd_ybundle(args: argparse.Namespace) -> tuple[dict, int]:
    x = load_surface(args.surface)
    r = args.rank
    eta = hyperplane_class(x)
    eta3 = y_mul(y_mul(eta, eta), eta)
    restricted = restrict_to_spectral(canonical_y(x) + spectral_divisor_class(x, r), r)
    payload = {
        "r": r,
        "eta_top_integral": y_pushforward(eta3).deg2,
        "spectral_divisor": spectral_divisor_class(x, r),
        "dinfty": dinfty_class(x),
        "canonical": canonical_y(x),
        "restriction_adjunction": restricted.deg1,
    }
    return {**_echo(args), "payload": payload}, 0


def _cmd_spectral(args: argparse.Namespace) -> tuple[dict, int]:
    x = load_surface(args.surface)
    s = SpectralCover(x, args.rank)
    todd = spectral_todd(s)
    c2coeff = spectral_c2_tangent(s)
    payload = {
        "r": s.r,
        "canonical": spectral_canonical(s),
        "cotangent_ch": spectral_cotangent_ch(s),
        "c2_tangent": c2coeff,
        "euler_number": s.r * c2coeff,
        "todd": todd,
        "chi_structure_sheaf": s.r * todd.deg2,
        "structure_pushforward_ch": pushforward_structure_ch(s),
    }
    return {**_echo(args), "payload": payload}, 0


def _cmd_criterion(args: argparse.Namespace) -> tuple[dict, int]:
    x = load_surface(args.surface)
    c1 = _parse_vector(args.c1, x, "--c1")
    h = HiggsNumerics(args.rank, c1, args.c2)
    report = classify(x, h)
    payload = {
        "r": h.r,
        "c1": h.c1,
        "c2": h.c2,
        "regime": report.regime,
        "c2_gbun": report.c2gbun,
        "c2_gbun_integral": isinstance(report.c2gbun, int),
        "delta": report.witness.delta if report.witness else None,
        "n_points": report.witness.n_points if report.witness else None,
    }
    return {**_echo(args), "payload": payload}, 0


def _cmd_branches(args: argparse.Namespace) -> tuple[dict, int]:
    x = load_surface(args.surface)
    c1 = _parse_vector(args.c1, x, "--c1")
    h = HiggsNumerics(args.rank, c1, args.c2)
    report = classify(x, h)
    w = report.witness
    comps = monopole_components(x, h, report) if w else None
    payload = {
        "r": h.r,
        "c1": h.c1,
        "c2": h.c2,
        "c2_gbun": report.c2gbun,
        "regime": report.regime,
        "n_total": w.n_points if w else None,
        "betas": list(component_betas(x, h.r, w.delta)) if w else None,
        "components": comps,
        "count": len(comps) if w else 0,
    }
    if w and h.r == 2 and h.c1 == x.polarization:
        # the instanton branch sits beside the monopole components here
        payload["rank2_fixed"] = {
            "instanton_branch": True,
            "components": comps,
            "count": len(comps),
        }
    return {**_echo(args), "payload": payload}, 0


def _cmd_grr(args: argparse.Namespace) -> tuple[dict, int]:
    x = load_surface(args.surface)
    s = SpectralCover(x, args.rank)
    delta = _parse_vector(args.delta, x, "--delta")
    if args.points < 0:
        raise CLIError(f"parse error: --points must be nonnegative, got {args.points}")
    ch = grr_pushforward(s, delta, args.points)
    chi_cover, chi_base = chi_two_ways(s, delta, args.points)
    c2_value = Fraction(x.pair(ch.deg1, ch.deg1), 2) - Fraction(ch.deg2)
    payload = {
        "r": s.r,
        "delta": delta,
        "n_points": args.points,
        "ch": {"rank": ch.deg0, "c1": ch.deg1, "ch2": ch.deg2},
        "c2": c2_value,
        "chi_cover": chi_cover,
        "chi_base": chi_base,
        "chi_integral": isinstance(chi_base, int),
    }
    return {**_echo(args), "payload": payload}, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    seed_text = os.environ.get("HIGGS_SEED")
    if seed_text is not None:
        try:
            seed = int(seed_text)
        except ValueError:
            raise CLIError(f"parse error: HIGGS_SEED must be an integer, got {seed_text!r}") from None
    else:
        seed = DEFAULT_SEED
    results = run_suites(names, seed)
    all_passed = all(r.passed for r in results)
    payload = {
        "seed": seed,
        "suites": [
            {
                "name": r.name,
                "checks": r.checks,
                "failures": r.failures,
                "passed": r.passed,
            }
            for r in results
        ],
        "all_passed": all_passed,
    }
    return {**_echo(args), "payload": payload}, 0 if all_passed else 1


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def _print_envelope(envelope: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(envelope, indent=2) + "\n")
        return
    rows: list[tuple[str, str]] = []
    _flatten("", envelope, rows)
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        sys.stdout.write(f"{k.ljust(width)}  {v}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgsnum",
        description="Exact spectral-surface and Higgs sheaf calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, surface: bool = True) -> None:
        if surface:
            p.add_argument(
                "--surface",
                required=True,
                help="preset name (p2, hypersurface:<d>) or path to a surface JSON file",
            )
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("surface", help="validate and report a surface")
    common(p)

    p = sub.add_parser("ybundle", help="intersection data of the compactified total space")
    common(p)
    p.add_argument("-r", "--rank", type=int, required=True, help="cover degree")

    p = sub.add_parser("spectral", help="characteristic classes of a spectral cover")
    common(p)
    p.add_argument("-r", "--rank", type=int, required=True, help="cover degree")

    p = sub.add_parser("criterion", help="classify (r, c1, c2) by fiber regime")
    common(p)
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("--c1", required=True, help="comma-separated lattice coordinates")
    p.add_argument("--c2", type=int, required=True)

    p = sub.add_parser("branches", help="enumerate fixed-locus component candidates")
    common(p)
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("--c1", required=True, help="comma-separated lattice coordinates")
    p.add_argument("--c2", type=int, required=True)

    p = sub.add_parser("grr", help="push a twisted line bundle character to the base")
    common(p)
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("--delta", required=True, help="comma-separated lattice coordinates")
    p.add_argument("--points", type=int, default=0, help="ideal point count (default 0)")

    p = sub.add_parser("verify", help="run the oracle suites")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--format", choices=("json", "table"), default="json")

    return parser


_DISPATCH = {
    "surface": _cmd_surface,
    "ybundle": _cmd_ybundle,
    "spectral": _cmd_spectral,
    "criterion": _cmd_criterion,
    "branches": _cmd_branches,
    "grr": _cmd_grr,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        partial, rc = _DISPATCH[args.command](args)
    except CLIError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (LatticeError, ValidationError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    payload = partial.pop("payload")
    envelope = {
        "command": args.command,
        "input": partial,
        "exact": True,
        "payload": encode(payload),
    }
    _print_envelope(envelope, args.format)
    return rc


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
