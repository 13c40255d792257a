"""Output checks that do not use the package under test.

Every expected value is recomputed here from the surface data the
benchmark generated, in integers and `Fraction`, by closed forms: the
intersection numbers from the gram matrix, the regime and point count of
the criterion, chi of a twisted line bundle on a spectral cover, and the
number of partitions by a table recurrence of its own.  `check` returns
an error message, or None when the output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from workloads import Op, Surface, c2_threshold_times_24r, pair

# checks per suite in one `higgsnum verify` run; fixed by the suite design
EXPECTED_CHECKS = {
    "ring": 1120,
    "chi": 500,
    "adjunction": 72,
    "olympic": 12,
    "discriminant": 1000,
    "partition": 296,
    "hodge": 1000,
}


def _enc(x) -> object:
    """An exact value as the CLI prints it: int, or a reduced 'p/q' string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _vec(v) -> list:
    return [_enc(c) for c in v]


def _lin(a, v, b=0, w=None) -> list:
    """a v + b w, coordinatewise."""
    w = w if w is not None else v
    return [a * x + b * y for x, y in zip(v, w)]


def _chow(d0, d1, d2) -> dict:
    return {"deg0": _enc(d0), "deg1": _vec(d1), "deg2": _enc(d2)}


def partitions_at_most(n: int, k: int) -> int:
    """Partitions of n into at most k parts: by conjugation, parts of size at most k."""
    ways = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def _numbers(s: Surface) -> tuple[int, int, int]:
    g, k, l = s.gram, s.canonical, s.polarization
    return pair(g, k, k), pair(g, l, l), pair(g, k, l)


def _expect_surface(op: Op) -> dict:
    s = op.surface
    k2, l2, _ = _numbers(s)
    return {
        "name": s.name,
        "ns_rank": s.rank,
        "gram": [list(row) for row in s.gram],
        "canonical": list(s.canonical),
        "polarization": list(s.polarization),
        "c2_top": s.c2_top,
        "signature": [1, s.rank - 1],
        "k_squared": k2,
        "l_squared": l2,
        "chi_structure_sheaf": (k2 + s.c2_top) // 12,
    }


def _expect_ybundle(op: Op) -> dict:
    s, r = op.surface, op.params["r"]
    k, l = s.canonical, s.polarization
    zero = [0] * s.rank
    _, l2, _ = _numbers(s)
    return {
        "r": r,
        "eta_top_integral": l2,
        "spectral_divisor": {"alpha": _chow(0, zero, 0), "beta": _chow(r, zero, 0)},
        "dinfty": {"alpha": _chow(0, _lin(-1, l), 0), "beta": _chow(1, zero, 0)},
        "canonical": {"alpha": _chow(0, _lin(1, k, 1, l), 0), "beta": _chow(-2, zero, 0)},
        "restriction_adjunction": _lin(1, k, r - 1, l),
    }


def _cover_todd_deg2(s: Surface, r: int) -> Fraction:
    k2, l2, kl = _numbers(s)
    return Fraction(k2 + (2 * r - 1) * (r - 1) * l2 + 3 * (r - 1) * kl + s.c2_top, 12)


def _expect_spectral(op: Op) -> dict:
    s, r = op.surface, op.params["r"]
    k, l = s.canonical, s.polarization
    k2, l2, kl = _numbers(s)
    k_cover = _lin(1, k, r - 1, l)
    c2_tangent = r * (r - 1) * l2 + (r - 1) * kl + s.c2_top
    todd2 = _cover_todd_deg2(s, r)
    return {
        "r": r,
        "canonical": k_cover,
        "cotangent_ch": _chow(2, k_cover, Fraction(k2 - 2 * s.c2_top + l2 - r * r * l2, 2)),
        "c2_tangent": c2_tangent,
        "euler_number": r * c2_tangent,
        "todd": _chow(1, [Fraction(-c, 2) for c in k_cover], todd2),
        "chi_structure_sheaf": _enc(r * todd2),
        "structure_pushforward_ch": _chow(
            r, _lin(-(r * (r - 1) // 2), l), Fraction(l2 * r * (r - 1) * (2 * r - 1), 12)
        ),
    }


def _criterion_facts(s: Surface, r: int, c1) -> tuple[Fraction, Optional[list]]:
    """The threshold c2_gbun, and delta with r delta = c1 + r(r-1)/2 L if it exists."""
    threshold = Fraction(c2_threshold_times_24r(s, r, c1), 24 * r)
    shifted = _lin(1, c1, r * (r - 1) // 2, s.polarization)
    if any(c % r for c in shifted):
        return threshold, None
    return threshold, [c // r for c in shifted]


def _expect_criterion(op: Op) -> dict:
    s, r, c1, c2 = op.surface, op.params["r"], op.params["c1"], op.params["c2"]
    threshold, delta = _criterion_facts(s, r, c1)
    if delta is None:
        regime = "NoDeltaSolution"
    elif c2 < threshold:
        regime, delta = "Empty", None
    else:
        regime = "Boundary" if c2 == threshold else "Generic"
    return {
        "r": r,
        "c1": list(c1),
        "c2": c2,
        "regime": regime,
        "c2_gbun": _enc(threshold),
        "c2_gbun_integral": threshold.denominator == 1,
        "delta": delta,
        "n_points": None if delta is None else c2 - threshold,
    }


def _characteristic(s: Surface) -> bool:
    """Whether K.v = v.v mod 2 for every v, as for the canonical class of a surface."""
    return all((sum(g * k for g, k in zip(row, s.canonical)) - row[i]) % 2 == 0
               for i, row in enumerate(s.gram))


def _check_grr(op: Op, payload: dict) -> Optional[str]:
    s, r, delta, n = op.surface, op.params["r"], op.params["delta"], op.params["points"]
    k_cover = _lin(1, s.canonical, r - 1, s.polarization)
    # Riemann-Roch on the cover: r (Td_2 - delta.K_cover/2 + delta^2/2) - n
    chi = r * (_cover_todd_deg2(s, r) + Fraction(pair(s.gram, delta, delta)
                                                 - pair(s.gram, delta, k_cover), 2)) - n
    if payload.get("chi_cover") != payload.get("chi_base"):
        return f"chi_cover {payload.get('chi_cover')} != chi_base {payload.get('chi_base')}"
    if payload["chi_base"] != _enc(chi):
        return f"chi {payload['chi_base']}, expected {_enc(chi)}"
    if payload.get("chi_integral") is not (chi.denominator == 1):
        return f"chi_integral is {payload.get('chi_integral')} for chi = {chi}"
    if chi.denominator != 1 and _characteristic(s):
        return f"chi {chi} of a line bundle is not integral although K is characteristic"
    if payload.get("ch", {}).get("rank") != r or payload.get("n_points") != n:
        return "rank or point count of the pushforward is wrong"
    return None


def _check_branches(op: Op, payload: dict) -> Optional[str]:
    s, r, c1, c2 = op.surface, op.params["r"], op.params["c1"], op.params["c2"]
    threshold, delta = _criterion_facts(s, r, c1)
    if delta is None or threshold.denominator != 1:
        return "the benchmark generated a branches query without a witness"
    n = c2 - int(threshold)
    head = {
        "r": r, "c1": list(c1), "c2": c2, "c2_gbun": _enc(threshold),
        "regime": "Boundary" if n == 0 else "Generic", "n_total": n,
        "betas": [_lin(1, delta, -i, s.polarization) for i in range(r)],
    }
    for key, value in head.items():
        if payload.get(key) != value:
            return f"{key} = {payload.get(key)!r}, expected {value!r}"
    count = partitions_at_most(n, r)
    comps = payload.get("components")
    if payload.get("count") != count or not isinstance(comps, list) or len(comps) != count:
        return f"count {payload.get('count')}, expected {count}"
    previous = None
    for lengths in comps:
        if (len(lengths) != r or sum(lengths) != n or lengths[-1] < 0
                or any(a < b for a, b in zip(lengths, lengths[1:]))):
            return f"component {lengths} is not a partition of {n} into {r} parts"
        if previous is not None and not previous > lengths:
            return f"components {previous} and {lengths} are not in decreasing order"
        previous = lengths
    if r == 2 and tuple(c1) == s.polarization:
        fixed = payload.get("rank2_fixed", {})
        if fixed.get("count") != c2 // 2 + 1:
            return f"rank2_fixed count {fixed.get('count')}, expected {c2 // 2 + 1}"
    return None


def _expect_verify(op: Op) -> dict:
    names = list(EXPECTED_CHECKS) if op.params["suite"] == "all" else [op.params["suite"]]
    return {
        "seed": op.params["seed"],
        "suites": [{"name": name, "checks": EXPECTED_CHECKS[name], "failures": [],
                    "passed": True} for name in names],
        "all_passed": True,
    }


_EXPECT = {
    "surface": _expect_surface,
    "ybundle": _expect_ybundle,
    "spectral": _expect_spectral,
    "criterion": _expect_criterion,
    "verify": _expect_verify,
}
_CHECK = {"grr": _check_grr, "branches": _check_branches}


def check(op: Op, rc: Optional[int], out: str) -> tuple[Optional[str], Optional[dict]]:
    """(error or None, parsed envelope or None) for one op's exit code and stdout."""
    if rc != 0:
        return f"exit code {rc}", None
    try:
        envelope = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", None
    if not isinstance(envelope, dict) or not isinstance(envelope.get("payload"), dict):
        return "output is not an envelope with a payload", None
    if envelope.get("command") != op.command or envelope.get("exact") is not True:
        return "envelope command or exact flag is wrong", envelope
    payload = envelope["payload"]
    if op.command in _CHECK:
        try:
            return _CHECK[op.command](op, payload), envelope
        except (KeyError, TypeError, IndexError) as exc:
            return f"payload is malformed: {exc!r}", envelope
    expected = _EXPECT[op.command](op)
    if payload != expected:
        wrong = sorted(k for k in expected.keys() | payload.keys()
                       if payload.get(k) != expected.get(k))
        return f"payload fields {wrong} differ from the closed form", envelope
    return None, envelope


def _corrupt(command: str, payload: dict) -> None:
    if command == "verify":
        payload["suites"][0]["checks"] -= 1
    elif command == "branches":
        payload["components"].pop()
    elif command == "grr":
        payload["chi_base"] += 1
    elif command == "spectral":
        payload["r"] += 1
    elif command == "criterion":
        payload["regime"] = "Empty" if payload["regime"] != "Empty" else "Generic"
    elif command == "ybundle":
        payload["eta_top_integral"] += 1
    else:
        payload["k_squared"] += 1


def self_test(op: Op, out: str) -> Optional[str]:
    """Feed the checker corrupted copies of a correct output; each must fail.

    Returns None when every corruption is caught, else what slipped through.
    """
    if check(op, 0, out)[0] is not None:
        return "the uncorrupted output does not pass"
    envelope = json.loads(out)
    _corrupt(op.command, envelope["payload"])
    corrupted = {
        "payload": json.dumps(envelope, indent=2) + "\n",
        "truncated": out[: len(out) // 2],
    }
    for what, text in corrupted.items():
        if check(op, 0, text)[0] is None:
            return f"a {what} corruption of a {op.command} output passed the oracle"
    if check(op, 2, out)[0] is None:
        return "a non-zero exit code passed the oracle"
    return None
