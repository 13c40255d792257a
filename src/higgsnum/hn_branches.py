"""Harder-Narasimhan arithmetic and enumeration of monopole components.

Three pieces of bookkeeping around destabilizing filtrations live here.
The exact discriminant identity for a filtration with factors
(r_i, c1_i, c2_i): writing Delta for the Bogomolov discriminant,

    Delta(E)/r = sum_i Delta(E_i)/r_i
                 - sum_{i<j} (r_i r_j / r) (c1_i/r_i - c1_j/r_j)^2,

which needs no ordering assumption at all.  The olympic bound: over
ordered compositions (r_1, ..., r_m) of r, the weighted sum
sum_{i<j} r_i r_j (j-i)^2 is at most r^2(r^2-1)/12, with equality only
for the all-ones composition.  And the monopole components at the
bottom of the Morse flow: for (r, c1, c2) in the Boundary or Generic
regime the candidate components are indexed by partitions of
n = c2 - c2_gbun into at most r parts, all attached to the same fixed
line bundle classes beta_i = delta - (i-1) c1(L).

A factor is a HiggsNumerics, named HNFactor here.  The partitions are
enumerated one way: iter_partition_blocks yields them in lists of runs,
each run a shared prefix and the tails its rows end in, made by two cell
functions the caller chooses, (cell, last), the second for a row's last
slot; the tails of small boxes, and the runs of frames whose children
are boxes, come from one bounded memo table shared by every call, the
walk's top (n, k) included.  The CLI writes each run as text with one
join, and the library's tuple rows are views of the same walk, its runs
expanded:
iter_partitions_at_most gives the parts, iter_monopole_components the
parts zero-padded to length r, lazily, and monopole_components lists
those.  partition_count gives their number without enumerating them,
and component_betas gives the shared classes once.  branches_report
answers a branches query: classify's report and, with a witness, the
betas, the count by partition_count and the rank-2 rule, r = 2 and
c1 = c1(L), under which the instanton branch sits beside the components;
it is the one place each of these is worked out for a query, and
rank2_fixed_components reads it.  The enumeration describes components
by their numerical invariants; the geometric identification of each
candidate is outside the scope of the arithmetic done here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Sequence, TypeVar

from .ns_lattice import (
    Frozen, HiggsError, NSVector, Rat, ValidationError, lincomb, pair_num, qvec, ratio, ratnorm,
    require_int, require_type,
)
from .surface_chow import HiggsNumerics, SurfaceGeometry, discriminant
from .hitchin_criterion import RegimeReport, classify

__all__ = [
    "BranchesReport",
    "HNFactor",
    "HNType",
    "Rank2Report",
    "RegimeError",
    "branches_report",
    "component_betas",
    "discriminant_identity",
    "iter_compositions",
    "iter_monopole_components",
    "iter_partition_blocks",
    "iter_partitions_at_most",
    "monopole_components",
    "olympic_sum",
    "partition_count",
    "rank2_fixed_components",
    "slope_gaps",
]


_Row = TypeVar("_Row", str, tuple)


class RegimeError(HiggsError):
    """Raised when an enumeration is requested outside its regime."""

    def __init__(self, message: str, report: RegimeReport):
        super().__init__(message)
        self.report = report


# the numerical invariants (rank, c1, c2) of one graded piece
HNFactor = HiggsNumerics


class HNType(Frozen):
    """Ordered sequence of graded-piece invariants of a filtration.

    Slope ordering is a property of the pair (type, surface) and is
    checked by slope_gaps, not at construction; the discriminant
    identity below holds for arbitrary orderings.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[HNFactor]) -> None:
        factors = tuple(factors)
        if not factors:
            raise ValidationError("a filtration needs at least one factor")
        for f in factors:
            require_type(f, HiggsNumerics, "rank, c1 and c2 data")
        Frozen.__init__(self, factors)

    @property
    def total_rank(self) -> int:
        return sum(f.r for f in self.factors)


def _total_numerics(x: SurfaceGeometry, t: HNType) -> HiggsNumerics:
    # c2 = sum_i c2_i + sum_{i<j} c1_i.c1_j, each c1_j paired once with the sum before it
    c1, c2 = NSVector.zero(x.rank), 0
    for f in t.factors:
        c2 += f.c2 + x.pair(c1, f.c1)
        c1 = c1 + f.c1
    return HiggsNumerics(t.total_rank, c1, c2)


def discriminant_identity(x: SurfaceGeometry, t: HNType) -> tuple[Rat, Rat]:
    """Both sides of the filtration discriminant identity, independently.

    Left: Delta(E)/r from the totals of the factors.  Right: the sum of
    Delta(E_i)/r_i minus the cross terms (r_j c1_i - r_i c1_j)^2 / (r r_i r_j),
    the weighted squares of slope-vector differences, summed in integers
    over the one denominator D = r prod r_i and divided once.  Exact
    equality of the two is the content of the identity.
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_type(t, HNType, "a Harder-Narasimhan type")
    total = _total_numerics(x, t)
    r = total.r
    lhs = ratio(discriminant(total, x), r)

    fs = t.factors
    p = 1
    for f in fs:
        p *= f.r
    num = 0
    for i, f in enumerate(fs):
        ri, ci = f.r, f.c1
        num += r * (p // ri) * discriminant(f, x)
        for g in fs[i + 1:]:
            rj = g.r
            d = lincomb(rj, ci, -ri, g.c1)
            num -= (p // (ri * rj)) * pair_num(x.lattice, d, d)
    return lhs, ratio(num, r * p)


def slope_gaps(x: SurfaceGeometry, t: HNType) -> tuple[tuple[Rat, ...], bool]:
    """Consecutive slope drops mu_i - mu_{i+1}, and their validity.

    Slopes are taken against the polarization.  The gaps of a
    destabilizing filtration induced by a Higgs field lie in the window
    (0, L^2]; returns the gaps plus whether all of them do.
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_type(t, HNType, "a Harder-Narasimhan type")
    slopes = [
        Fraction(x.pair(f.c1, x.polarization), f.r) for f in t.factors
    ]
    gaps = tuple(
        ratnorm(slopes[i] - slopes[i + 1]) for i in range(len(slopes) - 1)
    )
    l2 = x.l_squared
    valid = all(0 < g <= l2 for g in gaps)
    return gaps, valid


def olympic_sum(composition: Sequence[int]) -> int:
    """sum over i < j of r_i r_j (j - i)^2 for an ordered composition.

    One pass: part j adds r_j (j^2 S_0 - 2 j S_1 + S_2), S_k = sum_{i<j} i^k r_i.
    """
    parts = tuple(composition)
    if not parts:
        raise ValidationError("composition must be nonempty")
    total = s0 = s1 = s2 = 0
    for j, p in enumerate(parts):
        require_int(p, "composition part", 1)
        total += p * (j * j * s0 - 2 * j * s1 + s2)
        s0, s1, s2 = s0 + p, s1 + j * p, s2 + j * j * p
    return total


def iter_compositions(r: int) -> Iterator[tuple[int, ...]]:
    """All 2^(r-1) ordered compositions of r, first part descending.

    Decreasing lex order, one list stepped in place: the rightmost part
    above 1 drops by one and the 1s after it merge into one last part.
    """
    require_int(r, "composition size", 0)
    c = [r] if r else []
    while True:
        yield tuple(c)
        k = len(c) - 1
        while k >= 0 and c[k] == 1:
            k -= 1
        if k < 0:
            return
        c[k] -= 1
        c[k + 1:] = [len(c) - k]


# iter_partition_blocks takes the parts m left in s slots from the one memo
# _MEMO when (m, s) is a box or a frame.  A box, s >= 2 with comb(m + s, s)
# <= _BOX_ROWS or m <= 1, is held as its rows' tails; a frame, s >= 3 too
# large for a box but with every child (m - v, s - 1) a box, m <= _FRAME[s],
# as its runs.  The two ranges do not overlap, so one table, keyed by
# (cell, last, m, s), holds both, shared by every walk and every view: an
# entry depends only on its key, the cell functions themselves and not
# their ids, as the package's cells are pure, so it never goes stale.  A
# block is yielded once its rows hold _BOX_ROWS cells.  _held counts the
# cells of all entries, a box's rows times s and a frame's tails and cells;
# past _MEMO_CELLS the table is emptied, keys included, so the cells of
# views no longer used do not pile up.
_BOX_ROWS = 4096
_MEMO_CELLS = 1 << 16
_MEMO: dict[tuple, tuple] = {}
_held = 0


def _box_limits(size: int) -> tuple[int, ...]:
    """For s = 1, 2, ... while it is at least 2: the largest m with
    comb(m + s, s) <= size, at index s."""
    limits = [0, size - 1]  # index 1 holds the place: one-slot rows are made in place
    while True:
        s, m, c = len(limits), 0, 1
        # c = comb(m + s, s); the next is c (m + s + 1) / (m + 1)
        while c * (m + s + 1) <= size * (m + 1):
            c, m = c * (m + s + 1) // (m + 1), m + 1
        if m < 2:
            return tuple(limits)
        limits.append(m)


_BOX = _box_limits(_BOX_ROWS)
# at index s >= 3, the largest m with m - ceil(m / s) <= _BOX[s - 1]: the
# largest child (m - v, s - 1) of the frame is a box
_FRAME = (0, 0, 0) + tuple(((_BOX[s - 1] + 1) * s - 1) // (s - 1) for s in range(3, len(_BOX) + 1))


def _entry(
    cell: Callable[[int], _Row], last: Callable[[int], _Row], m: int, s: int,
) -> tuple:
    """The entry of _MEMO at (cell, last, m, s), built and stored: the runs
    (cell(v), tails) for v from m down to ceil(m / s), each tails the child
    box (m - v, s - 1) cut to first parts at most v.  A frame keeps its runs,
    so a frame capped at p takes them from index m - p on; a box flattens
    them into every row tail for m in s slots, and at index m - p where the
    tails with first part at most p begin.

    The cut tails are stored, not cut at each use, and counted in _held; an
    entry is a tuple of tuples, stored whole once it is made, so no reader
    sees half of one and no consumer can change it.
    """
    global _held
    if m == 0 or s == 1:
        got, size = ((cell(0) * (s - 1) + last(m),), (0,)), s
    else:
        runs = []
        for v in range(m, -(-m // s) - 1, -1):
            sub, at = _MEMO.get((cell, last, m - v, s - 1)) or _entry(cell, last, m - v, s - 1)
            i = m - 2 * v
            runs.append((cell(v), sub[at[i]:] if i > 0 else sub))
        if m > 1 and (s >= len(_BOX) or m > _BOX[s]):  # past the box bound: a frame
            got, size = tuple(runs), sum(len(part) + 1 for _, part in runs)
        else:
            tails, starts = [], []
            for c, part in runs:
                starts.append(len(tails))
                tails += [c + t for t in part]
            got, size = (tuple(tails), tuple(starts)), len(tails) * s
    _held += size
    if _held > _MEMO_CELLS:
        _MEMO.clear()
        _held = size
    _MEMO[(cell, last, m, s)] = got
    return got


def iter_partition_blocks(
    n: int, k: int, cell: Callable[[int], _Row], last: Callable[[int], _Row],
) -> Iterator[list[tuple[_Row, Sequence[_Row]]]]:
    """The partitions of n into at most k parts as rows, in lists of runs.

    Row v_1 >= ... >= v_k >= 0 is cell(v_1) + ... + cell(v_{k-1}) +
    last(v_k), so with cell = last = lambda v: (v,) it is the partition
    padded with zeros to length k, and with cell(0) = last(0) = () the
    partition itself.  A run is a pair (prefix, tails), whose rows are
    prefix + t for each t in tails; a block is a list of runs, and its
    rows, run after run, come in decreasing lex order.  This is the one
    enumeration of partitions in the package: the CLI's text rows and the
    library's tuple rows are both made by it.  The walk extends a prefix
    one part at a time, formatting each cell as it goes, until the parts
    left, (m, s), fill one slot, whose one row is made whole, or fit a box,
    whose tails are one run with the prefix, or a frame of boxes, whose
    runs are each joined to the prefix; (n, k) itself is such a child,
    with the empty row last(0)[:0] as its prefix.  Whole rows in a row
    share one run whose prefix is the empty row.  Boxes and frames come
    from _MEMO, one bounded memo for every call, keyed by (cell, last, m,
    s), so each is built once while it stays in the memo, not once per
    call; cell and last must be pure, as the package's cells are.  Its
    entries are tuples, so no consumer can change the memo.  A list is
    yielded once its rows hold _BOX_ROWS = 4,096 cells or more, after any
    run, inside a frame too, so every list but the last has at least
    ceil(4096 / k) rows and fewer than 75 more, as a run adds at most 75.
    """
    require_int(n, "partition size", 0)
    require_int(k, "part count", 0)
    empty = last(0)[:0]
    if k == 0:
        if n == 0:
            yield [(empty, (empty,))]
        return
    least = -(-_BOX_ROWS // k)  # the rows of _BOX_ROWS cells

    # a frame (pre, m, s, vs) walks the part v of m in s slots from its cap
    # down to ceil(m / s), the least largest part: its child is the row so
    # far c = pre + cell(v) and the rest (m - v, s - 1), capped at v.  The
    # root (n, k) is the child, capped at n, of part n in a frame (2n, k + 1)
    # with no prefix, so c is the empty row.  whole is the open run of whole
    # rows, or None once a box run or a yield ends it
    stack, block, rows, whole = [(None, n + n, k + 1, iter((n,)))], [], 0, None
    while stack:
        pre, m, s, vs = stack[-1]
        for v in vs:
            c = empty if pre is None else pre + cell(v)
            m2, s2 = m - v, s - 1
            if s2 == 1:
                # m2 <= v, as v >= ceil(m / 2): the one row is c + last(m2)
                if whole is None:
                    whole = []
                    block.append((empty, whole))
                whole.append(c + last(m2))
                rows += 1
            elif m2 <= 1 or (s2 < len(_BOX) and m2 <= _BOX[s2]):
                sub, at = _MEMO.get((cell, last, m2, s2)) or _entry(cell, last, m2, s2)
                i = m2 - v
                part = sub[at[i]:] if i > 0 else sub
                block.append((c, part))
                rows += len(part)
                whole = None
            elif s2 < len(_FRAME) and m2 <= _FRAME[s2]:
                # the child frame, capped at v, whole: its runs from part min(v, m2) on
                runs = _MEMO.get((cell, last, m2, s2)) or _entry(cell, last, m2, s2)
                whole = None
                for c2, part in runs[m2 - v:] if v < m2 else runs:
                    block.append((c + c2, part))
                    rows += len(part)
                    if rows >= least:
                        yield block
                        block, rows = [], 0
                continue
            else:
                stack.append((c, m2, s2, iter(range(min(v, m2), -(-m2 // s2) - 1, -1))))
                break
            if rows >= least:
                yield block
                block, rows, whole = [], 0, None
        else:
            stack.pop()
    if block:
        yield block


def _rows(blocks: Iterator[list[tuple[_Row, Sequence[_Row]]]]) -> Iterator[_Row]:
    """The rows of the runs of blocks, one by one, each run flattened in C."""
    return chain.from_iterable(map(c.__add__, part) for block in blocks for c, part in block)


def _part(v: int) -> tuple[int, ...]:
    return (v,) if v else ()


def _padded(v: int) -> tuple[int, ...]:
    return (v,)


def iter_partitions_at_most(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most k parts, in decreasing lex order.

    Parts are emitted nonincreasing, without zero padding: the rows of the
    runs iter_partition_blocks yields with a cell for each nonzero part,
    one by one.
    """
    return _rows(iter_partition_blocks(n, k, _part, _part))


# the largest n partition_count takes for k >= 4, whose table has n + 1 entries
_TABLE_MAX = 10**6


def partition_count(n: int, k: int) -> int:
    """Partitions of n into at most k parts: int(n == 0), 1, n // 2 + 1 and
    ((n + 3)^2 + 6) // 12 for k = 0, 1, 2 and 3, else from an O(n k) table.

    After pass j, entry m holds p(m, j) = p(m, j - 1) + p(m - j, j).  The
    table bounds n by _TABLE_MAX, 10^6, for k >= 4: a larger n raises
    ValidationError.
    """
    require_int(n, "partition size", 0)
    require_int(k, "part count", 0)
    if k <= 3:
        return (int(n == 0), 1, n // 2 + 1, ((n + 3) ** 2 + 6) // 12)[k]
    if n > _TABLE_MAX:
        # n itself may be past the int-to-text limit, so the message leaves it out
        raise ValidationError(f"partition size must be at most {_TABLE_MAX} for more than 3 parts")
    table = [1] + [0] * n
    for j in range(1, min(k, n) + 1):
        for m in range(j, n + 1):
            table[m] += table[m - j]
    return table[n]


def component_betas(x: SurfaceGeometry, r: int, delta: NSVector) -> tuple[NSVector, ...]:
    """The fixed line bundle classes beta_i = delta - (i-1) c1(L), i = 1..r.

    They are shared by every monopole component of one (r, c1, c2).
    """
    require_type(x, SurfaceGeometry, "a surface")
    require_int(r, "rank", 1)
    x.lattice.check_vector(qvec(delta))
    return tuple(delta - i * x.polarization for i in range(r))


def iter_monopole_components(x: SurfaceGeometry, h: HiggsNumerics) -> Iterator[tuple[int, ...]]:
    """Candidate fixed-locus components for (r, c1, c2), by partition, lazily.

    Raises RegimeError at the call, before any row is asked for, unless
    classify(x, h) has a witness, which it has exactly in the Boundary
    and Generic regimes.  Each component is a partition of the n =
    c2 - c2_gbun points into at most r parts, padded with zeros to
    length r, in decreasing lex order; there are partition_count(n, r)
    of them.  The line bundle classes they share are component_betas.
    """
    report = classify(x, h)
    if report.witness is None:
        raise RegimeError(f"no components to enumerate in regime {report.regime.value}", report)
    return _rows(iter_partition_blocks(report.witness.n_points, h.r, _padded, _padded))


def monopole_components(x: SurfaceGeometry, h: HiggsNumerics) -> list[tuple[int, ...]]:
    """The rows of iter_monopole_components as one list."""
    return list(iter_monopole_components(x, h))


class BranchesReport(Frozen):
    """The answer to a branches query for (r, c1, c2): classify's report,
    and with a witness the shared classes betas, the number of monopole
    components count and whether the instanton branch sits beside them."""

    __slots__ = ("report", "betas", "count", "instanton_branch")


def branches_report(x: SurfaceGeometry, h: HiggsNumerics) -> BranchesReport:
    """The BranchesReport of (r, c1, c2): without a witness betas is None,
    count 0 and instanton_branch False.  With one, betas is component_betas
    and count partition_count of the witness's n points into r parts,
    counted without enumerating them and before betas is built, so r >= 4
    and n > 10^6 is refused with partition_count's ValidationError.  The
    instanton branch is marked for r = 2 and c1 = c1(L), the one place
    that rule is stated.
    """
    report = classify(x, h)
    w = report.witness
    if w is None:
        return BranchesReport(report, None, 0, False)
    count = partition_count(w.n_points, h.r)
    return BranchesReport(report, component_betas(x, h.r, w.delta), count,
                          h.r == 2 and h.c1 == x.polarization)


class Rank2Report(Frozen):
    """Fixed-locus inventory for rank 2 with c1 the polarization class."""

    __slots__ = ("c2", "regime", "instanton_branch", "count")


def rank2_fixed_components(x: SurfaceGeometry, c2: int) -> Rank2Report:
    """Type-(1,1) fixed components for rank 2, c1 = c1(L), given c2.

    The threshold vanishes for this c1, so the regime is Empty for
    c2 < 0; otherwise the components are the monopole components of
    (2, c1(L), c2), the pairs (n1, n2) with n1 >= n2 >= 0 summing to c2,
    alongside the branch of sheaves with vanishing Higgs field, which is
    only marked here.  The regime, the flag and the count are those of
    branches_report, which counts the pairs, never enumerating them.
    """
    require_type(x, SurfaceGeometry, "a surface")
    b = branches_report(x, HiggsNumerics(2, x.polarization, c2))
    return Rank2Report(c2, b.report.regime, b.instanton_branch, b.count)
