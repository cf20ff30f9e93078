"""The line-embedding map, cut semimetrics, and membership machinery.

A semimetric m on [n] is embeddable in the real line when m[k,l] =
|x_k - x_l| for some real vector x, and unit-separated when additionally
all off-diagonal entries are >= 1.  The separated metrics decompose into
n!/2 disjoint translated simplicial cones, one per antipodal pair of
permutations; the functions here recover embeddings, decide membership,
and evaluate the two families of valid inequalities used downstream
(spreading inequalities and the bounded-facet inequality).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Perm, RatLike, SymZMat, Word, inner_product, require_exhaustible, subset_sums
)


def embed(x: Sequence[RatLike]) -> SymZMat:
    """M(x): the matrix of pairwise distances |x_k - x_l| on the line."""
    n = len(x)
    denom = math.lcm(*(v.denominator for v in x))
    xs = [v.numerator * (denom // v.denominator) for v in x]
    return SymZMat.of_ints(
        n, [abs(xs[k] - xs[l]) for k in range(n) for l in range(k + 1, n)], denom
    )


def perm_metric(pi: Perm) -> SymZMat:
    """M(pi): pairwise distances of the permutation point (pi(1), ..., pi(n))."""
    return embed(pi.images)


def cut_metric(u: Word) -> SymZMat:
    """M(chi^U): distance 1 across the bipartition (U, complement U), 0 within."""
    if not u.is_proper():
        raise ValueError(f"word {u} must be proper and nonempty")
    return embed(u.bits)


def recover_embedding(m: SymZMat) -> Optional[tuple[Fraction, ...]]:
    """Invert the embedding map, or return None when m is not a line metric.

    When m = M(x) the preimage in the zero-sum hyperplane is unique up to
    global sign; the returned representative has x_j0 < x_j1 for the
    lexicographically first coordinate pair with distinct values (the zero
    matrix maps to the zero vector).

    Anchoring x_1 = 0 forces x_l = +-m[1,l]; one further consistency check
    against the first coordinate split off from x_1 fixes each sign, and a
    full verification of M(x) = m rejects everything that is not actually
    embeddable.
    """
    n = m.n
    square = m.square()
    # x_l = +-m[1,l] in units of 1/denom; anchor is the first l with m[1,l] != 0
    x = square[0]
    anchor = next((l for l, d in enumerate(x) if d), 0)
    if anchor:
        xa = x[anchor]
        x = [d if abs(d - xa) == c else -d for d, c in zip(x, square[anchor])]
    # full check; greedy sign choices are sound iff this holds
    if embed(x).ints != m.ints:
        return None
    # centre on the mean, and make the first coordinate that differs from
    # x_1 larger than it
    total = sum(x)
    sign = -1 if x[0] > next((v for v in x if v != x[0]), x[0]) else 1
    return tuple(Fraction(sign * (n * v - total), n * m.denom) for v in x)


def separated_membership(m: SymZMat) -> Optional[tuple[Perm, tuple[Fraction, ...]]]:
    """Decide membership in the unit-separated line metrics.

    Returns (pi, x) with M(x) = m, x in the normal cone of pi, and all
    pairwise gaps >= 1; pi is the lex-smaller member of its antipodal pair
    and x is the matching sign choice.  None when m is not a separated line
    metric.
    """
    x = recover_embedding(m)
    if x is None:
        return None
    return _separated(x)


def _separated(x: tuple[Fraction, ...]) -> Optional[tuple[Perm, tuple[Fraction, ...]]]:
    """separated_membership's (pi, x), or None, from an already recovered embedding x."""
    n = len(x)
    order = sorted(range(1, n + 1), key=lambda j: x[j - 1])
    for a, b in zip(order, order[1:]):
        if x[b - 1] - x[a - 1] < 1:
            return None
    images = [0] * n
    for rank, j in enumerate(order, start=1):
        images[j - 1] = rank
    pi = Perm(images)
    canon = pi.canonical()
    if canon != pi:
        return canon, tuple(-v for v in x)
    return pi, tuple(x)


def decomposition_cone_check(x: Sequence[RatLike], pi: Perm) -> bool:
    """Self-test of the cone translation identity R_n cap N_pi = v_pi + N_pi.

    Evaluates both sides on x and reports whether they agree; the
    decomposition result says this is True for every x in the hyperplane.
    Denominators are cleared once so the comparisons run on plain integers.
    """
    n = pi.n
    if len(x) != n:
        raise ValueError("size mismatch")
    if sum(x) != 0:
        raise ValueError(f"point is not in the zero-sum hyperplane: {list(x)}")
    # an int's denominator is 1, so ints and Fractions share this path
    scale = 2 * math.lcm(*(v.denominator for v in x))
    xs = [int(v * scale) for v in x]
    # 2 v_pi scaled by scale/2 stays integral for every parity of n
    vp = [(2 * pi(j) - (n + 1)) * (scale // 2) for j in range(1, n + 1)]
    order = [0] * n
    for j, img in enumerate(pi.images):
        order[img - 1] = j
    in_cone = all(xs[order[r]] <= xs[order[r + 1]] for r in range(n - 1))
    lhs = in_cone and all(
        abs(xs[k] - xs[l]) >= scale for k in range(n) for l in range(k + 1, n)
    )
    ys = [a - b for a, b in zip(xs, vp)]
    rhs = all(ys[order[r]] <= ys[order[r + 1]] for r in range(n - 1))
    return lhs == rhs


@dataclass(frozen=True)
class SpreadingViolation:
    i: int
    subset: frozenset
    lhs: Fraction
    rhs: Fraction


class _Violations(Sequence):
    """Read-only sequence of the violations kept per row as (i, masks, sums).

    masks lists row i's violating masks in ascending order and sums is the
    row's table of scaled subset sums.  len() builds nothing; item k, an int
    (negative ones count from the end), is found by bisecting the cumulative
    row lengths and builds just that SpreadingViolation: bit t of mask is
    the t-th index of [n] other than i, lhs = sums[mask]/scale and
    rhs = bounds[|S|]/scale.  Sequence supplies iteration, `in` and bool.
    """

    __slots__ = ("_rows", "_ends", "_bounds", "_scale")

    def __init__(self, rows: list, bounds: list, scale: int):
        self._rows, self._bounds, self._scale = rows, bounds, scale
        self._ends = list(itertools.accumulate((len(r[1]) for r in rows), initial=0))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k: int) -> SpreadingViolation:
        k = range(len(self))[k]
        r = bisect.bisect_right(self._ends, k) - 1
        i, masks, sums = self._rows[r]
        mask = masks[k - self._ends[r]]
        subset = frozenset(t + 1 + (t + 1 >= i) for t in range(mask.bit_length()) if mask >> t & 1)
        lhs, rhs = sums[mask], self._bounds[mask.bit_count()]
        return SpreadingViolation(i, subset, Fraction(lhs, self._scale), Fraction(rhs, self._scale))


class SpreadingReport:
    """Violations of the spreading inequalities: strong below floor((s+1)^2/4),
    weak below the coarser s(s+2)/4, as _Violations.

    It keeps spreading_check's (i, sums) per scanned row, one size table and
    one list of mask ints shared by every row.  strong is built with the
    report; weak is computed from the same tables when it is first read.
    Reports have no value equality; tuple(report.strong) gives the records.
    """

    def __init__(self, tables: list, bound: list, scale: int):
        self._tables, self._n, self._scale = tables, len(bound), scale
        self._sizes = subset_sums([1] * (self._n - 1)) if tables else []
        self._masks = list(range(len(self._sizes)))  # one int object per mask, shared by every row
        self.strong = self._select(bound)

    @functools.cached_property
    def weak(self) -> _Violations:
        return self._select([s * (s + 2) * self._scale // 4 for s in range(self._n)])

    def _select(self, bound: list) -> _Violations:
        per_mask = [bound[s] for s in self._sizes]
        rows = [
            (i, list(itertools.compress(self._masks, map(operator.lt, sums, per_mask))), sums)
            for i, sums in self._tables
        ]
        return _Violations(rows, bound, self._scale)


def spreading_check(m: SymZMat) -> SpreadingReport:
    """Check sum_{j in S} m[i,j] >= floor((|S|+1)^2/4) for all i and S.

    Every unit-separated line metric satisfies the strong form; cut metrics
    violate it, which makes the check a usable non-membership filter.

    Rows are sliced from m.square() and scaled by 4 * m.denom, so both
    bounds are integers.  The least sum over a row's subsets of size s is
    the sum of its s smallest entries, so a row whose sorted prefix sums all
    meet the strong bound has no violation and is cleared in O(n log n);
    every separated row is.  Any other row fills one table of its 2^(n-1)
    subset sums (core.subset_sums) for the report.  The scan is exponential,
    so n above exhaustion_bound() is refused with a ValueError.  Every weak
    violation is a strong one, as floor((s+1)^2/4) >= s(s+2)/4; weak is
    computed on its first read.  Violations come in order of i, then of the
    subset's bit mask over the other indices in ascending order.
    """
    n = m.n
    require_exhaustible(n)
    scale = 4 * m.denom
    bound = [(s + 1) ** 2 // 4 * scale for s in range(n)]
    tables = []
    for i, row in enumerate(m.square(), start=1):
        w = [4 * c for c in row[: i - 1] + row[i:]]
        if not all(map(operator.ge, itertools.accumulate(sorted(w)), bound[1:])):
            tables.append((i, subset_sums(w)))
    return SpreadingReport(tables, bound, scale)


def qn_facet_value(m: SymZMat) -> Fraction:
    """Slack of the bounded-facet inequality: ones . m - 2 C(n+1, 3).

    Zero exactly on the permutation polytope, positive in the interior
    directions of the cut cone.
    """
    return inner_product(SymZMat.all_ones(m.n), m) - 2 * math.comb(m.n + 1, 3)


@dataclass(frozen=True)
class LineMetric:
    """A metric with its membership analysis attached."""

    matrix: SymZMat
    witness: Optional[tuple[Fraction, ...]]
    separated: bool
    pi: Optional[Perm] = None

    @property
    def embeddable(self) -> bool:
        return self.witness is not None


def analyze_metric(m: SymZMat) -> LineMetric:
    """Classify m: line-embeddable at all, and unit-separated if so."""
    x = recover_embedding(m)
    if x is None:
        return LineMetric(m, None, False)
    sep = _separated(x)
    if sep is None:
        return LineMetric(m, x, False)
    pi, xs = sep
    return LineMetric(m, xs, True, pi)
