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
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Perm, RatLike, SymZMat, Word, inner_product, pair_index, require_exhaustible, subset_sums
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
    ints = m.ints
    # x_l = +-m[1,l] in units of 1/denom; ints[l - 2] is m[1,l]
    x = [0] + list(ints[: n - 1])
    anchor = next((l for l in range(2, n + 1) if ints[l - 2]), 0)
    if anchor:
        xa = x[anchor - 1]
        for l in range(2, n + 1):
            d = x[l - 1]
            if l != anchor and abs(d - xa) != ints[pair_index(n, min(anchor, l), max(anchor, l))]:
                x[l - 1] = -d
    # full check; greedy sign choices are sound iff this holds
    if embed(x).ints != ints:
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
    """Read-only view of violations kept per row as (i, masks, sums).

    masks lists row i's violating masks in ascending order and sums is the
    row's table of scaled subset sums; item k is found by bisecting the
    cumulative row lengths.  len() builds nothing; reading an item builds
    just that SpreadingViolation: bit t of mask is the t-th index of [n]
    other than i, lhs = sums[mask]/scale and rhs = bounds[|S|]/scale.  It
    compares and hashes like the tuple of its records, and + concatenates
    to a tuple.
    """

    __slots__ = ("_rows", "_ends", "_bounds", "_scale")

    def __init__(self, rows: list, bounds: list, scale: int):
        self._rows = rows
        self._ends = list(itertools.accumulate((len(r[1]) for r in rows), initial=0))
        self._bounds = bounds
        self._scale = scale

    def _at(self, k: int) -> SpreadingViolation:
        r = bisect.bisect_right(self._ends, k) - 1
        i, masks, sums = self._rows[r]
        mask = masks[k - self._ends[r]]
        subset = frozenset(t + 1 + (t + 1 >= i) for t in range(mask.bit_length()) if mask >> t & 1)
        lhs, rhs = sums[mask], self._bounds[mask.bit_count()]
        return SpreadingViolation(i, subset, Fraction(lhs, self._scale), Fraction(rhs, self._scale))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._at, range(len(self))[k]))
        return self._at(range(len(self))[k])

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _Violations)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other) -> tuple:
        if not isinstance(other, (tuple, _Violations)):
            return NotImplemented
        return tuple(self) + tuple(other)

    def __radd__(self, other) -> tuple:
        if not isinstance(other, tuple):
            return NotImplemented
        return other + tuple(self)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class SpreadingReport:
    """Violations of the spreading inequalities; strong uses floor((s+1)^2/4),
    weak the coarser s(s+2)/4 bound.

    Each field is a read-only sequence that equals the tuple of its
    SpreadingViolation records.  It keeps each violating row's masks and
    subset-sum table and builds a record only when it is read, so len() and
    the first violation cost nothing per violation.
    """

    strong: Sequence[SpreadingViolation]
    weak: Sequence[SpreadingViolation]


def spreading_check(m: SymZMat) -> SpreadingReport:
    """Check sum_{j in S} m[i,j] >= floor((|S|+1)^2/4) for all i and S.

    Every unit-separated line metric satisfies the strong form; cut metrics
    violate it, which makes the check a usable non-membership filter.

    The matrix is scaled once by 4 * m.denom, so both bounds are integers.
    The least sum over the row's subsets of size s is the sum of its s
    smallest entries, so a row whose sorted prefix sums all meet the strong
    bound has no violation and is cleared in O(n log n); every separated
    row is.  Any other row fills one table of its 2^(n-1) subset sums
    (core.subset_sums) and keeps the masks below per-mask bound tables.
    The scan is exponential, so n above exhaustion_bound() is refused with a
    ValueError.  floor((s+1)^2/4) >= s(s+2)/4, so every weak violation is
    also a strong one.  Both fields keep (i, masks, sums) per scanned row,
    sharing its table, and build records on access.  Violations come in
    order of i, then of the subset's bit mask over the other indices in
    ascending order.
    """
    n = m.n
    require_exhaustible(n)
    scale = 4 * m.denom
    strong_bound = [(s + 1) ** 2 // 4 * scale for s in range(n)]
    weak_bound = [s * (s + 2) * m.denom for s in range(n)]
    tables = []
    for i in range(1, n + 1):
        w = [4 * m.ints[pair_index(n, min(i, j), max(i, j))] for j in range(1, n + 1) if j != i]
        if not all(map(operator.ge, itertools.accumulate(sorted(w)), strong_bound[1:])):
            tables.append((i, subset_sums(w)))
    sizes = subset_sums([1] * (n - 1)) if tables else []
    masks = list(range(len(sizes)))  # one int object per mask, shared by every row
    fields = []
    for bound in (strong_bound, weak_bound):
        per_mask = [bound[s] for s in sizes]
        rows = [
            (i, list(itertools.compress(masks, map(operator.lt, sums, per_mask))), sums)
            for i, sums in tables
        ]
        fields.append(_Violations(rows, bound, scale))
    return SpreadingReport(*fields)


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
