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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Perm, RatLike, SymZMat, Word, inner_product


def embed(x: Sequence[RatLike]) -> SymZMat:
    """M(x): the matrix of pairwise distances |x_k - x_l| on the line."""
    vals = [Fraction(v) for v in x]
    n = len(vals)
    entries = {}
    for k in range(n):
        for l in range(k + 1, n):
            d = abs(vals[k] - vals[l])
            if d != 0:
                entries[(k + 1, l + 1)] = d
    return SymZMat(n, entries)


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
    x = [Fraction(0)] * n
    anchor = 0
    for l in range(2, n + 1):
        if m.get(1, l) != 0:
            anchor = l
            x[l - 1] = m.get(1, l)
            break
    if anchor:
        xa = x[anchor - 1]
        for l in range(2, n + 1):
            if l == anchor:
                continue
            d = m.get(1, l)
            if abs(d - xa) == m.get(anchor, l):
                x[l - 1] = d
            else:
                x[l - 1] = -d
    # full check; greedy sign choices are sound iff this holds
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if abs(x[k - 1] - x[l - 1]) != m.get(k, l):
                return None
    mean = sum(x) / n
    x = [v - mean for v in x]
    for k in range(n):
        for l in range(k + 1, n):
            if x[k] != x[l]:
                if x[k] > x[l]:
                    x = [-v for v in x]
                return tuple(x)
    return tuple(x)  # all coordinates equal, hence the zero vector


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
    order = sorted(range(1, m.n + 1), key=lambda j: x[j - 1])
    for a, b in zip(order, order[1:]):
        if x[b - 1] - x[a - 1] < 1:
            return None
    images = [0] * m.n
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
    if all(type(v) is int for v in x):
        if sum(x) != 0:
            raise ValueError(f"point is not in the zero-sum hyperplane: {list(x)}")
        scale = 2
        xs = [2 * v for v in x]
    else:
        vals = [Fraction(v) for v in x]
        if sum(vals) != 0:
            raise ValueError(f"point is not in the zero-sum hyperplane: {vals}")
        scale = 2 * math.lcm(*(v.denominator for v in vals))
        xs = [int(v * scale) for v in vals]
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


@dataclass(frozen=True)
class SpreadingReport:
    """Violations of the spreading inequalities; strong uses floor((s+1)^2/4),
    weak the coarser s(s+2)/4 bound."""

    strong: tuple[SpreadingViolation, ...]
    weak: tuple[SpreadingViolation, ...]

    def ok(self) -> bool:
        return not self.strong and not self.weak


def spreading_check(m: SymZMat) -> SpreadingReport:
    """Check sum_{j in S} m[i,j] >= floor((|S|+1)^2/4) for all i and S.

    Every unit-separated line metric satisfies the strong form; cut metrics
    violate it, which makes the check a usable non-membership filter.
    """
    n = m.n
    strong, weak = [], []
    others = list(range(1, n + 1))
    for i in range(1, n + 1):
        rest = [j for j in others if j != i]
        row = {j: m.get(i, j) for j in rest}
        for mask in range(1, 2 ** len(rest)):
            subset = [rest[t] for t in range(len(rest)) if mask >> t & 1]
            s = len(subset)
            lhs = sum(row[j] for j in subset)
            strong_rhs = Fraction((s + 1) ** 2 // 4)
            weak_rhs = Fraction(s * (s + 2), 4)
            if lhs < strong_rhs:
                strong.append(SpreadingViolation(i, frozenset(subset), lhs, strong_rhs))
            if lhs < weak_rhs:
                weak.append(SpreadingViolation(i, frozenset(subset), lhs, weak_rhs))
    return SpreadingReport(tuple(strong), tuple(weak))


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
    sep = separated_membership(m)
    if sep is None:
        return LineMetric(m, x, False)
    pi, xs = sep
    return LineMetric(m, xs, True, pi)
