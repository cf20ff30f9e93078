"""Construction-free edge oracle: exact rational feasibility with dual certificates.

The half-line of a pair is an edge exactly when the strict separation
system for it is feasible.  Strictness is normalized away by positive
homogeneity, giving the system

    D . (M(sigma) - M(id)) >= 1   for every permutation class off the identity,
    D . M(chi^U')          >= 1   for every cut class off the target,
    D . M(chi^U)            = 0,

over the upper-triangle coordinates of D.  Feasibility is decided by a
Phase-I simplex, in fractions.Fraction arithmetic, on the Farkas
alternative, which has only C(n,2)+1 rows:
either a nonnegative combination of the constraint rows vanishes (the pair
is not an edge, and the combination is the witness), or the Phase-I dual
yields a separating matrix D (the pair is an edge).  Both witnesses are
re-verified by direct exact arithmetic before anything is returned.

Pairs at an arbitrary vertex are relabeled to the identity vertex first
(conjugation by a permutation matrix is a linear isomorphism preserving
the hull), verdicts are cached per relabeled cut class, and witnesses are
carried back through the same exact isometry so they hold at the pair's
own vertex.  _decide_at_vertex solves the system at any vertex directly,
which is how the tests audit the relabeling.

The oracle refuses n above oracle_bound(), 6 by default; LINEMETRIC_MAX_N
may raise that bound but never lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Perm,
    SymZMat,
    Word,
    conjugate,
    pair_indices,
    perm_classes,
    raised_bound,
    word_classes,
)
from .edge_theory import HalfLinePair, symmetry_transport
from .line_metrics import cut_metric, perm_metric

DEFAULT_ORACLE_BOUND = 6


def oracle_bound() -> int:
    """Largest n the oracle accepts; LINEMETRIC_MAX_N may raise it."""
    return raised_bound(DEFAULT_ORACLE_BOUND)


@dataclass(frozen=True)
class OracleVerdict:
    pair: HalfLinePair
    is_edge: bool
    # separating matrix with margins >= 1 when the pair is an edge
    witness_matrix: Optional[SymZMat]
    # vanishing combination when it is not: multipliers over the constraint
    # rows (one per permutation class and off-target cut class) plus the
    # free multiplier on the target cut
    dual_perm: Optional[dict] = None
    dual_cut: Optional[dict] = None
    dual_target: Optional[Fraction] = None


def _upper(mat: SymZMat) -> list:
    return [Fraction(2 * a, mat.denom) for a in mat.ints]


def _phase_one(rows: list[list], e: list) -> tuple:
    """Feasibility of {y >= 0, lam : sum_i y_i rows[i] + lam e = 0, sum y_i = 1}.

    Returns ('solved', y, lam) when that alternative system is feasible, or
    ('blocked', v) with the Phase-I dual vector v otherwise.  The tableau's
    columns are the m y columns, lam+ and lam-, one artificial per row, and
    the right-hand side; its rows are one per coordinate of e, sum y_i = 1,
    and the cost row, the reduced costs for minimizing the artificial sum.
    So one elimination per pivot updates rows, right-hand side and objective.
    The right-hand side is a unit vector, so the tableau starts feasible with
    an all-artificial basis; Bland's rule guarantees termination.
    """
    m = len(rows)
    dim = len(e)
    nrows = dim + 1
    ncols = m + 2  # y columns, then lam split into lam+ and lam-
    width = ncols + nrows + 1  # then one artificial per row, then the right-hand side
    zero = Fraction(0)
    one = Fraction(1)

    tab = [[zero] * width for _ in range(nrows + 1)]
    for i, r in enumerate(rows):
        for kk in range(dim):
            if r[kk]:
                tab[kk][i] = r[kk]
        tab[dim][i] = one
    for kk in range(dim):
        if e[kk]:
            tab[kk][m] = e[kk]
            tab[kk][m + 1] = -e[kk]
    tab[dim][-1] = one
    for r in range(nrows):
        tab[r][ncols + r] = one
    basis = list(range(ncols, ncols + nrows))
    cost = tab[nrows]
    for j in [*range(ncols), -1]:
        cost[j] = -sum((tab[r][j] for r in range(nrows)), zero)

    while True:
        # artificials never reenter
        enter = next((j for j in range(ncols) if cost[j] < zero), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(nrows):
            arj = tab[r][enter]
            if arj > zero:
                ratio = tab[r][-1] / arj
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded below zero")
        piv_row = tab[leave]
        inv = one / piv_row[enter]
        for j in range(width):
            if piv_row[j]:
                piv_row[j] *= inv
        for r, row in enumerate(tab):
            f = row[enter]
            if f and r != leave:
                for j in range(width):
                    if piv_row[j]:
                        row[j] -= f * piv_row[j]
        basis[leave] = enter

    if cost[-1] != zero:
        return "blocked", [one - cost[ncols + r] for r in range(nrows)], None
    y = [zero] * m
    lam = zero
    for r, bv in enumerate(basis):
        if bv < m:
            y[bv] = tab[r][-1]
        elif bv == m:
            lam += tab[r][-1]
        elif bv == m + 1:
            lam -= tab[r][-1]
    return "solved", y, lam


def _decide_at_vertex(pi: Perm, u: Word) -> tuple:
    """Run the feasibility system for the pair (pi, U) and re-verify the witness."""
    n = pi.n
    mpi = _upper(perm_metric(pi))
    rows = []
    tags = []  # the permutation class or cut class each row stands for
    for sigma in perm_classes(n):
        if sigma != pi.canonical():
            rows.append([a - c for a, c in zip(_upper(perm_metric(sigma)), mpi)])
            tags.append(sigma)
    target_class = u.canonical()
    for w in word_classes(n):
        if w != target_class:
            rows.append(_upper(cut_metric(w)))
            tags.append(w)
    e = _upper(cut_metric(u))

    outcome = _phase_one(rows, e)
    if outcome[0] == "blocked":
        v = outcome[1]
        t = v[-1]
        if t <= 0:
            raise AssertionError("phase-1 dual has nonpositive objective component")
        d = [-vi / t for vi in v[:-1]]
        for row in rows:
            margin = sum(a * x for a, x in zip(row, d))
            if margin < 1:
                raise AssertionError("separating matrix failed re-verification")
        if sum(a * x for a, x in zip(e, d)) != 0:
            raise AssertionError("separating matrix misses the target hyperplane")
        return True, SymZMat(n, dict(zip(pair_indices(n), d))), None, None, None
    _, y, lam = outcome
    combo = [lam * ei for ei in e]
    weight = Fraction(0)
    for yi, row in zip(y, rows):
        if yi < 0:
            raise AssertionError("negative multiplier in the vanishing combination")
        weight += yi
        if yi:
            for kk in range(len(combo)):
                combo[kk] += yi * row[kk]
    if weight != 1 or any(c != 0 for c in combo):
        raise AssertionError("vanishing combination failed re-verification")
    dual_perm = {tag: yi for tag, yi in zip(tags, y) if yi and isinstance(tag, Perm)}
    dual_cut = {tag: yi for tag, yi in zip(tags, y) if yi and isinstance(tag, Word)}
    return False, None, dual_perm, dual_cut, lam


_cache: dict = {}


def oracle_classify(pair: HalfLinePair) -> OracleVerdict:
    """Decide edge-ness by exact LP feasibility, independent of classify.

    The pair is relabeled to the identity vertex and results are cached
    per cut class.
    """
    n = pair.n
    if n < 3:
        raise ValueError("oracle needs n >= 3")
    limit = oracle_bound()
    if n > limit:
        raise ValueError(
            f"oracle refuses n={n} above bound {limit} (set LINEMETRIC_MAX_N to raise it)"
        )
    sigma, idpair = symmetry_transport(pair)
    key = (n, idpair.u.canonical())
    hit = _cache.get(key)
    if hit is None:
        hit = _decide_at_vertex(idpair.pi, idpair.u)
        _cache[key] = hit
    is_edge, mat, dp, dc, dt = hit
    if not sigma.is_identity():
        # express the witness at the pair's own vertex: conjugation is an
        # exact isometry taking the identity-vertex system to this one
        if mat is not None:
            mat = conjugate(mat, sigma)
        if dp is not None:
            dp = {tau.compose(sigma): y for tau, y in dp.items()}
            dc = {w.compose(sigma): y for w, y in dc.items()}
    return OracleVerdict(pair, is_edge, mat, dp, dc, dt)
