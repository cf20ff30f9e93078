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
    ('blocked', v) with the Phase-I dual vector v otherwise.  Bland's rule
    guarantees termination; the right-hand side is a unit vector, so the
    tableau starts feasible with an all-artificial basis.
    """
    m = len(rows)
    dim = len(e)
    nrows = dim + 1
    ncols = m + 2  # y columns, then lam split into lam+ and lam-
    total = ncols + nrows
    zero = Fraction(0)
    one = Fraction(1)

    A = [[zero] * total for _ in range(nrows)]
    b = [zero] * nrows
    for i, r in enumerate(rows):
        for kk in range(dim):
            if r[kk]:
                A[kk][i] = r[kk]
        A[dim][i] = one
    for kk in range(dim):
        if e[kk]:
            A[kk][m] = e[kk]
            A[kk][m + 1] = -e[kk]
    b[dim] = one

    basis = []
    for r in range(nrows):
        A[r][ncols + r] = one
        basis.append(ncols + r)

    # reduced costs for minimizing the artificial sum
    obj = [zero] * total
    for j in range(ncols):
        s = zero
        for r in range(nrows):
            s += A[r][j]
        obj[j] = -s
    objval = -sum(b, zero)

    while True:
        enter = -1
        for j in range(ncols):  # artificials never reenter
            if obj[j] < zero:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(nrows):
            arj = A[r][enter]
            if arj > zero:
                ratio = b[r] / arj
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded below zero")
        piv_row = A[leave]
        inv = one / piv_row[enter]
        for j in range(total):
            if piv_row[j]:
                piv_row[j] *= inv
        b[leave] *= inv
        for r in range(nrows):
            if r == leave:
                continue
            f = A[r][enter]
            if f:
                row = A[r]
                for j in range(total):
                    if piv_row[j]:
                        row[j] -= f * piv_row[j]
                b[r] -= f * b[leave]
        f = obj[enter]
        if f:
            for j in range(total):
                if piv_row[j]:
                    obj[j] -= f * piv_row[j]
            objval -= f * b[leave]
        basis[leave] = enter

    if objval == zero:
        y = [Fraction(0)] * m
        lam = Fraction(0)
        for r, bv in enumerate(basis):
            if bv < m:
                y[bv] = b[r]
            elif bv == m:
                lam += b[r]
            elif bv == m + 1:
                lam -= b[r]
        return "solved", y, lam
    v = [one - obj[ncols + r] for r in range(nrows)]
    return "blocked", v, None


def _decide_at_vertex(pi: Perm, u: Word) -> tuple:
    """Run the feasibility system for the pair (pi, U) and re-verify the witness."""
    n = pi.n
    mpi = _upper(perm_metric(pi))
    perm_rows = []
    perm_tags = []
    for sigma in perm_classes(n):
        if sigma == pi.canonical():
            continue
        row = [a - c for a, c in zip(_upper(perm_metric(sigma)), mpi)]
        perm_rows.append(row)
        perm_tags.append(sigma)
    cut_rows = []
    cut_tags = []
    target_class = u.canonical()
    for w in word_classes(n):
        if w == target_class:
            continue
        cut_rows.append(_upper(cut_metric(w)))
        cut_tags.append(w)
    e = _upper(cut_metric(u))

    rows = perm_rows + cut_rows
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
    dual_perm = {p: y[i] for i, p in enumerate(perm_tags) if y[i]}
    dual_cut = {
        w: y[len(perm_rows) + i] for i, w in enumerate(cut_tags) if y[len(perm_rows) + i]
    }
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
