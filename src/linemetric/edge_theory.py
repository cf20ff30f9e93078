"""Combinatorial edge classification and exhaustive certificate verification.

A pair (pi, U) of a permutation and a proper nonempty subset names the
half-line M(pi) + R+ M(chi^U).  Four name variants describe the same
half-line, since antipodal permutations and complementary subsets embed to
the same matrices.  The main result implemented here: the half-line is an
unbounded edge of the closed hull exactly when neither U nor its
complement is over the ridge from pi.

Certificates are checked at the pair's own vertex pi, exhaustively
against all of S(n) and all proper subsets, in exact integer arithmetic
after clearing denominators.  Every permutation metric is a sum of cut
metrics along the chain of its prefix sets, so the minimum over S(n) is a
shortest chain in the subset lattice.  One O(2^n n) table of shortest
chains from the empty set, read from both ends since a cut and its
complement have the same value, replaces n!/2 evaluations; the minimising
permutation is re-evaluated directly before it is reported.  Two
inequality systems are supported:

  plain:   D.M(sigma) >  D.M(pi) off the pair of pi,
           D.M(chi^U') >  0      off the target class,
           D.M(chi^U)  =  0;
  farkas:  C.M(sigma) >= C.M(pi),
           C.M(chi^U') >= 0,
           C.M(chi^U)  <  0.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Perm,
    SymZMat,
    Word,
    pair_indices,
    require_exhaustible,
    subset_sums,
    word_classes,
)
from .line_metrics import cut_metric, perm_metric
from .permutahedron import incident, over_the_ridge


@dataclass(frozen=True)
class HalfLinePair:
    """The half-line M(pi) + R+ M(chi^U)."""

    pi: Perm
    u: Word

    def __post_init__(self):
        if self.pi.n != self.u.n:
            raise ValueError("permutation and word sizes differ")
        if not self.u.is_proper():
            raise ValueError(f"word {self.u} must be proper and nonempty")

    @property
    def n(self) -> int:
        return self.pi.n

    def to_json(self) -> dict:
        return {"pi": str(self.pi), "u": str(self.u)}


@dataclass(frozen=True)
class EdgeVerdict:
    pair: HalfLinePair
    is_edge: bool
    reason: str  # "incident" | "certified" | "over-ridge"
    ridge_k: Optional[int] = None
    ridge_from_antipode: Optional[bool] = None

    def to_json(self) -> dict:
        out = {"pair": self.pair.to_json(), "is_edge": self.is_edge, "reason": self.reason}
        if self.reason == "over-ridge":
            out["ridge_k"] = self.ridge_k
            out["ridge_from"] = "pi-" if self.ridge_from_antipode else "pi"
        return out


def classify(pair: HalfLinePair) -> EdgeVerdict:
    """Decide edge-ness combinatorially, in O(n) per pair.

    Never calls a verifier: classification stays purely combinatorial and
    certificate verification is kept as a separate audit path.
    """
    pi, u = pair.pi, pair.u
    k = over_the_ridge(pi, u)
    if k is not None:
        return EdgeVerdict(pair, False, "over-ridge", ridge_k=k, ridge_from_antipode=False)
    k = over_the_ridge(pi.antipode(), u)
    if k is not None:
        return EdgeVerdict(pair, False, "over-ridge", ridge_k=k, ridge_from_antipode=True)
    if incident(pi, u) or incident(pi, u.complement()):
        return EdgeVerdict(pair, True, "incident")
    return EdgeVerdict(pair, True, "certified")


def enumerate_edges_at(pi: Perm) -> list[EdgeVerdict]:
    """The edges at the vertex of pi: the verdicts of the canonical edge words,
    in word_classes order, one classify per class; 2^(n-1) - n for n >= 4."""
    if pi.n < 3:
        raise ValueError("edge enumeration needs n >= 3")
    verdicts = (classify(HalfLinePair(pi, u)) for u in word_classes(pi.n))
    return [v for v in verdicts if v.is_edge]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an exhaustive certificate check with its exact extremal margins.

    perm_min is the minimum of D.(M(sigma) - M(pi)) over sigma outside the
    antipodal pair of the vertex pi, cut_min the minimum of D.M(chi^U')
    over subset classes other than the target's, and target is D.M(chi^U).
    All three are exact over every permutation and cut.  Both argmins are
    named in the pair's own coordinates.  perm_argmin is a minimising sigma,
    canonical (sigma <= sigma^-); when several tie it is not necessarily the
    lexicographically first.  cut_argmin is the first minimising class in
    word_classes order.
    """

    condition: str
    passed: bool
    perm_min: Fraction
    cut_min: Fraction
    target: Fraction
    perm_argmin: Perm
    cut_argmin: Word
    offender: Optional[str] = None

    def margins_json(self) -> dict:
        return {
            "perm_min": str(self.perm_min),
            "cut_min": str(self.cut_min),
            "target": str(self.target),
        }

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "passed": self.passed,
            "margins": self.margins_json(),
        }
        if self.offender:
            out["offender"] = self.offender
        return out


@functools.lru_cache(maxsize=1)
def _cut_table(d: SymZMat, u: Word):
    """d's cut values against the target u.  The last call's are kept, and
    read only, so a screen and the verify after it on one matrix share them.

    Masks read as Word.from_mask reads them, element j at bit n - j, so the
    word classes are the masks 2^(n-1) .. 2^n - 2 in order.  Returns cut[S] = d.denom *
    D.M(chi^S) for every mask S, the first class other than u's minimising
    cut, and u's.  The table grows bit by bit: for S below bit i, with
    w = d.square() in bit order (both axes reversed),
    cut[S + bit i] = cut[S] + 2 sum_b w[i][b] - 4 sum_{b in S} w[i][b],
    as i's edges into S stop crossing; one core.subset_sums table per row.
    """
    size = 1 << d.n
    weight = [row[::-1] for row in reversed(d.square())]
    cut = [0]
    for i, row in enumerate(weight):
        base = 2 * sum(row)
        cut += [c + base - 4 * t for c, t in zip(cut, subset_sums(row[:i]))]

    target_mask = u.canonical().mask
    # the first minimiser of the classes below the target, then above it
    value, start, stop = min(
        (min(cut[start:stop]), start, stop)
        for start, stop in ((size >> 1, target_mask), (target_mask + 1, size - 1))
        if start < stop
    )
    return cut, cut.index(value, start, stop), target_mask


def _margins(d: SymZMat, pi: Perm, u: Word):
    """Exact extremal inner products of d against all permutations and cuts.

    On _cut_table's cut values, sigma is the chain of its prefix sets
    S_t = sigma^-1([t]), with D.M(sigma) = sum_t cut[S_t], and best[S] is
    the shortest chain from the empty set to S.  As cut[T] == cut[[n]-T],
    the shortest full chain through S is best[S] + best[[n]-S] - cut[S].
    pi's chain runs through P_t = pi^-1([t]), its antipode's through [n]-P_t;
    for 0 < t < n-1 neither chain's set of size t lies inside the other's of
    size t+1, so every other chain runs through a set off both: the least
    sum over those sets is exact.  D.M(pi) is the base.
    """
    n = d.n
    cut, cut_mask, target_mask = _cut_table(d, u)
    nz = [(k - 1, l - 1, c) for (k, l), c in zip(pair_indices(n), d.ints) if c != 0]

    def value(point) -> int:
        total = 0
        for k0, l0, c in nz:
            a = point[k0] - point[l0]
            total += c * (a if a >= 0 else -a)
        return 2 * total

    full = len(cut) - 1
    best = [0] * len(cut)  # best[S] = cut[S] + min_j best[S-j]
    for s in range(1, len(cut)):
        r = s & (s - 1)
        m = best[r]
        while r:
            low = r & -r
            r ^= low
            if best[s ^ low] < m:
                m = best[s ^ low]
        best[s] = cut[s] + m

    chain, prefix = set(), 0
    for j in pi.inverse().images:
        prefix |= 1 << (n - j)
        chain.update((prefix, full ^ prefix))
    # a set without element 1 (bit n-1) stands for its complement too
    total, top = min(
        (best[s] + best[full ^ s] - cut[s], s) for s in range(1, 1 << (n - 1)) if s not in chain
    )
    images = [0] * n  # walked back from S and from [n]-S; element j is bit n-j
    k = bin(top).count("1")
    for s, steps in ((top, range(k, 0, -1)), (full ^ top, range(k + 1, n + 1))):
        for t in steps:
            i = next(i for i in range(n) if s >> i & 1 and best[s ^ 1 << i] + cut[s] == best[s])
            images[n - 1 - i], s = t, s ^ 1 << i
    base = value(pi.images)
    perm_min = total - base
    perm_arg = Perm(images).canonical()
    if value(perm_arg.images) - base != perm_min:
        raise AssertionError(f"chain minimum {perm_min} is not attained by {perm_arg}")
    return (
        Fraction(perm_min, d.denom),
        perm_arg,
        Fraction(cut[cut_mask], d.denom),
        Word.from_mask(n, cut_mask),
        Fraction(cut[target_mask], d.denom),
    )


# each system's checks in order, as (margin, relation to 0 that fails it)
_SYSTEMS = {
    "plain": (("perm", "<="), ("target", "!="), ("cut", "<=")),
    "farkas": (("perm", "<"), ("cut", "<"), ("target", ">=")),
}
_FAILS = {"<=": operator.le, "<": operator.lt, "!=": operator.ne, ">=": operator.ge}


def _first_failure(condition: str, values: dict) -> Optional[tuple[str, str]]:
    """The first of the system's checks on a margin in values that its value
    fails, as (margin, relation), or None; the one reader of the rules above."""
    for margin, rel in _SYSTEMS[condition]:
        if margin in values and _FAILS[rel](values[margin], 0):
            return margin, rel
    return None


def _cut_side_failure(d: SymZMat, u: Word, condition: str) -> Optional[str]:
    """The first of the system's "target" and "cut" checks that d fails for
    u, or None.  The cut table alone decides them, at any vertex, in O(2^n):
    a failure here fails verify_certificate too, but None proves nothing.
    """
    require_exhaustible(d.n)
    cut, cut_mask, target_mask = _cut_table(d, u)
    failure = _first_failure(condition, {"cut": cut[cut_mask], "target": cut[target_mask]})
    return failure and failure[0]


def verify_certificate(d: SymZMat, pair: HalfLinePair, condition: str) -> VerifyReport:
    """Check d against the plain (strict, target zero) or the farkas (weak,
    target negative) system of the pair, at the pair's own vertex."""
    if not isinstance(condition, str) or condition not in _SYSTEMS:
        raise ValueError(f"unknown condition {condition!r}")
    if d.n != pair.n:
        raise ValueError(f"dimension mismatch: matrix {d.n} vs pair {pair.n}")
    if pair.n < 3:
        raise ValueError("certificate verification needs n >= 3")
    require_exhaustible(pair.n)
    perm_min, perm_arg, cut_min, cut_arg, target = _margins(d, pair.pi, pair.u)
    offender = None
    failure = _first_failure(condition, {"perm": perm_min, "cut": cut_min, "target": target})
    if failure:
        margin, rel = failure
        offender = {
            "perm": f"permutation {perm_arg}: margin {perm_min}",
            "cut": f"cut {cut_arg}: value {cut_min}",
            "target": f"target cut {pair.u.canonical()}: value {target}",
        }[margin] + f" {rel} 0"
    return VerifyReport(
        condition, offender is None, perm_min, cut_min, target, perm_arg, cut_arg, offender
    )


def symmetry_transport(pair: HalfLinePair) -> tuple[Perm, HalfLinePair]:
    """Map (pi, U) to the equivalent pair (id, pi(U)).

    Returns (sigma, transported) with sigma = pi; a certificate valid for
    the transported pair becomes one for the original via conjugate(-, sigma),
    and conversely via conjugate(-, sigma^-1).
    """
    sigma = pair.pi
    return sigma, HalfLinePair(Perm.identity(pair.n), pair.u.compose(sigma.inverse()))


@dataclass(frozen=True)
class NonEdgeWitness:
    """The exact conic identity disqualifying an over-the-ridge half-line.

    With W the over-the-ridge member of {U, complement U} and k its ridge
    index, the identity

        M(chi^W) = M(chi^prefix) + (M(pi_prime) - M(pi))

    writes the cut direction as a conic combination of an incident cut ray
    and a bounded edge direction at M(pi), so the half-line is not extreme.
    """

    pair: HalfLinePair
    word_used: Word
    k: int
    pi_prime: Perm
    prefix: Word

    def identity_matrices(self) -> tuple[SymZMat, SymZMat, SymZMat, SymZMat]:
        return (
            cut_metric(self.word_used),
            cut_metric(self.prefix),
            perm_metric(self.pi_prime),
            perm_metric(self.pair.pi),
        )

    def holds(self) -> bool:
        lhs, cut_part, perm_part, base = self.identity_matrices()
        return lhs == cut_part + perm_part - base

    def to_json(self) -> dict:
        return {
            "pair": self.pair.to_json(),
            "word_used": str(self.word_used),
            "k": self.k,
            "pi_prime": str(self.pi_prime),
            "prefix": str(self.prefix),
            "identity": (
                f"M(chi^{self.word_used}) = M(chi^{self.prefix}) "
                f"+ M({self.pi_prime}) - M({self.pair.pi})"
            ),
        }


def non_edge_witness(pair: HalfLinePair) -> NonEdgeWitness:
    """Produce and verify the conic identity for a non-edge pair."""
    pi = pair.pi
    n = pair.n
    for word_used in (pair.u, pair.u.complement()):
        k = over_the_ridge(pi, word_used)
        if k is not None:
            break
    else:
        raise ValueError(f"pair ({pair.pi}, {pair.u}) defines an edge; no ridge witness")
    inv = pi.inverse()
    swap = list(range(1, n + 1))
    swap[k - 1], swap[k] = swap[k], swap[k - 1]
    pi_prime = Perm(swap).compose(pi)
    prefix = Word.from_set(n, {inv(i) for i in range(1, k + 1)})
    witness = NonEdgeWitness(pair, word_used, k, pi_prime, prefix)
    if not witness.holds():
        raise AssertionError(f"conic identity failed for ({pair.pi}, {pair.u})")
    return witness
