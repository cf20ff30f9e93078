"""Combinatorial edge classification and exhaustive certificate verification.

A pair (pi, U) of a permutation and a proper nonempty subset names the
half-line M(pi) + R+ M(chi^U).  Four name variants describe the same
half-line, since antipodal permutations and complementary subsets embed to
the same matrices.  The main result implemented here: the half-line is an
unbounded edge of the closed hull exactly when neither U nor its
complement is over the ridge from pi.

Certificates are checked exhaustively against all of S(n) and all proper
subsets, in exact integer arithmetic after clearing denominators.  Every
permutation metric is a sum of cut metrics along the chain of its prefix
sets, so the minimum over S(n) is a shortest chain in the subset lattice
and costs O(2^n n) instead of n!/2 evaluations; the minimising permutation
is re-evaluated directly before it is reported.  Two inequality systems
are supported:

  plain:   D.M(sigma) >  D.M(id) off the identity pair,
           D.M(chi^U') >  0      off the target class,
           D.M(chi^U)  =  0;
  farkas:  C.M(sigma) >= C.M(id),
           C.M(chi^U') >= 0,
           C.M(chi^U)  <  0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Perm,
    SymZMat,
    Word,
    conjugate,
    format_rat,
    pair_indices,
    word_classes,
)
from .line_metrics import cut_metric, perm_metric
from .permutahedron import incident, over_the_ridge

DEFAULT_EXHAUSTION_BOUND = 12


def exhaustion_bound() -> int:
    """Largest n the exhaustive verifiers accept; LINEMETRIC_MAX_N overrides."""
    env = os.environ.get("LINEMETRIC_MAX_N")
    if env:
        return int(env)
    return DEFAULT_EXHAUSTION_BOUND


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

    def canonical(self) -> "HalfLinePair":
        """Representative of the four name variants: lex-smaller permutation
        of the antipodal pair, subset containing element 1."""
        return HalfLinePair(self.pi.canonical(), self.u.canonical())

    def variants(self) -> tuple["HalfLinePair", ...]:
        anti, comp = self.pi.antipode(), self.u.complement()
        return (
            self,
            HalfLinePair(self.pi, comp),
            HalfLinePair(anti, self.u),
            HalfLinePair(anti, comp),
        )

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


def enumerate_edges_at(pi: Perm) -> list[Word]:
    """Canonical edge words at the vertex of pi; 2^(n-1) - n of them for n >= 4."""
    if pi.n < 3:
        raise ValueError("edge enumeration needs n >= 3")
    return [
        u for u in word_classes(pi.n) if classify(HalfLinePair(pi, u)).is_edge
    ]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an exhaustive certificate check with its exact extremal margins.

    perm_min is the minimum of D.(M(sigma) - M(id)) over sigma outside the
    identity pair, cut_min the minimum of D.M(chi^U') over subset classes
    other than the target's, and target is D.M(chi^U).  All three are exact
    over every permutation and cut.  perm_argmin is a minimising sigma,
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
            "perm_min": format_rat(self.perm_min),
            "cut_min": format_rat(self.cut_min),
            "target": format_rat(self.target),
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


def _require_verifiable(d: SymZMat, pair: HalfLinePair):
    if d.n != pair.n:
        raise ValueError(f"dimension mismatch: matrix {d.n} vs pair {pair.n}")
    if pair.n < 3:
        raise ValueError("certificate verification needs n >= 3")
    bound = exhaustion_bound()
    if pair.n > bound:
        raise ValueError(
            f"too large: n={pair.n} exceeds the exhaustion bound {bound} "
            "(set LINEMETRIC_MAX_N to raise it)"
        )
    if not pair.pi.canonical().is_identity():
        raise ValueError(
            "verifier requires pi = id; transport the pair and certificate first"
        )


def _margins(d: SymZMat, u: Word):
    """Exact extremal inner products of d against all permutations and cuts.

    Subsets of [n] are bit masks read like their words: element j is bit
    n - j, so the word classes are the masks 2^(n-1) .. 2^n - 2 in order.
    cut[S] = D.M(chi^S) is tabulated for every mask, and a permutation
    sigma is the chain of its prefix sets S_t = sigma^-1([t]), with
    D.M(sigma) = sum_t cut[S_t].  The minimum over all chains but the
    identity's and its antipode's is then a shortest-chain problem in the
    subset lattice, solved exactly by keeping the three best chains into
    every subset: at most two of the three best full chains are excluded.
    """
    n = d.n
    ints, denom = d.scaled_int_upper()
    nz = [
        (k - 1, l - 1, c)
        for (k, l), c in zip(pair_indices(n), ints)
        if c != 0
    ]

    def value(point) -> int:
        total = 0
        for k0, l0, c in nz:
            a = point[k0] - point[l0]
            total += c * (a if a >= 0 else -a)
        return 2 * total

    # cut[S] = 2 * (weight crossing S); by inclusion-exclusion over the two
    # lowest bits a, b of S it is cut[S-a] + cut[S-b] - cut[S-a-b] - 4 d[a,b]
    size = 1 << n
    weight = [[0] * n for _ in range(n)]
    for k0, l0, c in nz:
        weight[n - 1 - k0][n - 1 - l0] = weight[n - 1 - l0][n - 1 - k0] = c
    cut = [0] * size
    for s in range(1, size):
        a = s & -s
        rest = s ^ a
        if not rest:
            cut[s] = 2 * sum(weight[a.bit_length() - 1])
            continue
        b = rest & -rest
        cut[s] = (
            cut[rest] + cut[s ^ b] - cut[rest ^ b]
            - 4 * weight[a.bit_length() - 1][b.bit_length() - 1]
        )

    # best[S]: the three best chains from the empty set to S, as
    # (value, last bit added, rank of the chain into S minus that bit)
    best = [[(0, 0, 0)]] + [None] * (size - 1)
    for s in range(1, size):
        cands = []
        r = s
        while r:
            low = r & -r
            r ^= low
            for rank, entry in enumerate(best[s ^ low]):
                cands.append((entry[0], low, rank))
        cands.sort()
        c = cut[s]
        best[s] = [(v + c, low, rank) for v, low, rank in cands[:3]]

    identity = tuple(range(1, n + 1))
    antipode = identity[::-1]
    base = value(identity)
    full = size - 1
    for top, (total, _, _) in enumerate(best[full]):
        images = [0] * n
        s, rank = full, top
        for t in range(n, 0, -1):
            _, low, rank = best[s][rank]
            images[n - low.bit_length()] = t
            s ^= low
        sigma = tuple(images)
        if sigma != identity and sigma != antipode:
            break
    perm_min = total - base
    perm_arg = Perm(sigma).canonical()
    if value(perm_arg.images) - base != perm_min:
        raise AssertionError(f"chain minimum {perm_min} is not attained by {perm_arg}")

    target_mask = int(str(u.canonical()), 2)
    cut_mask = min(
        (s for s in range(size >> 1, full) if s != target_mask), key=cut.__getitem__
    )
    return (
        Fraction(perm_min, denom),
        perm_arg,
        Fraction(cut[cut_mask], denom),
        Word.parse(format(cut_mask, f"0{n}b")),
        Fraction(cut[target_mask], denom),
    )


def verify_certificate_plain(d: SymZMat, pair: HalfLinePair) -> VerifyReport:
    """Strict system: both inequality families strict, target exactly zero."""
    _require_verifiable(d, pair)
    perm_min, perm_arg, cut_min, cut_arg, target = _margins(d, pair.u)
    offender = None
    if perm_min <= 0:
        offender = f"permutation {perm_arg}: margin {format_rat(perm_min)} <= 0"
    elif target != 0:
        offender = f"target cut {pair.u.canonical()}: value {format_rat(target)} != 0"
    elif cut_min <= 0:
        offender = f"cut {cut_arg}: value {format_rat(cut_min)} <= 0"
    return VerifyReport(
        "plain", offender is None, perm_min, cut_min, target, perm_arg, cut_arg, offender
    )


def verify_certificate_farkas(c: SymZMat, pair: HalfLinePair) -> VerifyReport:
    """Mixed system: weak inequalities, target strictly negative."""
    _require_verifiable(c, pair)
    perm_min, perm_arg, cut_min, cut_arg, target = _margins(c, pair.u)
    offender = None
    if perm_min < 0:
        offender = f"permutation {perm_arg}: margin {format_rat(perm_min)} < 0"
    elif cut_min < 0:
        offender = f"cut {cut_arg}: value {format_rat(cut_min)} < 0"
    elif target >= 0:
        offender = f"target cut {pair.u.canonical()}: value {format_rat(target)} >= 0"
    return VerifyReport(
        "farkas", offender is None, perm_min, cut_min, target, perm_arg, cut_arg, offender
    )


def verify_certificate(d: SymZMat, pair: HalfLinePair, condition: str) -> VerifyReport:
    if condition == "plain":
        return verify_certificate_plain(d, pair)
    if condition == "farkas":
        return verify_certificate_farkas(d, pair)
    raise ValueError(f"unknown condition {condition!r}")


def symmetry_transport(pair: HalfLinePair) -> tuple[Perm, HalfLinePair]:
    """Map (pi, U) to the equivalent pair (id, pi(U)).

    Returns (sigma, transported) with sigma = pi; a certificate valid for
    the transported pair becomes one for the original via conjugate(-, sigma),
    and conversely via conjugate(-, sigma^-1).
    """
    sigma = pair.pi
    moved = Word.from_set(pair.n, sigma.image_of_set(pair.u.elements))
    return sigma, HalfLinePair(Perm.identity(pair.n), moved)


def verify_for_pair(cert: SymZMat, pair: HalfLinePair, condition: str) -> VerifyReport:
    """Verify a certificate for an arbitrary pair by transporting both to id."""
    sigma, idpair = symmetry_transport(pair)
    return verify_certificate(conjugate(cert, sigma.inverse()), idpair, condition)


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
    word_used = None
    k = None
    for w in (pair.u, pair.u.complement()):
        k = over_the_ridge(pi, w)
        if k is not None:
            word_used = w
            break
    if word_used is None:
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
