"""Certificate library, lifting, alternating induction, and synthesis.

Six hand-computed base matrices certify the irreducible edge words; every
other edge pair reduces to one of them.  The reductions are inverted here:
a certificate for a short word is lifted to any word obtained by expanding
one of its runs, with omega = 2^t and epsilon = 2^-t the only weights a
lift is built with, an inductive block construction covers the alternating
words, and the path-matrix construction covers the incident case.  Every
construction is pure: it builds a matrix and never verifies it.  The
synthesis pipeline glues them together and is the one place that
verifies, so it never returns a matrix that has not passed the exhaustive
verifier.  Its lift search skips a candidate whose value on a cut mask
that failed an earlier candidate fails the cut relation, and then one whose
cut table, built once and read again by the verifier, fails the system;
both screens only reject, and never stand in for a check.

All six library matrices satisfy the mixed (farkas) inequality system
and none satisfies the strict (plain) one: the two alternating-word
matrices have target inner product -4 rather than 0 and admit permutation
ties.  The strict system is nevertheless feasible for the alternating
words; `plain_alternating_base` exhibits strict certificates built from
the library matrices by adding positive multiples of the path matrix and
the all-ones matrix, and those seed the inductive construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .core import Perm, SymZMat, Word, conjugate, pair_index, pair_indices
from .edge_theory import (
    HalfLinePair,
    NonEdgeWitness,
    VerifyReport,
    _cut_side_failure,
    _cut_table,
    _first_failure,
    classify,
    non_edge_witness,
    symmetry_transport,
    verify_certificate,
)
from .permutahedron import incident, incident_sets

# a lift's omega = 2^t and epsilon = 2^-t; the search tries t = 0 .. MAX_DOUBLINGS
MAX_DOUBLINGS = 24


@dataclass(frozen=True)
class BaseCertificate:
    name: str
    n: int
    word: Word
    matrix: SymZMat
    condition: str


_TABLE_ROWS = {
    # n=4, two slopes
    "C_1001": (
        "1001",
        [
            [0, 1, -2, 1],
            [1, 0, 3, -2],
            [-2, 3, 0, 1],
            [1, -2, 1, 0],
        ],
    ),
    # n=5, two slopes
    "C_11011": (
        "11011",
        [
            [0, 8, -6, -1, -1],
            [8, 0, 2, 9, -3],
            [-6, 2, 0, 5, -7],
            [-1, 9, 5, 0, 11],
            [-1, -3, -7, 11, 0],
        ],
    ),
    # n=5, three slopes; the (1,3) entry is fixed at +2, the sign under
    # which the matrix verifies (-2 fails the mixed system)
    "C_10110": (
        "10110",
        [
            [0, 2, 2, 1, -3],
            [2, 0, 0, -2, 2],
            [2, 0, 0, 2, 0],
            [1, -2, 2, 0, 1],
            [-3, 2, 0, 1, 0],
        ],
    ),
    # n=5, three slopes
    "C_10010": (
        "10010",
        [
            [0, 2, -2, 2, -2],
            [2, 0, 4, -3, 1],
            [-2, 4, 0, 1, 1],
            [2, -3, 1, 0, 1],
            [-2, 1, 1, 1, 0],
        ],
    ),
    # n=5, four slopes
    "C_10101": (
        "10101",
        [
            [0, 0, 3, -2, -1],
            [0, 0, 1, 1, -2],
            [3, 1, 0, 1, 3],
            [-2, 1, 1, 0, 0],
            [-1, -2, 3, 0, 0],
        ],
    ),
    # n=6, five slopes
    "C_101010": (
        "101010",
        [
            [0, 0, 1, -1, 0, 0],
            [0, 0, 1, 1, -2, 0],
            [1, 1, 0, 1, 3, -2],
            [-1, 1, 1, 0, 0, 1],
            [0, -2, 3, 0, 0, 1],
            [0, 0, -2, 1, 1, 0],
        ],
    ),
}

BASE_NAMES = tuple(_TABLE_ROWS)


def base_certificate(name: str) -> BaseCertificate:
    """One of the six library matrices; all of them verify under 'farkas'."""
    if name not in _TABLE_ROWS:
        raise ValueError(f"unknown certificate {name!r}; have {', '.join(BASE_NAMES)}")
    word_text, rows = _TABLE_ROWS[name]
    word = Word.parse(word_text)
    return BaseCertificate(name, word.n, word, SymZMat.from_rows(rows), "farkas")


def path_certificate(n: int) -> SymZMat:
    """The path matrix: ones on adjacent pairs, -1 between the endpoints.

    Its permutation minimum is 0, attained only at the identity pair, and
    it vanishes on exactly the prefix cut classes.
    """
    if n < 3:
        raise ValueError("path certificate needs n >= 3")
    entries = {(j, j + 1): 1 for j in range(1, n)}
    entries[(1, n)] = -1
    return SymZMat(n, entries)


def face_certificate(n: int, excluded: Iterable[Word] = ()) -> SymZMat:
    """Path matrix with the entry (max U, max U + 1) bumped for each excluded
    incident set U; exposes the face spanned by the remaining incident rays."""
    mat = path_certificate(n)
    bump = {}
    for u in excluded:
        if not incident(Perm.identity(n), u):
            raise ValueError(f"{u} is not incident to the identity")
        j = max(u.elements)
        bump[(j, j + 1)] = bump.get((j, j + 1), 0) + 1
    return mat + SymZMat(n, bump)


def lifted_word(word: Word, position: int, k: int) -> Word:
    """The target word: k extra copies of the symbol at the split position."""
    bits = list(word.bits)
    sym = bits[position - 1]
    return Word(bits[:position] + [sym] * k + bits[position:])


def _lift_parts(base_cert: SymZMat, position: int, k: int) -> list[tuple[int, int, int]]:
    """lift's three int vectors over pair_indices(n + k), for k >= 1, zipped:
    the heavy path, the +-1 border blocks and the stretched base ints."""
    n = base_cert.n
    la = position - 1
    n2 = n + k
    heavy, border, stretch = ([0] * (n2 * (n2 - 1) // 2) for _ in range(3))
    # heavy path on the inserted block: positions la+1 .. la+k+1
    for i in range(la + 1, la + k + 1):
        heavy[pair_index(n2, i, i + 1)] = 1
    # border blocks: first path row couples +1 to the left part and -1 to the
    # right part, the last path row the other way around
    first, last = la + 1, la + k + 1
    for j in range(1, la + 1):
        border[pair_index(n2, j, first)] = 1
        border[pair_index(n2, j, last)] = -1
    for j in range(la + k + 2, n2 + 1):
        border[pair_index(n2, first, j)] = -1
        border[pair_index(n2, last, j)] = 1
    # stretched base certificate
    for (i, j), v in zip(pair_indices(n), base_cert.ints):
        if i == position:
            ni, nj = la + k + 1, j + k
        elif j == position:
            ni, nj = i, la + 1
        else:
            ni = i if i <= la else i + k
            nj = j if j <= la else j + k
        stretch[pair_index(n2, ni, nj)] += v
    return list(zip(heavy, border, stretch))


def _lift_ints(parts: list, d: int, t: int, swapped: bool) -> tuple[list[int], int]:
    """4^t d H +- 2^t d B + S over 2^t d, one int per (H, B, S) in parts:
    the lift with omega = 2^t and epsilon = 2^-t of a base over denominator d."""
    denom = 2**t * d
    heavy, unit = 2**t * denom, -denom if swapped else denom
    return [heavy * h + unit * b + s for h, b, s in parts], denom


def lift(
    base_cert: SymZMat, word: Word, position: int, k: int, t: int = 0, swapped: bool = False
) -> SymZMat:
    """Lift a certificate across the expansion of word's run at position by
    k copies: omega H +- B + epsilon S, with omega = 2^t and epsilon = 2^-t.

    The heavy path H pins the expanded run in place, the +-1 border blocks B
    (signs swapped when swapped) couple the path endpoints to the two sides,
    and S is the base certificate stretched around a zero middle block,
    splitting the old split-position connections between the two path
    endpoints.  position is the 1-based index of a symbol inside the run; the
    construction only depends on the split point, so expanding a 0-run needs
    no separate treatment (complementing the word relabels the target class
    but not the matrix).
    """
    if base_cert.n != word.n:
        raise ValueError("certificate and word sizes differ")
    if not (1 <= position <= word.n):
        raise ValueError(f"position {position} outside word {word}")
    if k < 0 or t < 0:
        raise ValueError("need k >= 0 and t >= 0")
    if k == 0:
        return base_cert
    ints, denom = _lift_ints(_lift_parts(base_cert, position, k), base_cert.denom, t, swapped)
    return SymZMat.of_ints(base_cert.n + k, ints, denom)


def plain_alternating_base(n: int) -> SymZMat:
    """A strict-system certificate for the alternating word of length 5 or 6.

    Built from the library matrix by adding 1/4 of the path matrix
    (restores strict permutation margins away from the identity pair) and
    the multiple of the all-ones matrix that moves the target inner product
    to exactly zero, then cleared to integers.
    """
    if n == 5:
        base = base_certificate("C_10101").matrix
        return base.scale(12) + path_certificate(5).scale(3) + SymZMat.all_ones(5).scale(2)
    if n == 6:
        base = base_certificate("C_101010").matrix
        return base.scale(36) + path_certificate(6).scale(9) + SymZMat.all_ones(6).scale(4)
    raise ValueError("plain alternating bases exist for n in {5, 6}")


def _embed_block(mat: SymZMat, n: int, offset: int) -> SymZMat:
    ints = [0] * (n * (n - 1) // 2)
    for (k, l), v in zip(pair_indices(mat.n), mat.ints):
        ints[pair_index(n, k + offset, l + offset)] = v
    return SymZMat.of_ints(n, ints, mat.denom)


def induct_alternating(n: int) -> SymZMat:
    """Strict-system certificate for the alternating word of [n], n >= 7.

    Grows two coordinates at a time: the certificate for n-2 sits in the
    leading block, a copy of the length-5 or length-6 base in the trailing
    block, and their sum certifies the alternating word of [n] under the
    plain system.  The matrix is returned unverified; synthesize checks it,
    through the lifts built on it or by its final check.
    """
    if n < 7:
        raise ValueError("induction starts at n = 7; lengths 5 and 6 are base cases")
    base = plain_alternating_base(5 if n % 2 == 1 else 6)
    cert = base
    size = base.n
    while size < n:
        size += 2
        cert = _embed_block(cert, size, 0) + _embed_block(base, size, size - base.n)
    return cert


def alternating_word(n: int) -> Word:
    """The canonical alternating word 1010... of length n."""
    return Word((1 - j % 2) for j in range(n))


def _id_pair(word: Word) -> HalfLinePair:
    return HalfLinePair(Perm.identity(word.n), word)


class NonEdgeError(ValueError):
    """Raised when synthesis is asked for a pair that is not an edge."""

    def __init__(self, witness: NonEdgeWitness):
        self.witness = witness
        super().__init__(
            f"pair ({witness.pair.pi}, {witness.pair.u}) is not an edge: "
            f"{witness.word_used} is over the ridge (k={witness.k})"
        )


@dataclass(frozen=True)
class EdgeCertificate:
    """A verified certificate together with how it was built.

    report holds the exact margins of matrix at pair, and its perm_argmin
    and cut_argmin are named in the pair's own coordinates: each attains its
    margin against M(pair.pi).  When several permutations or cuts tie, they
    may name a different minimiser than a fresh verify_certificate would.
    """

    pair: HalfLinePair
    matrix: SymZMat
    condition: str
    omega: Fraction
    epsilon: Fraction
    construction: tuple[str, ...]
    report: VerifyReport

    def to_json(self) -> dict:
        return {
            "pair": self.pair.to_json(),
            "matrix": self.matrix.to_json(),
            "condition": self.condition,
            "omega": str(self.omega),
            "epsilon": str(self.epsilon),
            "construction": list(self.construction),
            "margins": self.report.margins_json(),
        }


def _search_lift(
    cert: SymZMat, word: Word, position: int, k: int, condition: str
) -> tuple[SymZMat, Word, str, Fraction, Fraction, VerifyReport]:
    """Find omega/epsilon (and a sign configuration) making the lift verify.

    Doubling search over lift's t and swapped: a candidate is
    4^t d H +- 2^t d B + S over 2^t d, built by lift's own formula from its
    vectors, computed once, and the base's denominator d.  A cut_mask that
    failed the cut check is kept as the sums of H, B and S over the pairs it
    separates; a later candidate whose value there fails the cut relation, a
    bound on its cut minimum, is skipped before it is built.  Every other
    one gets one cut table, built by the screen and read again by the
    verifier, and is skipped if it fails or checked exhaustively, so the
    returned certificate is proven; the passing report is returned with it,
    or the last candidate's in the error.
    """
    parts = _lift_parts(cert, position, k)
    target = lifted_word(word, position, k)
    pair, n2 = _id_pair(target), target.n
    failing = []  # per remembered mask, the sums of H, B and S over the pairs it separates
    for t in range(MAX_DOUBLINGS + 1):
        for swapped in (False, True):
            values = _lift_ints(failing, cert.denom, t, swapped)[0]
            if any(_first_failure(condition, {"cut": v}) for v in values):
                continue
            candidate = SymZMat.of_ints(n2, *_lift_ints(parts, cert.denom, t, swapped))
            failure = _cut_side_failure(candidate, target, condition)
            if failure == "cut":
                side = Word.from_mask(n2, _cut_table(candidate, target)[1]).bits
                pairs = zip(parts, pair_indices(n2))
                cross = [p for p, (i, j) in pairs if side[i - 1] != side[j - 1]]
                failing.append([sum(c) for c in zip(*cross)])
            if failure:
                continue
            report = verify_certificate(candidate, pair, condition)
            if report.passed:
                omega, eps = Fraction(2**t), Fraction(1, 2**t)
                step = f"lift:pos={position},k={k},omega={omega},epsilon={eps}"
                if swapped:
                    step += ",signs=swapped"
                return candidate, target, step, omega, eps, report
    report = verify_certificate(lift(cert, word, position, k, MAX_DOUBLINGS, True), pair, condition)
    raise RuntimeError(
        f"lift search exhausted after {MAX_DOUBLINGS} doublings at word {word}, "
        f"position {position}, k={k}; last margins {report.margins_json()}"
    )


def _runs_of(word: Word) -> list[int]:
    return [end - start + 1 for _, start, end in word.runs()]


def _dispatch_base(word: Word) -> tuple[str, SymZMat, Word, str]:
    """Pick the reduction target for an id-pair edge word starting with 1.

    Returns (tag, matrix, base word, condition), none of it verified yet.
    Two slopes go to 1001 or 11011, three slopes to 10110 or 10010 by the
    hill/valley length pattern, and four or more slopes contract to the
    alternating word: a library matrix up to length 6, the block induction
    beyond.
    """
    s = word.slopes()
    runs = _runs_of(word)
    if s == 2:
        a, b, c = runs
        if b == 1 and (a == 1 or c == 1):
            raise AssertionError(f"{word} is over a ridge; classify should have caught it")
        # both hills of length >= 2 go to 11011, anything else to 1001
        name = "C_11011" if (a >= 2 and c >= 2) else "C_1001"
    elif s == 3:
        a, b, c, d = runs
        if b == 1 and c == 1:
            raise AssertionError(f"{word} is over a ridge; classify should have caught it")
        if b == 1:
            name = "C_10110"
        elif c == 1:
            name = "C_10010"
        elif a == 1 and d >= 2:
            name = "C_10110"
        else:
            name = "C_10010"
    else:
        # contract every run to length one
        m = s + 1
        if m >= 7:
            tag = f"base:alternating-induction,n={m}"
            return tag, induct_alternating(m), alternating_word(m), "plain"
        name = f"C_{alternating_word(m)}"
    cert = base_certificate(name)
    return f"base:{name}", cert.matrix, cert.word, cert.condition


def synthesize(pair: HalfLinePair) -> EdgeCertificate:
    """Produce a verified certificate for any edge pair.

    Pipeline: transport to the identity vertex, complement-normalize the
    word, dispatch on the slope count to a base certificate, lift run by
    run with a verified omega/epsilon search, then conjugate back to the
    original vertex.  A matrix no lift has verified gets one final check.
    Raises NonEdgeError (with the conic witness) for non-edge pairs.
    """
    verdict = classify(pair)
    if not verdict.is_edge:
        raise NonEdgeError(non_edge_witness(pair))
    sigma, idpair = symmetry_transport(pair)
    word = idpair.u.canonical()
    construction: list[str] = []
    omega = epsilon = Fraction(1)
    report = None

    if word.slopes() == 1:
        k = word.size
        excluded = [u for u in incident_sets(Perm.identity(word.n)) if u.size != k]
        cert = face_certificate(word.n, excluded)
        condition = "plain"
        construction.append(f"face:prefix={k}")
    else:
        tag, cert, current, condition = _dispatch_base(word)
        construction.append(tag)
        target_runs = _runs_of(word)
        base_runs = _runs_of(current)
        if len(target_runs) != len(base_runs):
            raise AssertionError(f"run mismatch: {word} vs {current}")
        for idx, (have, want) in enumerate(zip(base_runs, target_runs)):
            if want < have:
                raise AssertionError(f"cannot shrink run {idx + 1} of {current} to {want}")
            if want == have:
                continue
            position = 1 + sum(_runs_of(current)[:idx])
            cert, current, step, omega, epsilon, report = _search_lift(
                cert, current, position, want - have, condition
            )
            construction.append(step)
        if current != word:
            raise AssertionError(f"lift chain ended at {current}, wanted {word}")

    if report is None:  # no lift has verified cert
        report = verify_certificate(cert, _id_pair(word), condition)
        if not report.passed:
            raise AssertionError(f"synthesized certificate failed verification: {report.offender}")
    if not sigma.is_identity():
        # lifts are defined at the identity, so the report above is for
        # id_cert at (id, sigma(U)); conjugation by sigma is an exact isometry,
        # checked by the round trip, carrying tau to tau o sigma and S to sigma^-1(S)
        id_cert = cert
        cert = conjugate(cert, sigma)
        construction.append(f"conjugate:sigma={sigma}")
        if conjugate(cert, sigma.inverse()) != id_cert:
            raise AssertionError(f"transported certificate does not conjugate back under {sigma}")
        report = replace(
            report,
            perm_argmin=report.perm_argmin.compose(sigma).canonical(),
            cut_argmin=report.cut_argmin.compose(sigma).canonical(),
        )
    return EdgeCertificate(
        pair=pair,
        matrix=cert,
        condition=condition,
        omega=omega,
        epsilon=epsilon,
        construction=tuple(construction),
        report=report,
    )
