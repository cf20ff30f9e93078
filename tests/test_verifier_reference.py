"""The subset-chain verifier against the brute-force permutation scan.

The verifier's margins come from one table of shortest chains over the
subset lattice, at the pair's own vertex pi: the best full chain through
each set off the chains of pi and its antipode, read from both ends of
the table since a cut and its complement have the same value.  The first
reference below is the direct definition: it scans all n!/2 antipodal
classes of permutations and all cut classes.  Every margin and cut_argmin
must agree exactly; perm_argmin may name another permutation on ties, so
it is checked to be canonical, off the pair of pi, and to attain perm_min
when evaluated on its own.  The second reference is the relabeling to the
identity vertex: verifying conjugate(D, pi^-1) for (id, pi(U)) must give
the same verdict and margins under both conditions.

Claims covered:
    - exact agreement on the library matrices and the strict alternating bases
    - exact agreement on every matrix synthesis verifies for the dispatch words,
      lift candidates that fail included
    - exact agreement on the negations of all of the above
    - exact agreement on seeded random rational matrices, n = 3..8, tie-heavy
      ones included, at the identity and at seeded random vertices, and on
      random small matrices and vertices by property testing
    - agreement with the relabeled identity-vertex verification on the
      random vertices
    - above the default bound of 12: one synthesized word at n = 13 or 14
      per dispatch family passes, agrees with its relabeling at two seeded
      vertices, and its negation fails on a permutation attaining perm_min
    - the cut table the margins are read from: cut[S] = denom * D.M(chi^S)
      from the public inner product on every mask at n = 3..9 and on sampled
      masks at n = 15 and 16, with its target and minimising class, also when
      the target is the first or last class and the minimum ties on both of
      its sides; and the alternating induction certificate passes at n = 15
      and 16
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linemetric.certificates as certificates
from linemetric import (
    BASE_NAMES,
    HalfLinePair,
    Perm,
    SymZMat,
    Word,
    base_certificate,
    conjugate,
    cut_metric,
    induct_alternating,
    inner_product,
    perm_metric,
    plain_alternating_base,
    symmetry_transport,
    synthesize,
    verify_certificate,
    word_classes,
)
from linemetric.core import pair_indices
from linemetric.edge_theory import _cut_table, _margins
from test_acceptance import DISPATCH_BRANCH_WORDS


def margins_reference(d, pi, u):
    """(perm_min, perm_argmin, cut_min, cut_argmin, target) by direct scan.

    Permutation margins are taken against D.M(pi) over the classes other
    than pi's.  perm_argmin is the lexicographically first minimiser among
    canonical permutations, cut_argmin the first minimiser in word_classes
    order.
    """
    n = d.n
    # clear denominators here, from the public entries, so that the
    # reference shares no arithmetic with the library's representation
    vec = [d.get(k, l) for (k, l) in pair_indices(n)]
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (denom // v.denominator) for v in vec]
    nz = [(k - 1, l - 1, c) for (k, l), c in zip(pair_indices(n), ints) if c != 0]

    def value(point):
        return 2 * sum(c * abs(point[k0] - point[l0]) for k0, l0, c in nz)

    vertex = pi.canonical().images
    base = value(vertex)
    perm_min = perm_arg = None
    for sigma in itertools.permutations(range(1, n + 1)):
        anti = tuple(n + 1 - v for v in sigma)
        if sigma > anti or sigma == vertex:
            continue
        diff = value(sigma) - base
        if perm_min is None or diff < perm_min:
            perm_min, perm_arg = diff, sigma

    target_class = u.canonical()
    cut_min = cut_arg = None
    for w in word_classes(n):
        if w == target_class:
            continue
        v = value(w.bits)
        if cut_min is None or v < cut_min:
            cut_min, cut_arg = v, w
    return (
        Fraction(perm_min, denom),
        Perm(perm_arg),
        Fraction(cut_min, denom),
        cut_arg,
        Fraction(value(target_class.bits), denom),
    )


def assert_agrees(d, pi, u):
    perm_min, perm_arg, cut_min, cut_arg, target = _margins(d, pi, u)
    ref_min, _, ref_cut_min, ref_cut_arg, ref_target = margins_reference(d, pi, u)
    assert (perm_min, cut_min, cut_arg, target) == (ref_min, ref_cut_min, ref_cut_arg, ref_target)
    assert perm_arg == perm_arg.canonical()
    assert perm_arg != pi.canonical()
    assert inner_product(d, perm_metric(perm_arg)) - inner_product(d, perm_metric(pi)) == perm_min
    assert inner_product(d, cut_metric(cut_arg)) == cut_min


def assert_agrees_with_negation(d, pi, u):
    assert_agrees(d, pi, u)
    assert_agrees(d.scale(-1), pi, u)


def assert_agrees_with_relabeling(d, pi, u):
    """The pair's own report against the identity-vertex one it relabels to."""
    pair = HalfLinePair(pi, u)
    _, idpair = symmetry_transport(pair)
    moved = conjugate(d, pi.inverse())
    for condition in ("plain", "farkas"):
        rep = verify_certificate(d, pair, condition)
        ref = verify_certificate(moved, idpair, condition)
        assert (rep.passed, rep.perm_min, rep.cut_min, rep.target) == (
            ref.passed,
            ref.perm_min,
            ref.cut_min,
            ref.target,
        )


def random_matrix(rnd, n, values, denominators):
    return SymZMat(
        n,
        {
            pair: Fraction(rnd.choice(values), rnd.choice(denominators))
            for pair in pair_indices(n)
        },
    )


def test_library_and_strict_alternating_bases():
    cases = [(base_certificate(name).matrix, base_certificate(name).word) for name in BASE_NAMES]
    cases += [(plain_alternating_base(5), Word.parse("10101"))]
    cases += [(plain_alternating_base(6), Word.parse("101010"))]
    for d, u in cases:
        assert_agrees_with_negation(d, Perm.identity(d.n), u)


def test_every_matrix_verified_for_the_dispatch_words(monkeypatch):
    seen = {}
    verify = certificates.verify_certificate

    def recording(d, pair, condition):
        report = verify(d, pair, condition)
        seen[(d, pair.pi, pair.u)] = report.passed
        return report

    monkeypatch.setattr(certificates, "verify_certificate", recording)
    for text in DISPATCH_BRANCH_WORDS:
        u = Word.parse(text)
        synthesize(HalfLinePair(Perm.identity(u.n), u))
    # the lift searches reject some candidates before accepting one
    assert set(seen.values()) == {True, False}
    for d, pi, u in seen:
        assert_agrees_with_negation(d, pi, u)


def random_cases(seed):
    """Seeded (matrix, word) cases, n = 3..8; every other one tie-heavy."""
    rnd = random.Random(seed)
    trials = {3: 40, 4: 40, 5: 40, 6: 20, 7: 4, 8: 2}
    for n, count in trials.items():
        words = list(word_classes(n))
        for i in range(count):
            if i % 2:
                # tie-heavy: many permutations and cuts share the minimum
                d = random_matrix(rnd, n, (-1, 0, 1), (1,))
            else:
                d = random_matrix(rnd, n, range(-6, 7), (1, 2, 3, 5))
            yield rnd, d, rnd.choice(words)


def test_random_rational_matrices():
    for _, d, u in random_cases(2024):
        assert_agrees_with_negation(d, Perm.identity(d.n), u)


def test_random_rational_matrices_at_random_vertices():
    for rnd, d, u in random_cases(2025):
        pi = Perm(rnd.sample(range(1, d.n + 1), d.n))
        assert_agrees_with_negation(d, pi, u)
        assert_agrees_with_relabeling(d, pi, u)


def small_matrix(data, n):
    values = data.draw(
        st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    return SymZMat(n, dict(zip(pair_indices(n), values)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_small_n(data):
    n = data.draw(st.integers(3, 6))
    d = small_matrix(data, n)
    u = data.draw(st.sampled_from(list(word_classes(n))))
    assert_agrees(d, Perm.identity(n), u)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_small_n_any_vertex(data):
    n = data.draw(st.integers(3, 6))
    d = small_matrix(data, n)
    pi = Perm(data.draw(st.permutations(range(1, n + 1))))
    u = data.draw(st.sampled_from(list(word_classes(n))))
    assert_agrees(d, pi, u)
    assert_agrees_with_relabeling(d, pi, u)


# one word at n = 13 or 14 per dispatch family, with its first construction step
HIGH_N_WORDS = {
    "11111110000000": "face:prefix=7",
    "1000001111111": "base:C_1001",
    "11100000001111": "base:C_11011",
    "1101111000000": "base:C_10110",
    "10000010000000": "base:C_10010",
    "10101010101011": "base:alternating-induction,n=13",
}


@pytest.mark.parametrize("text", list(HIGH_N_WORDS))
def test_dispatch_families_above_the_default_bound(monkeypatch, text):
    monkeypatch.setenv("LINEMETRIC_MAX_N", "14")
    u = Word.parse(text)
    n = u.n
    pair = HalfLinePair(Perm.identity(n), u)
    cert = synthesize(pair)
    assert cert.report.passed and cert.construction[0] == HIGH_N_WORDS[text]
    rnd = random.Random(text)
    for _ in range(2):
        pi = Perm(rnd.sample(range(1, n + 1), n))
        v = Word.from_set(n, pi.preimage_of_set(u.elements))
        assert_agrees_with_relabeling(conjugate(cert.matrix, pi), pi, v)
    neg = cert.matrix.scale(-1)
    rep = verify_certificate(neg, pair, cert.condition)
    assert not rep.passed and rep.offender.startswith(f"permutation {rep.perm_argmin}: ")
    base = inner_product(neg, perm_metric(pair.pi))
    assert inner_product(neg, perm_metric(rep.perm_argmin)) - base == rep.perm_min < 0


def cut_value(d, mask):
    """d.denom * D.M(chi^S) from the public inner product; element j is bit n - j."""
    word = format(mask, f"0{d.n}b")
    if "0" not in word or "1" not in word:
        return 0
    return d.denom * inner_product(d, cut_metric(Word.parse(word)))


def assert_cut_table(d, u, masks):
    """_cut_table's values on masks, and its target, against the definition."""
    n = d.n
    cut, cut_mask, target_mask = _cut_table(d, u)
    assert len(cut) == 1 << n
    for s in masks:
        assert cut[s] == cut_value(d, s)
    assert format(target_mask, f"0{n}b") == str(u.canonical())
    assert cut_mask != target_mask and cut[cut_mask] == cut_value(d, cut_mask)
    return cut, cut_mask


def test_cut_table_every_mask():
    rnd = random.Random(2030)
    for n in range(3, 10):
        words = list(word_classes(n))
        for i in range(4):
            # every other matrix tie-heavy, as in random_cases
            if i % 2:
                d = random_matrix(rnd, n, (-1, 0, 1), (1,))
            else:
                d = random_matrix(rnd, n, range(-6, 7), (1, 2, 3, 5))
            u = rnd.choice(words)
            u = u.complement() if i > 1 else u
            _, cut_mask = assert_cut_table(d, u, range(1 << n))
            # the first minimising class other than u's, in word_classes order
            others = [w for w in words if w != u.canonical()]
            values = [cut_value(d, int(str(w), 2)) for w in others]
            assert format(cut_mask, f"0{n}b") == str(others[values.index(min(values))])


def test_cut_mask_at_the_ends_of_the_range_with_ties():
    # the target is the first class, the last, or one between; the minimum
    # ties on both sides of it, and cut_mask is the first minimiser in
    # word_classes order either way
    rnd = random.Random(2031)
    for n in range(3, 8):
        words = list(word_classes(n))
        matrices = [SymZMat.zero(n), SymZMat.all_ones(n)]
        matrices += [random_matrix(rnd, n, (-1, 0, 1), (1,)) for _ in range(6)]
        for d in matrices:
            for u in {words[0], words[len(words) // 2], words[-1]}:
                _, cut_mask = assert_cut_table(d, u, [])
                others = [w for w in words if w != u]
                values = [cut_value(d, int(str(w), 2)) for w in others]
                assert format(cut_mask, f"0{n}b") == str(others[values.index(min(values))])
    # all-ones: the least cut separates one element, so classes 10000 and
    # 10111 .. 11110 tie, on both sides of a target between them
    ones = SymZMat.all_ones(5)
    for target, first in [("10000", "10111"), ("11000", "10000"), ("11110", "10000")]:
        _, cut_mask = assert_cut_table(ones, Word.parse(target), [])
        assert format(cut_mask, "05b") == first


@pytest.mark.parametrize("n", [15, 16])
def test_cut_table_and_alternating_certificate_above_the_bound(monkeypatch, n):
    monkeypatch.setenv("LINEMETRIC_MAX_N", str(n))
    rnd = random.Random(n)
    u = Word.parse(("10" * n)[:n])
    masks = [0, (1 << n) - 1, *rnd.sample(range(1 << n), 300)]
    # classes contain element 1, bit n - 1; the target's class is left out
    classes = [s for s in masks if 1 << (n - 1) <= s < (1 << n) - 1 and s != int(str(u), 2)]
    for d in (induct_alternating(n), random_matrix(rnd, n, range(-6, 7), (1, 2, 3))):
        cut, cut_mask = assert_cut_table(d, u, masks)
        assert all(cut[cut_mask] <= cut[s] for s in classes)
    rep = verify_certificate(induct_alternating(n), HalfLinePair(Perm.identity(n), u), "plain")
    assert rep.passed and rep.target == 0
