"""The subset-chain verifier against the brute-force permutation scan.

The verifier's margins come from a shortest-chain computation over the
subset lattice.  The reference below is the direct definition: it scans
all n!/2 antipodal classes of permutations and all cut classes.  Every
margin and cut_argmin must agree exactly; perm_argmin may name another
permutation on ties, so it is checked to be canonical, off the identity
pair, and to attain perm_min when evaluated on its own.

Claims covered:
    - exact agreement on the library matrices and the strict alternating bases
    - exact agreement on every matrix synthesis verifies for the dispatch words,
      lift candidates that fail included
    - exact agreement on the negations of all of the above
    - exact agreement on seeded random rational matrices, n = 3..8, tie-heavy
      ones included, and on random small matrices by property testing
"""

import itertools
import random
from fractions import Fraction

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
    inner_product,
    perm_metric,
    plain_alternating_base,
    synthesize,
    word_classes,
)
from linemetric.core import pair_indices
from linemetric.edge_theory import _margins
from test_acceptance import DISPATCH_BRANCH_WORDS


def margins_reference(d, u):
    """(perm_min, perm_argmin, cut_min, cut_argmin, target) by direct scan.

    perm_argmin is the lexicographically first minimiser among canonical
    permutations, cut_argmin the first minimiser in word_classes order.
    """
    n = d.n
    ints, denom = d.scaled_int_upper()
    nz = [(k - 1, l - 1, c) for (k, l), c in zip(pair_indices(n), ints) if c != 0]

    def value(point):
        return 2 * sum(c * abs(point[k0] - point[l0]) for k0, l0, c in nz)

    identity = tuple(range(1, n + 1))
    base = value(identity)
    perm_min = perm_arg = None
    for sigma in itertools.permutations(identity):
        anti = tuple(n + 1 - v for v in sigma)
        if sigma > anti or sigma == identity:
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


def assert_agrees(d, u):
    perm_min, perm_arg, cut_min, cut_arg, target = _margins(d, u)
    ref_min, _, ref_cut_min, ref_cut_arg, ref_target = margins_reference(d, u)
    assert (perm_min, cut_min, cut_arg, target) == (ref_min, ref_cut_min, ref_cut_arg, ref_target)
    assert perm_arg == perm_arg.canonical()
    assert not perm_arg.is_identity()
    idn = Perm.identity(d.n)
    assert inner_product(d, perm_metric(perm_arg)) - inner_product(d, perm_metric(idn)) == perm_min


def assert_agrees_with_negation(d, u):
    assert_agrees(d, u)
    assert_agrees(d.scale(-1), u)


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
        assert_agrees_with_negation(d, u)


def test_every_matrix_verified_for_the_dispatch_words(monkeypatch):
    seen = {}
    verify = certificates.verify_certificate

    def recording(d, pair, condition):
        report = verify(d, pair, condition)
        seen[(d, pair.u)] = report.passed
        return report

    monkeypatch.setattr(certificates, "verify_certificate", recording)
    for text in DISPATCH_BRANCH_WORDS:
        u = Word.parse(text)
        synthesize(HalfLinePair(Perm.identity(u.n), u))
    # the lift searches reject some candidates before accepting one
    assert set(seen.values()) == {True, False}
    for d, u in seen:
        assert_agrees_with_negation(d, u)


def test_random_rational_matrices():
    rnd = random.Random(2024)
    trials = {3: 40, 4: 40, 5: 40, 6: 20, 7: 4, 8: 2}
    for n, count in trials.items():
        words = list(word_classes(n))
        for i in range(count):
            if i % 2:
                # tie-heavy: many permutations and cuts share the minimum
                d = random_matrix(rnd, n, (-1, 0, 1), (1,))
            else:
                d = random_matrix(rnd, n, range(-6, 7), (1, 2, 3, 5))
            assert_agrees_with_negation(d, rnd.choice(words))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_small_n(data):
    n = data.draw(st.integers(3, 6))
    values = data.draw(
        st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    d = SymZMat(n, dict(zip(pair_indices(n), values)))
    u = data.draw(st.sampled_from(list(word_classes(n))))
    assert_agrees(d, u)
