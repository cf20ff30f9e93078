"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact rational arithmetic; nothing here tolerates error.

Criterion 1 carries a documented exception.  The library matrices for the
alternating words 10101 and 101010 satisfy only the mixed inequality
system, not the strict one: their target inner product is -4 instead of 0
and each ties dozens of permutations with the identity.  The audit below
verifies all six matrices under the system they actually satisfy, and the
strict claims for those two are kept as strict xfails so the fact stays
pinned and would be flagged if it ever silently changed (strict
certificates for the same words exist; see plain_alternating_base).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from linemetric import (
    HalfLinePair,
    Perm,
    SymZMat,
    Word,
    analyze_metric,
    base_certificate,
    classify,
    cut_metric,
    embed,
    enumerate_edges_at,
    incident_sets,
    inner_product,
    non_edge_witness,
    oracle_classify,
    perm_classes,
    perm_metric,
    spreading_check,
    synthesize,
    verify_certificate,
    word_classes,
)
from linemetric.oracle import _decide_at_vertex
from test_geometry_reference import decomposition_cone_check, perm_vertex, polar_vertex


def id_pair(u_text):
    u = Word.parse(u_text)
    return HalfLinePair(Perm.identity(u.n), u)


def ok(num, message):
    print(f"[criterion {num}] PASS: {message}")


# criterion 1: certificate library audit ------------------------------------------------

LIBRARY_AUDIT = {
    "C_1001": ("1001", "farkas", -4),
    "C_11011": ("11011", "farkas", -12),
    "C_10110": ("10110", "farkas", -4),
    "C_10010": ("10010", "farkas", -6),
    "C_10101": ("10101", "farkas", -4),
    "C_101010": ("101010", "farkas", -4),
}


def test_criterion_1_certificate_library_audit():
    margins = {}
    for name, (word, condition, target) in LIBRARY_AUDIT.items():
        cert = base_certificate(name)
        assert str(cert.word) == word and cert.condition == condition
        rep = verify_certificate(cert.matrix, id_pair(word), "farkas")
        assert rep.passed, f"{name}: {rep.offender}"
        assert rep.target == target
        assert rep.perm_min == 0 and rep.cut_min == 0
        margins[name] = rep.margins_json()
    ok(
        1,
        "all six library matrices verify under the mixed system; targets "
        + ", ".join(f"{k}={v['target']}" for k, v in margins.items())
        + " (the two alternating-word matrices are mixed-system only; see xfails)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the library matrix for 10101 satisfies the mixed system only: "
    "target is -4 (not 0) and 22 permutations tie the identity",
)
def test_criterion_1_plain_claim_10101():
    rep = verify_certificate(base_certificate("C_10101").matrix, id_pair("10101"), "plain")
    assert rep.passed


@pytest.mark.xfail(
    strict=True,
    reason="the library matrix for 101010 satisfies the mixed system only: "
    "target is -4 (not 0) and 36 permutations tie the identity",
)
def test_criterion_1_plain_claim_101010():
    rep = verify_certificate(base_certificate("C_101010").matrix, id_pair("101010"), "plain")
    assert rep.passed


# criterion 2: classifier vs oracle ----------------------------------------------


def _agreement_sweep(n):
    total = agree = 0
    for pi in perm_classes(n):
        for u in word_classes(n):
            pair = HalfLinePair(pi, u)
            total += 1
            if classify(pair).is_edge == oracle_classify(pair).is_edge:
                agree += 1
    return total, agree


def test_criterion_2_classifier_vs_oracle_n_le_5():
    counts = {}
    for n in (3, 4, 5):
        total, agree = _agreement_sweep(n)
        assert agree == total
        counts[n] = total
    # audit the relabeling itself: direct solves at non-identity vertices
    rnd = random.Random(101)
    for _ in range(15):
        n = rnd.choice([4, 5])
        pi = Perm(rnd.sample(range(1, n + 1), n))
        bits = [rnd.randint(0, 1) for _ in range(n)]
        u = Word(bits)
        if not u.is_proper():
            continue
        pair = HalfLinePair(pi, u)
        assert _decide_at_vertex(pair.pi, pair.u)[0] == classify(pair).is_edge
    ok(2, f"classifier/oracle agree on every canonical pair: {counts}")


def test_criterion_2_classifier_vs_oracle_n6():
    total, agree = _agreement_sweep(6)
    assert agree == total == 360 * 31
    ok(2, f"n=6 sweep: {agree}/{total} canonical pairs agree")


# criterion 3: edge-count law -------------------------------------------


def test_criterion_3_edge_counts():
    for pi in perm_classes(3):
        assert len(enumerate_edges_at(pi)) == 2
    for n, expected in ((4, 4), (5, 11), (6, 26)):
        assert expected == 2 ** (n - 1) - n
        for pi in perm_classes(n):
            assert len(enumerate_edges_at(pi)) == expected
    ok(3, "2 edges per vertex at n=3; 4/11/26 at n=4/5/6, every vertex")


# criterion 4: synthesis totality ----------------------------------------------

# one word per branch of the run-length dispatch, each requiring at least
# one lift; branches with a single-zero valley and single hills are non-edges
DISPATCH_BRANCH_WORDS = {
    # two slopes: (hill, valley, hill) -> reduction target
    "10001": "base:C_1001",
    "10011": "base:C_1001",
    "111011": "base:C_11011",
    "11001": "base:C_1001",
    "110011": "base:C_11011",
    # three slopes: (hill, valley, hill, valley) -> reduction target
    "101110": "base:C_10110",
    "101100": "base:C_10110",
    "100010": "base:C_10010",
    "100100": "base:C_10010",
    "100110": "base:C_10010",
    "1001100": "base:C_10110",
    "110110": "base:C_10110",
    "1101100": "base:C_10110",
    "110010": "base:C_10010",
    "1100100": "base:C_10010",
    "1100110": "base:C_10010",
    "11001100": "base:C_10010",
}


def test_criterion_4_synthesis_totality_n_le_10():
    edges = witnesses = 0
    for n in range(3, 11):
        pi = Perm.identity(n)
        for u in word_classes(n):
            pair = HalfLinePair(pi, u)
            if classify(pair).is_edge:
                cert = synthesize(pair)
                assert cert.report.passed, f"{u}: {cert.report.offender}"
                edges += 1
            else:
                assert non_edge_witness(pair).holds()
                witnesses += 1
    assert edges == sum(2 ** (n - 1) - n for n in range(4, 11)) + 2
    ok(4, f"n<=10 at the identity vertex: {edges} edges certified, {witnesses} non-edges witnessed")


def test_criterion_4_every_dispatch_branch_lifts():
    for text, expected_base in DISPATCH_BRANCH_WORDS.items():
        cert = synthesize(id_pair(text))
        assert cert.report.passed, f"{text}: {cert.report.offender}"
        assert cert.construction[0] == expected_base, (
            f"{text}: used {cert.construction[0]}, table says {expected_base}"
        )
        assert any(step.startswith("lift:") for step in cert.construction), text
    cert = synthesize(id_pair("1010101"))
    assert cert.construction[0] == "base:alternating-induction,n=7"
    assert cert.report.passed
    ok(4, f"all {len(DISPATCH_BRANCH_WORDS)} dispatch branches lift (incl. n=8) and the n=7 induction verifies")


# criterion 5: structure properties by random testing -----------------------------


def test_criterion_5a_cone_translation_identity():
    rnd = random.Random(55)
    per_pi = 10**4
    for n in (3, 4, 5):
        lattice = []
        for _ in range(per_pi - 500):
            k = [rnd.randint(-3 * n, 3 * n) for _ in range(n)]
            s = sum(k)
            lattice.append([n * v - s for v in k])
        rational = []
        for _ in range(500):
            q = rnd.choice([2, 3, 4])
            k = [rnd.randint(-3 * n, 3 * n) for _ in range(n)]
            s = sum(k)
            rational.append([Fraction(n * v - s, q) for v in k])
        for images in itertools.permutations(range(1, n + 1)):
            pi = Perm(images)
            for x in lattice:
                assert decomposition_cone_check(x, pi)
            for x in rational:
                assert decomposition_cone_check(x, pi)
    ok(5, "cone translation identity holds on 10^4 random points per vertex, n<=5")


def test_criterion_5b_cone_disjointness():
    rnd = random.Random(56)
    checked = 0
    for n in (3, 4, 5):
        for pi in perm_classes(n):
            v = perm_vertex(pi)
            gens = [polar_vertex(u) for u in incident_sets(pi)]
            for _ in range(40):
                coeffs = [Fraction(rnd.randint(0, 8), rnd.choice([1, 2])) for _ in gens]
                x = [
                    v[j] + sum(c * g[j] for c, g in zip(coeffs, gens))
                    for j in range(n)
                ]
                got = analyze_metric(embed(x))
                assert got.separated
                assert got.pi == pi.canonical()
                checked += 1
    ok(5, f"cone samples always land back in their own cone ({checked} samples, n<=5)")


def test_criterion_5c_embedding_map_identities():
    rnd = random.Random(57)
    for _ in range(300):
        n = rnd.randint(3, 6)
        x = [Fraction(rnd.randint(-20, 20), rnd.choice([1, 2, 3])) for _ in range(n)]
        xi = Fraction(rnd.randint(-9, 9), rnd.choice([1, 2]))
        assert embed([v + xi for v in x]) == embed(x)  # translation invariance
        assert embed([-v for v in x]) == embed(x)  # antipodal identification
    for _ in range(150):
        n = rnd.randint(3, 6)
        mean = lambda vals: sum(vals) / n
        x = [Fraction(rnd.randint(-20, 20)) for _ in range(n)]
        x = [v - mean(x) for v in x]
        from linemetric import recover_embedding

        got = recover_embedding(embed(x))
        assert got is not None and (list(got) == x or list(got) == [-v for v in x])
    for _ in range(150):
        n = rnd.randint(3, 6)
        pi = Perm(rnd.sample(range(1, n + 1), n))
        gens = [polar_vertex(u) for u in incident_sets(pi)]

        def cone_point():
            coeffs = [Fraction(rnd.randint(0, 6), rnd.choice([1, 2])) for _ in gens]
            return [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]

        a, b = cone_point(), cone_point()
        assert embed([p + q for p, q in zip(a, b)]) == embed(a) + embed(b)
    ok(5, "translation invariance, antipodal injectivity, and cone linearity hold on random inputs")


# criterion 6: non-closedness witness ------------------------------------------


def _in_translated_cone(m, pi):
    """Independent oracle: is m in M(pi) + M(N_pi)?  Telescope along pi."""
    t = m - perm_metric(pi)
    n = m.n
    inv = pi.inverse()
    order = [inv(r) for r in range(1, n + 1)]
    y = [Fraction(0)] * n
    for a, b in zip(order, order[1:]):
        step = t.get(a, b)
        if step < 0:
            return False
        y[b - 1] = y[a - 1] + step
    return embed(y) == t


def test_criterion_6_hull_is_not_closed_at_n4():
    edge_pair = id_pair("1001")
    assert classify(edge_pair).is_edge
    assert verify_certificate(base_certificate("C_1001").matrix, edge_pair, "farkas").passed
    base = perm_metric(Perm.identity(4))
    ray = cut_metric(Word.parse("1001"))
    for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
        point = base + ray.scale(t)
        assert not analyze_metric(point).separated
        for images in itertools.permutations(range(1, 5)):
            assert not _in_translated_cone(point, Perm(images))
    ok(
        6,
        "points along the certified 1001 edge lie outside every one of the 24 "
        "translated cones: the hull is not closed at n=4",
    )


# criterion 7: spreading validity ----------------------------------------------


def _random_separated_metric(rnd, n):
    x = [Fraction(0)]
    for _ in range(n - 1):
        x.append(x[-1] + 1 + Fraction(rnd.randint(0, 6), rnd.choice([1, 2, 3])))
    order = rnd.sample(range(n), n)
    return embed([x[order[i]] for i in range(n)])


def test_criterion_7_spreading_inequalities():
    rnd = random.Random(77)
    members = 0
    for n in range(3, 8):
        for _ in range(1000):
            rep = spreading_check(_random_separated_metric(rnd, n))
            assert not rep.strong and not rep.weak
            members += 1
    violation = spreading_check(cut_metric(Word.parse("100")))
    bad = [v for v in violation.strong if v.i == 2 and v.subset == frozenset({1, 3})]
    assert bad and bad[0].lhs == 1 and bad[0].rhs == 2
    ok(
        7,
        f"zero violations of the floor((s+1)^2/4) bound on {members} random "
        "separated metrics (n<=7); the length-3 cut metric violates it at i=2, S={1,3}",
    )


# criterion 8: the bounded facet -----------------------------------------------


def test_criterion_8_bounded_facet():
    for n in range(3, 8):
        ones = SymZMat.all_ones(n)
        rhs = 2 * math.comb(n + 1, 3)
        perm_vals = {}
        for images in itertools.permutations(range(1, n + 1)):
            val = inner_product(ones, perm_metric(Perm(images)))
            assert val == rhs
            perm_vals[images] = val
        for u in word_classes(n):
            cut_val = inner_product(ones, cut_metric(u))
            assert cut_val > 0
            # every vertex pushed along any cut direction leaves the facet
            for val in set(perm_vals.values()):
                assert val + cut_val > rhs
    ok(8, "ones-matrix inner product is exactly 2*C(n+1,3) on every vertex and larger along every cut, n<=7")
