"""Edge classification, exhaustive verifiers, witnesses, and transport.

Claims covered:
    - classify matches the ridge characterization on the worked small cases
    - edge counts per vertex are 2^(n-1) - n (n >= 4) and 2 at n = 3
    - the verifiers enforce strict/mixed systems exactly, with exact margins,
      at every vertex, naming offenders in the pair's own coordinates
    - verdicts are invariant under relabeling, exhaustively for small n
    - every non-edge yields the exact conic identity, on either complement side
    - certificates transport by conjugation across every relabeling of S(4)
    - the face construction exposes exactly the chosen incident rays
"""

import itertools
import random
from fractions import Fraction

import pytest

from linemetric import (
    HalfLinePair,
    Perm,
    SymZMat,
    Word,
    base_certificate,
    classify,
    conjugate,
    cut_metric,
    enumerate_edges_at,
    face_certificate,
    incident_sets,
    inner_product,
    non_edge_witness,
    path_certificate,
    perm_metric,
    symmetry_transport,
    verify_certificate,
    word_classes,
)


def pair_of(pi_text, u_text):
    return HalfLinePair(Perm.parse(pi_text), Word.parse(u_text))


def id_pair(u_text):
    u = Word.parse(u_text)
    return HalfLinePair(Perm.identity(u.n), u)


class TestClassify:
    def test_incident_case(self):
        v = classify(id_pair("100"))
        assert v.is_edge and v.reason == "incident"

    def test_certified_case(self):
        v = classify(id_pair("1001"))
        assert v.is_edge and v.reason == "certified"

    def test_over_ridge_case(self):
        v = classify(id_pair("1010"))
        assert not v.is_edge and v.reason == "over-ridge"
        assert v.ridge_k == 2 and v.ridge_from_antipode is False

    def test_over_ridge_from_antipode(self):
        # 1011 is over the ridge from the antipodal vertex
        v = classify(id_pair("1011"))
        assert not v.is_edge and v.ridge_from_antipode is True and v.ridge_k == 3

    def test_ridge_reason_iff_non_edge(self):
        for n in (3, 4, 5):
            for u in word_classes(n):
                v = classify(HalfLinePair(Perm.identity(n), u))
                assert (v.reason == "over-ridge") == (not v.is_edge)

    def test_verdict_symmetry_exhaustive_n_le_5(self):
        for n in (3, 4, 5):
            perms = [Perm(p) for p in itertools.permutations(range(1, n + 1))]
            for u in word_classes(n):
                for pi in perms:
                    base = classify(HalfLinePair(pi, u))
                    for sigma in perms:
                        moved = Word.from_set(n, sigma.preimage_of_set(u.elements))
                        v = classify(HalfLinePair(pi.compose(sigma), moved))
                        assert v.is_edge == base.is_edge
                        assert v.reason == base.reason


class TestEnumerate:
    def test_n3(self):
        assert [str(v.pair.u) for v in enumerate_edges_at(Perm.identity(3))] == ["100", "110"]

    def test_n4_set_and_count(self):
        words = {str(v.pair.u) for v in enumerate_edges_at(Perm.identity(4))}
        assert words == {"1000", "1100", "1110", "1001"}

    def test_counts(self):
        assert len(enumerate_edges_at(Perm.identity(5))) == 11
        assert len(enumerate_edges_at(Perm.identity(6))) == 26

    def test_count_law_all_vertices_n4(self):
        for images in itertools.permutations(range(1, 5)):
            assert len(enumerate_edges_at(Perm(images))) == 4


class TestVerifiers:
    def test_farkas_base_certificate(self):
        rep = verify_certificate(base_certificate("C_1001").matrix, id_pair("1001"), "farkas")
        assert rep.passed
        assert (rep.perm_min, rep.cut_min, rep.target) == (0, 0, -4)

    def test_farkas_second_base(self):
        rep = verify_certificate(base_certificate("C_11011").matrix, id_pair("11011"), "farkas")
        assert rep.passed and rep.target == -12

    def test_zero_matrix_fails_both(self):
        z = SymZMat.zero(4)
        assert not verify_certificate(z, id_pair("1001"), "plain").passed
        assert not verify_certificate(z, id_pair("1001"), "farkas").passed

    def test_perturbed_certificate_fails(self):
        rows = base_certificate("C_1001").matrix.rows()
        rows[0][2] = rows[2][0] = Fraction(2)
        rep = verify_certificate(SymZMat.from_rows(rows), id_pair("1001"), "farkas")
        assert not rep.passed
        assert rep.offender is not None

    def test_library_alternating_matrices_satisfy_mixed_not_strict(self):
        # the length-5 and length-6 alternating matrices have target -4 and
        # permutation ties, so they are mixed-system certificates only
        for name, word in (("C_10101", "10101"), ("C_101010", "101010")):
            mat = base_certificate(name).matrix
            plain = verify_certificate(mat, id_pair(word), "plain")
            farkas = verify_certificate(mat, id_pair(word), "farkas")
            assert farkas.passed and farkas.target == -4
            assert not plain.passed
            assert plain.perm_min == 0 and plain.target == -4

    def test_plain_requires_strictness_everywhere(self):
        # the bare path matrix ties every incident cut class at zero, so it
        # certifies no single one of them under the strict system
        c = path_certificate(4)
        rep = verify_certificate(c, id_pair("1000"), "plain")
        assert not rep.passed and "cut" in rep.offender

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_certificate(SymZMat.zero(5), id_pair("1001"), "farkas")

    def test_every_vertex_accepted(self):
        # the zero matrix ties every permutation, so the reported minimiser
        # shows that the vertex's own pair is the one excluded
        for images in itertools.permutations(range(1, 5)):
            pi = Perm(images)
            pair = HalfLinePair(pi, Word.parse("1001"))
            rep = verify_certificate(SymZMat.zero(4), pair, "farkas")
            assert (rep.perm_min, rep.cut_min, rep.target) == (0, 0, 0)
            assert rep.perm_argmin != pi.canonical()
            assert rep.offender == "target cut 1001: value 0 >= 0"

    def test_cut_offender_named_at_the_pairs_vertex(self):
        # the path matrix vanishes on every prefix cut; moved to the vertex
        # sigma it vanishes on the preimages of the prefixes, and the first of
        # those off the target class is the offender, in the pair's own words
        sigma = Perm.parse("3,1,4,5,2")
        pair = HalfLinePair(sigma, Word.from_set(5, sigma.preimage_of_set({1})))
        d = conjugate(path_certificate(5), sigma)
        rep = verify_certificate(d, pair, "plain")
        assert not rep.passed
        assert rep.cut_argmin == Word.parse("10110")  # sigma^-1({1,2}) = {2,5}
        assert rep.offender == "cut 10110: value 0 <= 0"
        assert inner_product(d, cut_metric(rep.cut_argmin)) == rep.cut_min == 0
        assert rep.perm_min > 0

    def test_exhaustion_bound(self, monkeypatch):
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        with pytest.raises(ValueError, match="too large"):
            verify_certificate(SymZMat.zero(13), id_pair("1" + "0" * 12), "farkas")
        # a value below the verifier's default, meant for the oracle, leaves it alone
        monkeypatch.setenv("LINEMETRIC_MAX_N", "7")
        rep = verify_certificate(SymZMat.zero(9), id_pair("110011001"), "farkas")
        assert not rep.passed and "target" in rep.offender

    def test_antipodal_vertex_accepted(self):
        pair = HalfLinePair(Perm.identity(4).antipode(), Word.parse("1001"))
        rep = verify_certificate(base_certificate("C_1001").matrix, pair, "farkas")
        assert rep.passed


class TestTransport:
    def test_identity_transport(self):
        sigma, moved = symmetry_transport(id_pair("1001"))
        assert sigma.is_identity() and moved == id_pair("1001")

    def test_roundtrip(self):
        rnd = random.Random(41)
        for _ in range(50):
            n = rnd.randint(3, 6)
            pi = Perm(rnd.sample(range(1, n + 1), n))
            bits = [rnd.randint(0, 1) for _ in range(n)]
            u = Word(bits)
            if not u.is_proper():
                continue
            pair = HalfLinePair(pi, u)
            sigma, moved = symmetry_transport(pair)
            assert moved.pi.is_identity()
            back = Word.from_set(n, sigma.preimage_of_set(moved.u.elements))
            assert back == u

    def test_conjugated_certificate_passes_everywhere_s4(self):
        cert = base_certificate("C_1001").matrix
        base_u = Word.parse("1001")
        for images in itertools.permutations(range(1, 5)):
            sigma = Perm(images)
            pair = HalfLinePair(sigma, Word.from_set(4, sigma.preimage_of_set(base_u.elements)))
            moved_cert = conjugate(cert, sigma)
            rep = verify_certificate(moved_cert, pair, "farkas")
            assert rep.passed and rep.target == -4


class TestNonEdgeWitness:
    def test_direct_ridge_n4(self):
        w = non_edge_witness(id_pair("1101"))
        assert w.k == 3
        assert w.pi_prime == Perm.parse("1,2,4,3")
        assert str(w.prefix) == "1110"
        assert w.holds()

    def test_direct_ridge_n3(self):
        w = non_edge_witness(id_pair("101"))
        assert w.k == 2 and w.pi_prime == Perm.parse("1,3,2")

    def test_complement_side(self):
        w = non_edge_witness(id_pair("0010"))
        assert str(w.word_used) == "1101" and w.k == 3

    def test_identity_is_exact_matrix_equation(self):
        w = non_edge_witness(id_pair("1101"))
        lhs, cut_part, perm_part, base = w.identity_matrices()
        assert lhs == cut_part + perm_part - base
        assert lhs == cut_metric(Word.parse("1101"))

    def test_rejects_edges(self):
        with pytest.raises(ValueError, match="edge"):
            non_edge_witness(id_pair("1001"))

    def test_all_non_edges_witnessed_at_random_vertices(self):
        rnd = random.Random(42)
        for n in (4, 5):
            for _ in range(10):
                pi = Perm(rnd.sample(range(1, n + 1), n))
                for u in word_classes(n):
                    pair = HalfLinePair(pi, u)
                    if not classify(pair).is_edge:
                        assert non_edge_witness(pair).holds()


class TestExposedFaces:
    def test_path_matrix_minimum_structure(self):
        for n in (3, 4, 5, 6, 7):
            c = path_certificate(n)
            idn = Perm.identity(n)
            base = inner_product(c, perm_metric(idn))
            assert base == 0
            for images in itertools.permutations(range(1, n + 1)):
                pi = Perm(images)
                val = inner_product(c, perm_metric(pi))
                if pi.canonical().is_identity():
                    assert val == 0
                else:
                    assert val > 0

    def test_path_matrix_vanishes_on_prefix_cuts(self):
        for n in (3, 4, 5, 6):
            c = path_certificate(n)
            prefixes = {Word([1] * k + [0] * (n - k)) for k in range(1, n)}
            for u in word_classes(n):
                val = inner_product(c, cut_metric(u))
                assert (val == 0) == (u in prefixes)
                assert val >= 0

    def test_face_certificates_expose_exact_faces(self):
        # for every family of incident sets, the bumped path matrix is
        # minimized among vertices only at the identity pair and vanishes on
        # exactly the incident cut classes outside the family
        for n in (3, 4, 5):
            idn = Perm.identity(n)
            incid = incident_sets(idn)
            incid_classes = {u.canonical() for u in incid}
            for r in range(len(incid) + 1):
                for family in itertools.combinations(incid, r):
                    cp = face_certificate(n, family)
                    base = inner_product(cp, perm_metric(idn))
                    for images in itertools.permutations(range(1, n + 1)):
                        pi = Perm(images)
                        diff = inner_product(cp, perm_metric(pi)) - base
                        if pi.canonical().is_identity():
                            assert diff == 0
                        else:
                            assert diff > 0
                    family_classes = {u.canonical() for u in family}
                    keep = incid_classes - family_classes
                    for u in word_classes(n):
                        val = inner_product(cp, cut_metric(u))
                        assert val >= 0
                        assert (val == 0) == (u in keep)
