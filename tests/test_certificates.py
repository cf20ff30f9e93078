"""Certificate library, lifting, alternating induction, synthesis.

Claims covered:
    - the six library matrices verify under the mixed system with exact margins
    - the ambiguous mirror entry of the 10110 matrix carries the verifying sign
    - lifting reproduces the worked length-5 example and needs the omega/epsilon
      search (small omega genuinely fails)
    - one-step lifts from every base at every position verify, 0-runs included
    - the block induction produces strict certificates for alternating words
    - synthesis returns a verified certificate for every requested edge pair and
      refuses non-edges with the exact conic identity attached
    - the synthesized report names minimisers in the pair's own coordinates
    - the lift search's cut-table screen and its remembered failing masks only
      reject candidates the verifier rejects on the same check, and change no
      certificate, at every edge class at the identity at n = 8 too
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import linemetric.certificates as certificates
import linemetric.edge_theory as edge_theory
from linemetric import (
    HalfLinePair,
    NonEdgeError,
    Perm,
    SymZMat,
    Word,
    alternating_word,
    base_certificate,
    classify,
    cut_metric,
    induct_alternating,
    inner_product,
    lift,
    lifted_word,
    path_certificate,
    perm_metric,
    plain_alternating_base,
    synthesize,
    verify_certificate,
    word_classes,
)
from linemetric.certificates import BASE_NAMES, MAX_DOUBLINGS, _id_pair
from test_acceptance import DISPATCH_BRANCH_WORDS


def unscreened_search_lift(cert, word, position, k, condition):
    """The lift search without the cut-table screen: every candidate gets
    the full verifier.  The reference for the screened search."""
    target = lifted_word(word, position, k)
    for t in range(MAX_DOUBLINGS + 1):
        omega = Fraction(2) ** t
        eps = Fraction(1, 2**t)
        for swapped in (False, True):
            candidate = lift(cert, word, position, k, t, swapped)
            report = verify_certificate(candidate, _id_pair(target), condition)
            if report.passed:
                step = f"lift:pos={position},k={k},omega={omega},epsilon={eps}"
                if swapped:
                    step += ",signs=swapped"
                return candidate, target, step, omega, eps, report
    raise RuntimeError(f"reference lift search exhausted at word {word}")


def screened_pairs():
    """The dispatch branch words at the identity, then seeded edge pairs at
    random vertices for n <= 8 (face words included)."""
    pairs = [_id_pair(Word.parse(text)) for text in DISPATCH_BRANCH_WORDS]
    rnd = random.Random(61)
    while len(pairs) < len(DISPATCH_BRANCH_WORDS) + 24:
        n = rnd.randint(5, 8)
        pi = Perm(rnd.sample(range(1, n + 1), n))
        pair = HalfLinePair(pi, Word.from_set(n, rnd.sample(range(1, n + 1), rnd.randint(1, n - 1))))
        if classify(pair).is_edge:
            pairs.append(pair)
    return pairs


class TestBaseLibrary:
    def test_names(self):
        assert set(BASE_NAMES) == {
            "C_1001",
            "C_11011",
            "C_10110",
            "C_10010",
            "C_10101",
            "C_101010",
        }

    def test_c1001_rows(self):
        assert base_certificate("C_1001").matrix.rows() == [
            [0, 1, -2, 1],
            [1, 0, 3, -2],
            [-2, 3, 0, 1],
            [1, -2, 1, 0],
        ]

    def test_named_first_rows(self):
        assert base_certificate("C_10101").matrix.rows()[0] == [0, 0, 3, -2, -1]
        assert base_certificate("C_101010").matrix.rows()[0] == [0, 0, 1, -1, 0, 0]

    def test_10110_symmetry_resolution(self):
        m = base_certificate("C_10110").matrix
        assert m.get(1, 3) == 2 and m.get(3, 1) == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown certificate"):
            base_certificate("C_42")

    @pytest.mark.parametrize(
        "name,target",
        [
            ("C_1001", -4),
            ("C_11011", -12),
            ("C_10110", -4),
            ("C_10010", -6),
            ("C_10101", -4),
            ("C_101010", -4),
        ],
    )
    def test_every_base_verifies_mixed(self, name, target):
        cert = base_certificate(name)
        assert cert.condition == "farkas"
        rep = verify_certificate(cert.matrix, _id_pair(cert.word), "farkas")
        assert rep.passed
        assert rep.target == target
        assert rep.perm_min == 0 and rep.cut_min == 0


class TestLift:
    def test_k_zero_is_identity(self):
        base = base_certificate("C_1001").matrix
        assert lift(base, Word.parse("1001"), position=1, k=0) == base

    def test_worked_example_matrix(self):
        # expanding the leading hill of 1001 by one with omega = epsilon = 1
        got = lift(base_certificate("C_1001").matrix, Word.parse("1001"), position=1, k=1, t=0)
        assert lifted_word(Word.parse("1001"), position=1, k=1) == Word.parse("11001")
        assert got.rows() == [
            [0, 1, -1, -1, -1],
            [1, 0, 2, -1, 2],
            [-1, 2, 0, 3, -2],
            [-1, -1, 3, 0, 1],
            [-1, 2, -2, 1, 0],
        ]

    def test_small_omega_fails_large_omega_verifies(self):
        base = base_certificate("C_1001").matrix
        word = Word.parse("1001")
        naive = lift(base, word, 1, 1, t=0)
        assert not verify_certificate(naive, _id_pair(Word.parse("11001")), "farkas").passed
        tuned = lift(base, word, 1, 1, t=2)  # omega = 4, epsilon = 1/4
        rep = verify_certificate(tuned, _id_pair(Word.parse("11001")), "farkas")
        assert rep.passed and rep.target == -1

    def test_zero_run_lift(self):
        assert lifted_word(Word.parse("1001"), position=2, k=1) == Word.parse("10001")

    def test_integer_form_is_omega_path_plus_epsilon_stretch(self):
        # the one integer form equals omega * H +- B + epsilon * S in exact
        # matrix arithmetic, with omega = 2^t and epsilon = 2^-t
        for name in BASE_NAMES:
            cert = base_certificate(name)
            for position, t, swapped in itertools.product(range(1, cert.n + 1), range(4), (0, 1)):
                parts = certificates._lift_parts(cert.matrix, position, 2)
                h, b, s = (SymZMat.of_ints(cert.n + 2, v) for v in zip(*parts))
                expected = h.scale(2**t) + b.scale((-1) ** swapped) + s.scale(
                    Fraction(1, 2**t * cert.matrix.denom)
                )
                assert lift(cert.matrix, cert.word, position, 2, t, bool(swapped)) == expected

    def test_plan_validation(self):
        base, w = base_certificate("C_1001").matrix, Word.parse("1001")
        with pytest.raises(ValueError):
            lift(base, w, position=0, k=1)
        with pytest.raises(ValueError):
            lift(base, w, position=5, k=1)
        with pytest.raises(ValueError):
            lift(base, w, position=1, k=-1)
        with pytest.raises(ValueError):
            lift(base, w, position=1, k=1, t=-1)
        with pytest.raises(ValueError):
            lift(base, Word.parse("10010"), position=1, k=1)

    def test_one_step_lifts_from_every_base_verify(self):
        # every position of every base word admits a verified single lift
        for name in BASE_NAMES:
            cert = base_certificate(name)
            for position in range(1, cert.n + 1):
                lifted = None
                target = lifted_word(cert.word, position, 1)
                for t in range(8):
                    candidate = lift(cert.matrix, cert.word, position, 1, t)
                    if verify_certificate(candidate, _id_pair(target), "farkas").passed:
                        lifted = candidate
                        break
                assert lifted is not None, f"no verified lift of {name} at {position}"


class TestAlternatingInduction:
    def test_strict_bases(self):
        for n, margins in ((5, (12, 16)), (6, (36, 40))):
            mat = plain_alternating_base(n)
            rep = verify_certificate(mat, _id_pair(alternating_word(n)), "plain")
            assert rep.passed
            assert (rep.perm_min, rep.cut_min, rep.target) == (*margins, 0)

    def test_library_base_is_not_a_strict_seed(self):
        # the induction needs strict seeds; the length-5 library matrix is not
        # one (target -4, tied permutations), hence the derived bases above
        base = base_certificate("C_10101").matrix
        rep = verify_certificate(base, _id_pair(Word.parse("10101")), "plain")
        assert not rep.passed

    def test_induction_n7_n8(self):
        d7 = induct_alternating(7)
        rep7 = verify_certificate(d7, _id_pair(alternating_word(7)), "plain")
        assert rep7.passed and (rep7.perm_min, rep7.cut_min) == (12, 16)
        d8 = induct_alternating(8)
        rep8 = verify_certificate(d8, _id_pair(alternating_word(8)), "plain")
        assert rep8.passed and (rep8.perm_min, rep8.cut_min) == (36, 40)

    def test_induction_chains_past_one_step(self):
        # n=9 stacks the n=7 certificate with a fresh length-5 base
        d9 = induct_alternating(9)
        rep = verify_certificate(d9, _id_pair(alternating_word(9)), "plain")
        assert rep.passed and (rep.perm_min, rep.cut_min, rep.target) == (12, 16, 0)

    def test_below_start_rejected(self):
        with pytest.raises(ValueError, match="n = 7"):
            induct_alternating(5)

    def test_alternating_word(self):
        assert str(alternating_word(5)) == "10101"
        assert str(alternating_word(6)) == "101010"


class TestSynthesize:
    def test_base_word_verbatim(self):
        cert = synthesize(_id_pair(Word.parse("1001")))
        assert cert.matrix == base_certificate("C_1001").matrix
        assert cert.condition == "farkas"
        assert cert.construction == ("base:C_1001",)

    def test_worked_lift_example(self):
        cert = synthesize(_id_pair(Word.parse("11001")))
        assert cert.construction[0] == "base:C_1001"
        assert "lift:pos=1,k=1" in cert.construction[1]
        assert cert.omega == 4 and cert.epsilon == Fraction(1, 4)
        assert cert.report.passed

    def test_incident_word(self):
        cert = synthesize(_id_pair(Word.parse("1110")))
        assert cert.condition == "plain"
        assert cert.construction == ("face:prefix=3",)
        assert cert.report.passed

    def test_zero_run_expansion(self):
        cert = synthesize(_id_pair(Word.parse("10001")))
        assert cert.construction[0] == "base:C_1001"
        assert any(step.startswith("lift:pos=2,k=1") for step in cert.construction)
        assert cert.report.passed

    def test_alternating_routes(self):
        for text in ("10101", "101010"):
            cert = synthesize(_id_pair(Word.parse(text)))
            assert cert.condition == "farkas"
            assert cert.construction[0] == f"base:C_{text}"
        cert = synthesize(_id_pair(Word.parse("1010101")))
        assert cert.condition == "plain"
        assert cert.construction[0] == "base:alternating-induction,n=7"

    def test_non_edge_raises_with_witness(self):
        with pytest.raises(NonEdgeError) as err:
            synthesize(_id_pair(Word.parse("1101")))
        assert err.value.witness.k == 3
        assert err.value.witness.holds()

    def test_conjugation_exhaustive_s5(self):
        base_u = Word.parse("10010")
        for images in itertools.permutations(range(1, 6)):
            sigma = Perm(images)
            pair = HalfLinePair(sigma, Word.from_set(5, sigma.preimage_of_set(base_u.elements)))
            cert = synthesize(pair)
            assert cert.report.passed
            if not sigma.is_identity():
                assert cert.construction[-1] == f"conjugate:sigma={sigma}"

    def test_complement_coherence(self):
        a = synthesize(_id_pair(Word.parse("10001")))
        b = synthesize(_id_pair(Word.parse("01110")))
        assert a.report.passed and b.report.passed
        assert a.matrix == b.matrix  # both normalize to the same canonical word

    def test_certificate_json_shape(self):
        cert = synthesize(_id_pair(Word.parse("11001")))
        obj = cert.to_json()
        assert set(obj) == {
            "pair",
            "matrix",
            "condition",
            "omega",
            "epsilon",
            "construction",
            "margins",
        }
        assert obj["omega"] == "4" and obj["epsilon"] == "1/4"
        assert SymZMat.from_json(obj["matrix"]) == cert.matrix

    def test_search_cap_failure_is_diagnosed(self, monkeypatch):
        # a lift that no omega/epsilon makes verify must fail loudly once the
        # doublings run out, naming the last margins
        verify = certificates.verify_certificate

        def failing(d, pair, condition):
            return dataclasses.replace(verify(d, pair, condition), passed=False, offender="planted")

        monkeypatch.setattr(certificates, "verify_certificate", failing)
        with pytest.raises(RuntimeError, match=r"after 24 doublings .*last margins"):
            synthesize(_id_pair(Word.parse("11001")))

    def test_swapped_block_signs_do_not_verify_here(self):
        # the default border-block sign pattern is the verifying one; the
        # swapped configuration stays available but fails on the worked example
        base = base_certificate("C_1001").matrix
        swapped = lift(base, Word.parse("1001"), 1, 1, t=2, swapped=True)
        rep = verify_certificate(swapped, _id_pair(Word.parse("11001")), "farkas")
        assert not rep.passed

    def test_random_vertices_random_words(self):
        rnd = random.Random(43)
        for _ in range(25):
            n = rnd.randint(4, 8)
            pi = Perm(rnd.sample(range(1, n + 1), n))
            bits = [rnd.randint(0, 1) for _ in range(n)]
            u = Word(bits)
            if not u.is_proper():
                continue
            pair = HalfLinePair(pi, u)
            if classify(pair).is_edge:
                cert = synthesize(pair)
                assert cert.report.passed
                again = verify_certificate(cert.matrix, pair, cert.condition)
                assert again.passed
            else:
                with pytest.raises(NonEdgeError):
                    synthesize(pair)

    def test_each_matrix_verified_once(self, monkeypatch):
        # within one synthesis, a lift search's passing report is the
        # certificate's report, and the move to another vertex is checked by
        # an exact round trip; separate syntheses may share lift candidates.
        # The two alternating words contract to themselves, so no lift runs
        # for them; 10101001 lifts the n=7 induction matrix, which is checked
        # only through its lifts.
        calls = []
        verify = edge_theory.verify_certificate

        def recording(d, pair, condition):
            calls.append((d, pair.u.canonical(), condition))
            return verify(d, pair, condition)

        monkeypatch.setattr(edge_theory, "verify_certificate", recording)
        monkeypatch.setattr(certificates, "verify_certificate", recording)
        for text in [*DISPATCH_BRANCH_WORDS, "1010101", "10101010", "10101001"]:
            n = len(text)
            pi = Perm([*range(2, n + 1), 1])
            u = Word.from_set(n, pi.preimage_of_set(Word.parse(text).elements))
            calls.clear()
            cert = synthesize(HalfLinePair(pi, u))
            assert cert.construction[-1] == f"conjugate:sigma={pi}"
            assert len(calls) == len(set(calls)), text
            if text == "10101001":
                assert cert.construction[0] == "base:alternating-induction,n=7"
                assert all(d.n == 8 for d, _, _ in calls)

    def test_screen_rejects_only_what_the_verifier_rejects(self, monkeypatch):
        # every candidate the screen skips fails the full verifier, on the
        # very check (target or cut) and relation the screen named; a
        # candidate skipped on a remembered mask, before any table, fails it
        # on the cut check
        screened, remembered = [], []
        screen = certificates._cut_side_failure
        search = certificates._search_lift

        def recording(d, u, condition):
            failure = screen(d, u, condition)
            screened.append((d, u, condition, failure))
            return failure

        def recording_search(cert, word, position, k, condition):
            start = len(screened)
            found = search(cert, word, position, k, condition)
            seen = {d for d, *_ in screened[start:]}
            # the search's candidates in order, up to the one it returns
            for t, swapped in itertools.product(range(MAX_DOUBLINGS + 1), (False, True)):
                candidate = lift(cert, word, position, k, t, swapped)
                if candidate == found[0]:
                    break
                if candidate not in seen:
                    remembered.append((candidate, found[1], condition))
            return found

        monkeypatch.setattr(certificates, "_cut_side_failure", recording)
        monkeypatch.setattr(certificates, "_search_lift", recording_search)
        for pair in screened_pairs():
            synthesize(pair)
        rejected = [entry for entry in screened if entry[3] is not None]
        assert len(rejected) > len(screened) // 2
        assert "cut" in {failure for *_, failure in rejected}
        assert len(remembered) > len(screened) // 4
        rejected += [(d, u, condition, "cut") for d, u, condition in remembered]
        for d, u, condition, failure in rejected:
            report = verify_certificate(d, _id_pair(u), condition)
            assert not report.passed
            value = {"cut": report.cut_min, "target": report.target}[failure]
            assert edge_theory._first_failure(condition, {failure: value}), (u, condition, failure)

    def test_every_built_candidate_is_screened(self, monkeypatch):
        # a candidate the remembered masks reject is never built: every
        # matrix the search builds reaches the cut-table screen
        built, screened, searching = [], {}, [False]
        of_ints, search = SymZMat.of_ints, certificates._search_lift
        screen = certificates._cut_side_failure

        def recording_of_ints(cls, *args):
            m = of_ints(*args)
            if searching[0]:
                built.append(m)
            return m

        def recording_screen(d, u, condition):
            screened[id(d)] = d
            return screen(d, u, condition)

        def recording_search(*args):
            searching[0] = True
            try:
                return search(*args)
            finally:
                searching[0] = False

        monkeypatch.setattr(SymZMat, "of_ints", classmethod(recording_of_ints))
        monkeypatch.setattr(certificates, "_cut_side_failure", recording_screen)
        monkeypatch.setattr(certificates, "_search_lift", recording_search)
        for pair in screened_pairs():
            synthesize(pair)
        assert len(built) > 100
        assert all(id(m) in screened for m in built)

    def test_screen_names_the_first_failing_cut_side_check(self):
        # the system's order decides between target and cut, and the perm
        # check, which fails first in the verifier, is not the screen's
        c1001 = base_certificate("C_1001").matrix
        word = Word.parse("1001")
        cases = [
            (path_certificate(4), "plain", "target"),
            (path_certificate(4), "farkas", "target"),
            (c1001, "plain", "target"),
            (c1001, "farkas", None),
            (c1001.scale(-1), "plain", "target"),
            (c1001.scale(-1), "farkas", "cut"),
        ]
        for d, condition, failure in cases:
            assert certificates._cut_side_failure(d, word, condition) == failure
            assert verify_certificate(d, _id_pair(word), condition).passed == (failure is None)

    def test_screened_synthesis_matches_unscreened(self, monkeypatch):
        pairs = screened_pairs()
        screened = [synthesize(pair) for pair in pairs]
        monkeypatch.setattr(certificates, "_search_lift", unscreened_search_lift)
        for pair, cert in zip(pairs, screened):
            reference = synthesize(pair)
            assert cert.to_json() == reference.to_json()
            assert cert.report == reference.report

    def test_every_identity_class_at_n8_matches_unscreened(self, monkeypatch):
        # the size certify-large runs at, past the golden file's n <= 7
        pairs = [_id_pair(u) for u in word_classes(8) if classify(_id_pair(u)).is_edge]
        searched = []
        search = certificates._search_lift

        def recording_search(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(certificates, "_search_lift", recording_search)
        screened, lifted = [], 0
        for pair in pairs:
            searched.clear()
            screened.append(synthesize(pair))
            lifted += bool(searched)
        assert (len(pairs), lifted) == (120, 112)
        monkeypatch.setattr(certificates, "_search_lift", unscreened_search_lift)
        for pair, cert in zip(pairs, screened):
            reference = synthesize(pair)
            assert cert.to_json() == reference.to_json()
            assert cert.report == reference.report

    def test_verifier_runs_once_per_screen_pass(self, monkeypatch):
        # the verifier sees only candidates that pass the screen, plus the
        # final check of a matrix no lift has verified
        passes, calls = [], []
        screen = certificates._cut_side_failure
        verify = certificates.verify_certificate

        def counted_screen(d, u, condition):
            failure = screen(d, u, condition)
            if failure is None:
                passes.append(d)
            return failure

        def counted_verify(d, pair, condition):
            calls.append(d)
            return verify(d, pair, condition)

        monkeypatch.setattr(certificates, "_cut_side_failure", counted_screen)
        monkeypatch.setattr(certificates, "verify_certificate", counted_verify)
        for pair in [*screened_pairs(), _id_pair(Word.parse("10101010"))]:
            passes.clear()
            calls.clear()
            cert = synthesize(pair)
            lifted = any(step.startswith("lift:") for step in cert.construction)
            assert len(calls) == len(passes) + (0 if lifted else 1), pair
            assert calls[: len(passes)] == passes

    def assert_report_at_the_pair(self, cert):
        # the report's argmins are the pair's own permutation and cut classes
        # and attain its margins against M(pi); the margins are a fresh check's
        pair, d, rep = cert.pair, cert.matrix, cert.report
        base = inner_product(d, perm_metric(pair.pi))
        assert rep.perm_argmin.canonical() != pair.pi.canonical()
        assert inner_product(d, perm_metric(rep.perm_argmin)) - base == rep.perm_min
        assert rep.cut_argmin.canonical() != pair.u.canonical()
        assert inner_product(d, cut_metric(rep.cut_argmin)) == rep.cut_min
        fresh = verify_certificate(d, pair, cert.condition)
        assert fresh.passed and rep.passed
        assert (rep.perm_min, rep.cut_min, rep.target) == (
            fresh.perm_min,
            fresh.cut_min,
            fresh.target,
        )

    def test_report_named_at_the_pairs_vertex(self):
        cert = synthesize(HalfLinePair(Perm.parse("3,1,4,2,5"), Word.parse("01101")))
        assert cert.construction[-1] == "conjugate:sigma=3,1,4,2,5"
        self.assert_report_at_the_pair(cert)

    def test_report_at_random_vertices(self):
        rnd = random.Random(8)
        checked = 0
        while checked < 40:
            n = 4 + checked % 5
            pi = Perm(rnd.sample(range(1, n + 1), n))
            u = Word.from_set(n, rnd.sample(range(1, n + 1), rnd.randint(1, n - 1)))
            pair = HalfLinePair(pi, u)
            if classify(pair).is_edge:
                self.assert_report_at_the_pair(synthesize(pair))
                checked += 1
