"""Independent LP oracle: exact feasibility with re-verified witnesses.

Claims covered:
    - the oracle agrees with the combinatorial classifier on every canonical
      pair for n = 3 and n = 4 (larger sweeps live in the acceptance suite)
    - edge verdicts carry a separating matrix that passes the strict verifier
    - non-edge verdicts carry a vanishing conic combination, and for the
      simplest ridge word it is exactly the known two-term identity
    - verdicts are identical with and without relabeling to the identity
    - classify and the oracle give one verdict on all four name variants of
      a pair (antipode, complement), by property testing for n <= 5
    - positive scaling preserves witness feasibility (homogeneity)
    - the Phase-I simplex gives the hand-derived answer on two small systems,
      one with a ratio tie that Bland's rule breaks by the smaller basic column
    - the size bound is enforced
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemetric import (
    HalfLinePair,
    Perm,
    SymZMat,
    Word,
    classify,
    cut_metric,
    inner_product,
    oracle_classify,
    perm_classes,
    perm_metric,
    verify_certificate,
    word_classes,
)
from linemetric.oracle import _decide_at_vertex, _phase_one


def id_pair(u_text):
    u = Word.parse(u_text)
    return HalfLinePair(Perm.identity(u.n), u)


class TestVerdicts:
    def test_small_edge(self):
        v = oracle_classify(id_pair("100"))
        assert v.is_edge and v.witness_matrix is not None

    def test_edge_witness_passes_strict_verifier(self):
        for text in ("1001", "1000", "1010"):
            pair = id_pair(text)
            v = oracle_classify(pair)
            if not v.is_edge:
                continue
            rep = verify_certificate(v.witness_matrix, pair, "plain")
            assert rep.passed
            assert rep.perm_min >= 1 and rep.cut_min >= 1 and rep.target == 0

    def test_non_edge_dual_is_the_ridge_identity(self):
        v = oracle_classify(id_pair("1101"))
        assert not v.is_edge
        assert v.dual_perm == {Perm.parse("1,2,4,3"): Fraction(1, 2)}
        assert v.dual_cut == {Word.parse("1110"): Fraction(1, 2)}
        assert v.dual_target == Fraction(-1, 2)

    def test_dual_combination_vanishes(self):
        self._check_vanishing(id_pair("10100"))

    def test_witnesses_hold_at_relabeled_vertices(self):
        # witnesses are carried back by conjugation, so a verdict for a pair
        # at any vertex is checkable against that pair directly
        rnd = random.Random(52)
        for _ in range(10):
            n = rnd.choice([4, 5])
            pi = Perm(rnd.sample(range(1, n + 1), n))
            bits = [rnd.randint(0, 1) for _ in range(n)]
            u = Word(bits)
            if not u.is_proper():
                continue
            pair = HalfLinePair(pi, u)
            v = oracle_classify(pair)
            if v.is_edge:
                assert verify_certificate(v.witness_matrix, pair, "plain").passed
            else:
                self._check_vanishing(pair, v)

    def _check_vanishing(self, pair, v=None):
        if v is None:
            v = oracle_classify(pair)
        assert not v.is_edge
        total = cut_metric(pair.u).scale(v.dual_target)
        weight = Fraction(0)
        for sigma, y in v.dual_perm.items():
            assert y > 0
            weight += y
            total = total + (perm_metric(sigma) - perm_metric(pair.pi)).scale(y)
        for w, y in v.dual_cut.items():
            assert y > 0
            weight += y
            total = total + cut_metric(w).scale(y)
        assert weight == 1
        assert total == SymZMat(pair.n)


class TestAgreement:
    @pytest.mark.parametrize("n", [3, 4])
    def test_full_agreement_small(self, n):
        for pi in perm_classes(n):
            for u in word_classes(n):
                pair = HalfLinePair(pi, u)
                assert oracle_classify(pair).is_edge == classify(pair).is_edge

    def test_direct_solve_matches_transported(self):
        rnd = random.Random(51)
        for _ in range(12):
            n = rnd.choice([4, 5])
            pi = Perm(rnd.sample(range(1, n + 1), n))
            bits = [rnd.randint(0, 1) for _ in range(n)]
            u = Word(bits)
            if not u.is_proper():
                continue
            pair = HalfLinePair(pi, u)
            direct, *_ = _decide_at_vertex(pair.pi, pair.u)
            assert direct == oracle_classify(pair).is_edge
            assert direct == classify(pair).is_edge


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_name_variants_agree(data):
    n = data.draw(st.integers(3, 5))
    pi = Perm(data.draw(st.permutations(range(1, n + 1))))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda b: 0 < sum(b) < n)
    u = Word(data.draw(bits))
    verdicts = {
        (classify(pair).is_edge, oracle_classify(pair).is_edge)
        for pair in (HalfLinePair(p, w) for p in (pi, pi.antipode()) for w in (u, u.complement()))
    }
    assert len(verdicts) == 1 and len(set(verdicts.pop())) == 1


class TestLargerInstances:
    def test_n6_spot_checks(self):
        # the full n=6 sweep runs in the acceptance suite; three class probes here
        assert oracle_classify(id_pair("101010")).is_edge
        assert oracle_classify(id_pair("100110")).is_edge
        assert not oracle_classify(id_pair("110100")).is_edge  # over the ridge, k=4

    def test_cache_shares_work_across_vertices(self):
        # swapping the first two positions of 110010 fixes the subset {1,2,5},
        # so the relabeled pair reuses the identity-vertex verdict
        from linemetric.oracle import _cache

        first = oracle_classify(id_pair("110010"))
        size = len(_cache)
        other = HalfLinePair(Perm.parse("2,1,3,4,5,6"), Word.parse("110010"))
        second = oracle_classify(other)
        assert len(_cache) == size
        assert first.is_edge == second.is_edge


class TestHomogeneity:
    def test_scaled_witness_stays_feasible(self):
        pair = id_pair("1001")
        v = oracle_classify(pair)
        scaled = v.witness_matrix.scale(Fraction(7, 3))
        idn = perm_metric(pair.pi)
        for sigma in perm_classes(4):
            if sigma == pair.pi.canonical():
                continue
            assert inner_product(scaled, perm_metric(sigma) - idn) > 0
        for w in word_classes(4):
            val = inner_product(scaled, cut_metric(w))
            if w == pair.u.canonical():
                assert val == 0
            else:
                assert val > 0


def fracs(*rows):
    return [[Fraction(a) for a in row] for row in rows]


class TestPhaseOne:
    def test_solved_unique_combination(self):
        # y1 (1,1) + y2 (-1,1) + lam (0,1) = 0 with y1 + y2 = 1 forces
        # y1 = y2 = 1/2 and lam = -1
        rows = fracs([1, 1], [-1, 1])
        (e,) = fracs([0, 1])
        assert _phase_one(rows, e) == ("solved", [Fraction(1, 2), Fraction(1, 2)], Fraction(-1))

    def test_blocked_tie_leaves_by_smaller_basic_column(self):
        # y1 (0,2) + y2 (-2,0) + lam (1,1) = 0 needs y1 + y2 = 0, so the
        # system is infeasible.  Columns: y1 0, y2 1, lam+ 2, lam- 3,
        # artificials 4..6.  Pivot 1: y1 enters at ratio 0 in row 1 (basis
        # 4, 0, 6).  Pivot 2: lam+ enters and rows 0 and 1 tie at ratio 0;
        # row 1's basic column 0 is smaller than row 0's 4, so row 1 leaves.
        # The artificial reduced costs end at (0, 2, 0), so v = 1 - them.
        # Leaving row 0 instead would end at v = (1/2, -1/2, 1).
        rows = fracs([0, 2], [-2, 0])
        (e,) = fracs([1, 1])
        status, v, _ = _phase_one(rows, e)
        assert status == "blocked"
        assert v == [1, -1, 1]
        # d = -v[:-1] / v[-1] separates: margins 2 on both rows, 0 on e
        d = [-a / v[-1] for a in v[:-1]]
        assert [sum(a * x for a, x in zip(row, d)) for row in rows] == [2, 2]
        assert sum(a * x for a, x in zip(e, d)) == 0


class TestBounds:
    def test_refuses_large_n(self):
        pair = id_pair("1010101")
        with pytest.raises(ValueError, match="bound"):
            oracle_classify(pair)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LINEMETRIC_MAX_N", "7")
        with pytest.raises(ValueError, match="bound 7"):
            oracle_classify(id_pair("10101010"))

    def test_too_small(self):
        with pytest.raises(ValueError):
            oracle_classify(HalfLinePair(Perm.identity(2), Word.parse("10")))
