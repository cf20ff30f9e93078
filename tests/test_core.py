"""Core types and operations: exact scalars, permutations, words, matrices.

Claims covered:
    - inner product is the full ordered-pair trace form (twice the upper dot)
    - conjugation realizes relabeling: conjugate(M(x), sigma) = M(x o sigma)
    - antipode is an involution and leaves the embedded metric unchanged
    - word structure (slopes, hills, valleys, alternating) reads off the runs
    - text and JSON forms round-trip exactly
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from linemetric import (
    Perm,
    SymZMat,
    Word,
    conjugate,
    embed,
    format_rat,
    inner_product,
    parse_rat,
    perm_metric,
    word_structure,
)
from linemetric.core import pair_indices, perm_classes, word_classes


def rand_matrix(rnd, n):
    return SymZMat(
        n,
        {
            pair: Fraction(rnd.randint(-9, 9), rnd.choice([1, 1, 2, 3]))
            for pair in pair_indices(n)
        },
    )


class TestRatText:
    def test_parse_and_format(self):
        assert parse_rat("3/4") == Fraction(3, 4)
        assert parse_rat("-7") == -7
        assert format_rat(Fraction(3, 4)) == "3/4"
        assert format_rat(Fraction(-8, 2)) == "-4"


class TestPerm:
    def test_parse_str_roundtrip(self):
        p = Perm.parse("2,1,3")
        assert str(p) == "2,1,3"
        assert p(1) == 2 and p(2) == 1 and p(3) == 3

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm([1, 1, 3])
        with pytest.raises(ValueError):
            Perm([0, 1, 2])

    def test_inverse_compose(self):
        rnd = random.Random(3)
        for _ in range(50):
            n = rnd.randint(1, 7)
            p = Perm(rnd.sample(range(1, n + 1), n))
            assert p.compose(p.inverse()).is_identity()
            assert p.inverse().compose(p).is_identity()

    def test_antipode_formula(self):
        assert Perm.identity(3).antipode() == Perm([3, 2, 1])

    def test_antipode_involution(self):
        rnd = random.Random(4)
        for _ in range(30):
            n = rnd.randint(1, 7)
            p = Perm(rnd.sample(range(1, n + 1), n))
            assert p.antipode().antipode() == p

    def test_antipode_preserves_metric_exhaustive_s4(self):
        for images in itertools.permutations(range(1, 5)):
            p = Perm(images)
            assert perm_metric(p) == perm_metric(p.antipode())

    def test_canonical_is_lex_min(self):
        p = Perm([3, 1, 2])
        assert p.canonical().images == min(p.images, p.antipode().images)

    def test_perm_classes_count(self):
        for n in (3, 4, 5):
            classes = list(perm_classes(n))
            import math

            assert len(classes) == math.factorial(n) // 2


class TestWord:
    def test_parse_and_views(self):
        w = Word.parse("1001")
        assert w.size == 2
        assert w.elements == frozenset({1, 4})
        assert str(w.complement()) == "0110"
        assert w.complement().complement() == w

    def test_structure_1001(self):
        s = word_structure(Word.parse("1001"))
        assert s.slopes == 2
        assert s.hills == ((1, 1), (4, 4))
        assert s.valleys == ((2, 3),)
        assert not s.alternating

    def test_structure_10101_alternating(self):
        s = word_structure(Word.parse("10101"))
        assert s.slopes == 4
        assert s.alternating

    def test_structure_1110(self):
        assert word_structure(Word.parse("1110")).slopes == 1

    def test_structure_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            word_structure(Word.parse("000"))
        with pytest.raises(ValueError):
            word_structure(Word.parse("111"))

    def test_slopes_complement_invariant(self):
        rnd = random.Random(5)
        for _ in range(100):
            n = rnd.randint(2, 9)
            bits = [rnd.randint(0, 1) for _ in range(n)]
            w = Word(bits)
            if not w.is_proper():
                continue
            assert w.slopes() == w.complement().slopes()

    def test_canonical_contains_one(self):
        assert Word.parse("0110").canonical() == Word.parse("1001")
        assert Word.parse("1110").canonical() == Word.parse("1110")

    def test_word_classes(self):
        classes = list(word_classes(4))
        assert [str(w) for w in classes] == [
            "1000",
            "1001",
            "1010",
            "1011",
            "1100",
            "1101",
            "1110",
        ]

    def test_runs(self):
        assert Word.parse("110100").runs() == [(1, 1, 2), (0, 3, 3), (1, 4, 4), (0, 5, 6)]


class TestSymZMat:
    def test_from_rows_validates(self):
        with pytest.raises(ValueError):
            SymZMat.from_rows([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            SymZMat.from_rows([[0, 1], [2, 0]])

    def test_json_roundtrip(self):
        m = SymZMat(3, {(1, 2): Fraction(1, 3), (2, 3): -2})
        again = SymZMat.from_json(json.loads(json.dumps(m.to_json())))
        assert again == m

    def test_json_rejects_duplicate_entries(self):
        obj = {"n": 3, "entries": [[1, 2, "1"], [2, 3, "4"], [1, 2, "-5"]]}
        with pytest.raises(ValueError, match=r"duplicate matrix entry \(1,2\)"):
            SymZMat.from_json(obj)

    def test_json_omits_zeros(self):
        m = SymZMat(3, {(1, 2): 0, (1, 3): 5})
        assert m.to_json()["entries"] == [[1, 3, "5"]]

    def test_algebra(self):
        a = SymZMat(3, {(1, 2): 1})
        b = SymZMat(3, {(1, 2): 2, (2, 3): 1})
        assert (a + b).get(1, 2) == 3
        assert (b - a).get(1, 2) == 1
        assert b.scale(Fraction(1, 2)).get(2, 3) == Fraction(1, 2)

    def test_scaled_int_upper(self):
        m = SymZMat(3, {(1, 2): Fraction(1, 2), (1, 3): Fraction(2, 3)})
        ints, denom = m.scaled_int_upper()
        assert denom == 6
        assert ints == [3, 4, 0]


class TestInnerProduct:
    def test_zero_matrix(self):
        z = SymZMat.zero(4)
        assert inner_product(z, perm_metric(Perm.identity(4))) == 0

    def test_certificate_against_its_cut(self):
        # hand evaluation: 2 * (1*1 + (-2)*1 + 1*0 + 3*0 + (-2)*1 + 1*1) = -4
        c = SymZMat.from_rows(
            [[0, 1, -2, 1], [1, 0, 3, -2], [-2, 3, 0, 1], [1, -2, 1, 0]]
        )
        cut = embed([1, 0, 0, 1])
        assert inner_product(c, cut) == -4

    def test_all_ones_against_identity_metric(self):
        # 2 * (1 + 2 + 1) = 8 = 2 * C(4,3)
        assert inner_product(SymZMat.all_ones(3), perm_metric(Perm.identity(3))) == 8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(SymZMat.zero(3), SymZMat.zero(4))

    def test_symmetric_bilinear(self):
        rnd = random.Random(6)
        for _ in range(40):
            n = rnd.randint(2, 5)
            a, b, c = (rand_matrix(rnd, n) for _ in range(3))
            s, t = Fraction(rnd.randint(-4, 4)), Fraction(rnd.randint(-4, 4), 3)
            assert inner_product(a, b) == inner_product(b, a)
            lhs = inner_product(a.scale(s) + b.scale(t), c)
            assert lhs == s * inner_product(a, c) + t * inner_product(b, c)


class TestConjugate:
    def test_identity(self):
        rnd = random.Random(7)
        m = rand_matrix(rnd, 5)
        assert conjugate(m, Perm.identity(5)) == m

    def test_matches_relabelled_embedding(self):
        # both sides evaluate M: the derived identity of the symmetry remark
        sigma = Perm([2, 1, 3])
        lhs = conjugate(perm_metric(Perm.identity(3)), sigma)
        assert lhs == perm_metric(sigma)  # id o sigma = sigma

    def test_group_action_inverse(self):
        rnd = random.Random(8)
        for _ in range(30):
            n = rnd.randint(2, 6)
            m = rand_matrix(rnd, n)
            sigma = Perm(rnd.sample(range(1, n + 1), n))
            assert conjugate(conjugate(m, sigma), sigma.inverse()) == m

    def test_embedding_identity_random(self):
        rnd = random.Random(9)
        for _ in range(60):
            n = rnd.randint(2, 6)
            x = [Fraction(rnd.randint(-9, 9), rnd.choice([1, 2])) for _ in range(n)]
            sigma = Perm(rnd.sample(range(1, n + 1), n))
            moved = [x[sigma(j) - 1] for j in range(1, n + 1)]
            assert conjugate(embed(x), sigma) == embed(moved)

    def test_linear_and_isometric(self):
        rnd = random.Random(10)
        for _ in range(30):
            n = rnd.randint(2, 5)
            a, b = rand_matrix(rnd, n), rand_matrix(rnd, n)
            sigma = Perm(rnd.sample(range(1, n + 1), n))
            assert conjugate(a + b, sigma) == conjugate(a, sigma) + conjugate(b, sigma)
            assert inner_product(conjugate(a, sigma), conjugate(b, sigma)) == inner_product(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(SymZMat.zero(3), Perm.identity(4))
