"""Core types and operations: exact scalars, permutations, words, matrices.

Claims covered:
    - inner product is the full ordered-pair trace form (twice the upper dot)
    - conjugation realizes relabeling: conjugate(M(x), sigma) = M(x o sigma),
      and is an isometry of the inner product, by property testing too
    - antipode is an involution and leaves the embedded metric unchanged
    - word structure (slopes, hills, valleys, alternating) reads off the runs
    - a word read from a mask reads like the mask's binary digits, and
      relabelling a word by sigma relabels its cut metric as conjugation does
    - text and JSON forms round-trip exactly; matrix JSON indices are integers
      and values are rational strings or integers, never floats
    - every matrix is one tuple of ints over one positive denominator in
      lowest terms, whichever operation built it, so equal matrices have
      equal fields
"""

import ast
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemetric import (
    Perm,
    SymZMat,
    Word,
    conjugate,
    cut_metric,
    embed,
    inner_product,
    lift,
    parse_rat,
    perm_metric,
)
import linemetric
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
        assert str(Fraction(3, 4)) == "3/4"
        assert str(Fraction(-8, 2)) == "-4"

    def test_parse_reads_what_format_writes(self):
        for q in (Fraction(-3, 4), Fraction(22, 7), Fraction(0), Fraction(-5)):
            assert parse_rat(str(q)) == q
        assert parse_rat(" +6/4\n") == Fraction(3, 2)

    @pytest.mark.parametrize(
        "text",
        ["1e-3", "1.5", "1_0", "\u0661", "1 / 2", "/2", "1/", "--1", "", "inf"]
        + [pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_parse_refuses_other_forms(self, text):
        # Fraction() takes each of the first four; '1e-3000000' takes it seconds
        with pytest.raises(ValueError, match="not a rational p/q"):
            parse_rat(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
            parse_rat("1/0")


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

    @pytest.mark.parametrize(
        "images,entry",
        [([1.5, 2, 3], "1 is not an integer: 1.5"), ([3, 1, Fraction(5, 2)], "3 is not an integer")],
    )
    def test_rejects_non_integers(self, images, entry):
        # int() would read [1.5, 2, 3] as 1,2,3 and [3, 1, 5/2] as 3,1,2
        with pytest.raises(ValueError, match=f"^permutation entry {entry}"):
            Perm(images)

    def test_immutable(self):
        p = Perm([2, 1, 3])
        with pytest.raises(AttributeError):
            p.images = (1, 2, 3)
        assert p == Perm((2, 1, 3)) and hash(p) == hash(Perm(iter([2, 1, 3])))

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
        w = Word.parse("1001")
        assert w.slopes() == 2
        assert w.hills() == [(1, 1), (4, 4)]
        assert w.valleys() == [(2, 3)]
        assert not w.is_alternating()

    def test_structure_10101_alternating(self):
        w = Word.parse("10101")
        assert w.slopes() == 4
        assert w.is_alternating()

    def test_structure_1110(self):
        assert Word.parse("1110").slopes() == 1

    def test_structure_rejects_empty_and_full(self):
        for text in ("000", "111"):
            w = Word.parse(text)
            for structure in (w.slopes, w.hills, w.valleys, w.is_alternating):
                with pytest.raises(ValueError):
                    structure()

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
        # the order of the bit loop word_classes ran before Word.from_mask
        for n in range(2, 11):
            reference = [
                Word([1] + [(tail >> (n - 2 - i)) & 1 for i in range(n - 1)])
                for tail in range(2 ** (n - 1) - 1)
            ]
            assert list(word_classes(n)) == reference

    def test_from_mask_reads_like_binary_digits(self):
        for n in range(1, 11):
            for mask in range(1 << n):
                assert Word.from_mask(n, mask) == Word.parse(format(mask, f"0{n}b"))

    def test_compose(self):
        # element j of U o sigma is element sigma(j) of U
        sigma = Perm.parse("2,3,1,4")
        assert Word.parse("0110").compose(sigma) == Word.parse("1100")
        assert Word.parse("0110").compose(Perm.identity(4)) == Word.parse("0110")
        with pytest.raises(ValueError, match="size mismatch"):
            Word.parse("011").compose(sigma)

    @pytest.mark.parametrize("bits", [[0.5, 1, 1], [1, Fraction(1, 2), 0], ["0", 1, 1]])
    def test_rejects_non_integers(self, bits):
        # int() would read [0.5, 1, 1] as 011
        with pytest.raises(ValueError, match=r"^word entry \d is not an integer: "):
            Word(bits)

    def test_runs(self):
        assert Word.parse("110100").runs() == [(1, 1, 2), (0, 3, 3), (1, 4, 4), (0, 5, 6)]


class TestSymZMat:
    def test_from_rows_validates(self):
        with pytest.raises(ValueError):
            SymZMat.from_rows([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            SymZMat.from_rows([[0, 1], [2, 0]])

    @pytest.mark.parametrize("value", [0.1, 2.0, "1/3", "1e-3", None])
    def test_entries_must_be_exact(self, value):
        # Fraction() would store 0.1 as 3602879701896397/36028797018963968 and
        # expand the exponent of '1e-3'
        with pytest.raises(ValueError, match=r"^matrix entry \(1,3\) must be an int or a Fraction"):
            SymZMat(3, {(1, 2): Fraction(1, 3), (1, 3): value})
        with pytest.raises(ValueError, match=r"^matrix entry \(1,3\) must be an int or a Fraction"):
            SymZMat.from_rows([[0, 1, value], [1, 0, 0], [value, 0, 0]])

    def test_immutable(self):
        m = SymZMat(3, {(1, 2): 1})
        with pytest.raises(AttributeError):
            m.denom = 2
        assert repr(m) == "SymZMat(n=3, nonzeros=1)"

    def test_json_roundtrip(self):
        m = SymZMat(3, {(1, 2): Fraction(1, 3), (2, 3): -2})
        again = SymZMat.from_json(json.loads(json.dumps(m.to_json())))
        assert again == m

    def test_json_rejects_duplicate_entries(self):
        obj = {"n": 3, "entries": [[1, 2, "1"], [2, 3, "4"], [1, 2, "-5"]]}
        with pytest.raises(ValueError, match=r"duplicate matrix entry \(1,2\)"):
            SymZMat.from_json(obj)

    @pytest.mark.parametrize(
        "obj,field",
        [
            ({"n": 4.9, "entries": []}, "'n'"),
            ({"n": True, "entries": []}, "'n'"),
            ({"n": "4", "entries": []}, "'n'"),
            ({"n": 4, "entries": [[1.7, 2, "1"]]}, "'k' of entry 1"),
            ({"n": 4, "entries": [[1, 2, "1"], [True, 4, "-1"]]}, "'k' of entry 2"),
            ({"n": 4, "entries": [[1, "2", "1"]]}, "'l' of entry 1"),
            ({"n": 4, "entries": [[1, 2.0, "1"]]}, "'l' of entry 1"),
        ],
    )
    def test_json_indices_must_be_integers(self, obj, field):
        # int() would read each of these as a different, valid-looking matrix
        with pytest.raises(ValueError, match=f"^matrix field {field} must be an integer, got "):
            SymZMat.from_json(obj)

    @pytest.mark.parametrize(
        "value", [0.12345678901234567891, 1e-400, 0.5, 2.0, True, False, None, [1]]
    )
    def test_json_values_must_be_exact(self, value):
        # float() would read 0.12345678901234567891 as a nearby dyadic-decimal
        # rational and 1e-400 as zero
        obj = json.loads(json.dumps({"n": 3, "entries": [[1, 2, "1"], [1, 3, value]]}))
        with pytest.raises(
            ValueError, match=r"^matrix entry 2 value must be a rational string or an integer, got "
        ):
            SymZMat.from_json(obj)

    def test_json_values_may_be_integers(self):
        obj = {"n": 3, "entries": [[1, 2, 3], [1, 3, -12345678901234567891], [2, 3, "7/4"]]}
        assert SymZMat.from_json(obj) == SymZMat(
            3, {(1, 2): 3, (1, 3): -12345678901234567891, (2, 3): Fraction(7, 4)}
        )

    def test_json_omits_zeros(self):
        m = SymZMat(3, {(1, 2): 0, (1, 3): 5})
        assert m.to_json()["entries"] == [[1, 3, "5"]]

    def test_algebra(self):
        a = SymZMat(3, {(1, 2): 1})
        b = SymZMat(3, {(1, 2): 2, (2, 3): 1})
        assert (a + b).get(1, 2) == 3
        assert (b - a).get(1, 2) == 1
        assert b.scale(Fraction(1, 2)).get(2, 3) == Fraction(1, 2)

    def test_one_denominator_in_lowest_terms(self):
        m = SymZMat(3, {(1, 2): Fraction(1, 2), (1, 3): Fraction(2, 3)})
        assert (m.ints, m.denom) == ((3, 4, 0), 6)
        assert (m.scale(6).ints, m.scale(6).denom) == ((3, 4, 0), 1)
        assert (SymZMat.zero(3).ints, SymZMat.zero(3).denom) == ((0, 0, 0), 1)

    def test_equal_however_built(self):
        halves = SymZMat(3, {(1, 2): Fraction(2, 4), (2, 3): 1})
        assert halves == SymZMat(3, {(1, 2): Fraction(1, 2), (2, 3): 1})
        assert hash(halves) == hash(SymZMat(3, {(1, 2): Fraction(1, 2), (2, 3): 1}))
        assert SymZMat.of_ints(3, [2, 0, 4], 4) == halves


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


@st.composite
def sym_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    values = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    pairs = draw(st.lists(st.sampled_from(pair_indices(n)), unique=True)) if n > 1 else []
    return SymZMat(n, {pair: draw(values) for pair in pairs})


@settings(max_examples=150, deadline=None)
@given(sym_matrices())
def test_property_json_roundtrip(m):
    assert SymZMat.from_json(m.to_json()) == m
    assert SymZMat.from_json(json.loads(json.dumps(m.to_json()))) == m


@settings(max_examples=150, deadline=None)
@given(sym_matrices(), st.data())
def test_property_conjugation_is_an_isometry(a, data):
    b = draw_like(data, a)
    sigma = Perm(data.draw(st.permutations(range(1, a.n + 1))))
    assert inner_product(conjugate(a, sigma), conjugate(b, sigma)) == inner_product(a, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_word_compose_is_relabelling(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    u = Word(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    sigma = Perm(data.draw(st.permutations(range(1, n + 1))))
    assert u.compose(sigma) == Word.from_set(n, sigma.preimage_of_set(u.elements))
    assert u.compose(sigma).compose(sigma.inverse()) == u
    if u.is_proper():
        assert cut_metric(u.compose(sigma)) == conjugate(cut_metric(u), sigma)


def assert_lowest_terms(m):
    assert type(m.denom) is int and m.denom > 0
    assert len(m.ints) == m.n * (m.n - 1) // 2
    assert all(type(a) is int for a in m.ints)
    assert math.gcd(m.denom, *m.ints) == 1
    for i, (k, l) in enumerate(pair_indices(m.n)):
        assert m.get(k, l) == m.get(l, k) == Fraction(m.ints[i], m.denom)


scalars = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@settings(max_examples=150, deadline=None)
@given(sym_matrices(), st.data())
def test_property_representation(m, data):
    assert_lowest_terms(m)
    assert_lowest_terms(SymZMat.from_json(m.to_json()))
    other = draw_like(data, m)
    c = data.draw(scalars)
    sigma = Perm(data.draw(st.permutations(range(1, m.n + 1))))
    total, diff, scaled, moved = m + other, m - other, m.scale(c), conjugate(m, sigma)
    for result in (total, diff, scaled, moved):
        assert_lowest_terms(result)
    for k, l in pair_indices(m.n):
        assert total.get(k, l) == m.get(k, l) + other.get(k, l)
        assert diff.get(k, l) == m.get(k, l) - other.get(k, l)
        assert scaled.get(k, l) == c * m.get(k, l)
        assert moved.get(k, l) == m.get(sigma(k), sigma(l))
    assert total - other == m and hash(total - other) == hash(m)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=m.n, max_size=m.n))
    lifted = lift(
        m,
        Word(bits),
        data.draw(st.integers(1, m.n)),
        data.draw(st.integers(0, 3)),
        data.draw(st.integers(0, 4)),
        data.draw(st.booleans()),
    )
    assert_lowest_terms(lifted)


def draw_like(data, m):
    values = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return SymZMat(m.n, {pair: data.draw(values) for pair in pair_indices(m.n)})


def test_square_rows():
    rnd = random.Random(17)
    for n in (1, 2, 5, 9):
        pairs = pair_indices(n)
        m = SymZMat(n, {p: Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 6])) for p in pairs})
        square = m.square()
        assert len(square) == n and all(len(row) == n for row in square)
        assert all(type(a) is int for row in square for a in row)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                assert Fraction(square[k - 1][l - 1], m.denom) == m.get(k, l)


FLOAT_MATH = {"sqrt", "log", "exp", "pow", "fsum"}


def float_uses(source: str) -> list[str]:
    """Float literals, uses of the name float, and math.sqrt/log/exp/pow/fsum
    calls or imports in source, as 'line: what' strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name in FLOAT_MATH]
            found += [f"{node.lineno}: from math import {name}" for name in names]
    return found


def test_no_float_in_source():
    sources = sorted(Path(linemetric.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{use}" for path in sources for use in float_uses(path.read_text())]
    assert found == []
    # the guard itself sees each form
    assert len(float_uses("x = 0.5\ny = float(x)\nz = math.sqrt(2)\nfrom math import fsum")) == 4
