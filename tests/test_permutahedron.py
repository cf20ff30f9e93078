"""Permutahedron combinatorics: facets, incidence, ridges, normal cones.

Claims covered:
    - facet right-hand sides are the triangular numbers C(|U|+1, 2)
    - incidence means U holds the positions of the k smallest values
    - a vertex lies on exactly n-1 facets (the polytope is simple)
    - over-the-ridge sets are exactly pi^-1([k-1] + {k+1}), n-1 of them
    - incidence, ridges, and complements transport along relabelings
    - polar vertices pair to 1 against incident vertices and generate cones
"""

import itertools
import random
from fractions import Fraction

import pytest

from linemetric import (
    Perm,
    Word,
    facet_rhs,
    in_normal_cone,
    incident,
    incident_sets,
    over_ridge_sets,
    over_the_ridge,
    perm_vertex,
    polar_vertex,
)


def all_proper_words(n):
    for mask in range(1, 2**n - 1):
        yield Word((mask >> (n - 1 - i)) & 1 for i in range(n))


def all_perms(n):
    for images in itertools.permutations(range(1, n + 1)):
        yield Perm(images)


class TestFacetRhs:
    def test_examples(self):
        assert facet_rhs(Word.parse("100")) == 1
        assert facet_rhs(Word.parse("1100")) == 3

    def test_all_but_one(self):
        for n in range(3, 8):
            w = Word([1] * (n - 1) + [0])
            assert facet_rhs(w) == n * (n - 1) // 2

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            facet_rhs(Word.parse("111"))


class TestIncidence:
    def test_identity_examples(self):
        id3 = Perm.identity(3)
        assert incident(id3, Word.parse("100"))
        assert incident(id3, Word.parse("110"))
        assert not incident(id3, Word.parse("010"))
        assert not incident(id3, Word.parse("101"))

    def test_simple_polytope_count(self):
        for n in range(3, 7):
            for pi in all_perms(n):
                count = sum(1 for u in all_proper_words(n) if incident(pi, u))
                assert count == n - 1

    def test_incident_sets_helper_agrees(self):
        for n in range(3, 6):
            for pi in all_perms(n):
                listed = set(incident_sets(pi))
                brute = {u for u in all_proper_words(n) if incident(pi, u)}
                assert listed == brute

    def test_transport_exhaustive_n_le_5(self):
        # incidence and ridges move along every relabeling, for every pair
        for n in (3, 4, 5):
            perms = list(all_perms(n))
            words = list(all_proper_words(n))
            base_incident = {
                (pi.images, u.bits): incident(pi, u) for pi in perms for u in words
            }
            base_ridge = {
                (pi.images, u.bits): over_the_ridge(pi, u) for pi in perms for u in words
            }
            for sigma in perms:
                moved = {
                    u.bits: Word.from_set(n, sigma.preimage_of_set(u.elements))
                    for u in words
                }
                for pi in perms:
                    composed = pi.compose(sigma)
                    for u in words:
                        m = moved[u.bits]
                        key = (pi.images, u.bits)
                        assert incident(composed, m) == base_incident[key]
                        assert over_the_ridge(composed, m) == base_ridge[key]

    def test_vertex_attains_facet_rhs_iff_incident(self):
        # the translated vertex lies on the facet of U exactly at incidence
        for n in range(3, 6):
            for pi in all_perms(n):
                for u in all_proper_words(n):
                    attained = sum(pi(j) for j in u.elements) == facet_rhs(u)
                    assert attained == incident(pi, u)


class TestOverTheRidge:
    def test_examples(self):
        assert over_the_ridge(Perm.identity(3), Word.parse("101")) == 2
        assert over_the_ridge(Perm.identity(4), Word.parse("1101")) == 3
        assert over_the_ridge(Perm.identity(4), Word.parse("1001")) is None

    def test_sets_have_the_prescribed_form(self):
        for n in range(3, 7):
            for pi in all_perms(n):
                inv = pi.inverse()
                found = {u for u in all_proper_words(n) if over_the_ridge(pi, u) is not None}
                expected = set()
                for k in range(1, n):
                    elems = {inv(i) for i in range(1, k)} | {inv(k + 1)}
                    expected.add(Word.from_set(n, elems))
                assert found == expected
                assert len(found) == n - 1
                assert set(over_ridge_sets(pi)) == expected

    def test_complement_antipode_relation_exhaustive_n_le_5(self):
        # complement over the ridge from pi iff u over the ridge from pi-
        for n in (3, 4, 5):
            for pi in all_perms(n):
                anti = pi.antipode()
                for u in all_proper_words(n):
                    comp = over_the_ridge(pi, u.complement())
                    assert (comp is None) == (over_the_ridge(anti, u) is None)


class TestPolarVertex:
    def test_example_n3(self):
        w = polar_vertex(Word.parse("100"))
        assert w == (Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3))

    def test_antisymmetry_under_complement(self):
        rnd = random.Random(22)
        for _ in range(80):
            n = rnd.randint(2, 8)
            bits = [rnd.randint(0, 1) for _ in range(n)]
            u = Word(bits)
            if not u.is_proper():
                continue
            w = polar_vertex(u)
            wc = polar_vertex(u.complement())
            assert all(a == -b for a, b in zip(w, wc))
            assert sum(w) == 0

    def test_pairing_with_incident_vertices_n4(self):
        for pi in all_perms(4):
            v = perm_vertex(pi)
            for u in all_proper_words(4):
                pairing = sum(a * b for a, b in zip(polar_vertex(u), v))
                if incident(pi, u):
                    assert pairing == 1
                else:
                    assert pairing < 1

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            polar_vertex(Word.parse("0000"))


class TestNormalCone:
    def test_vertex_in_own_cone_s4(self):
        for pi in all_perms(4):
            assert in_normal_cone(perm_vertex(pi), pi)

    def test_origin_in_every_cone(self):
        for pi in all_perms(4):
            assert in_normal_cone([Fraction(0)] * 4, pi)

    def test_polar_vertex_in_cone_iff_incident_n4(self):
        for pi in all_perms(4):
            for u in all_proper_words(4):
                assert in_normal_cone(polar_vertex(u), pi) == incident(pi, u)

    def test_rejects_points_off_hyperplane(self):
        with pytest.raises(ValueError):
            in_normal_cone([1, 2, 3], Perm.identity(3))

    def test_vertex_sum_zero(self):
        for n in (3, 4, 5, 6):
            v = perm_vertex(Perm.identity(n))
            assert sum(v) == 0
