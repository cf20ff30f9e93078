"""Embedding map, cut metrics, membership, and the two inequality families.

Claims covered:
    - embed is translation invariant and injective up to sign on the hyperplane
    - recover_embedding inverts embed with the documented sign canonicalization,
      on any point up to centring, by property testing too
    - separated membership detects the disjoint translated cones and nothing else
    - the cone translation identity holds on random points
    - separated metrics satisfy the strong spreading inequalities; cut metrics don't
    - the bounded-facet inner product is constant on permutation metrics
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linemetric.line_metrics as line_metrics
from linemetric import (
    Perm,
    SymZMat,
    Word,
    analyze_metric,
    cut_metric,
    embed,
    incident_sets,
    perm_metric,
    qn_facet_value,
    recover_embedding,
    spreading_check,
)
from test_geometry_reference import decomposition_cone_check, perm_vertex, polar_vertex


def rand_hyperplane_point(rnd, n, denom=1):
    k = [rnd.randint(-12, 12) for _ in range(n)]
    s = sum(k)
    return [Fraction(n * v - s, denom) for v in k]


class TestEmbed:
    def test_identity_example(self):
        assert embed([1, 2, 3]).square() == [
            [0, 1, 2],
            [1, 0, 1],
            [2, 1, 0],
        ]

    def test_zero(self):
        assert embed([0, 0, 0]) == SymZMat(3)

    def test_sign_and_translation_invariance(self):
        rnd = random.Random(31)
        for _ in range(60):
            n = rnd.randint(2, 7)
            x = [Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 3])) for _ in range(n)]
            xi = Fraction(rnd.randint(-5, 5), rnd.choice([1, 2]))
            assert embed([-v for v in x]) == embed(x)
            assert embed([v + xi for v in x]) == embed(x)


class TestCutMetric:
    def test_example_100(self):
        assert cut_metric(Word.parse("100")).square() == [
            [0, 1, 1],
            [1, 0, 0],
            [1, 0, 0],
        ]

    def test_complement_invariance(self):
        rnd = random.Random(32)
        for _ in range(40):
            n = rnd.randint(2, 8)
            w = Word([rnd.randint(0, 1) for _ in range(n)])
            if not w.is_proper():
                continue
            assert cut_metric(w) == cut_metric(w.complement())

    def test_entries_1001(self):
        m = cut_metric(Word.parse("1001"))
        ones = {(1, 2), (1, 3), (2, 4), (3, 4)}
        zeros = {(1, 4), (2, 3)}
        assert all(m.get(*p) == 1 for p in ones)
        assert all(m.get(*p) == 0 for p in zeros)

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            cut_metric(Word.parse("00"))


class TestRecoverEmbedding:
    def test_identity_metric(self):
        assert recover_embedding(perm_metric(Perm.identity(3))) == (-1, 0, 1)

    def test_cut_metric_canonical_sign(self):
        x = recover_embedding(cut_metric(Word.parse("100")))
        # the scaled polar vertex, signed so that x_1 < x_2
        assert x == (Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3))

    def test_non_line_metric(self):
        # a path metric that breaks the collinearity pattern
        m = SymZMat(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
        assert recover_embedding(m) is None

    def test_roundtrip_antipodal_injectivity(self):
        rnd = random.Random(33)
        for _ in range(200):
            n = rnd.randint(2, 6)
            x = rand_hyperplane_point(rnd, n, denom=rnd.choice([1, 1, 2, 3]))
            got = recover_embedding(embed(x))
            assert got is not None
            assert list(got) == x or list(got) == [-v for v in x]

    def test_zero_matrix(self):
        assert recover_embedding(SymZMat(4)) == (0, 0, 0, 0)

    def test_zero_first_coordinate_gap(self):
        # distances from coordinate 1 can vanish without breaking recovery
        x = [Fraction(0), Fraction(0), Fraction(5), Fraction(-5)]
        got = recover_embedding(embed(x))
        assert got is not None and embed(got) == embed(x)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=10),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_roundtrip_uncentred(self, x):
        # any point, not centred: the preimage is x minus its mean, up to sign
        got = recover_embedding(embed(x))
        mean = sum(x, Fraction(0)) / len(x)
        centred = tuple(v - mean for v in x)
        assert got == centred or got == tuple(-v for v in centred)
        assert embed(got) == embed(x)


class TestSeparatedMembership:
    def test_identity_metric(self):
        got = analyze_metric(perm_metric(Perm.identity(3)))
        assert got.separated
        assert got.pi == Perm.identity(3)
        assert got.witness == (-1, 0, 1)

    def test_cut_metric_is_not_separated(self):
        assert not analyze_metric(cut_metric(Word.parse("100"))).separated

    def test_vertex_plus_incident_cut_is_separated(self):
        m = perm_metric(Perm.identity(4)) + cut_metric(Word.parse("1000"))
        got = analyze_metric(m)
        assert got.separated
        assert got.pi == Perm.identity(4)
        assert embed(got.witness) == m

    def test_point_on_certified_edge_leaves_the_set(self):
        m = perm_metric(Perm.identity(4)) + cut_metric(Word.parse("1001"))
        assert not analyze_metric(m).separated

    def test_canonical_representative(self):
        rnd = random.Random(34)
        for _ in range(100):
            n = rnd.randint(3, 6)
            x = sorted(rand_hyperplane_point(rnd, n))
            # force unit gaps
            y = [x[0]]
            for a, b in zip(x, x[1:]):
                y.append(y[-1] + max(b - a, 1))
            mean = sum(y) / n
            y = [v - mean for v in y]
            order = rnd.sample(range(n), n)
            z = [Fraction(0)] * n
            for pos, val in zip(order, y):
                z[pos] = val
            got = analyze_metric(embed(z))
            assert got.separated
            assert got.pi == got.pi.canonical()
            assert embed(got.witness) == embed(z)


class TestConeIdentity:
    def test_vertex_and_dilate(self):
        for n in (3, 4, 5):
            pi = Perm.identity(n)
            v = perm_vertex(pi)
            assert decomposition_cone_check(v, pi)
            assert decomposition_cone_check([2 * a for a in v], pi)

    def test_random_points_all_s4(self):
        rnd = random.Random(35)
        pts = [rand_hyperplane_point(rnd, 4) for _ in range(150)]
        pts += [rand_hyperplane_point(rnd, 4, denom=2) for _ in range(50)]
        for images in itertools.permutations(range(1, 5)):
            pi = Perm(images)
            for x in pts:
                assert decomposition_cone_check(x, pi)

    def test_rejects_off_hyperplane(self):
        with pytest.raises(ValueError):
            decomposition_cone_check([1, 0, 0], Perm.identity(3))


class TestSpreading:
    def test_identity_metric_clean(self):
        rep = spreading_check(perm_metric(Perm.identity(3)))
        assert not rep.strong and not rep.weak

    def test_cut_metric_violation(self):
        rep = spreading_check(cut_metric(Word.parse("100")))
        bad = [v for v in rep.strong if v.i == 2 and v.subset == frozenset({1, 3})]
        assert bad and bad[0].lhs == 1 and bad[0].rhs == 2

    def test_random_separated_members_clean(self):
        rnd = random.Random(36)
        for _ in range(60):
            n = rnd.randint(3, 6)
            gaps = [1 + Fraction(rnd.randint(0, 4), rnd.choice([1, 2])) for _ in range(n - 1)]
            x = [Fraction(0)]
            for g in gaps:
                x.append(x[-1] + g)
            order = rnd.sample(range(n), n)
            z = [x[order[i]] for i in range(n)]
            rep = spreading_check(embed(z))
            assert not rep.strong
            assert not rep.weak

    def test_size_bound(self, monkeypatch):
        # the scan fills a 2^(n-1) table per row, so it shares the exhaustion bound
        monkeypatch.delenv("LINEMETRIC_MAX_N", raising=False)
        with pytest.raises(ValueError, match="^too large: n=13 exceeds the exhaustion bound 12 "):
            spreading_check(perm_metric(Perm.identity(13)))
        monkeypatch.setenv("LINEMETRIC_MAX_N", "13")
        assert not spreading_check(perm_metric(Perm.identity(13))).strong

    def test_strong_implies_weak_direction(self):
        # floor((s+1)^2/4) >= s(s+2)/4 always; a weak violation is a strong one
        for s in range(1, 12):
            assert (s + 1) ** 2 // 4 >= Fraction(s * (s + 2), 4)


class TestFacetValue:
    def test_identity_and_all_s5(self):
        assert qn_facet_value(perm_metric(Perm.identity(3))) == 0
        for images in itertools.permutations(range(1, 6)):
            assert qn_facet_value(perm_metric(Perm(images))) == 0

    def test_cut_pushes_interior(self):
        m = perm_metric(Perm.identity(3)) + cut_metric(Word.parse("100"))
        assert qn_facet_value(m) == 4

    def test_nonnegative_on_hull_samples(self):
        # convex mixtures of two vertices pushed along their incident cut rays
        rnd = random.Random(37)
        for _ in range(50):
            n = rnd.randint(3, 5)
            parts = []
            for _ in range(2):
                pi = Perm(rnd.sample(range(1, n + 1), n))
                m = perm_metric(pi)
                for u in incident_sets(pi):
                    lam = Fraction(rnd.randint(0, 6), rnd.choice([1, 2]))
                    m = m + cut_metric(u).scale(lam)
                parts.append(m)
            t = Fraction(rnd.randint(0, 8), 8)
            mix = parts[0].scale(t) + parts[1].scale(1 - t)
            assert qn_facet_value(mix) >= 0


class TestLinearityOnCones:
    def test_embed_additive_inside_cone(self):
        rnd = random.Random(38)
        for _ in range(80):
            n = rnd.randint(3, 6)
            pi = Perm(rnd.sample(range(1, n + 1), n))
            gens = [polar_vertex(u) for u in incident_sets(pi)]

            def cone_point():
                coeffs = [Fraction(rnd.randint(0, 5), rnd.choice([1, 2])) for _ in gens]
                return [
                    sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)
                ]

            x, y = cone_point(), cone_point()
            z = [a + b for a, b in zip(x, y)]
            assert embed(z) == embed(x) + embed(y)


class TestAnalyze:
    def test_analysis_states(self):
        sep = analyze_metric(perm_metric(Perm.identity(3)))
        assert sep.embeddable and sep.separated and sep.pi == Perm.identity(3)
        flat = analyze_metric(cut_metric(Word.parse("100")))
        assert flat.embeddable and not flat.separated
        non = analyze_metric(SymZMat(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3}))
        assert not non.embeddable

    def test_recovers_the_embedding_once(self, monkeypatch):
        calls = []
        recover = line_metrics.recover_embedding

        def counting(m):
            calls.append(m)
            return recover(m)

        monkeypatch.setattr(line_metrics, "recover_embedding", counting)
        info = analyze_metric(embed([0, 2, 5, 9]))
        assert info.separated and len(calls) == 1
