"""Audit of the integer subset-sum spreading_check against the direct loop.

`spreading_reference` is the original implementation: it rebuilds every
subset, sums its Fraction entries and compares against both bounds, and
returns the (strong, weak) tuples of records.  The fast path's report must
give the same violations, record by record, in the same order, with the
same field types, on every metric tried here.  Its fields are sequences
that build records on access; they keep len, bool, int indexing and
iteration.  A row whose sorted prefix sums meet every strong bound is
cleared without a table; that screen is exact, so a row fills its
subset-sum table exactly when it has a strong violation, and rows whose
prefix sums land on the bound itself are cleared.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemetric import SymZMat, embed, line_metrics
from linemetric.line_metrics import SpreadingReport, SpreadingViolation, spreading_check

KINDS = ("separated", "embedded", "cut", "perturbed")


def spreading_reference(m: SymZMat) -> tuple[tuple, tuple]:
    n = m.n
    strong, weak = [], []
    others = list(range(1, n + 1))
    for i in range(1, n + 1):
        rest = [j for j in others if j != i]
        row = {j: m.get(i, j) for j in rest}
        for mask in range(1, 2 ** len(rest)):
            subset = [rest[t] for t in range(len(rest)) if mask >> t & 1]
            s = len(subset)
            lhs = sum(row[j] for j in subset)
            strong_rhs = Fraction((s + 1) ** 2 // 4)
            weak_rhs = Fraction(s * (s + 2), 4)
            if lhs < strong_rhs:
                strong.append(SpreadingViolation(i, frozenset(subset), lhs, strong_rhs))
            if lhs < weak_rhs:
                weak.append(SpreadingViolation(i, frozenset(subset), lhs, weak_rhs))
    return tuple(strong), tuple(weak)


def assert_same(m: SymZMat) -> SpreadingReport:
    fast = spreading_check(m)
    for view, ref in zip((fast.strong, fast.weak), spreading_reference(m)):
        records = tuple(view)
        assert records == ref
        types = {(type(v.i), type(v.subset), type(v.lhs), type(v.rhs)) for v in records}
        assert types <= {(int, frozenset, Fraction, Fraction)}
    return fast


def assert_screen_exact(m: SymZMat) -> SpreadingReport:
    """assert_same, and the row screen clears exactly the rows without a strong
    violation: each scanned row fills one subset-sum table, and one more call
    builds the per-mask size table when any row is scanned."""
    with mock.patch.object(line_metrics, "subset_sums", wraps=line_metrics.subset_sums) as spy:
        rep = assert_same(m)
    violated = {v.i for v in rep.strong}
    assert spy.call_count == (len(violated) + 1 if violated else 0)
    return rep


def seeded_metric(rnd: random.Random, n: int, kind: str) -> SymZMat:
    """A metric of one of the four kinds the metric-check workload draws:
    a line metric with gaps >= 1, one with a gap below 1, a cut metric, and
    a separated metric with one entry moved by 1/3."""
    if kind == "cut":
        bits = [0] * n
        while sum(bits) in (0, n):
            bits = [rnd.randrange(2) for _ in range(n)]
        return embed(bits)
    steps = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    if kind == "embedded":
        steps = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    gaps = [rnd.choice(steps) for _ in range(n - 1)]
    if kind == "embedded":
        gaps[rnd.randrange(n - 1)] = rnd.choice(steps[:2])
    line = [sum(gaps[:j], Fraction(0)) for j in range(n)]
    m = embed([line[j] for j in rnd.sample(range(n), n)])
    if kind == "perturbed":
        k, l = sorted(rnd.sample(range(1, n + 1), 2))
        m = m + SymZMat(n, {(k, l): Fraction(1, 3)})
    return m


class TestAgreement:
    def test_workload_kinds_n3_to_11(self):
        rnd = random.Random(2000)
        found = {kind: 0 for kind in KINDS}
        for n in range(3, 12):
            for kind in KINDS:
                rep = assert_same(seeded_metric(rnd, n, kind))
                found[kind] += len(rep.strong)
        # the separated metrics are clean, the cut metrics are not
        assert found["separated"] == 0 and found["cut"] > 0

    def test_tiny_sizes(self):
        rep = assert_same(SymZMat(1))
        assert not rep.strong and not rep.weak
        assert assert_same(SymZMat(2)).strong
        assert not assert_same(SymZMat(2, {(1, 2): 1})).strong
        assert assert_same(SymZMat(2, {(1, 2): Fraction(1, 2)})).weak

    def test_negative_and_fractional_entries(self):
        rnd = random.Random(2001)
        for _ in range(40):
            n = rnd.randint(3, 8)
            entries = {
                (k, l): Fraction(rnd.randint(-6, 9), rnd.choice([1, 2, 3, 5, 7]))
                for k in range(1, n + 1)
                for l in range(k + 1, n + 1)
            }
            assert_same(SymZMat(n, entries))

    def test_scaled_metric(self):
        rnd = random.Random(2002)
        for n in (4, 7, 9):
            for kind in KINDS:
                m = seeded_metric(rnd, n, kind)
                assert_same(m.scale(Fraction(2, 3)))
                assert_same(m.scale(Fraction(1, 2)))

    def test_view_reads_like_reference_tuple(self):
        rnd = random.Random(2003)
        for n in range(3, 9):
            for kind in KINDS:
                m = seeded_metric(rnd, n, kind)
                fast = spreading_check(m)
                for view, ref in zip((fast.strong, fast.weak), spreading_reference(m)):
                    assert len(view) == len(ref) and bool(view) == bool(ref)
                    assert all(view[k] == ref[k] for k in range(len(ref)))
                    assert all(view[-k] == ref[-k] for k in range(1, len(ref) + 1))
                    for k in (len(ref), -len(ref) - 1):
                        with pytest.raises(IndexError):
                            view[k]
                    assert tuple(view) == ref

    def test_weak_is_computed_on_first_read(self):
        rep = spreading_check(embed([0, Fraction(1, 2), 1, Fraction(3, 2), 2, 4]))
        assert "weak" not in vars(rep)
        assert rep.weak is rep.weak and len(rep.weak) > 0

    def test_screen_clears_rows_on_the_bound(self):
        # unit gaps put the middle rows' sorted prefix sums exactly on
        # floor((s+1)^2/4); lowering m[1,2] to 1/2 leaves rows 1 and 2 to scan
        m = embed(range(7)) + SymZMat(7, {(1, 2): Fraction(-1, 2)})
        row4 = sorted(m.get(4, j) for j in range(1, 8) if j != 4)
        prefix = [sum(row4[:s]) for s in range(1, 7)]
        assert prefix == [(s + 1) ** 2 // 4 for s in range(1, 7)]
        rep = assert_screen_exact(m)
        assert {v.i for v in rep.strong} == {1, 2}
        assert not assert_screen_exact(embed(range(7))).strong

    def test_weak_violations_are_strong_ones(self):
        rep = assert_same(embed([0, Fraction(1, 2), 1, Fraction(3, 2), 2, 4]))
        assert rep.weak
        strong = {(v.i, v.subset, v.lhs) for v in rep.strong}
        assert all((v.i, v.subset, v.lhs) in strong for v in rep.weak)


entry = st.fractions(min_value=-3, max_value=6, max_denominator=6)


@st.composite
def matrices(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    values = draw(st.lists(entry, min_size=len(pairs), max_size=len(pairs)))
    return SymZMat(n, dict(zip(pairs, values)))


# sorted prefix sums of these entries land on floor((s+1)^2/4) often
on_bound = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), 2, 3])


@st.composite
def bound_matrices(draw):
    """Entries from on_bound, or the unit-gap line metric, whose middle rows
    meet every bound with equality, with some entries replaced by them."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    if draw(st.booleans()):
        return SymZMat(n, {pair: draw(on_bound) for pair in pairs})
    line = embed(range(n))
    moved = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    return SymZMat(n, {p: draw(on_bound) if p in moved else line.get(*p) for p in pairs})


@st.composite
def separated_points(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    gaps = draw(
        st.lists(
            st.fractions(min_value=1, max_value=5, max_denominator=4),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    line = [sum(gaps[:j], Fraction(0)) for j in range(n)]
    return draw(st.permutations(line))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_property_agrees_with_reference(m):
    assert_same(m)


@settings(max_examples=100, deadline=None)
@given(bound_matrices())
def test_property_screen_boundary(m):
    assert_screen_exact(m)


@settings(max_examples=150, deadline=None)
@given(separated_points())
def test_property_separated_metrics_satisfy_strong_form(x):
    assert not spreading_check(embed(x)).strong
