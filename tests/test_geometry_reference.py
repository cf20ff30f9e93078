"""The paper's polyhedral objects, kept as slow references for the package.

The package decides incidence, ridges and the decomposition combinatorially
(`permutahedron.incident`, `over_the_ridge`, `line_metrics.analyze_metric`)
and relabels words with `Word.compose`.  The functions here spell out the
geometry those shortcuts stand for, in exact `Fraction` coordinates of the
centered permutahedron in the zero-sum hyperplane Lambda = {x : sum x_j = 0}:

    - perm_vertex: the vertex of a permutation, v_j = pi(j) - (n+1)/2;
    - facet_rhs: the facet inequality's right-hand side C(|U|+1, 2);
    - polar_vertex: the polar dual's vertex named by a proper set U;
    - in_normal_cone: membership in the normal cone at a vertex;
    - over_ridge_sets: the n-1 sets over the ridges of a vertex, listed;
    - decomposition_cone_check: the cone translation identity
      R_n cap N_pi = v_pi + N_pi evaluated at one point;
    - preimage_of_set: pi^-1 of a set, the reference for Word.compose.

The package never calls them; the other test modules import them from here
and compare the package against them.  Their own checks (facet values,
polar-vertex pairings, normal-cone membership, the cone-check self-tests)
stay in test_permutahedron and test_line_metrics.
"""

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from linemetric import Perm, Word


def perm_vertex(pi: Perm) -> tuple[Fraction, ...]:
    """Vertex of the centered permutahedron: v_j = pi(j) - (n+1)/2."""
    shift = Fraction(pi.n + 1, 2)
    return tuple(Fraction(v) - shift for v in pi.images)


def facet_rhs(u: Word) -> int:
    """Right-hand side of the facet inequality sum_{j in U} x_j >= C(|U|+1, 2)
    for the permutahedron in its untranslated coordinates."""
    _require_proper(u)
    return math.comb(u.size + 1, 2)


def over_ridge_sets(pi: Perm) -> list[Word]:
    """All n-1 over-the-ridge sets from pi, indexed by k = 1..n-1."""
    inv = pi.inverse()
    out = []
    for k in range(1, pi.n):
        elems = {inv(i) for i in range(1, k)} | {inv(k + 1)}
        out.append(Word.from_set(pi.n, elems))
    return out


def polar_vertex(u: Word) -> tuple[Fraction, ...]:
    """Vertex of the polar dual named by U:
    w_U = 2/(n(n-k)) chi^(complement U) - 2/(kn) chi^U with k = |U|."""
    _require_proper(u)
    n, k = u.n, u.size
    pos = Fraction(2, n * (n - k))
    neg = Fraction(-2, k * n)
    return tuple(neg if b else pos for b in u.bits)


def in_normal_cone(x: Sequence, pi: Perm) -> bool:
    """Membership of x in the normal cone at the vertex of pi.

    Requires x in Lambda (zero coordinate sum); the cone is x_k <= x_l
    whenever pi(k) < pi(l), checked on consecutive ranks.
    """
    x = [Fraction(v) for v in x]
    if len(x) != pi.n:
        raise ValueError("size mismatch")
    if sum(x) != 0:
        raise ValueError(f"point is not in the zero-sum hyperplane: {x}")
    inv = pi.inverse()
    return all(x[inv(r) - 1] <= x[inv(r + 1) - 1] for r in range(1, pi.n))


def _require_proper(u: Word):
    if not u.is_proper():
        raise ValueError(f"word {u} must be proper and nonempty")


def decomposition_cone_check(x: Sequence, pi: Perm) -> bool:
    """Self-test of the cone translation identity R_n cap N_pi = v_pi + N_pi.

    Evaluates both sides on x and reports whether they agree; the
    decomposition result says this is True for every x in the hyperplane.
    Denominators are cleared once so the comparisons run on plain integers.
    """
    n = pi.n
    if len(x) != n:
        raise ValueError("size mismatch")
    if sum(x) != 0:
        raise ValueError(f"point is not in the zero-sum hyperplane: {list(x)}")
    # an int's denominator is 1, so ints and Fractions share this path
    scale = 2 * math.lcm(*(v.denominator for v in x))
    xs = [int(v * scale) for v in x]
    # 2 v_pi scaled by scale/2 stays integral for every parity of n
    vp = [(2 * pi(j) - (n + 1)) * (scale // 2) for j in range(1, n + 1)]
    order = [0] * n
    for j, img in enumerate(pi.images):
        order[img - 1] = j
    in_cone = all(xs[order[r]] <= xs[order[r + 1]] for r in range(n - 1))
    lhs = in_cone and all(
        abs(xs[k] - xs[l]) >= scale for k in range(n) for l in range(k + 1, n)
    )
    ys = [a - b for a, b in zip(xs, vp)]
    rhs = all(ys[order[r]] <= ys[order[r + 1]] for r in range(n - 1))
    return lhs == rhs


def preimage_of_set(pi: Perm, elems: Iterable[int]) -> frozenset:
    """pi^-1(elems): the set whose word Word.compose(pi) must give."""
    inv = pi.inverse()
    return frozenset(inv(v) for v in elems)
