"""Combinatorics of the centered permutahedron in the zero-sum hyperplane.

The permutahedron here is translated so that it is full-dimensional in
Lambda = {x : sum x_j = 0} and symmetric about the origin.  Vertices
correspond to permutations, facets to proper nonempty subsets of [n], and
the normal fan at a vertex is a simplicial cone described by coordinate
comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .core import Perm, RatLike, Word


def perm_vertex(pi: Perm) -> tuple[Fraction, ...]:
    """Vertex of the centered permutahedron: v_j = pi(j) - (n+1)/2."""
    shift = Fraction(pi.n + 1, 2)
    return tuple(Fraction(v) - shift for v in pi.images)


def facet_rhs(u: Word) -> int:
    """Right-hand side of the facet inequality sum_{j in U} x_j >= C(|U|+1, 2)
    for the permutahedron in its untranslated coordinates."""
    _require_proper(u)
    return math.comb(u.size + 1, 2)


def incident(pi: Perm, u: Word) -> bool:
    """Vertex-facet incidence: U collects the positions with the k smallest values."""
    if not u.is_proper():
        return False
    if pi.n != u.n:
        raise ValueError("size mismatch")
    k = u.size
    return all(pi(j) <= k for j in u.elements)


def incident_sets(pi: Perm) -> list[Word]:
    """The n-1 proper nonempty sets incident to pi, by increasing size."""
    inv = pi.inverse()
    out = []
    elems: set[int] = set()
    for k in range(1, pi.n):
        elems.add(inv(k))
        out.append(Word.from_set(pi.n, elems))
    return out


def over_the_ridge(pi: Perm, u: Word) -> Optional[int]:
    """The k in [n-1] with U = pi^-1([k-1] + {k+1}), if any.

    Such a U names the polar vertex that comes into sight when crossing one
    ridge of the facet of pi; there is at most one k since |U| determines it.
    """
    if not u.is_proper():
        return None
    if pi.n != u.n:
        raise ValueError("size mismatch")
    k = u.size
    if k > pi.n - 1:
        return None
    values = sorted(pi(j) for j in u.elements)
    if values == list(range(1, k)) + [k + 1]:
        return k
    return None


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


def in_normal_cone(x: Sequence[RatLike], pi: Perm) -> bool:
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
