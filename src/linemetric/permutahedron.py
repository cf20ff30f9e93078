"""Vertex-facet combinatorics of the permutahedron, as the classifier uses it.

Vertices correspond to permutations and facets to proper nonempty subsets of
[n].  The module holds only incidence (incident, incident_sets) and the
over-the-ridge test; the geometry they stand for (vertex and polar-vertex
coordinates, facet values, normal cones) is the tests' reference, in
tests/test_geometry_reference.py.
"""

from __future__ import annotations

from typing import Optional

from .core import Perm, Word


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
