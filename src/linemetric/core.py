"""Exact scalars, permutations, binary words, and symmetric zero-diagonal matrices.

Everything in this package is exact: scalars are arbitrary-precision
rationals (``fractions.Fraction``), and no operation ever touches a float.
Indices are 1-based in all public interfaces, so a permutation of [n] maps
positions 1..n to values 1..n and matrix entries are addressed as (k, l)
with 1 <= k < l <= n.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

Rat = Fraction
RatLike = Union[int, Fraction]


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational."""
    return Fraction(text.strip())


def format_rat(q: RatLike) -> str:
    """Render an exact rational as 'p/q', or 'p' when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def pair_indices(n: int) -> list[tuple[int, int]]:
    """All (k, l) with 1 <= k < l <= n, in lexicographic order."""
    return [(k, l) for k in range(1, n) for l in range(k + 1, n + 1)]


class Perm:
    """A permutation of [n], stored as its image sequence (pi(1), ..., pi(n))."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(v) for v in images)
        n = len(images)
        if n < 1:
            raise ValueError("permutation needs length >= 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [{n}]: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> "Perm":
        """Parse the comma-separated text form, e.g. '1,3,2'."""
        return cls(int(part) for part in text.split(","))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for j, v in enumerate(self.images, start=1):
            inv[v - 1] = j
        return Perm(inv)

    def compose(self, other: "Perm") -> "Perm":
        """Functional composition self o other: j -> self(other(j))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Perm(self.images[v - 1] for v in other.images)

    def antipode(self) -> "Perm":
        """The antipodal permutation j -> n+1-pi(j); both name the same metric."""
        return Perm(self.n + 1 - v for v in self.images)

    def is_identity(self) -> bool:
        return all(v == j for j, v in enumerate(self.images, start=1))

    def canonical(self) -> "Perm":
        """Lexicographically smaller of the antipodal pair {pi, pi^-}."""
        anti = self.antipode()
        return self if self.images <= anti.images else anti

    def image_of_set(self, elems: Iterable[int]) -> frozenset:
        return frozenset(self(j) for j in elems)

    def preimage_of_set(self, elems: Iterable[int]) -> frozenset:
        inv = self.inverse()
        return frozenset(inv(v) for v in elems)


def antipode(pi: Perm) -> Perm:
    return pi.antipode()


def perm_classes(n: int) -> Iterator[Perm]:
    """One representative per antipodal pair {pi, pi^-}, the lex-smaller one."""
    for images in itertools.permutations(range(1, n + 1)):
        anti = tuple(n + 1 - v for v in images)
        if images <= anti:
            yield Perm(images)


class Word:
    """A subset U of [n] as a 0/1 word; position j holds 1 iff j is in U."""

    __slots__ = ("bits",)

    def __init__(self, bits: Iterable[int]):
        bits = tuple(int(b) for b in bits)
        if not bits:
            raise ValueError("word needs length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1: {bits}")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 word: {text!r}")
        return cls(int(c) for c in text)

    @classmethod
    def from_set(cls, n: int, elems: Iterable[int]) -> "Word":
        elems = set(elems)
        if any(j < 1 or j > n for j in elems):
            raise ValueError(f"elements out of [{n}]: {sorted(elems)}")
        return cls(1 if j in elems else 0 for j in range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def size(self) -> int:
        return sum(self.bits)

    @property
    def elements(self) -> frozenset:
        return frozenset(j for j, b in enumerate(self.bits, start=1) if b)

    def __contains__(self, j: int) -> bool:
        return 1 <= j <= self.n and self.bits[j - 1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def complement(self) -> "Word":
        return Word(1 - b for b in self.bits)

    def is_proper(self) -> bool:
        """Proper and nonempty: 0 < |U| < n."""
        return 0 < self.size < self.n

    def canonical(self) -> "Word":
        """Of {U, complement U} the representative containing element 1.

        M(chi^U) = M(chi^(complement U)), so a cut direction is named by this
        pair; the member whose sorted element list is lexicographically first
        is the one containing 1, i.e. the word starting with a 1.
        """
        return self if self.bits[0] == 1 else self.complement()

    def slopes(self) -> int:
        self._require_proper()
        return sum(1 for k in range(self.n - 1) if self.bits[k] != self.bits[k + 1])

    def hills(self) -> list[tuple[int, int]]:
        """Maximal runs of 1s as closed 1-based intervals (start, end)."""
        self._require_proper()
        return self._runs(1)

    def valleys(self) -> list[tuple[int, int]]:
        """Maximal runs of 0s as closed 1-based intervals (start, end)."""
        self._require_proper()
        return self._runs(0)

    def is_alternating(self) -> bool:
        self._require_proper()
        return self.slopes() == self.n - 1

    def _runs(self, value: int) -> list[tuple[int, int]]:
        runs = []
        start = None
        for j, b in enumerate(self.bits, start=1):
            if b == value and start is None:
                start = j
            elif b != value and start is not None:
                runs.append((start, j - 1))
                start = None
        if start is not None:
            runs.append((start, self.n))
        return runs

    def runs(self) -> list[tuple[int, int, int]]:
        """All maximal runs left to right as (value, start, end)."""
        out = []
        start = 0
        for j in range(1, self.n):
            if self.bits[j] != self.bits[start]:
                out.append((self.bits[start], start + 1, j))
                start = j
        out.append((self.bits[start], start + 1, self.n))
        return out

    def _require_proper(self):
        if not self.is_proper():
            raise ValueError(f"word {self} is empty or full; no slope structure")


@dataclass(frozen=True)
class WordStructure:
    slopes: int
    hills: tuple[tuple[int, int], ...]
    valleys: tuple[tuple[int, int], ...]
    alternating: bool


def word_structure(u: Word) -> WordStructure:
    """Slope count and hill/valley runs of a proper nonempty word."""
    return WordStructure(
        slopes=u.slopes(),
        hills=tuple(u.hills()),
        valleys=tuple(u.valleys()),
        alternating=u.is_alternating(),
    )


def word_classes(n: int) -> Iterator[Word]:
    """One representative per complement pair of proper nonempty subsets of [n].

    Representatives contain element 1, so there are 2^(n-1) - 1 of them,
    enumerated in increasing order of the remaining bits.
    """
    for tail in range(2 ** (n - 1) - 1):
        bits = [1] + [(tail >> (n - 2 - i)) & 1 for i in range(n - 1)]
        yield Word(bits)


class SymZMat:
    """Symmetric n x n matrix over Q with zero diagonal, stored as its upper triangle.

    The entries dict maps (k, l) with k < l to a nonzero Fraction; absent
    pairs are zero. Instances are immutable and hashable.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Optional[dict] = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        clean = {}
        for (k, l), v in (entries or {}).items():
            if not (1 <= k < l <= n):
                raise ValueError(f"bad index pair ({k},{l}) for n={n}")
            v = Fraction(v)
            if v != 0:
                clean[(k, l)] = v
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *a):
        raise AttributeError("SymZMat is immutable")

    @classmethod
    def zero(cls, n: int) -> "SymZMat":
        return cls(n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RatLike]]) -> "SymZMat":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        entries = {}
        for k in range(n):
            if rows[k][k] != 0:
                raise ValueError(f"nonzero diagonal entry at ({k + 1},{k + 1})")
            for l in range(k + 1, n):
                if rows[k][l] != rows[l][k]:
                    raise ValueError(f"not symmetric at ({k + 1},{l + 1})")
                entries[(k + 1, l + 1)] = Fraction(rows[k][l])
        return cls(n, entries)

    @classmethod
    def all_ones(cls, n: int) -> "SymZMat":
        """Off-diagonal all-ones matrix; the facet normal of the bounded facet."""
        return cls(n, {pair: 1 for pair in pair_indices(n)})

    def get(self, k: int, l: int) -> Fraction:
        if k == l:
            return Fraction(0)
        if k > l:
            k, l = l, k
        return self.entries.get((k, l), Fraction(0))

    def rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.n for _ in range(self.n)]
        for (k, l), v in self.entries.items():
            out[k - 1][l - 1] = v
            out[l - 1][k - 1] = v
        return out

    def upper_vector(self) -> list[Fraction]:
        """Upper-triangle entries in pair_indices order."""
        return [self.get(k, l) for (k, l) in pair_indices(self.n)]

    def scaled_int_upper(self) -> tuple[list[int], int]:
        """(numerators, denominator): upper triangle times the lcm of denominators.

        Certificate conditions are invariant under positive scaling, so the
        exhaustive verifiers run on the integer vector.
        """
        vec = self.upper_vector()
        denom = math.lcm(*(v.denominator for v in vec))
        return [int(v * denom) for v in vec], denom

    def __add__(self, other: "SymZMat") -> "SymZMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        entries = dict(self.entries)
        for pair, v in other.entries.items():
            entries[pair] = entries.get(pair, Fraction(0)) + v
        return SymZMat(self.n, entries)

    def __sub__(self, other: "SymZMat") -> "SymZMat":
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> "SymZMat":
        c = Fraction(c)
        return SymZMat(self.n, {pair: c * v for pair, v in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymZMat)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.entries.items()))))

    def __repr__(self) -> str:
        return f"SymZMat(n={self.n}, nonzeros={len(self.entries)})"

    def pretty(self) -> str:
        rows = self.rows()
        cells = [[format_rat(v) for v in row] for row in rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    def to_json(self) -> dict:
        """{'n': n, 'entries': [[k, l, 'p/q'], ...]} over the strict upper triangle."""
        triples = [
            [k, l, format_rat(v)] for (k, l), v in sorted(self.entries.items())
        ]
        return {"n": self.n, "entries": triples}

    @classmethod
    def from_json(cls, obj: dict) -> "SymZMat":
        if not isinstance(obj, dict) or "n" not in obj:
            raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
        entries = {}
        for item in obj.get("entries", []):
            k, l, text = item
            key = (int(k), int(l))
            if key in entries:
                raise ValueError(f"duplicate matrix entry ({key[0]},{key[1]})")
            entries[key] = parse_rat(str(text))
        return cls(int(obj["n"]), entries)

    def dumps(self) -> str:
        return json.dumps(self.to_json())


def inner_product(a: SymZMat, b: SymZMat) -> Fraction:
    """tr(a^T b): the sum over all ordered pairs, twice the upper-triangle dot."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    small, large = (a, b) if len(a.entries) <= len(b.entries) else (b, a)
    total = Fraction(0)
    for pair, v in small.entries.items():
        w = large.entries.get(pair)
        if w is not None:
            total += v * w
    return 2 * total


def conjugate(m: SymZMat, sigma: Perm) -> SymZMat:
    """E_sigma^T m E_sigma: entry (k, l) becomes m[sigma(k), sigma(l)].

    Satisfies conjugate(M(x), sigma) = M(x o sigma), where (x o sigma)_j =
    x_(sigma(j)); it is a linear isometry of the matrix space.
    """
    if m.n != sigma.n:
        raise ValueError(f"dimension mismatch: {m.n} vs {sigma.n}")
    entries = {}
    for (k, l) in pair_indices(m.n):
        v = m.get(sigma(k), sigma(l))
        if v != 0:
            entries[(k, l)] = v
    return SymZMat(m.n, entries)
