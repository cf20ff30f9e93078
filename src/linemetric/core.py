"""Exact scalars, permutations, binary words, and symmetric zero-diagonal matrices,
and the size bound shared by the exhaustive scans.

Everything in this package is exact, and no operation ever touches a
float.  A matrix is one tuple of Python ints over one positive denominator,
in lowest terms, and its arithmetic runs on those ints; the scalars that
leave it (entries, inner products, margins and witnesses) are
arbitrary-precision rationals (``fractions.Fraction``).
Indices are 1-based in all public interfaces, so a permutation of [n] maps
positions 1..n to values 1..n and matrix entries are addressed as (k, l)
with 1 <= k < l <= n.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

RatLike = Union[int, Fraction]

DEFAULT_EXHAUSTION_BOUND = 12


def raised_bound(default: int) -> int:
    """default, or LINEMETRIC_MAX_N where that is larger; it never lowers a bound."""
    env = os.environ.get("LINEMETRIC_MAX_N")
    if not env:
        return default
    value = _decimal(env)
    if value is None or value < 3:
        raise ValueError(f"LINEMETRIC_MAX_N must be an integer >= 3, got {_quote(env)}")
    return max(default, value)


def _decimal(text: str) -> Optional[int]:
    """The int written in ASCII digits only, or None.  int() would also take
    other scripts' digits, '_', signs and spaces, and refuses a string of
    more digits than its limit with an error that does not name the input."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _quote(value, show=repr) -> str:
    """show(value) for an error message, cut after 40 characters; a value
    that is not a str is cut in its repr."""
    text, show = (value, show) if isinstance(value, str) else (repr(value), str)
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:40])}... ({len(text)} characters)"


def exhaustion_bound() -> int:
    """Largest n the exhaustive scans accept; LINEMETRIC_MAX_N may raise it."""
    return raised_bound(DEFAULT_EXHAUSTION_BOUND)


def require_exhaustible(n: int) -> None:
    """Refuse, in one line, an exhaustive scan of size n above exhaustion_bound()."""
    bound = exhaustion_bound()
    if n > bound:
        raise ValueError(
            f"too large: n={n} exceeds the exhaustion bound {bound} "
            "(set LINEMETRIC_MAX_N to raise it)"
        )


_RATIONAL = re.compile(r"\s*([-+]?)([0-9]+)(?:/([0-9]+))?\s*")


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational: an optional sign, ASCII
    digits, and optionally '/' and ASCII digits.  Fraction() would also take
    exponents, which it expands digit by digit ('1e-3000000' takes seconds),
    decimal points, '_' and other scripts' digits."""
    return Fraction(*_rat_pair(text))


def _rat_pair(text: str) -> tuple[int, int]:
    """parse_rat's (p, q), not reduced; q == 0 raises as Fraction(p, 0) does."""
    match = _RATIONAL.fullmatch(text)
    num = match and _decimal(match[2])
    den = match and _decimal(match[3] or "1")
    if num is None or den is None:
        raise ValueError(f"not a rational p/q: {_quote(text)}")
    num = -num if match[1] == "-" else num
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return num, den


def subset_sums(weights: Iterable[int]) -> list[int]:
    """sums[mask] = the sum of weights[t] over the bits t of mask, for every
    mask below 2^len(weights); each weight doubles the list, one step a sum."""
    sums = [0]
    for x in weights:
        sums += [t + x for t in sums]
    return sums


def pair_indices(n: int) -> list[tuple[int, int]]:
    """All (k, l) with 1 <= k < l <= n, in lexicographic order."""
    return [(k, l) for k in range(1, n) for l in range(k + 1, n + 1)]


def pair_index(n: int, k: int, l: int) -> int:
    """Position of (k, l), 1 <= k < l <= n, in pair_indices(n)."""
    return (k - 1) * (2 * n - k) // 2 + l - k - 1


def _int_tuple(values: Iterable, what: str) -> tuple[int, ...]:
    """values as a tuple of ints.  An entry that is not an int raises a
    ValueError naming it; int() would truncate a float or a Fraction."""
    out = []
    for pos, v in enumerate(values, start=1):
        try:
            out.append(operator.index(v))
        except TypeError:
            raise ValueError(f"{what} entry {pos} is not an integer: {_quote(v)}") from None
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation of [n], stored as its image sequence (pi(1), ..., pi(n))."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = _int_tuple(self.images, "permutation")
        n = len(images)
        if n < 1:
            raise ValueError("permutation needs length >= 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [{n}]: {_quote(str(images), str)}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> "Perm":
        """Parse the comma-separated text form, e.g. '1,3,2', of ASCII decimal parts."""
        parts = text.split(",")
        images = [_decimal(part) for part in parts]
        if None in images:
            bad = _quote(parts[images.index(None)])
            raise ValueError(f"permutation {_quote(text)}: {bad} is not a decimal integer")
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

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

    def preimage_of_set(self, elems: Iterable[int]) -> frozenset:
        inv = self.inverse()
        return frozenset(inv(v) for v in elems)


def perm_classes(n: int) -> Iterator[Perm]:
    """One representative per antipodal pair {pi, pi^-}, the lex-smaller one."""
    for images in itertools.permutations(range(1, n + 1)):
        anti = tuple(n + 1 - v for v in images)
        if images <= anti:
            yield Perm(images)


@dataclass(frozen=True, slots=True)
class Word:
    """A subset U of [n] as a 0/1 word; position j holds 1 iff j is in U."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = _int_tuple(self.bits, "word")
        if not bits:
            raise ValueError("word needs length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1: {bits}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 word: {_quote(text)}")
        return cls(int(c) for c in text)

    @classmethod
    def from_set(cls, n: int, elems: Iterable[int]) -> "Word":
        elems = set(elems)
        if any(j < 1 or j > n for j in elems):
            raise ValueError(f"elements out of [{n}]: {sorted(elems)}")
        return cls(1 if j in elems else 0 for j in range(1, n + 1))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Word":
        """The word of length n whose element j is bit n - j of mask, so the
        word reads like the mask written in n binary digits."""
        return cls([mask >> (n - j) & 1 for j in range(1, n + 1)])

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def size(self) -> int:
        return sum(self.bits)

    @property
    def elements(self) -> frozenset:
        return frozenset(j for j, b in enumerate(self.bits, start=1) if b)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def compose(self, sigma: Perm) -> "Word":
        """The word of sigma^-1(U), that is U o sigma: j -> self(sigma(j))."""
        if self.n != sigma.n:
            raise ValueError("size mismatch")
        return Word([self.bits[v - 1] for v in sigma.images])

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
        return [(start, end) for b, start, end in self.runs() if b == 1]

    def valleys(self) -> list[tuple[int, int]]:
        """Maximal runs of 0s as closed 1-based intervals (start, end)."""
        self._require_proper()
        return [(start, end) for b, start, end in self.runs() if b == 0]

    def is_alternating(self) -> bool:
        self._require_proper()
        return self.slopes() == self.n - 1

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


def word_classes(n: int) -> Iterator[Word]:
    """One representative per complement pair of proper nonempty subsets of [n].

    Representatives contain element 1, so there are 2^(n-1) - 1 of them,
    enumerated in increasing order of the remaining bits.
    """
    for mask in range(1 << (n - 1), (1 << n) - 1):
        yield Word.from_mask(n, mask)


@dataclass(frozen=True, slots=True, init=False)
class SymZMat:
    """Symmetric n x n matrix over Q with zero diagonal, stored as its upper triangle.

    ints holds the entries times denom, as Python ints in pair_indices(n)
    order, and denom is a positive int.  Every instance is in lowest terms,
    gcd(denom, *ints) == 1, so a matrix has exactly one (n, ints, denom)
    and equality and hashing compare those fields.  Instances are immutable.
    """

    n: int
    ints: tuple[int, ...]
    denom: int

    def __init__(self, n: int, entries: Optional[dict] = None):
        """Build from {(k, l): int or Fraction} with k < l; absent pairs are zero."""
        pairs = {}
        for (k, l), v in (entries or {}).items():
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"matrix entry ({k},{l}) must be an int or a Fraction, got {v!r}")
            pairs[k, l] = v.as_integer_ratio()
        m = SymZMat.of_pairs(n, pairs)
        self._set(n, m.ints, m.denom)

    def _set(self, n: int, ints: tuple, denom: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "denom", denom)

    @classmethod
    def of_ints(cls, n: int, ints: Iterable[int], denom: int = 1) -> "SymZMat":
        """The matrix with upper triangle ints / denom, in pair_indices order; denom > 0."""
        ints = tuple(ints)
        if denom != 1:
            g = math.gcd(denom, *ints)
            if g != 1:
                ints = tuple(a // g for a in ints)
                denom //= g
        m = object.__new__(cls)
        m._set(n, ints, denom)
        return m

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
                entries[(k + 1, l + 1)] = rows[k][l]
        return cls(n, entries)

    @classmethod
    def all_ones(cls, n: int) -> "SymZMat":
        """Off-diagonal all-ones matrix; the facet normal of the bounded facet."""
        return cls.of_ints(n, [1] * (n * (n - 1) // 2))

    def get(self, k: int, l: int) -> Fraction:
        if k == l:
            return Fraction(0)
        if k > l:
            k, l = l, k
        return Fraction(self.ints[pair_index(self.n, k, l)], self.denom)

    def rows(self) -> list[list[Fraction]]:
        return [[self.get(k, l) for l in range(1, self.n + 1)] for k in range(1, self.n + 1)]

    def square(self) -> list[list[int]]:
        """The dense n x n rows of ints: entry (k, l) times denom at [k-1][l-1].

        Row k is column k of the rows above it, a zero, then its own slice of
        ints, which pair_indices order keeps contiguous.
        """
        rows, start = [], 0
        for k in range(self.n):
            stop = start + self.n - 1 - k
            row = [r[k] for r in rows]
            row.append(0)
            row += self.ints[start:stop]
            rows.append(row)
            start = stop
        return rows

    def __add__(self, other: "SymZMat") -> "SymZMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        denom = math.lcm(self.denom, other.denom)
        f, g = denom // self.denom, denom // other.denom
        return SymZMat.of_ints(
            self.n, [a * f + b * g for a, b in zip(self.ints, other.ints)], denom
        )

    def __sub__(self, other: "SymZMat") -> "SymZMat":
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> "SymZMat":
        p, q = c.numerator, c.denominator
        return SymZMat.of_ints(self.n, [p * a for a in self.ints], q * self.denom)

    def __repr__(self) -> str:
        return f"SymZMat(n={self.n}, nonzeros={len(self.ints) - self.ints.count(0)})"

    def to_json(self) -> dict:
        """{'n': n, 'entries': [[k, l, 'p/q'], ...]} over the nonzero strict upper triangle."""
        triples = [
            [k, l, str(Fraction(a, self.denom) if self.denom != 1 else a)]
            for (k, l), a in zip(pair_indices(self.n), self.ints)
            if a
        ]
        return {"n": self.n, "entries": triples}

    @classmethod
    def from_json(cls, obj: dict) -> "SymZMat":
        """Read to_json's form, as parse_matrix_json reads it."""
        return cls.of_pairs(*parse_matrix_json(obj))

    @classmethod
    def of_pairs(cls, n: int, entries: dict) -> "SymZMat":
        """Build from parse_matrix_json's {(k, l): (p, q)}, over one lcm of the q."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        denom = math.lcm(*(q for _, q in entries.values()))
        ints = [0] * (n * (n - 1) // 2)
        for (k, l), (p, q) in entries.items():
            if not (1 <= k < l <= n):
                raise ValueError(f"bad index pair ({k},{l}) for n={n}")
            ints[pair_index(n, k, l)] = p * (denom // q)
        return cls.of_ints(n, ints, denom)


def parse_matrix_json(obj: dict) -> tuple[int, dict]:
    """(n, {(k, l): (p, q)}) from to_json's form, p/q read as parse_rat reads
    it, checked entry by entry but not yet a matrix, so a caller can refuse n
    before the n(n-1)/2 entries are allocated.  entries is a list of [k, l,
    value] lists, n, k and l JSON integers (not floats, booleans or strings),
    and each value a rational string or a JSON integer."""
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
    n = _json_int(obj["n"], "'n'")
    items = obj.get("entries", [])
    if type(items) is not list:
        raise ValueError(f"matrix 'entries' must be a list, got {_quote(items)}")
    entries = {}
    for pos, item in enumerate(items, start=1):
        if type(item) is not list or len(item) != 3:
            raise ValueError(f"matrix entry {pos} must be a [k, l, value] list, got {_quote(item)}")
        k, l, text = item
        key = (_json_int(k, f"'k' of entry {pos}"), _json_int(l, f"'l' of entry {pos}"))
        if key in entries:
            raise ValueError(f"duplicate matrix entry ({key[0]},{key[1]})")
        if type(text) is not str and type(text) is not int:
            raise ValueError(
                f"matrix entry {pos} value must be a rational string or an integer, "
                f"got {_quote(text)}"
            )
        entries[key] = _rat_pair(str(text))
    return n, entries


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"matrix field {field} must be an integer, got {_quote(value)}")
    return value


def inner_product(a: SymZMat, b: SymZMat) -> Fraction:
    """tr(a^T b): the sum over all ordered pairs, twice the upper-triangle dot."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return Fraction(2 * sum(map(operator.mul, a.ints, b.ints)), a.denom * b.denom)


def conjugate(m: SymZMat, sigma: Perm) -> SymZMat:
    """E_sigma^T m E_sigma: entry (k, l) becomes m[sigma(k), sigma(l)].

    Satisfies conjugate(M(x), sigma) = M(x o sigma), where (x o sigma)_j =
    x_(sigma(j)); it is a linear isometry of the matrix space, and it only
    permutes the entries, so the result keeps m's denominator.
    """
    n = m.n
    if n != sigma.n:
        raise ValueError(f"dimension mismatch: {n} vs {sigma.n}")
    s = sigma.images
    ints = m.ints
    moved = [
        ints[pair_index(n, s[k], s[l]) if s[k] < s[l] else pair_index(n, s[l], s[k])]
        for k in range(n)
        for l in range(k + 1, n)
    ]
    return SymZMat.of_ints(n, moved, m.denom)
