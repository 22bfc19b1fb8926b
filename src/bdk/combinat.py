"""Multi-index enumeration and exact combinatorial primitives.

Everything here is integer arithmetic: factorials, binomial and multinomial
coefficients, falling factorials, and the enumeration of all (d+1)-part
compositions of a degree.  These are the building blocks for Bernstein
bases on the simplex, so exactness is non-negotiable; no floats appear.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

__all__ = [
    "MultiIndex",
    "IndexLike",
    "Rational",
    "parse_rational",
    "format_rational",
    "factorial",
    "binomial",
    "falling_factorial",
    "multinomial",
    "index_factorial",
    "FactorialTable",
    "table_multinomial",
    "clear_denominators",
    "enumerate_multi_indices",
]

#: Exact arbitrary-precision rational; always reduced, denominator > 0.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p' or 'p/q' string into an exact rational.

    Decimal and float notations are rejected on purpose: exact paths never
    accept values that went through binary floating point.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational 'p/q' string: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical 'p/q' string ('p' when the denominator is 1)."""
    return str(Fraction(value))


def factorial(n: int) -> int:
    """n! as an exact integer."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    return math.factorial(n)


class FactorialTable(dict):
    """k -> k! for one build, each entry computed on its first lookup.

    Inner loops index a local table instead of calling `factorial`.  Only
    the entries looked up are computed: a dense list up to the largest
    index would cost about n^2 log2(n) / 2 bits, which a high-degree
    polynomial would pay in full to use a handful of entries.
    """

    __slots__ = ()

    def __missing__(self, k: int) -> int:
        value = self[k] = math.factorial(k)
        return value


def table_multinomial(parts: Sequence[int], fact: FactorialTable) -> int:
    """|parts|! / parts! for nonnegative parts, read from a factorial table."""
    out = fact[sum(parts)]
    for p in parts:
        out //= fact[p]
    return out


def clear_denominators(values: Iterable[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """Common denominator D of the values and the integers D * v, in order.

    D is the least common multiple of the denominators (1 for no values),
    so every value equals its integer divided by D exactly.
    """
    values = list(values)
    den = math.lcm(*(v.denominator for v in values)) if values else 1
    return den, [v.numerator * (den // v.denominator) for v in values]


class MultiIndex:
    """A vector of nonnegative integer exponents in barycentric variables.

    A multi-index of dimension d has d+1 parts (the extra slot belongs to
    the dependent coordinate x_0).  Instances are immutable, hashable and
    compare by value.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        pts = tuple(int(p) for p in parts)
        if not pts:
            raise ValueError("multi-index needs at least one part")
        if any(p < 0 for p in pts):
            raise ValueError(f"multi-index parts must be nonnegative, got {pts}")
        self.parts = pts

    @property
    def degree(self) -> int:
        """Total degree |alpha|, the sum of all parts."""
        return sum(self.parts)

    @property
    def dimension(self) -> int:
        """Simplex dimension d implied by the part count (d+1 parts)."""
        return len(self.parts) - 1

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(self.parts) != len(other.parts):
            raise ValueError("multi-index length mismatch")
        return MultiIndex(s + o for s, o in zip(self.parts, other.parts))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiIndex):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"MultiIndex{self.parts}"


IndexLike = Union[MultiIndex, Sequence[int]]


def _parts(mi: IndexLike) -> tuple:
    if isinstance(mi, MultiIndex):
        return mi.parts
    return tuple(int(p) for p in mi)


def multinomial(mi: IndexLike) -> int:
    """|mi|! / mi! for nonnegative parts; 0 if any part is negative.

    The zero convention on negative parts lets downstream summation
    formulas run without boundary guards.
    """
    pts = _parts(mi)
    if any(p < 0 for p in pts):
        return 0
    out = factorial(sum(pts))
    for p in pts:
        out //= factorial(p)
    return out


def index_factorial(mi: IndexLike) -> int:
    """mi! = product of the factorials of the parts."""
    pts = _parts(mi)
    if any(p < 0 for p in pts):
        raise ValueError("index factorial needs nonnegative parts")
    out = 1
    for p in pts:
        out *= factorial(p)
    return out


def binomial(s: int, k: int) -> int:
    """C(s, k) for integer s (possibly negative) and k >= 0.

    Defined through the product s(s-1)...(s-k+1)/k!, which is always an
    exact integer; C(s, 0) = 1 for every s and C(s, k) = 0 for 0 <= s < k.
    """
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    if k == 0:
        return 1
    if 0 <= s < k:
        return 0
    return falling_factorial(s, k) // factorial(k)


def falling_factorial(s: int, k: int) -> int:
    """s(s-1)...(s-k+1), with the empty product 1 when k = 0."""
    if k < 0:
        raise ValueError("falling factorial needs k >= 0")
    out = 1
    for i in range(k):
        out *= s - i
    return out


def enumerate_multi_indices(n: int, d: int) -> list:
    """All multi-indices with d+1 parts summing to n, in a fixed order.

    Order is lexicographic with the first part most significant and
    descending, e.g. (2,0), (1,1), (0,2) for n=2, d=1.  The list has
    exactly C(n+d, d) entries.
    """
    if d < 1:
        raise ValueError("simplex dimension d must be >= 1")
    if n < 0:
        raise ValueError("degree n must be >= 0")
    return [MultiIndex(c) for c in _compositions(n, d + 1)]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
