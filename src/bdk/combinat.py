"""Multi-index enumeration and exact combinatorial primitives.

Everything here is integer arithmetic: factorials, binomial and multinomial
coefficients, falling factorials, and the enumeration of all (d+1)-part
compositions of a degree.  These are the building blocks for Bernstein
bases on the simplex, so exactness is non-negotiable; no floats appear.

This module is the one home of the exact tables the library reads: the
process-wide factorial table `_FACT`, the multinomial of each multi-index
(`_multinomial`), the enumeration of each (degree, dimension)
(`_multi_indices`), the same enumeration one slot at a time
(`_index_slots`) and the Pascal diagonals p -> (k -> C(p+k, k)), one table
grown to the largest degree asked for (`_binomial_shifts`).  Each entry is
computed on its first lookup and kept.  A product over the d+1 parts of
every index, such as (a+b)!, is one table per part, so `_slot_products`
gathers it one slot at a time, with no Python loop over the parts of an
index; `_slot_product_rows` gathers such rows for every index of a second
level at once, as the Gram rows between two levels of a kernel are.
The public functions check their inputs through `_as_int` and
`check_degree`, which refuse a float, a Fraction or a bool, and read the
same tables; the library's inner loops read the tables directly, without
the checks and without a call per entry.

A multi-index on the d-simplex is a plain tuple of d+1 nonnegative ints.
`check_index`, `check_dimension`, `check_degree` and `check_rational`
are the one place that validates indices, dimensions, degrees and exact
scalars.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "parse_rational",
    "format_rational",
    "factorial",
    "binomial",
    "falling_factorial",
    "multinomial",
    "index_factorial",
    "enumerate_multi_indices",
]

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


class _Factorials(dict):
    """k -> k!, each entry computed on its first lookup and kept.

    Only the entries looked up are computed: a dense list up to the
    largest index would cost about n^2 log2(n) / 2 bits, which a
    high-degree polynomial would pay in full to use a handful of entries.
    """

    __slots__ = ()

    def __missing__(self, k: int) -> int:
        try:
            value = self[k] = math.factorial(k)
        except OverflowError:  # k past sys.maxsize: a usage error, not a crash
            raise ValueError(f"{k}! is too large to compute") from None
        return value


#: The factorial table of the process, shared by every exact build.
_FACT = _Factorials()


def factorial(n: int) -> int:
    """n! as an exact integer, for an integer n >= 0."""
    return _FACT[check_degree(n, "factorial argument")]


@lru_cache(maxsize=None)
def _multinomial(parts: Tuple[int, ...]) -> int:
    """|parts|! / parts! for a tuple of nonnegative ints, kept per index."""
    return _FACT[sum(parts)] // math.prod(map(_FACT.__getitem__, parts))


def clear_denominators(values: Iterable[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """Common denominator D of the values and the integers D * v, in order.

    D is the least common multiple of the denominators (1 for no values),
    so every value equals its integer divided by D exactly.  An int or a
    Fraction is already in lowest terms, so no gcd is taken.
    """
    values = list(values)
    common = math.lcm(*[v.denominator for v in values])
    return common, [v.numerator * (common // v.denominator) for v in values]


def _common_denominator(ratios: Iterable[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """`clear_denominators` of the rationals num / den, given as pairs of ints
    with den > 0: each reduced by its gcd, as a Fraction would be, but with
    no Fraction built."""
    nums, dens = [], []
    for num, den in ratios:
        g = math.gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    common = math.lcm(*dens)
    return common, [num * (common // den) for num, den in zip(nums, dens)]


def _as_int(value, what: str) -> int:
    """value as an int; ValueError naming it when it is not an integer.

    operator.index refuses floats, Fractions and strings, which int()
    would truncate or parse; a bool, which it takes as 0 or 1, is refused too.
    """
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def check_dimension(d: int, what: str = "simplex dimension") -> int:
    """Validate a simplex dimension (an integer d >= 1) and return it; what
    names the value in the error."""
    d = _as_int(d, what)
    if d < 1:
        raise ValueError(f"{what} must be >= 1, got {d}")
    return d


def check_degree(n: int, what: str = "degree") -> int:
    """Validate a polynomial or operator degree (an integer n >= 0) and
    return it; what names the value in the error."""
    n = _as_int(n, what)
    if n < 0:
        raise ValueError(f"{what} must be >= 0, got {n}")
    return n


def check_rational(value, what: str) -> Fraction:
    """value as a Fraction; ValueError naming it unless it is an int or a Fraction.

    A float is refused, as `parse_rational` refuses decimal text: 0.1 would
    be stored as 3602879701896397/36028797018963968.  So is a bool.
    """
    if isinstance(value, Fraction):
        return value
    try:
        if not isinstance(value, bool):
            return Fraction(operator.index(value))
    except TypeError:
        pass
    raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def check_index(parts: Iterable[int], d: Optional[int] = None) -> Tuple[int, ...]:
    """parts as a multi-index: a tuple of at least two nonnegative ints.

    A multi-index on the d-simplex has d+1 parts, the first for the
    dependent coordinate x_0; when d is given the count must match.
    """
    pts = tuple(_as_int(p, "multi-index part") for p in parts)
    if len(pts) < 2:
        raise ValueError(f"multi-index needs at least two parts, got {pts}")
    if d is not None and len(pts) != d + 1:
        raise ValueError(f"expected {d + 1} multi-index parts, got {len(pts)}")
    if any(p < 0 for p in pts):
        raise ValueError(f"multi-index parts must be nonnegative, got {pts}")
    return pts


def multinomial(parts: Sequence[int]) -> int:
    """|parts|! / parts! for nonnegative parts; 0 if any part is negative.

    The zero convention on negative parts lets downstream summation
    formulas run without boundary guards.
    """
    parts = tuple(_as_int(p, "multinomial part") for p in parts)
    return 0 if any(p < 0 for p in parts) else _multinomial(parts)


def index_factorial(parts: Sequence[int]) -> int:
    """parts! = product of the factorials of the parts."""
    parts = [_as_int(p, "index factorial part") for p in parts]
    if any(p < 0 for p in parts):
        raise ValueError("index factorial needs nonnegative parts")
    return math.prod(map(_FACT.__getitem__, parts))


def binomial(s: int, k: int) -> int:
    """C(s, k) for integer s (possibly negative) and k >= 0.

    Defined through the product s(s-1)...(s-k+1)/k!, which is always an
    exact integer; the product itself gives C(s, 0) = 1 for every s (it is
    empty) and C(s, k) = 0 for 0 <= s < k (it has the factor 0).
    """
    s, k = _as_int(s, "binomial argument s"), _as_int(k, "binomial argument k")
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    return falling_factorial(s, k) // _FACT[k]


def falling_factorial(s: int, k: int) -> int:
    """s(s-1)...(s-k+1) for integers s and k >= 0, with the empty product 1 when k = 0."""
    s, k = _as_int(s, "falling factorial argument s"), _as_int(k, "falling factorial argument k")
    if k < 0:
        raise ValueError("falling factorial needs k >= 0")
    return math.prod(range(s, s - k, -1))


def enumerate_multi_indices(n: int, d: int) -> List[Tuple[int, ...]]:
    """All multi-indices with d+1 parts summing to n, as tuples in a fixed order.

    Order is lexicographic with the first part most significant and
    descending, e.g. (2,0), (1,1), (0,2) for n=2, d=1.  The list has
    exactly C(n+d, d) entries.  Each call returns a fresh list, copied
    from the enumeration kept once per (n, d).
    """
    return list(_multi_indices(check_degree(n), check_dimension(d)))


@lru_cache(maxsize=None)
def _multi_indices(n: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """The enumeration of `enumerate_multi_indices(n, d)`, kept as one tuple:
    each first part from n down to 0, followed by each index of the
    remaining degree in one dimension fewer."""
    if d == 0:
        return ((n,),)
    return tuple((head,) + rest for head in range(n, -1, -1)
                 for rest in _multi_indices(n - head, d - 1))


#: _PASCAL[p][k] = C(p+k, k): row p is a diagonal of Pascal's triangle.
_PASCAL: List[List[int]] = []


def _binomial_shifts(top: int) -> List[List[int]]:
    """The one table p -> (k -> C(p+k, k)), with every p, k <= top.  It is
    grown in place to the largest top asked for, and its readers only index
    it, so the table for one top serves every smaller one."""
    size = len(_PASCAL)
    if top >= size:
        for p, row in enumerate(_PASCAL):
            row.extend(math.comb(p + k, k) for k in range(size, top + 1))
        _PASCAL.extend([math.comb(p + k, k) for k in range(top + 1)] for p in range(size, top + 1))
    return _PASCAL


@lru_cache(maxsize=None)
def _index_slots(n: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """The enumeration of `_multi_indices(n, d)` one slot at a time: entry v
    lists part v of every index, in order.  Kept per (n, d)."""
    return tuple(zip(*_multi_indices(n, d)))


def _slot_products(slots: Sequence[Sequence[int]], tables: Iterable[Sequence[int]]) -> List[int]:
    """prod_v tables[v][i_v] for every index i, the indices given one slot
    at a time (`_index_slots`) and the tables one per slot, in slot order.

    A product over the d+1 parts of each index, such as (a+b)!, is one table
    per part over its values 0..n; so the product over every index is one
    C-level gather and one multiply pass per slot, with no Python loop per
    index."""
    pairs = zip(slots, tables)
    slot, table = next(pairs)
    values = map(table.__getitem__, slot)
    for slot, table in pairs:
        values = map(operator.mul, values, map(table.__getitem__, slot))
    return list(values)


def _slot_product_rows(outer: Sequence[Sequence[int]], slots: Sequence[Sequence[int]],
                       table: Sequence[Sequence[int]]) -> List[List[int]]:
    """prod_v table[a_v][i_v] for every outer index a and every index i, both
    given one slot at a time: one row per a, in order, each
    `_slot_products(slots, map(table.__getitem__, a))`.  All rows are
    gathered at once, one list comprehension per slot over the (a, i) pairs,
    so a level of short rows pays no call per row; for a single row
    `_slot_products` is cheaper."""
    gathered = ([row[i] for row in map(table.__getitem__, parts) for i in slot]
                for parts, slot in zip(outer, slots))
    values = next(gathered)
    for column in gathered:
        values = map(operator.mul, values, column)
    size = len(slots[0])
    values = list(values)
    return [values[i:i + size] for i in range(0, len(values), size)]
