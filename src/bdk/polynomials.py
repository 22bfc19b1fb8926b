"""Exact sparse polynomial algebra in cartesian simplex coordinates.

Polynomials live in the variables x_1..x_d with the dependent barycentric
coordinate x_0 = 1 - x_1 - ... - x_d eliminated.  That makes the sparse
exponent->coefficient map a canonical form: two expressions denote the
same polynomial exactly when their maps are equal.  A kernel K(x, y) is
the same sparse type in the 2d variables x_1..x_d, y_1..y_d
(`bdk.kernels`), built for output.

A polynomial is stored as one positive denominator over an integer map,
p = nums / den, reduced so that gcd(den, *nums) == 1; equality and hashing
compare the pair.  The exponent -> Fraction map `terms` is built from it
on each read, for display and tests; no exact path reads it.
Exact sums are accumulated in Python ints, each integer-map job in one
body that `bdk.verify` reads too: weighted sums (`_combine`), comparisons
of (integer map, denominator) pairs, reduced or not (`_first_difference`),
and Dirichlet moments over one factorial denominator (`_Moments`, whose
degree is fixed when it is built).  An integer fast path ends with one
rational scale for the whole map (`CartesianPolynomial.from_integers`),
which only multiplies nums and den and reduces them by one gcd.
Evaluation works the same way: a rational point is written over its
common denominator q, each monomial is homogenised to the top degree with
powers of q, and one Fraction is built from the integer sum
(`monomial_numerators`).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .combinat import (
    _FACT,
    _as_int,
    _multi_indices,
    _multinomial,
    check_degree,
    check_dimension,
    check_index,
    check_rational,
    clear_denominators,
    format_rational,
)

__all__ = [
    "CartesianPolynomial",
    "bernstein_basis",
    "bernstein_value",
    "integrate_simplex",
    "inner_product",
]

Exponents = Tuple[int, ...]
Scalar = Union[int, Fraction]


def integer_point(pt: Sequence[Scalar], d: int) -> Tuple[int, Tuple[int, ...]]:
    """(q, (A_0, A_1, ..., A_d)) with x_v = A_v / q exactly, for the point
    given by its d cartesian coordinates x_1..x_d, each an int or a Fraction.

    q is the least common denominator of the coordinates and
    A_0 = q - A_1 - ... - A_d.  The point need not lie inside the simplex;
    the polynomials being evaluated are defined on all of R^d.
    """
    pt = tuple(pt)
    if len(pt) != d:
        raise ValueError(f"point has {len(pt)} coordinates, expected {d}")
    q, nums = clear_denominators(check_rational(c, "point coordinate") for c in pt)
    return q, (q - sum(nums), *nums)


def monomial_numerators(q: int, nums: Sequence[int],
                        keys: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """q^top and the integers q^top * (a/q)^e for each key e, top = max |e|.

    For the point a/q = (a_1/q, ..., a_k/q) the value for e is
    prod a_i^e_i * q^(top - |e|).  The powers of q and of each a_i come
    from tables built once per call, holding the exponents that occur.
    """
    degrees = [sum(e) for e in keys]
    top = max(degrees, default=0)
    q_powers = {top - k: q ** (top - k) for k in set(degrees)}
    tables = [{k: a ** k for k in column} for a, column in zip(nums, map(set, zip(*keys)))]
    values = []
    for e, degree in zip(keys, degrees):
        v = q_powers[top - degree]
        for table, k in zip(tables, e):
            if k:
                v *= table[k]
        values.append(v)
    return q ** top, values


def bernstein_numerators(pt: Sequence[Scalar], d: int,
                         indices: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """q^top and the integers q^top B_a(pt) = mult(a) prod A_v^a_v q^(top-|a|)
    for each multi-index a, top = max |a|, pt = A / q (`integer_point`)."""
    q, bary = integer_point(pt, d)
    q_top, values = monomial_numerators(q, bary, indices)
    return q_top, list(map(mul, map(_multinomial, indices), values))


class CartesianPolynomial:
    """Sparse exact polynomial in x_1..x_d, stored as an integer map over one
    denominator.

    nums maps exponent tuples to nonzero ints and den is a positive int:
    the coefficient of x^e is nums[e] / den.  The pair is kept canonical,
    gcd(den, *nums.values()) == 1, so two polynomials are equal exactly
    when their d, den and nums are.  A key holds BLOCKS blocks of d
    exponents: one block here, two for a kernel K(x, y) (x's exponents,
    then y's).  Instances are treated as immutable; all operators return
    new objects.  `terms`, exponent -> Fraction built on each read, serves display and tests.
    """

    __slots__ = ("d", "den", "nums")

    #: Exponent blocks of d entries in each key; fixed per class.
    BLOCKS = 1

    def __init__(self, d: int, terms: Dict[Exponents, Scalar] = None):
        self.d = check_dimension(d)
        width = self.BLOCKS * self.d
        clean: Dict[Exponents, Fraction] = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(_as_int(e, "exponent") for e in exps)
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} does not have {width} entries")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = check_rational(coef, "coefficient")
        den, nums = clear_denominators(clean.values())
        self._reduce(den, dict(zip(clean, nums)))

    def _reduce(self, den: int, nums: Dict[Exponents, int]) -> None:
        """Store nums / den canonically: zero entries dropped and den and
        the map divided by their gcd.  The one place that normalizes."""
        nums = {e: c for e, c in nums.items() if c}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
        self.den, self.nums = den, nums

    @classmethod
    def _make(cls, d: int, den: int, nums: Dict[Exponents, int]) -> "CartesianPolynomial":
        """The polynomial nums / den over a map an internal operation built,
        den > 0; its keys are trusted as built."""
        poly = cls.__new__(cls)
        poly.d = d
        poly._reduce(den, nums)
        return poly

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        """Exponents -> Fraction coefficient, built from den and nums on each
        read.  Display and tests read it; no exact path does."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "CartesianPolynomial":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, value: Scalar) -> "CartesianPolynomial":
        return cls(d, {(0,) * (cls.BLOCKS * d): value})

    @classmethod
    def variable(cls, d: int, i: int) -> "CartesianPolynomial":
        """The coordinate polynomial in the i-th of the key's variables."""
        width, i = cls.BLOCKS * d, _as_int(i, "variable index")
        if not 1 <= i <= width:
            raise ValueError(f"variable index {i} out of range 1..{width}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(width))
        return cls(d, {exps: 1})

    @classmethod
    def monomial(cls, d: int, exps: Sequence[int], coef: Scalar = 1) -> "CartesianPolynomial":
        return cls(d, {tuple(exps): coef})

    @classmethod
    def from_integers(cls, d: int, ints: Dict[Exponents, int],
                      scale: Scalar = 1) -> "CartesianPolynomial":
        """The polynomial with coefficients scale * ints[e].

        The keys must already be valid exponent tuples; this is the exit of
        the integer fast paths, which build them that way.
        """
        scale = check_rational(scale, "scale")
        num = scale.numerator
        if num != 1:
            ints = {e: c * num for e, c in ints.items()}
        return cls._make(check_dimension(d), scale.denominator, ints)

    # -- ring operations ----------------------------------------------

    @classmethod
    def _check_compatible(cls, d: int, other: "CartesianPolynomial") -> None:
        if d != other.d:
            raise ValueError(f"dimension mismatch: {d} vs {other.d}")
        if cls.BLOCKS != other.BLOCKS:
            raise ValueError(f"cannot combine {cls.__name__} with {type(other).__name__}")

    @classmethod
    def linear_combination(cls, d: int, pairs: Iterable[Tuple[Scalar, "CartesianPolynomial"]]
                           ) -> "CartesianPolynomial":
        """sum c * p over the (c, p) pairs, each p of this class in dimension d.

        The coefficients are written over their common denominator, the
        integer maps are summed by `_combine`, and the sum is reduced once,
        where a chain of `+` and `scale` would reduce after every step.
        """
        pairs = [(check_rational(c, "coefficient"), p) for c, p in pairs]
        for _, p in pairs:
            cls._check_compatible(d, p)
        den, weights = clear_denominators(c for c, _ in pairs)
        nums, den = _combine(zip(weights, (p for _, p in pairs)), den)
        return cls._make(d, den, nums)

    def __add__(self, other: "CartesianPolynomial") -> "CartesianPolynomial":
        if not isinstance(other, CartesianPolynomial):
            return NotImplemented
        return self.linear_combination(self.d, ((1, self), (1, other)))

    def __sub__(self, other: "CartesianPolynomial") -> "CartesianPolynomial":
        if not isinstance(other, CartesianPolynomial):
            return NotImplemented
        return self.linear_combination(self.d, ((1, self), (-1, other)))

    def __neg__(self) -> "CartesianPolynomial":
        return self._make(self.d, self.den, {e: -c for e, c in self.nums.items()})

    def __mul__(self, other):
        if not isinstance(other, CartesianPolynomial):
            return self.__rmul__(other)  # a scalar commutes with p
        self._check_compatible(self.d, other)
        out: Dict[Exponents, int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return self._make(self.d, self.den * other.den, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "CartesianPolynomial":
        c = check_rational(c, "scale")
        num = c.numerator
        return self._make(self.d, self.den * c.denominator,
                          {e: v * num for e, v in self.nums.items()})

    def __pow__(self, k: int) -> "CartesianPolynomial":
        k = check_degree(k, "exponent")
        out = self.constant(self.d, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CartesianPolynomial):
            return (self.d == other.d and self.BLOCKS == other.BLOCKS
                    and self.den == other.den and self.nums == other.nums)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.den, frozenset(self.nums.items())))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        return max((sum(e) for e in self.nums), default=-1)

    def first_difference(self, other: "CartesianPolynomial"
                         ) -> Optional[Tuple[Exponents, Fraction, Fraction]]:
        """(key, self's coefficient, other's) at the first key, in canonical
        order, where the two differ, else None (`_first_difference`)."""
        self._check_compatible(self.d, other)
        if self.den != other.den or self.nums != other.nums:
            return _first_difference((self.nums, self.den), (other.nums, other.den))

    def evaluate(self, pt: Sequence[Scalar]) -> Fraction:
        """p(pt) = sum_e P_e a^e q^(N-|e|) / (D q^N), with p = P / D, pt = a / q, N = deg p;
        pt has BLOCKS * d coordinates, one per entry of a key."""
        q, bary = integer_point(pt, self.BLOCKS * self.d)
        q_top, values = monomial_numerators(q, bary[1:], list(self.nums))
        return Fraction(sum(map(mul, self.nums.values(), values)), self.den * q_top)

    def sorted_terms(self) -> List[Tuple[Exponents, Fraction]]:
        """Terms in the canonical serialization order (ascending exponents)."""
        den = self.den
        return [(e, Fraction(c, den)) for e, c in sorted(self.nums.items())]

    def __repr__(self) -> str:
        if not self.nums:
            return "<poly 0>"
        bits = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "<poly " + " + ".join(bits) + ">"

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {"exp": list(exps), "coef": format_rational(coef)}
                for exps, coef in self.sorted_terms()
            ],
        }


def check_polynomial(p: CartesianPolynomial) -> CartesianPolynomial:
    """p, checked to be a polynomial in x_1..x_d alone and not a kernel."""
    if p.BLOCKS != 1:
        raise ValueError(f"expected a polynomial in x_1..x_d, got a {type(p).__name__}")
    return p


def _combine(pairs: Iterable[Tuple[int, CartesianPolynomial]], den: int) -> Tuple[dict, int]:
    """The integer map and denominator of sum w p / den over (w, p) pairs, each
    w an int, every p brought over the lcm of their denominators and nothing
    reduced: the one weighted sum of integer maps."""
    pairs = list(pairs)
    common = lcm(*(p.den for _, p in pairs))
    return bernstein_sum((w * (common // p.den), p.nums.items()) for w, p in pairs), den * common


def _first_difference(lhs: Tuple[dict, int], rhs: Tuple[dict, int]) -> Optional[tuple]:
    """(key, lhs's coefficient, rhs's) at the first key, in canonical order,
    where two (integer map, denominator) pairs differ, else None.  The pairs
    may be unreduced and hold zeros: every key is cross-multiplied, nothing is
    sorted, and the Fractions do not see reduction."""
    (left, da), (right, db) = lhs, rhs
    differ = [e for e in left.keys() | right.keys() if left.get(e, 0) * db != right.get(e, 0) * da]
    if differ:
        key = min(differ)
        return key, Fraction(left.get(key, 0), da), Fraction(right.get(key, 0), db)


def difference_witness(lhs, rhs) -> Optional[dict]:
    """None when the two sides are equal, else a failure-report witness: their
    first difference, coefficients as 'p/q' strings.  Both sides are
    polynomials (`first_difference`) or (integer map, denominator) pairs."""
    found = lhs.first_difference(rhs) if isinstance(lhs, CartesianPolynomial) \
        else _first_difference(lhs, rhs)
    if found is not None:
        key, a, b = found
        return {"exp": list(key), "lhs": format_rational(a), "rhs": format_rational(b)}


@lru_cache(maxsize=None)
def _x0_power(a0: int, d: int) -> Tuple[Tuple[Exponents, int], ...]:
    """The signed integer terms of x_0^a0 = (1 - x_1 - ... - x_d)^a0.

    By the multinomial theorem the coefficient of x^k, |k| <= a0, is
    (-1)^|k| a0! / ((a0 - |k|)! k!); the pairs (k, coefficient) follow the
    enumeration order of the (d+1)-part compositions of a0.  The power
    depends only on (a0, d), so it is expanded once per pair.
    """
    return tuple((kappa[1:], (-1) ** (a0 - kappa[0]) * _multinomial(kappa))
                 for kappa in _multi_indices(a0, d))


@lru_cache(maxsize=None)
def bernstein_basis(alpha: Sequence[int]) -> CartesianPolynomial:
    """The Bernstein basis polynomial C(|a|,a) x_0^a0 x_1^a1 ... x_d^ad,
    fully expanded into cartesian monomials.

    alpha is a hashable multi-index, normally a tuple; the result is cached
    per index.  The expansion is the cached power x_0^a0 with
    x_0 = 1 - x_1 - ... - x_d substituted, each term shifted by
    (a1, ..., ad) and scaled by C(|a|,a); all coefficients are integers.
    """
    alpha = check_index(alpha)
    d = len(alpha) - 1
    rest = alpha[1:]
    scale = _multinomial(alpha)
    # distinct powers of x_0 have distinct exponents, so nothing accumulates
    terms = {tuple(map(add, k, rest)): scale * c for k, c in _x0_power(alpha[0], d)}
    return CartesianPolynomial.from_integers(d, terms)


def bernstein_sum(pairs: Iterable[Tuple[int, Iterable]]) -> Dict[Exponents, int]:
    """The integer map of sum c * B over (c, terms of B) pairs, each c an int and
    each B given by its (exponents, integer) terms: the one loop that accumulates
    weighted integer maps.  Each B is a `bernstein_basis` polynomial when a
    combination of the basis is multiplied out, and any integer map for
    `_combine`.  Callers may leave out c = 0."""
    out: Dict[Exponents, int] = {}
    for c, terms in pairs:
        for e, b in terms:
            out[e] = out.get(e, 0) + c * b
    return out


def bernstein_value(alpha: Sequence[int], pt: Sequence[Scalar]) -> Fraction:
    """B_alpha at a point, from its barycentric integers (`bernstein_numerators`)
    rather than the cartesian expansion."""
    alpha = check_index(alpha)
    q_top, (value,) = bernstein_numerators(pt, len(alpha) - 1, [alpha])
    return Fraction(value, q_top)


class _Moments(dict):
    """The Dirichlet moments in dimension d up to degree top, over the one
    denominator scale = (top+d)! fixed when the table is built: Dirichlet's
    formula with mu_0 = 0 gives int x^k = k! / (|k|+d)!, so self[k] =
    scale * int x^k is an integer, filled on first read.  A key of degree
    above top raises ValueError."""

    def __init__(self, d: int, top: int):
        self.d, self.top, self.scale = d, top, _FACT[top + d]

    def __missing__(self, k: Exponents) -> int:
        degree = sum(k)
        if degree > self.top:
            raise ValueError(f"moment of degree {degree} read from a table of degree "
                             f"{self.top}")
        value = self[k] = (prod(map(_FACT.__getitem__, k))
                           * (self.scale // _FACT[degree + self.d]))
        return value

    def inner(self, p: CartesianPolynomial, e: Exponents) -> int:
        """scale * p.den * <p, x^e>."""
        return sum(v * self[tuple(map(add, k, e))] for k, v in p.nums.items())


def integrate_simplex(p: CartesianPolynomial) -> Fraction:
    """Exact integral of p over the standard d-simplex: <p, 1>
    (`inner_product`)."""
    return inner_product(p, CartesianPolynomial.constant(p.d, 1))


def inner_product(f: CartesianPolynomial, g: CartesianPolynomial) -> Fraction:
    """<f, g> over the standard simplex, computed exactly.

    With f = F / D_f and g = G / D_g for integer maps F and G, the product is
    never built: <f, g> = sum_e G_e <f, x^e> / D_g, and Dirichlet's formula
    gives every <f, x^e> over the one denominator D_f (N+d)!, N = deg f +
    deg g: one `_Moments` table of degree N (0 when both are zero, whose
    degrees are -1).
    """
    check_polynomial(f)
    check_polynomial(g)
    if f.d != g.d:
        raise ValueError(f"dimension mismatch: {f.d} vs {g.d}")
    moments = _Moments(f.d, max(f.total_degree() + g.total_degree(), 0))
    return Fraction(sum(c * moments.inner(f, e) for e, c in g.nums.items()),
                    f.den * moments.scale * g.den)
