"""Integral kernels of composed Bernstein-Durrmeyer operators.

A composition M_{n_r} o ... o M_{n_1} acts by integration against a
bivariate polynomial kernel K(x, y).  This module builds that kernel in
independent ways:

* the definitional form `kernel_definition_coordinates`, a brute-force sum
  over Bernstein index chains straight from the operator definition -- the
  oracle -- as a `BernsteinKernelForm`: small integer rows over one scale;
* the closed form `kernel_closed`, a `DiagonalKernelForm`: one integer
  weight per index degree |l| of the products B_l(x) B_l(y), over one
  scale, reduced one operator at a time by the paper's composition
  theorem (`kernel_single` and the two-fold and three-fold names call it);
* for d = 1, the shifted-Legendre expansion `kernel_legendre`, also a
  `BernsteinKernelForm`.

Claimed identities are decided in Bernstein coordinates: the products
B_a(x) B_b(y), |a| = m and |b| = n, are a basis, so two kernels are equal
exactly when their coefficient matrices are.  `DiagonalKernelForm.coordinates`
and `kernel_legendre` write sums of outer products there by degree
elevation, `BernsteinKernelForm.elevate` raises a form's degrees, and
`first_coordinate_difference` compares two forms entry by entry with their
scales cross-multiplied; two forms of one scale compare their rows as they
are.  The collapse lemma is decided the same way (`_inner_sum_coordinates`).
For output every form is multiplied out into a sparse polynomial in
x_1..x_d, y_1..y_d by one path, `BernsteinKernelForm.expand` on whole rows
(`to_canonical` first writes a diagonal form in coordinates).

Everything accumulates Python ints and applies one rational scale at the
end, by Dirichlet's formula  int x^mu = mu! / (|mu|+d)!  and
mult(a) = |a|!/a!.  The Gram rows G(b, c) = prod_v C(b_v+c_v, c_v), the
elevation coefficients C(a, l) = prod_v C(a_v, l_v) and the lemma's
(a+beta)!/a! = beta! prod_v C(a_v+beta_v, a_v) are products over the d+1
slots of an index, gathered one slot at a time from one shared table of
binomials (`bdk.combinat._slot_product_rows`, `_slot_products`), with no
Python loop over the slots of an entry.  Factorials, multinomials, index
enumerations and that table are read from `bdk.combinat`; the tables
derived here, the elevation columns (`_elevation`) and the elevated
Legendre columns (`_legendre_column`), are `lru_cache`s kept for the
process and built once per key.  A diagonal form or a form in Bernstein
coordinates is evaluated as it stands, without its canonical map.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod
from operator import add, mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .combinat import (
    _FACT,
    _binomial_shifts,
    _common_denominator,
    _index_slots,
    _multi_indices,
    _slot_product_rows,
    _slot_products,
    check_degree,
    check_dimension,
    check_index,
    check_rational,
    clear_denominators,
    format_rational,
)
from .polynomials import (
    CartesianPolynomial,
    Scalar,
    _Moments,
    bernstein_numerators,
    bernstein_rows,
    bernstein_sum,
    check_polynomial,
    difference_witness,
)

__all__ = [
    "KernelPolynomial",
    "DiagonalKernelForm",
    "BernsteinKernelForm",
    "kernel_closed",
    "kernel_single",
    "kernel_definition_coordinates",
    "kernel_definition_twofold",
    "kernel_closed_twofold",
    "kernel_univariate_twofold",
    "kernel_legendre",
    "kernel_definition_threefold",
    "kernel_closed_threefold",
    "inner_sum_identity",
    "to_canonical",
    "first_kernel_difference",
    "first_coordinate_difference",
]

Point = Sequence[Scalar]
T = TypeVar("T")


class KernelPolynomial(CartesianPolynomial):
    """Canonical kernel K(x, y): a polynomial in x_1..x_d, y_1..y_d.

    nums maps flat 2d-tuples, x's d exponents then y's, to nonzero integer
    numerators over the one denominator den; d is still the simplex
    dimension.  Arithmetic, equality and hashing are those of
    CartesianPolynomial, so equality of kernels is literal map equality.
    A kernel is always its built map: one kept in another basis has its
    own type, `DiagonalKernelForm` or `BernsteinKernelForm`, and becomes a
    map only through `BernsteinKernelForm.expand` (`to_canonical` calls it).
    """

    __slots__ = ()
    BLOCKS = 2

    @classmethod
    def outer(cls, fx: CartesianPolynomial, fy: CartesianPolynomial) -> "KernelPolynomial":
        """The separable kernel fx(x) * fy(y): distinct exponent pairs never share a key."""
        if check_polynomial(fx).d != check_polynomial(fy).d:
            raise ValueError("dimension mismatch in outer product")
        return cls._make(fx.d, fx.den * fy.den, {ex + ey: cx * cy for ex, cx in fx.nums.items()
                                                 for ey, cy in fy.nums.items()})

    def transpose(self) -> "KernelPolynomial":
        """Swap the roles of x and y."""
        d = self.d
        return self._make(d, self.den, {e[d:] + e[:d]: c for e, c in self.nums.items()})

    def evaluate(self, x: Point, y: Point) -> Fraction:
        """K(x, y): the map evaluated at the joined point (x, y) of 2d coordinates."""
        x, y = tuple(x), tuple(y)
        if len(x) != self.d or len(y) != self.d:
            raise ValueError(f"points have {len(x)} and {len(y)} coordinates, expected {self.d}")
        return super().evaluate(x + y)

    def integrate_y(self) -> CartesianPolynomial:
        """Integrate the y block over the simplex, leaving a polynomial in x.

        For a stochastic kernel this must come out as the constant 1.  With
        K = C / D for an integer map C and N the top y degree, Dirichlet's
        formula makes the x^ex coefficient the integer
        sum_ey C_e ey! (N+d)!/(|ey|+d)! (one `_Moments` of degree N) over D (N+d)!.
        """
        d = self.d
        top = max((sum(e[d:]) for e in self.nums), default=0)
        moments = _Moments(d, top)
        acc = bernstein_sum((c, [(e[:d], moments[e[d:]])]) for e, c in self.nums.items())
        return CartesianPolynomial.from_integers(d, acc, Fraction(1, self.den * moments.scale))

    def __repr__(self) -> str:
        return f"<kernel d={self.d} terms={len(self.nums)}>"

    def to_json_dict(self) -> dict:
        d = self.d
        return {
            "d": d,
            "form": "canonical",
            "scale": "1",
            "terms": [
                {"exp_x": list(e[:d]), "exp_y": list(e[d:]), "coef": c}
                for e, c in self._coefficient_texts()
            ],
        }


class DiagonalKernelForm:
    """Structured kernel: scale * sum over degrees j of w_j * sum_{|l|=j} B_l(x) B_l(y).

    Composition kernels admit this shape: only matching-index basis
    products, with a weight that depends on the index only through its
    degree.  terms holds the (j, w_j) pairs in ascending j: nonzero integer
    weights with gcd 1, the first positive, over the one rational scale.
    Fraction weights are cleared into the scale, as are a common factor and
    sign, and every zero form (scale 0, or no terms) is one zero kernel, so
    equal kernels compare equal and hash equal.
    """

    __slots__ = ("d", "scale", "terms")

    def __init__(self, d: int, scale, terms):
        self.d = check_dimension(d)
        scale = check_rational(scale, "scale")
        degrees, weights = tuple(zip(*terms)) or ((), ())
        if not {int}.issuperset(map(type, degrees)) or min(degrees, default=0) < 0:
            degrees = [check_degree(j) for j in degrees]
        if len(set(degrees)) != len(degrees):
            raise ValueError("diagonal degrees must not repeat")
        if not {int}.issuperset(map(type, weights)):
            den, weights = clear_denominators([check_rational(w, "weight") for w in weights])
            scale /= den
        if not all(weights):
            raise ValueError("diagonal weights must be nonzero")
        terms = sorted(zip(degrees, weights))
        g = -gcd(*weights) if terms and terms[0][1] < 0 else gcd(*weights)
        if g not in (0, 1):
            terms = [(j, w // g) for j, w in terms]
            scale = Fraction(scale.numerator * g, scale.denominator)
        self.scale, self.terms = scale, tuple(terms)

    def max_index_degree(self) -> int:
        """Largest |l| appearing; -1 when the form is empty."""
        return self.terms[-1][0] if self.terms else -1

    def coordinates(self, m: int, n: int) -> "BernsteinKernelForm":
        """This kernel in the product basis B_a(x) B_b(y), |a| = m and |b| = n.

        Degree elevation (`_elevation`) writes each B_l of degree j <= m as
        sum_{|a|=m, a>=l} C(a, l)/C(m, j) B_a, so the coefficient of
        B_a(x) B_b(y) is
            scale * sum_{|l| <= min(m, n)} w_|l| / (C(m, |l|) C(n, |l|)) * C(a, l) C(b, l).
        The factors w_j / (C(m,j) C(n,j)) are put over their common
        denominator D in integers (`_common_denominator`), each l adds its
        factor times the outer product of its two elevation columns, and the
        scale is scale / D.  A two-fold closed form has D = 1 and every
        factor 1: its rows are the definitional Gram rows, over the same
        scale.  The indices are listed as `kernel_definition_coordinates`
        lists them.
        """
        m, n = check_degree(m), check_degree(n)
        top = self.max_index_degree()
        if top > min(m, n):
            raise ValueError(f"a diagonal form of index degree {top} has no "
                             f"coordinates at degrees ({m}, {n})")
        d = self.d
        den, factors = _common_denominator((w, comb(m, j) * comb(n, j)) for j, w in self.terms)
        rows = _outer_products(((factor, x_column, y_column)
                                for (j, _), factor in zip(self.terms, factors)
                                for x_column, y_column in zip(_elevation(j, m, d),
                                                              _elevation(j, n, d))),
                               comb(m + d, d), comb(n + d, d))
        return BernsteinKernelForm(d, self.scale if den == 1 else self.scale / den, m, n, rows)

    def evaluate(self, x: Point, y: Point) -> Fraction:
        (row,) = self.evaluate_grid([x], [y])
        return row[0]

    def evaluate_grid(self, xs: Sequence[Point], ys: Sequence[Point],
                      ratio: Callable[[int, int], T] = Fraction) -> Iterator[List[T]]:
        """Yield [K(x, y) for y in ys] for each x in xs, each value
        ratio(numerator, denominator) of two ints with a positive
        denominator: exact by default, a float where `bdk table` passes a
        float division, with no Fraction built per value.

        A point p = A / q in barycentric integer form has the integer vector
        v_l = q^top B_l(p), top = max |l| (`bernstein_numerators`), computed
        once per point.  With the integer weight w_|l| listed once per index,
        each value is the one sum
            K(x, y) = scale * sum_l w_|l| v_l(x) v_l(y) / (qx^top qy^top).
        """
        indices: List[Tuple[int, ...]] = []
        weights: List[int] = []
        for j, w in self.terms:
            block = _multi_indices(j, self.d)
            indices += block
            weights += [w] * len(block)
        num, den = self.scale.numerator, self.scale.denominator
        columns = [bernstein_numerators(y, self.d, indices) for y in ys]
        for x in xs:
            qx_top, vx = bernstein_numerators(x, self.d, indices)
            wx = list(map(mul, weights, vx))
            yield [ratio(num * sum(map(mul, wx, vy)), den * qx_top * qy_top)
                   for qy_top, vy in columns]

    def _key(self) -> tuple:  # a zero form is its dimension alone
        return (self.d, self.scale, self.terms) if self.scale and self.terms else (self.d,)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DiagonalKernelForm):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<diagonal-kernel d={self.d} scale={self.scale} terms={len(self.terms)}>"


class BernsteinKernelForm:
    """Kernel in the product Bernstein basis: scale * sum_{b, a} C[b][a] B_a(x) B_b(y).

    m is the degree of the x indices a (the outermost operator's) and n that
    of the y indices b (the innermost's); `x_indices` and `y_indices` list
    them as `enumerate_multi_indices` does, and rows[i] is the integer row
    C[y_indices[i]] over x_indices.  This is the definitional kernel as
    `kernel_definition_coordinates` computes it, before anything is
    expanded into monomials, and a closed form as
    `DiagonalKernelForm.coordinates` elevates it; two forms on one basis
    are compared by `first_coordinate_difference`.
    """

    __slots__ = ("d", "scale", "m", "n", "rows", "__weakref__")

    def __init__(self, d: int, scale: Fraction, m: int, n: int, rows: List[List[int]]):
        self.d, self.scale, self.m, self.n, self.rows = d, scale, m, n, rows

    @property
    def x_indices(self) -> Tuple[Tuple[int, ...], ...]:
        return _multi_indices(self.m, self.d)

    @property
    def y_indices(self) -> Tuple[Tuple[int, ...], ...]:
        return _multi_indices(self.n, self.d)

    def evaluate(self, x: Point, y: Point) -> Fraction:
        """K(x, y) as one integer sum over the coordinates.

        A point p = A / q in barycentric integer form has the integer basis
        vector  v_a = q^m B_a(p) = mult(a) prod A_v^a_v  over the indices of
        degree m (`bernstein_numerators`), computed once per point.  Then
            K(x, y) = scale * sum_b v_b(y) (sum_a C[b][a] v_a(x)) / (qx^m qy^n):
        one dot product per row, and one Fraction at the end.
        """
        qx_top, vx = bernstein_numerators(x, self.d, self.x_indices)
        qy_top, vy = bernstein_numerators(y, self.d, self.y_indices)
        total = sum(v * sum(map(mul, row, vx)) for v, row in zip(vy, self.rows))
        return Fraction(self.scale.numerator * total,
                        self.scale.denominator * qx_top * qy_top)

    @property
    def terms(self) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Fraction]:
        """The nonzero coefficients scale * C[b][a] of B_a(x) B_b(y), keyed by (a, b)."""
        scale = self.scale
        return {(a, b): scale * c for b, row in zip(self.y_indices, self.rows)
                for a, c in zip(self.x_indices, row) if c}

    def transpose(self) -> "BernsteinKernelForm":
        """Swap the roles of x and y."""
        return BernsteinKernelForm(self.d, self.scale, self.n, self.m,
                                   [list(column) for column in zip(*self.rows)])

    def elevate(self, m: int, n: int) -> "BernsteinKernelForm":
        """The same kernel over x degree m >= m0 and y degree n >= n0.

        Degree elevation (`_elevation`) writes each B_a of degree m0 as
        sum_{|a'|=m, a'>=a} C(a', a)/C(m, m0) B_a', so the matrix becomes
            C'[b'][a'] = sum_{a<=a', b<=b'} C(a', a) C(b', b) C[b][a]
        and the scale falls by C(m, m0) C(n, n0).  The y side is elevated
        row by row, the x side the same way on the transpose.
        """
        m, n = check_degree(m), check_degree(n)
        if m < self.m or n < self.n:
            raise ValueError(f"cannot lower degrees ({self.m}, {self.n}) to ({m}, {n})")
        form = self._elevate_y(n)
        return form if m == self.m else form.transpose()._elevate_y(m).transpose()

    def _elevate_y(self, n: int) -> "BernsteinKernelForm":
        n0 = self.n
        if n == n0:
            return self
        d = self.d
        rows = [[0] * len(self.x_indices) for _ in range(comb(n + d, d))]
        for row, column in zip(self.rows, _elevation(n0, n, d)):
            # a column repeats its coefficients: scale the row once per value
            scaled = {1: row}
            for i, e in column:
                v = scaled.get(e)
                if v is None:
                    v = scaled[e] = [e * c for c in row]
                rows[i] = list(map(add, rows[i], v))
        return BernsteinKernelForm(d, self.scale / comb(n, n0), self.m, n, rows)

    def expand(self) -> KernelPolynomial:
        """The canonical map: each B_a(x) B_b(y) multiplied out into monomials,
        the y side  sum_b C[b] B_b(y)  on whole rows (`bernstein_rows`), then the
        columns of the result, one row per y exponent, on the x side."""
        y_side = bernstein_rows(self.rows, self.n, self.d)
        x_side = bernstein_rows(zip(*y_side), self.m, self.d)
        y_exponents = [b[1:] for b in self.y_indices]
        terms = {a[1:] + e: c for a, row in zip(self.x_indices, x_side) for e, c in zip(y_exponents, row) if c}
        return KernelPolynomial.from_integers(self.d, terms, self.scale)

    def __repr__(self) -> str:
        return (f"<bernstein-kernel d={self.d} scale={self.scale} "
                f"rows={len(self.y_indices)} columns={len(self.x_indices)}>")


# -- kernel builders ----------------------------------------------------


def kernel_closed(degrees: Sequence[int], d: int) -> DiagonalKernelForm:
    """Diagonal closed form of M_{n_r} o ... o M_{n_1}, degrees outermost first.

    With U_j = sum_{|l|=j} B_l(x) B_l(y), M_n has the kernel (n+d)!/n! U_n, and
    the paper's theorem reads  M_n o U_j = j! (n+d)!/(n+j+d)! sum_k C(n,k) C(j,k) U_k.
    Applied once per operator from the innermost outward, it takes
    scale * sum_j v_j U_j, of top degree J, to the integer weights
        v'_k = C(n,k) sum_j v_j j! C(j,k) (n+J+d)!/(n+j+d)!
    over the scale times (n+d)!/(n+J+d)!: a pair gives the paper's C(m,k) C(n,k).
    """
    degrees, d = [check_degree(n) for n in degrees], check_dimension(d)
    if not degrees:
        raise ValueError("a composition needs at least one degree")
    top, *outer = reversed(degrees)
    weights, num, den = {top: 1}, _FACT[top + d], _FACT[top]
    for n in outer:
        head, top = _FACT[n + top + d], min(n, top)
        lifted = [(j, v * _FACT[j] * (head // _FACT[n + j + d])) for j, v in weights.items()]
        weights = {k: comb(n, k) * sum(v * comb(j, k) for j, v in lifted) for k in range(top + 1)}
        num, den = num * _FACT[n + d], den * head
    return DiagonalKernelForm(d, Fraction(num, den), weights.items())


def kernel_single(n: int, d: int) -> DiagonalKernelForm:
    """Kernel of a single operator M_n, (n+d)!/n! U_n; see `kernel_closed`."""
    return kernel_closed((n,), d)


def kernel_definition_coordinates(degrees: Sequence[int], d: int) -> BernsteinKernelForm:
    """Brute-force kernel of M_{n_r} o ... o M_{n_1} in Bernstein coordinates,
    degrees listed outermost first.

    Iterating the operator definition gives the sum over index chains
    b_r, ..., b_1 with |b_i| = n_i of
        B_{b_r}(x) B_{b_1}(y) prod_i <B_{b_i}, B_{b_{i+1}}> / prod_i <1, B_{b_i}>.
    This is the oracle: it never touches a closed form.  By Dirichlet's
    formula a chain's Gram ratio is the integer
        mult(b_1) mult(b_r) prod_{1<i<r} mult(b_i)^2 prod_i (b_i+b_{i+1})!
    times the one scale
        S = prod_i (n_i+d)!/n_i!  /  prod_i (n_i+n_{i+1}+d)!;
    a single operator (r = 1) has weight 1 on each pair b_r = b_1.  Each
    interior mult(b_i)^2 is split between its two neighbours, and
        mult(b) mult(c) (b+c)! = |b|! |c|! G(b, c),  G(b, c) = prod_v C(b_v+c_v, c_v),
    so the integer is  K prod_i G(b_i, b_{i+1})  with the one constant
    K = prod_i n_i! n_{i+1}!, which goes into the scale S K.  For two
    operators the row C[b] is G(a, b) over the x indices a, and S K is the
    closed form's scale: by Vandermonde in each slot, both sides are one
    matrix.  For each innermost index b_1 the chain is carried outward one
    level at a time as one integer vector over that level's indices; the
    last is the row C[b_1].  All Gram rows G(b, c) between two levels
    are gathered in one call, one slot at a time (`_slot_product_rows`):
    part b_v reads row b_v of the table p -> (k -> C(p+k, k)).  The Gram
    rows between two later levels are shared by every b_1; no matrix over
    a whole chain is ever held.
    """
    degrees, d = [check_degree(n) for n in degrees], check_dimension(d)
    if not degrees:
        raise ValueError("a composition needs at least one degree")
    pairs = list(zip(degrees, degrees[1:]))
    num = prod(_FACT[n + d] for n in degrees) * prod(_FACT[a] * _FACT[b] for a, b in pairs)
    den = prod(_FACT[n] for n in degrees) * prod(_FACT[a + b + d] for a, b in pairs)
    if len(degrees) == 1:
        indices = _multi_indices(degrees[0], d)
        rows = [[int(alpha == beta) for beta in indices] for alpha in indices]
    else:
        table = _binomial_shifts(max(degrees))
        # each level's indices one slot at a time, from b_1 outward
        levels = [_index_slots(n, d) for n in reversed(degrees)]
        # for each b_1, G(b_1, b_2) over every b_2
        rows = _slot_product_rows(levels[0], levels[1], table)
        for before, level in zip(levels[1:], levels[2:]):
            # for each b of this level, its Gram row G(b, c) over the level before
            step = _slot_product_rows(level, before, table)
            rows = [[sum(map(mul, vector, row)) for row in step] for vector in rows]
    return BernsteinKernelForm(d, Fraction(num, den), degrees[0], degrees[-1], rows)


def kernel_definition_twofold(m: int, n: int, d: int) -> BernsteinKernelForm:
    """Brute-force kernel of M_m o M_n; see `kernel_definition_coordinates`."""
    return kernel_definition_coordinates((m, n), d)


def kernel_closed_twofold(m: int, n: int, d: int) -> DiagonalKernelForm:
    """Diagonal closed form of the M_m o M_n kernel; see `kernel_closed`."""
    return kernel_closed((m, n), d)


def kernel_univariate_twofold(m: int, n: int) -> DiagonalKernelForm:
    """The univariate (d=1) two-fold closed form, `kernel_closed_twofold(m, n, 1)`."""
    return kernel_closed_twofold(m, n, 1)


def kernel_legendre(m: int, n: int) -> BernsteinKernelForm:
    """Univariate kernel through its shifted-Legendre expansion, in Bernstein
    coordinates over degrees (m, n).

    K_{m,n} = sum_k  m_(k)/ (m+k+1)_(k) * n_(k)/(n+k+1)_(k) * (2k+1)
              * L_k(x) L_k(y),
    where s_(k) is the falling factorial and L_k is the alternating
    Bernstein combination sum_i (-1)^i C(k,i) B_(k-i,i), i.e. the shifted
    Legendre polynomial on [0,1] up to sign.  Degree elevation
    (`_elevated`) writes L_k = sum_{|a|=m} u_k[a] / C(m,k) B_a with the
    integers  u_k[a] = sum_i (-1)^i C(k,i) C(a, (k-i,i)),  and v_k likewise
    at degree n.  So, with w_k the weight above, the coefficient of
    B_a(x) B_b(y) is
        sum_k w_k / (C(m,k) C(n,k)) * u_k[a] v_k[b]:
    an integer sum over the factors' common denominator D, and scale 1 / D.
    As m_(k) / C(m,k) = k! and (m+k+1)_(k) = (m+k+1)!/(m+1)!, each factor is
    the ratio of integers  (2k+1) k!^2 (m+1)! (n+1)! / ((m+k+1)! (n+k+1)!).
    The columns u_k and v_k are read from `_legendre_column`, which builds
    each once per process, whatever the other degree of each call.
    """
    m, n = check_degree(m), check_degree(n)
    head = _FACT[m + 1] * _FACT[n + 1]
    den, factors = _common_denominator(
        ((2 * k + 1) * _FACT[k] ** 2 * head, _FACT[m + k + 1] * _FACT[n + k + 1])
        for k in range(min(m, n) + 1))
    rows = _outer_products(((factor, _legendre_column(k, m), _legendre_column(k, n))
                            for k, factor in enumerate(factors)), m + 1, n + 1)
    return BernsteinKernelForm(1, Fraction(1, den), m, n, rows)


def kernel_definition_threefold(n3: int, n2: int, n1: int, d: int) -> BernsteinKernelForm:
    """Brute-force kernel of M_n3 o M_n2 o M_n1; see `kernel_definition_coordinates`."""
    return kernel_definition_coordinates((n3, n2, n1), d)


def kernel_closed_threefold(n3: int, n2: int, n1: int) -> DiagonalKernelForm:
    """Univariate (d=1) closed form of M_n3 o M_n2 o M_n1; see `kernel_closed`."""
    return kernel_closed((n3, n2, n1), 1)


def inner_sum_identity(n: int, beta: Sequence[int], y: Point) -> Tuple[Fraction, Fraction]:
    """Both sides of the collapse identity used to diagonalize the kernel, at y:

        sum over |a| = n of  B_a(y) (a+beta)!/a!
          = sum over l <= beta of  C(n, |l|) B_l(y) beta! prod_v C(beta_v, l_v).

    Each side is the integer dot product of its degree-n Bernstein
    coordinates (`_inner_sum_coordinates`) with the basis vector of y.
    """
    n, beta = check_degree(n), check_index(beta)
    alphas, left, right = _inner_sum_coordinates(n, beta)
    q_top, values = bernstein_numerators(y, len(beta) - 1, alphas)
    return (Fraction(sum(map(mul, left, values)), q_top),
            Fraction(sum(map(mul, right, values)), q_top))


def _inner_sum_coordinates(n: int, beta: Tuple[int, ...]) -> Tuple[tuple, tuple, tuple]:
    """(alphas, left, right): both sides of `inner_sum_identity` as integer
    vectors over the degree-n Bernstein basis, alphas its indices in
    `enumerate_multi_indices(n, d)` order.  Nothing is kept: a verify run
    asks for each (n, beta) once.

    The left side is already in that basis: left[i] = (a+beta)!/a! for
    a = alphas[i], which is beta! prod_v C(a_v+beta_v, a_v), gathered one
    slot at a time (`_slot_products`, part v reading row beta_v of the
    table p -> (k -> C(p+k, k))).  On the right, the term of l <= beta has
    the weight W_l = C(n, |l|) beta! prod_v C(beta_v, l_v), and degree
    elevation (`_elevated`) writes its B_l as
    sum_{|a|=n, a>=l} C(a, l)/C(n, |l|) B_a, so  right[i] = sum_l beta! prod_v C(beta_v, l_v) C(a, l).  The weight is
    zero unless l <= beta, and terms with |l| > n vanish, as C(n, |l|) = 0.
    """
    d = len(beta) - 1
    alphas = _multi_indices(n, d)
    beta_fact = prod(map(_FACT.__getitem__, beta))
    tables = map(_binomial_shifts(max(n, *beta)).__getitem__, beta)
    left = [beta_fact * c for c in _slot_products(_index_slots(n, d), tables)]
    right = _elevated(((j, [beta_fact * prod(map(comb, beta, ell))
                            for ell in _multi_indices(j, d)])
                       for j in range(min(n, sum(beta)) + 1)), n, d)
    return alphas, tuple(left), tuple(right)


def to_canonical(form: DiagonalKernelForm) -> KernelPolynomial:
    """Expand a diagonal form into the canonical bivariate map: its
    coordinates at degrees (N, N), N = max(top index degree, 0), multiplied
    out by `BernsteinKernelForm.expand`."""
    top = max(form.max_index_degree(), 0)
    return form.coordinates(top, top).expand()


@lru_cache(maxsize=None)
def _elevation(j: int, m: int, d: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Degree elevation from j to m >= j: one column per index l of degree j.

    Multiplying B_l = mult(l) x^l by 1 = (x_0 + ... + x_d)^(m-j) gives
        B_l = sum_{|a|=m, a>=l} C(a, l) / C(m, j) * B_a,
    with C(a, l) = prod_v C(a_v, l_v).  The column of l lists the pairs
    (i, C(a, l)) over those a, i the position of a in
    `enumerate_multi_indices(m, d)`; the columns follow
    `enumerate_multi_indices(j, d)`.  Built once per (j, m, d).

    The a >= l are l + c over the indices c of degree m - j, and
    C(a_v, l_v) = C(l_v + c_v, c_v), so every column is gathered at once,
    one slot at a time over both levels (`_index_slots`): the values are
    the rows l of `_slot_product_rows` on the table p -> (k -> C(p+k, k))
    (`_binomial_shifts`), and the positions one dict lookup per a, over
    the zipped per-slot sums l_v + c_v.
    """
    indices = _multi_indices(m, d)
    position = dict(zip(indices, range(len(indices))))
    ells, shifts = _index_slots(j, d), _index_slots(m - j, d)
    values = _slot_product_rows(ells, shifts, _binomial_shifts(m))
    # part v of a = l + c for every (l, c) pair, in the order of the rows
    above = zip(*[[part + c for part in parts for c in slot] for parts, slot in zip(ells, shifts)])
    positions = list(map(position.__getitem__, above))
    size = len(shifts[0])
    return tuple(tuple(zip(positions[start:start + size], row))
                 for start, row in zip(range(0, len(positions), size), values))


@lru_cache(maxsize=None)
def _legendre_column(k: int, m: int) -> Tuple[Tuple[int, int], ...]:
    """u_k, the degree-m coordinates of C(m, k) L_k (`kernel_legendre`), as
    sparse (position, integer) pairs.  Built once per (k, m)."""
    # L_k over enumerate_multi_indices(k, 1), whose indices are (k-i, i) in ascending i
    dense = _elevated([(k, [(-1) ** i * comb(k, i) for i in range(k + 1)])], m, 1)
    return tuple((i, u) for i, u in enumerate(dense) if u)


def _elevated(blocks: Iterable[Tuple[int, Sequence[int]]], m: int, d: int) -> List[int]:
    """Dense degree-m coordinates of sum_j C(m, j) sum_{|l|=j} c_l B_l for blocks
    (j, [c_l in `enumerate_multi_indices(j, d)` order]), j <= m: through the
    `_elevation` columns, entry i is sum_l c_l C(a, l), a the i-th index of degree m."""
    out = [0] * comb(m + d, d)
    for j, coefficients in blocks:
        for c, column in zip(coefficients, _elevation(j, m, d)):
            if c:
                for i, e in column:
                    out[i] += c * e
    return out


def _outer_products(terms: Iterable[Tuple[int, Sequence[Tuple[int, int]],
                                           Sequence[Tuple[int, int]]]],
                    width: int, height: int) -> List[List[int]]:
    """The integer matrix rows[i][k] = sum W x_k y_i over (W, x, y) triples:
    an integer weight W and two sparse vectors x, y of (position, integer)
    pairs, x over the width columns and y over the height rows."""
    rows = [[0] * width for _ in range(height)]
    for w, x_column, y_column in terms:
        for i, e in y_column:
            row, e = rows[i], w * e
            for k, c in x_column:
                row[k] += e * c
    return rows


def first_coordinate_difference(lhs: BernsteinKernelForm,
                                rhs: BernsteinKernelForm) -> Optional[dict]:
    """First coefficient, row by row, where two kernels on one basis differ.

    With lhs.scale = p/q and rhs.scale = p'/q', the coefficients of
    B_a(x) B_b(y) agree exactly when  p q' C[b][a] = p' q C'[b][a], so the
    rows are compared as integers, with the two factors reduced by their
    gcd.  A side whose factor is 1 is compared as it is, so equal positive
    scales multiply no row; two zero scales compare rows of zeros, so only
    their lengths can differ.  Returns None when the kernels are identical;
    otherwise a witness with the indices a and b and both coefficients, for
    failure reports.  Forms of other degrees, row counts or row lengths are
    not on one basis: ValueError.
    """
    if (lhs.d, lhs.m, lhs.n, len(lhs.rows)) == (rhs.d, rhs.m, rhs.n, len(rhs.rows)):
        p = lhs.scale.numerator * rhs.scale.denominator
        q = rhs.scale.numerator * lhs.scale.denominator
        g = gcd(p, q) or 1
        p, q = p // g, q // g
        for b, left, right in zip(lhs.y_indices, lhs.rows, rhs.rows):
            if ((left if p == 1 else [p * c for c in left])
                    != (right if q == 1 else [q * c for c in right])):
                for a, u, v in zip(lhs.x_indices, left, right):
                    if p * u != q * v:
                        return {"a": list(a), "b": list(b), "lhs": format_rational(lhs.scale * u),
                                "rhs": format_rational(rhs.scale * v)}
                break  # the rows differ in length alone
        else:
            return None
    raise ValueError("kernels in Bernstein coordinates are compared on one basis")


def first_kernel_difference(lhs: KernelPolynomial, rhs: KernelPolynomial) -> Optional[dict]:
    """First monomial (in canonical order) where two kernels disagree.

    Returns None when the kernels are identical; otherwise the witness of
    `difference_witness`, its key split into the exponents of x and of y.
    """
    found = difference_witness(lhs, rhs)
    if found is None:
        return None
    exp = found.pop("exp")
    return {"exp_x": exp[:lhs.d], "exp_y": exp[lhs.d:], **found}
