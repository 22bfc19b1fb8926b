"""Integral kernels of composed Bernstein-Durrmeyer operators.

A composition M_{n_r} o ... o M_{n_1} acts by integration against a
bivariate polynomial kernel K(x, y).  This module builds that kernel in
independent ways:

* the definitional form: `kernel_definition_coordinates`, a brute-force
  sum over Bernstein index chains b_r, ..., b_1 of any length, straight
  from the operator definition -- the oracle.  It yields one integer
  coefficient per basis product B_{b_r}(x) B_{b_1}(y), a
  `BernsteinKernelForm`, as do `kernel_definition_twofold` and
  `_threefold`;
* diagonal closed forms: a factorial prefactor times a short sum of
  products B_l(x) B_l(y) over a single multi-index l, with a weight that
  depends on l only through its degree |l|; one weight per degree is stored;
* for d = 1, the shifted-Legendre expansion `kernel_legendre`, a weighted
  sum of products L_k(x) L_k(y), also written as a `BernsteinKernelForm`.

Claimed identities are decided in Bernstein coordinates.  The products
B_a(x) B_b(y), |a| = m and |b| = n, form a basis of the kernels of those
degrees, so two kernels are equal exactly when their coefficient matrices
in that basis are: `DiagonalKernelForm.coordinates` and `kernel_legendre`
write a sum of outer products there by degree elevation,
`BernsteinKernelForm.elevate` raises either side of a form to a higher
degree, and `first_coordinate_difference` compares two forms entry by
entry with their scales cross-multiplied.  The collapse lemma behind the
diagonal forms is decided the same way: `_inner_sum_coordinates` writes
both of its sides over the degree-n Bernstein basis, and
`inner_sum_identity` evaluates them at a point.  Every form also canonicalizes
to a sparse polynomial in the 2d variables x_1..x_d, y_1..y_d (the
dependent coordinates x_0, y_0 eliminated), the map `to_canonical` and
`BernsteinKernelForm.expand` build for output.

The definitional builder and canonicalization accumulate Python ints and
apply one rational scale per output coefficient at the end.  They use
Dirichlet's formula  int x^mu = mu! / (|mu|+d)!  on barycentric exponents
and mult(a) = |a|!/a!, the coefficient of x^a in B_a.  Factorials,
multinomials and index enumerations are read from the shared tables of
`bdk.combinat`; no builder keeps its own.  Evaluation is exact integer
arithmetic too, and a diagonal form or a form in Bernstein coordinates is
evaluated as it stands, without expanding it into the canonical map.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .combinat import (
    _FACT,
    _multi_indices,
    _multinomial,
    check_degree,
    check_dimension,
    check_index,
    check_rational,
    clear_denominators,
    falling_factorial,
    format_rational,
)
from .polynomials import (
    CartesianPolynomial,
    Scalar,
    _dirichlet_terms,
    bernstein_basis,
    bernstein_numerators,
    bernstein_sum,
    check_polynomial,
    difference_witness,
    integer_point,
    monomial_numerators,
)

__all__ = [
    "KernelPolynomial",
    "DiagonalKernelForm",
    "BernsteinKernelForm",
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


class KernelPolynomial(CartesianPolynomial):
    """Canonical kernel K(x, y): a polynomial in x_1..x_d, y_1..y_d.

    nums maps flat 2d-tuples, x's d exponents then y's, to nonzero integer
    numerators over the one denominator den; d is still the simplex
    dimension.  Arithmetic, equality and hashing are those of
    CartesianPolynomial, so equality of kernels is literal map equality.
    A kernel is always its built map: one kept in another basis has its
    own type, `DiagonalKernelForm` or `BernsteinKernelForm`, and becomes a
    map only through `to_canonical` or `BernsteinKernelForm.expand`.
    """

    __slots__ = ()
    BLOCKS = 2

    @classmethod
    def outer(cls, fx: CartesianPolynomial, fy: CartesianPolynomial) -> "KernelPolynomial":
        """The separable kernel fx(x) * fy(y)."""
        check_polynomial(fx)
        check_polynomial(fy)
        if fx.d != fy.d:
            raise ValueError("dimension mismatch in outer product")
        return cls._make(fx.d, fx.den * fy.den, _add_outer({}, fx.nums, fy.nums))

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
        sum_ey C_e ey! (N+d)!/(|ey|+d)!  over the one denominator D (N+d)!.
        """
        d, nums = self.d, self.nums
        top = max((sum(e[d:]) for e in nums), default=0)
        values = _dirichlet_terms(((e[d:], c) for e, c in nums.items()), d, top)
        acc: Dict[Tuple[int, ...], int] = {}
        for e, w in zip(nums, values):
            ex = e[:d]
            acc[ex] = acc.get(ex, 0) + w
        return CartesianPolynomial.from_integers(d, acc, Fraction(1, self.den * _FACT[top + d]))

    def __repr__(self) -> str:
        return f"<kernel d={self.d} terms={len(self.nums)}>"

    def to_json_dict(self) -> dict:
        d = self.d
        return {
            "d": d,
            "form": "canonical",
            "scale": "1",
            "terms": [
                {"exp_x": list(e[:d]), "exp_y": list(e[d:]), "coef": format_rational(c)}
                for e, c in self.sorted_terms()
            ],
        }


class DiagonalKernelForm:
    """Structured kernel: scale * sum over degrees j of w_j * sum_{|l|=j} B_l(x) B_l(y).

    The whole point of the closed-form results is that composition kernels
    admit this shape, with only matching-index basis products and a weight
    that depends on the index only through its degree.  terms holds the
    (j, w_j) pairs in ascending j, each weight nonzero.
    """

    __slots__ = ("d", "scale", "terms")

    def __init__(self, d: int, scale, terms):
        self.d = check_dimension(d)
        self.scale = check_rational(scale, "scale")
        self.terms = tuple(sorted(((check_degree(j), check_rational(w, "weight"))
                                   for j, w in terms),
                                  key=lambda t: t[0]))
        degrees = [j for j, _ in self.terms]
        if len(set(degrees)) != len(degrees):
            raise ValueError("diagonal degrees must not repeat")
        if not all(w for _, w in self.terms):
            raise ValueError("diagonal weights must be nonzero")

    def max_index_degree(self) -> int:
        """Largest |l| appearing; -1 when the form is empty."""
        return self.terms[-1][0] if self.terms else -1

    def coordinates(self, m: int, n: int) -> "BernsteinKernelForm":
        """This kernel in the product basis B_a(x) B_b(y), |a| = m and |b| = n.

        Degree elevation (`_elevation`) writes each B_l of degree j <= m as
        sum_{|a|=m, a>=l} C(a, l)/C(m, j) B_a, so the coefficient of
        B_a(x) B_b(y) is
            scale * sum_{|l| <= min(m, n)} w_|l| / (C(m, |l|) C(n, |l|)) * C(a, l) C(b, l).
        With those degree factors over a common denominator D, each l adds
        its integer factor times the outer product of its two elevation
        columns, and the scale is scale / D.  Only the weights are read.
        The indices are listed as `kernel_definition_coordinates((m, n), d)`
        lists them.
        """
        m, n = check_degree(m), check_degree(n)
        top = self.max_index_degree()
        if top > min(m, n):
            raise ValueError(f"a diagonal form of index degree {top} has no "
                             f"coordinates at degrees ({m}, {n})")
        d = self.d
        den, factors = clear_denominators(w / (comb(m, j) * comb(n, j)) for j, w in self.terms)
        rows = _outer_products(((factor, x_column, y_column)
                                for (j, _), factor in zip(self.terms, factors)
                                for x_column, y_column in zip(_elevation(j, m, d),
                                                              _elevation(j, n, d))),
                               comb(m + d, d), comb(n + d, d))
        return BernsteinKernelForm(d, self.scale / den, m, n, rows)

    def evaluate(self, x: Point, y: Point) -> Fraction:
        (row,) = self.evaluate_grid([x], [y])
        return row[0]

    def evaluate_grid(self, xs: Sequence[Point],
                      ys: Sequence[Point]) -> Iterator[List[Fraction]]:
        """Yield [K(x, y) for y in ys] for each x in xs.

        A point p = A / q in barycentric integer form has the integer vector
        v_l = prod A_v^l_v q^(top-|l|) = q^top B_l(p) / mult(l), top = max |l|,
        computed once per point.  With w_j = W_j / D over a common denominator
        and mult(l)^2 folded into the weights once, each value is the one sum
            K(x, y) = scale * sum_l W_|l| mult(l)^2 v_l(x) v_l(y) / (D qx^top qy^top).
        """
        w_den, degree_weights = clear_denominators(w for _, w in self.terms)
        indices: List[Tuple[int, ...]] = []
        weights: List[int] = []
        for (j, _), w in zip(self.terms, degree_weights):
            block = _multi_indices(j, self.d)
            indices += block
            weights += [w * _multinomial(ell) ** 2 for ell in block]
        num, den = self.scale.numerator, self.scale.denominator * w_den
        columns = [monomial_numerators(*integer_point(y, self.d), indices) for y in ys]
        for x in xs:
            qx_top, vx = monomial_numerators(*integer_point(x, self.d), indices)
            wx = list(map(mul, weights, vx))
            yield [Fraction(num * sum(map(mul, wx, vy)), den * qx_top * qy_top)
                   for qy_top, vy in columns]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DiagonalKernelForm):
            return (self.d, self.scale, self.terms) == (other.d, other.scale, other.terms)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.scale, self.terms))

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
        """The canonical map: each B_a(x) B_b(y) multiplied out into monomials.

        For each row b the x side  sum_a C[b][a] B_a(x)  is multiplied out once
        (`bernstein_sum`) and its outer product with B_b(y) accumulated, each
        basis looked up once per side; the one scale is applied at the end.
        """
        x_terms = [list(bernstein_basis(a).nums.items()) for a in self.x_indices]
        acc: Dict[Tuple[int, ...], int] = {}
        for row, y_basis in zip(self.rows, map(bernstein_basis, self.y_indices)):
            x_side = bernstein_sum((c, t) for c, t in zip(row, x_terms) if c)
            _add_outer(acc, x_side, y_basis.nums)
        return KernelPolynomial.from_integers(self.d, acc, self.scale)

    def __repr__(self) -> str:
        return (f"<bernstein-kernel d={self.d} scale={self.scale} "
                f"rows={len(self.y_indices)} columns={len(self.x_indices)}>")


# -- kernel builders ----------------------------------------------------


def kernel_single(n: int, d: int) -> DiagonalKernelForm:
    """Kernel of a single operator M_n.

    K_n(x,y) = sum over |a|=n of B_a(x) B_a(y) / <1, B_a>; since <1, B_a>
    depends only on the degree, this is (n+d)!/n! times the unit-weight
    diagonal sum.
    """
    n, d = check_degree(n), check_dimension(d)
    scale = Fraction(_FACT[n + d], _FACT[n])
    return DiagonalKernelForm(d, scale, [(n, 1)])


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
    a single operator (r = 1) has weight 1 on each pair b_r = b_1.  For each
    innermost index b_1 the chain weights are carried outward one level at
    a time as one integer vector over that level's indices; the last vector
    is the row C[b_1] over the outermost indices.  The Gram rows between two
    later levels are shared by every b_1; no matrix over a whole chain is
    ever held.
    """
    degrees = [check_degree(n) for n in degrees]
    if not degrees:
        raise ValueError("a composition needs at least one degree")
    d = check_dimension(d)
    outer = _multi_indices(degrees[0], d)
    innermost = _multi_indices(degrees[-1], d)
    if len(degrees) == 1:
        rows = [[int(alpha == beta) for beta in outer] for alpha in innermost]
    else:
        # the levels after b_1, outward, as (b, weight) pairs: interior indices
        # weigh mult(b)^2, the outer ones mult(b)
        levels = [[(beta, _multinomial(beta) ** 2) for beta in _multi_indices(n, d)]
                  for n in degrees[-2:0:-1]]
        levels.append([(beta, _multinomial(beta)) for beta in outer])
        # prod(map(get, map(add, a, b))) is (a+b)! = prod_v (a_v+b_v)! for indices a, b
        get = _FACT.__getitem__
        # for each index b of a later level: (its weight, [(b+c)! for c in the level before])
        steps = [[(w, [prod(map(get, map(add, beta, c))) for c, _ in before])
                  for beta, w in level]
                 for before, level in zip(levels, levels[1:])]
        rows = []
        for alpha in innermost:
            mult_a = _multinomial(alpha)
            vector = [mult_a * w * prod(map(get, map(add, alpha, beta))) for beta, w in levels[0]]
            for step in steps:
                vector = [w * sum(map(mul, vector, row)) for w, row in step]
            rows.append(vector)
    num = den = 1
    for n in degrees:
        num *= _FACT[n + d]
        den *= _FACT[n]
    for a, b in zip(degrees, degrees[1:]):
        den *= _FACT[a + b + d]
    return BernsteinKernelForm(d, Fraction(num, den), degrees[0], degrees[-1], rows)


def kernel_definition_twofold(m: int, n: int, d: int) -> BernsteinKernelForm:
    """Brute-force kernel of M_m o M_n; see `kernel_definition_coordinates`."""
    return kernel_definition_coordinates((m, n), d)


def kernel_closed_twofold(m: int, n: int, d: int) -> DiagonalKernelForm:
    """Diagonal closed form of the M_m o M_n kernel.

    scale = (m+d)! (n+d)! / (m+n+d)!, weight C(m,|l|) C(n,|l|) for every
    multi-index l; the binomials cut the sum off at |l| = min(m, n).
    """
    m, n, d = check_degree(m), check_degree(n), check_dimension(d)
    scale = Fraction(_FACT[m + d] * _FACT[n + d], _FACT[m + n + d])
    return DiagonalKernelForm(d, scale, [(k, comb(m, k) * comb(n, k))
                                         for k in range(min(m, n) + 1)])


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
    """
    m, n = check_degree(m), check_degree(n)
    den, factors = clear_denominators(
        Fraction(falling_factorial(m, k) * falling_factorial(n, k) * (2 * k + 1),
                 falling_factorial(m + k + 1, k) * falling_factorial(n + k + 1, k)
                 * comb(m, k) * comb(n, k))
        for k in range(min(m, n) + 1))
    # L_k over enumerate_multi_indices(k, 1), whose indices are (k-i, i) in ascending i
    legendre = [[(k, [(-1) ** i * comb(k, i) for i in range(k + 1)])] for k in range(len(factors))]
    rows = _outer_products(((factor, list(enumerate(_elevated(legendre[k], m, 1))),
                             list(enumerate(_elevated(legendre[k], n, 1))))
                            for k, factor in enumerate(factors)), m + 1, n + 1)
    return BernsteinKernelForm(1, Fraction(1, den), m, n, rows)


def kernel_definition_threefold(n3: int, n2: int, n1: int, d: int) -> BernsteinKernelForm:
    """Brute-force kernel of M_n3 o M_n2 o M_n1 (innermost n1); see
    `kernel_definition_coordinates`."""
    return kernel_definition_coordinates((n3, n2, n1), d)


def kernel_closed_threefold(n3: int, n2: int, n1: int) -> DiagonalKernelForm:
    """Univariate (d=1) diagonal closed form for a three-operator composition.

    scale = (n3+1)! (n2+1)! (n1+1)! (n3+n2+n1+1)!
            / ((n3+n2+1)! (n3+n1+1)! (n2+n1+1)!),
    weight_k = C(n3,k) C(n2,k) C(n1,k) / C(n3+n2+n1+1, k); symmetric in
    the three degrees.
    """
    n3, n2, n1 = check_degree(n3), check_degree(n2), check_degree(n1)
    total = n3 + n2 + n1
    scale = Fraction(_FACT[n3 + 1] * _FACT[n2 + 1] * _FACT[n1 + 1] * _FACT[total + 1],
                     _FACT[n3 + n2 + 1] * _FACT[n3 + n1 + 1] * _FACT[n2 + n1 + 1])
    return DiagonalKernelForm(1, scale, [
        (k, Fraction(comb(n3, k) * comb(n2, k) * comb(n1, k), comb(total + 1, k)))
        for k in range(min(n3, n2, n1) + 1)])


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
    a = alphas[i].  On the right, the term of l <= beta has the weight
    W_l = C(n, |l|) beta! prod_v C(beta_v, l_v), and degree elevation
    (`_elevated`) writes its B_l as sum_{|a|=n, a>=l} C(a, l)/C(n, |l|) B_a,
    so  right[i] = sum_l beta! prod_v C(beta_v, l_v) C(a, l).  The weight is
    zero unless l <= beta, and terms with |l| > n vanish, as C(n, |l|) = 0.
    """
    d = len(beta) - 1
    alphas = _multi_indices(n, d)
    left = [prod(_FACT[a + b] // _FACT[a] for a, b in zip(alpha, beta)) for alpha in alphas]
    beta_fact = prod(map(_FACT.__getitem__, beta))
    right = _elevated(((j, [beta_fact * prod(map(comb, beta, ell))
                            for ell in _multi_indices(j, d)])
                       for j in range(min(n, sum(beta)) + 1)), n, d)
    return alphas, tuple(left), tuple(right)


def to_canonical(form: DiagonalKernelForm) -> KernelPolynomial:
    """Expand a diagonal form into the canonical bivariate map.

    With the weights over their common denominator D, w_j = W_j / D, the
    map is the integer sum  sum_l W_|l| b_l[ex] b_l[ey]  over the integer
    coefficients b_l of B_l, times the one scale  scale / D.
    """
    den, weights = clear_denominators(w for _, w in form.terms)
    acc: Dict[Tuple[int, ...], int] = {}
    for (j, _), w in zip(form.terms, weights):
        for basis in map(bernstein_basis, _multi_indices(j, form.d)):
            _add_outer(acc, bernstein_sum([(w, basis.nums.items())]), basis.nums)
    return KernelPolynomial.from_integers(form.d, acc, form.scale / den)


@lru_cache(maxsize=None)
def _elevation(j: int, m: int, d: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Degree elevation from j to m >= j: one column per index l of degree j.

    Multiplying B_l = mult(l) x^l by 1 = (x_0 + ... + x_d)^(m-j) gives
        B_l = sum_{|a|=m, a>=l} C(a, l) / C(m, j) * B_a,
    with C(a, l) = prod_v C(a_v, l_v).  The column of l lists the pairs
    (i, C(a, l)) over those a, i the position of a in
    `enumerate_multi_indices(m, d)`; the columns follow
    `enumerate_multi_indices(j, d)`.  Built once per (j, m, d).
    """
    position = {a: i for i, a in enumerate(_multi_indices(m, d))}
    shifts = _multi_indices(m - j, d)
    columns = []
    for ell in _multi_indices(j, d):
        above = [tuple(map(add, ell, c)) for c in shifts]
        columns.append(tuple((position[a], prod(map(comb, a, ell))) for a in above))
    return tuple(columns)


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


def _add_outer(acc: Dict, x_terms: Dict, y_terms: Dict) -> Dict:
    """Add the outer product x_terms(x) y_terms(y) of two integer maps to acc; keys x, then y."""
    y_items = list(y_terms.items())  # a list is faster to loop over than a dict view
    for ex, cx in x_terms.items():
        for ey, cy in y_items:
            key = ex + ey
            acc[key] = acc.get(key, 0) + cx * cy
    return acc


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
    rows are compared as integers.  Returns None when the kernels are
    identical; otherwise a witness with the indices a and b and both
    coefficients, for failure reports.  Forms of other degrees, row counts
    or row lengths are not on one basis: ValueError.
    """
    if (lhs.d, lhs.m, lhs.n, len(lhs.rows)) == (rhs.d, rhs.m, rhs.n, len(rhs.rows)):
        p = lhs.scale.numerator * rhs.scale.denominator
        q = rhs.scale.numerator * lhs.scale.denominator
        g = gcd(p, q) or 1
        p, q = p // g, q // g
        for b, left, right in zip(lhs.y_indices, lhs.rows, rhs.rows):
            if left != right if p == q else [p * c for c in left] != [q * c for c in right]:
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
