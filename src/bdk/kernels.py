"""Integral kernels of composed Bernstein-Durrmeyer operators.

A composition M_m o M_n acts by integration against a bivariate
polynomial kernel K_{m,n}(x, y).  This module builds that kernel two
independent ways:

* definitional forms: brute-force double (or triple) sums over Bernstein
  index pairs, straight from the operator definition -- the oracle;
* diagonal closed forms: a factorial prefactor times a short sum of
  products B_l(x) B_l(y) over a single multi-index l, with a weight that
  depends on l only through its degree |l|; one weight per degree is stored.

Every form canonicalizes to a sparse polynomial in the 2d variables
x_1..x_d, y_1..y_d (the dependent coordinates x_0, y_0 eliminated), so
claimed identities are decided by literal map equality rather than
sampling.

The definitional builders and canonicalization accumulate Python ints and
apply one rational scale per output coefficient at the end.  They use
Dirichlet's formula  int x^mu = mu! / (|mu|+d)!  on barycentric exponents
and mult(a) = |a|!/a!, the coefficient of x^a in B_a.  Evaluation is exact
integer arithmetic too, and a diagonal form is evaluated as it stands,
without expanding it into the canonical map.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian_product
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .combinat import (
    FactorialTable,
    binomial,
    check_dimension,
    check_index,
    clear_denominators,
    enumerate_multi_indices,
    factorial,
    falling_factorial,
    format_rational,
    index_factorial,
    parse_rational,
    table_multinomial,
)
from .polynomials import (
    BarycentricPoint,
    CartesianPolynomial,
    _dirichlet_terms,
    as_point,
    bernstein_basis,
    check_polynomial,
    monomial_numerators,
)

__all__ = [
    "KernelPolynomial",
    "DiagonalKernelForm",
    "kernel_single",
    "kernel_definition_twofold",
    "kernel_closed_twofold",
    "kernel_univariate_twofold",
    "kernel_legendre",
    "kernel_definition_threefold",
    "kernel_closed_threefold",
    "inner_sum_identity",
    "to_canonical",
    "first_kernel_difference",
]

PointLike = Union[BarycentricPoint, "list[Fraction]", tuple]


class KernelPolynomial(CartesianPolynomial):
    """Canonical kernel K(x, y): a polynomial in x_1..x_d, y_1..y_d.

    terms maps flat 2d-tuples, x's d exponents then y's, to nonzero
    Fraction coefficients; d is still the simplex dimension.  Arithmetic,
    equality and hashing are those of CartesianPolynomial, so equality of
    kernels is literal map equality.
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
        return cls._from_terms(fx.d, {ex + ey: cx * cy
                                      for ex, cx in fx.terms.items()
                                      for ey, cy in fy.terms.items()})

    def transpose(self) -> "KernelPolynomial":
        """Swap the roles of x and y."""
        d = self.d
        return self._from_terms(d, {e[d:] + e[:d]: c for e, c in self.terms.items()})

    def evaluate(self, x: PointLike, y: PointLike) -> Fraction:
        """K(x, y) = sum C x^ex y^ey / D over the integer coefficients C = D * coef.

        Each block is homogenised to its own top degree (see
        `monomial_numerators`), so the sum is over integers and one Fraction
        is built at the end.
        """
        d = self.d
        qx, x_bary = as_point(x, d).integer_form()
        qy, y_bary = as_point(y, d).integer_form()
        den, coefs = clear_denominators(self.terms.values())
        x_keys = list(dict.fromkeys(e[:d] for e in self.terms))
        y_keys = list(dict.fromkeys(e[d:] for e in self.terms))
        qx_top, x_values = monomial_numerators(qx, x_bary[1:], x_keys)
        qy_top, y_values = monomial_numerators(qy, y_bary[1:], y_keys)
        xv, yv = dict(zip(x_keys, x_values)), dict(zip(y_keys, y_values))
        total = sum(c * xv[e[:d]] * yv[e[d:]] for e, c in zip(self.terms, coefs))
        return Fraction(total, den * qx_top * qy_top)

    def integrate_y(self) -> CartesianPolynomial:
        """Integrate the y block over the simplex, leaving a polynomial in x.

        For a stochastic kernel this must come out as the constant 1.  With
        the coefficients over their common denominator D and N the top y
        degree, Dirichlet's formula makes the x^ex coefficient the integer
        sum_ey C ey! (N+d)!/(|ey|+d)!  times the one scale 1 / (D (N+d)!).
        """
        d = self.d
        den, coefs = clear_denominators(self.terms.values())
        fact = FactorialTable()
        top = max((sum(e[d:]) for e in self.terms), default=0)
        values = _dirichlet_terms(((e[d:], c) for e, c in zip(self.terms, coefs)), d, top, fact)
        acc: Dict[Tuple[int, ...], int] = {}
        for e, w in zip(self.terms, values):
            ex = e[:d]
            acc[ex] = acc.get(ex, 0) + w
        return CartesianPolynomial.from_integers(d, acc, Fraction(1, den * fact[top + d]))

    def __repr__(self) -> str:
        return f"<kernel d={self.d} terms={len(self.terms)}>"

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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "KernelPolynomial":
        if obj.get("form") != "canonical":
            raise ValueError("expected a canonical-form kernel object")
        d = check_dimension(obj["d"])
        terms = {}
        for t in obj["terms"]:
            ex, ey = tuple(t["exp_x"]), tuple(t["exp_y"])
            if len(ex) != d or len(ey) != d:
                raise ValueError("kernel exponent tuples must have d entries each")
            terms[ex + ey] = parse_rational(t["coef"])
        scale = parse_rational(obj.get("scale", "1"))
        return cls(d, terms).scale(scale) if scale != 1 else cls(d, terms)


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
        self.scale = Fraction(scale)
        self.terms = tuple(sorted(((int(j), Fraction(w)) for j, w in terms), key=lambda t: t[0]))
        degrees = [j for j, _ in self.terms]
        if degrees and degrees[0] < 0:
            raise ValueError("diagonal degrees must be >= 0")
        if len(set(degrees)) != len(degrees):
            raise ValueError("diagonal degrees must not repeat")
        if not all(w for _, w in self.terms):
            raise ValueError("diagonal weights must be nonzero")

    def max_index_degree(self) -> int:
        """Largest |l| appearing; -1 when the form is empty."""
        return self.terms[-1][0] if self.terms else -1

    def with_scale(self, scale) -> "DiagonalKernelForm":
        """Copy with a replaced prefactor (used by mutation self-tests)."""
        return DiagonalKernelForm(self.d, scale, self.terms)

    def evaluate(self, x: PointLike, y: PointLike) -> Fraction:
        (row,) = self.evaluate_grid([x], [y])
        return row[0]

    def evaluate_grid(self, xs: Sequence[PointLike],
                      ys: Sequence[PointLike]) -> Iterator[List[Fraction]]:
        """Yield [K(x, y) for y in ys] for each x in xs.

        A point p = A / q in barycentric integer form has the integer basis
        vector  v_l = q^top B_l(p) = mult(l) prod A_v^l_v q^(top-|l|),
        top = max |l|, computed once per point.  With w_j = W_j / D over a
        common denominator, each value is the one integer dot product
            K(x, y) = scale * sum_l W_|l| v_l(x) v_l(y) / (D qx^top qy^top).
        """
        fact = FactorialTable()
        w_den, degree_weights = clear_denominators(w for _, w in self.terms)
        indices: List[Tuple[int, ...]] = []
        weights: List[int] = []
        for (j, _), w in zip(self.terms, degree_weights):
            block = enumerate_multi_indices(j, self.d)
            indices += block
            weights += [w] * len(block)
        mults = [table_multinomial(parts, fact) for parts in indices]
        num, den = self.scale.numerator, self.scale.denominator * w_den

        def vector(pt: PointLike) -> Tuple[int, List[int]]:
            q, bary = as_point(pt, self.d).integer_form()
            q_top, values = monomial_numerators(q, bary, indices)
            return q_top, list(map(mul, mults, values))

        columns = [vector(y) for y in ys]
        for x in xs:
            qx_top, vx = vector(x)
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


# -- kernel builders ----------------------------------------------------


def kernel_single(n: int, d: int) -> DiagonalKernelForm:
    """Kernel of a single operator M_n.

    K_n(x,y) = sum over |a|=n of B_a(x) B_a(y) / <1, B_a>; since <1, B_a>
    depends only on the degree, this is (n+d)!/n! times the unit-weight
    diagonal sum.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    check_dimension(d)
    scale = Fraction(factorial(n + d), factorial(n))
    return DiagonalKernelForm(d, scale, [(n, 1)])


def _integer_basis(n: int, d: int, fact: FactorialTable):
    """(a, mult(a), integer terms of B_a) for every |a| = n."""
    return [(alpha, table_multinomial(alpha, fact),
             [(exps, c.numerator) for exps, c in bernstein_basis(alpha).terms.items()])
            for alpha in enumerate_multi_indices(n, d)]


def _outer_sum(weighted) -> Dict[Tuple[int, ...], int]:
    """sum W b[ex] b[ey] over (W, b) pairs: integer weights W and the
    (exponents, integer coefficient) terms b of one polynomial each."""
    acc: Dict[Tuple[int, ...], int] = {}
    for w, terms in weighted:
        for ex, cx in terms:
            cx *= w
            for ey, cy in terms:
                key = ex + ey
                acc[key] = acc.get(key, 0) + cx * cy
    return acc


def kernel_definition_twofold(m: int, n: int, d: int) -> KernelPolynomial:
    """Brute-force kernel of M_m o M_n from the operator definition.

    Expands  sum_{|b|=m} sum_{|a|=n} B_a(y) B_b(x)
             * int B_a B_b / (<1,B_a> <1,B_b>)
    term by term.  This is the oracle: it never touches the closed form.
    By Dirichlet's formula the Gram ratio is the integer
    mult(a) mult(b) (a+b)! times the one scale
        S2 = (m+d)! (n+d)! / (m! n! (m+n+d)!),
    so the double sum runs in integers and S2 is applied once per term.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    check_dimension(d)
    fact = FactorialTable()
    x_side = _integer_basis(m, d, fact)
    acc: Dict[Tuple[int, ...], int] = {}
    for alpha, mult_a, y_terms in _integer_basis(n, d, fact):
        inner: Dict[Tuple[int, ...], int] = {}
        for beta, mult_b, x_terms in x_side:
            c = mult_b
            for a, b in zip(alpha, beta):
                c *= fact[a + b]
            for ex, cx in x_terms:
                inner[ex] = inner.get(ex, 0) + c * cx
        for ey, cy in y_terms:
            cy *= mult_a
            for ex, cx in inner.items():
                key = ex + ey
                acc[key] = acc.get(key, 0) + cx * cy
    scale = Fraction(fact[m + d] * fact[n + d], fact[m] * fact[n] * fact[m + n + d])
    return KernelPolynomial.from_integers(d, acc, scale)


def kernel_closed_twofold(m: int, n: int, d: int) -> DiagonalKernelForm:
    """Diagonal closed form of the M_m o M_n kernel.

    scale = (m+d)! (n+d)! / (m+n+d)!, weight C(m,|l|) C(n,|l|) for every
    multi-index l; the binomials cut the sum off at |l| = min(m, n).
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    check_dimension(d)
    scale = Fraction(factorial(m + d) * factorial(n + d), factorial(m + n + d))
    return DiagonalKernelForm(d, scale, [(k, binomial(m, k) * binomial(n, k))
                                         for k in range(min(m, n) + 1)])


def kernel_univariate_twofold(m: int, n: int) -> DiagonalKernelForm:
    """Univariate (d=1) closed form from the classical sum over degree k,
    written out on its own rather than through the multivariate builder:
    scale (m+1)! (n+1)! / (m+n+1)!, weight C(m,k) C(n,k) at degree k.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    scale = Fraction(factorial(m + 1) * factorial(n + 1), factorial(m + n + 1))
    return DiagonalKernelForm(1, scale, [(k, binomial(m, k) * binomial(n, k))
                                         for k in range(min(m, n) + 1)])


def kernel_legendre(m: int, n: int) -> KernelPolynomial:
    """Univariate kernel through its shifted-Legendre expansion.

    K_{m,n} = sum_k  m_(k)/ (m+k+1)_(k) * n_(k)/(n+k+1)_(k) * (2k+1)
              * L_k(x) L_k(y),
    where s_(k) is the falling factorial and L_k is the alternating
    Bernstein combination sum_i (-1)^i C(k,i) p_{k,i}, i.e. the shifted
    Legendre polynomial on [0,1] up to sign.  Returned canonicalized.
    Each L_k has integer coefficients; with the weights over their common
    denominator D the kernel is an integer sum times the one scale 1 / D.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    top = min(m, n)
    den, weights = clear_denominators(
        Fraction(falling_factorial(m, k) * falling_factorial(n, k) * (2 * k + 1),
                 falling_factorial(m + k + 1, k) * falling_factorial(n + k + 1, k))
        for k in range(top + 1))
    fact = FactorialTable()
    legendre = []
    for k in range(top + 1):
        coefs: Dict[Tuple[int, ...], int] = {}
        # _integer_basis lists B_(k-i, i) in ascending i
        for i, (_, _, terms) in enumerate(_integer_basis(k, 1, fact)):
            c_i = -binomial(k, i) if i % 2 else binomial(k, i)
            for e, c in terms:
                coefs[e] = coefs.get(e, 0) + c_i * c
        legendre.append(list(coefs.items()))
    return KernelPolynomial.from_integers(1, _outer_sum(zip(weights, legendre)), Fraction(1, den))


def kernel_definition_threefold(n3: int, n2: int, n1: int, d: int) -> KernelPolynomial:
    """Brute-force kernel of M_n3 o M_n2 o M_n1 (innermost degree n1).

    Iterating the operator definition gives the triple sum
        sum_{|g|=n3} sum_{|b|=n2} sum_{|a|=n1}  B_g(x) B_a(y)
        * <B_a, B_b> <B_b, B_g> / (<1,B_a> <1,B_b> <1,B_g>)
    assembled from pairwise product integrals.  Works for any d.  By
    Dirichlet's formula the inner b-sum is the integer
        mult(a) mult(g) * sum_b mult(b)^2 (a+b)! (b+g)!
    times the one scale
        S3 = (n1+d)! (n2+d)! (n3+d)! / (n1! n2! n3! (n1+n2+d)! (n2+n3+d)!).
    """
    if min(n3, n2, n1) < 0:
        raise ValueError("degrees must be >= 0")
    check_dimension(d)
    fact = FactorialTable()
    betas = [(beta, table_multinomial(beta, fact) ** 2)
             for beta in enumerate_multi_indices(n2, d)]
    alphas = _integer_basis(n1, d, fact)
    acc: Dict[Tuple[int, ...], int] = {}
    for gamma, mult_g, x_terms in _integer_basis(n3, d, fact):
        inner: Dict[Tuple[int, ...], int] = {}
        for alpha, mult_a, y_terms in alphas:
            ratio = 0
            for beta, weight in betas:
                for a, b, g in zip(alpha, beta, gamma):
                    weight *= fact[a + b] * fact[b + g]
                ratio += weight
            ratio *= mult_a
            for ey, cy in y_terms:
                inner[ey] = inner.get(ey, 0) + ratio * cy
        for ex, cx in x_terms:
            cx *= mult_g
            for ey, cy in inner.items():
                key = ex + ey
                acc[key] = acc.get(key, 0) + cx * cy
    scale = Fraction(fact[n1 + d] * fact[n2 + d] * fact[n3 + d],
                     fact[n1] * fact[n2] * fact[n3] * fact[n1 + n2 + d] * fact[n2 + n3 + d])
    return KernelPolynomial.from_integers(d, acc, scale)


def kernel_closed_threefold(n3: int, n2: int, n1: int) -> DiagonalKernelForm:
    """Univariate (d=1) diagonal closed form for a three-operator composition.

    scale = (n3+1)! (n2+1)! (n1+1)! (n3+n2+n1+1)!
            / ((n3+n2+1)! (n3+n1+1)! (n2+n1+1)!),
    weight_k = C(n3,k) C(n2,k) C(n1,k) / C(n3+n2+n1+1, k); symmetric in
    the three degrees.
    """
    if min(n3, n2, n1) < 0:
        raise ValueError("degrees must be >= 0")
    total = n3 + n2 + n1
    scale = Fraction(
        factorial(n3 + 1) * factorial(n2 + 1) * factorial(n1 + 1) * factorial(total + 1),
        factorial(n3 + n2 + 1) * factorial(n3 + n1 + 1) * factorial(n2 + n1 + 1))
    return DiagonalKernelForm(1, scale, [
        (k, Fraction(binomial(n3, k) * binomial(n2, k) * binomial(n1, k), binomial(total + 1, k)))
        for k in range(min(n3, n2, n1) + 1)])


def inner_sum_identity(n: int, beta: Sequence[int], y: PointLike) -> Tuple[Fraction, Fraction]:
    """Both sides of the collapse identity used to diagonalize the kernel.

    Left side:   sum over |a| = n of  B_a(y) * (a+beta)!/a!
    Right side:  sum over l <= beta (componentwise) of
                 n_(|l|) / |l|! * B_l(y) * beta! * prod C(beta_v, l_v)

    The two sides are computed by entirely separate summations and are
    returned as a pair for the caller to compare.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    beta = check_index(beta)
    d = len(beta) - 1
    # B_a(y) = mult(a) * values[a] / q^top, from y's integer form (q; A)
    q, bary = as_point(y, d).integer_form()
    fact = FactorialTable()

    alphas = enumerate_multi_indices(n, d)
    q_top, values = monomial_numerators(q, bary, alphas)
    lhs = 0
    for alpha, value in zip(alphas, values):
        shifted = 1
        for a, b in zip(alpha, beta):
            shifted *= fact[a + b] // fact[a]
        lhs += table_multinomial(alpha, fact) * value * shifted
    lhs = Fraction(lhs, q_top)

    ells = list(_cartesian_product(*(range(b + 1) for b in beta)))
    q_top, values = monomial_numerators(q, bary, ells)
    beta_fact = index_factorial(beta)
    rhs = 0
    for ell, value in zip(ells, values):
        k = sum(ell)
        prod_binom = 1
        for b, l in zip(beta, ell):
            prod_binom *= binomial(b, l)
        # n_(k) / k! is the integer C(n, k)
        rhs += (falling_factorial(n, k) // fact[k]
                * table_multinomial(ell, fact) * value * beta_fact * prod_binom)
    return lhs, Fraction(rhs, q_top)


def to_canonical(form: DiagonalKernelForm) -> KernelPolynomial:
    """Expand a diagonal form into the canonical bivariate map.

    With the weights over their common denominator D, w_j = W_j / D, the
    map is the integer sum  sum_l W_|l| b_l[ex] b_l[ey]  over the integer
    coefficients b_l of B_l, times the one scale  scale / D.
    """
    den, weights = clear_denominators(w for _, w in form.terms)
    fact = FactorialTable()
    acc = _outer_sum((w, terms) for (j, _), w in zip(form.terms, weights)
                     for _, _, terms in _integer_basis(j, form.d, fact))
    return KernelPolynomial.from_integers(form.d, acc, form.scale / den)


def first_kernel_difference(lhs: KernelPolynomial, rhs: KernelPolynomial) -> Optional[dict]:
    """First monomial (in canonical order) where two kernels disagree.

    Returns None when the kernels are identical; otherwise a witness dict
    with the exponent pair and both coefficients, for failure reports.
    """
    found = lhs.first_difference(rhs)
    if found is None:
        return None
    key, a, b = found
    return {
        "exp_x": list(key[:lhs.d]),
        "exp_y": list(key[lhs.d:]),
        "lhs": format_rational(a),
        "rhs": format_rational(b),
    }
