"""The Bernstein-Durrmeyer operator on exact polynomials.

M_n projects a function onto the degree-n Bernstein basis through
L2-type inner products over the simplex:

    (M_n f)(x) = sum over |alpha| = n of  <f, B_alpha> / <1, B_alpha> * B_alpha(x).

Operators here act on exact polynomials only, which is enough to verify
polynomial kernel identities: a degree-N identity is pinned down by
finitely many monomial images, and the kernel module additionally
compares full canonical forms.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .combinat import (
    FactorialTable,
    binomial,
    check_degree,
    check_dimension,
    enumerate_multi_indices,
    factorial,
    table_multinomial,
)
from .polynomials import CartesianPolynomial, bernstein_basis, check_polynomial

__all__ = [
    "OperatorSpec",
    "apply_operator",
    "compose_apply",
    "composition_coefficients",
]


class OperatorSpec:
    """Degree and simplex dimension identifying one operator M_n.

    Immutable; two specs are equal, and hash alike, when their degree and
    dimension are.
    """

    __slots__ = ("degree", "dimension")

    def __init__(self, degree: int, dimension: int):
        object.__setattr__(self, "degree", check_degree(degree))
        object.__setattr__(self, "dimension", check_dimension(dimension))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an OperatorSpec")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OperatorSpec):
            return self.degree == other.degree and self.dimension == other.dimension
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.degree, self.dimension))

    def __repr__(self) -> str:
        return f"OperatorSpec(degree={self.degree}, dimension={self.dimension})"


def apply_operator(spec: OperatorSpec, f: CartesianPolynomial) -> CartesianPolynomial:
    """Exact image M_n f; the result has total degree <= n.

    The moments come straight from Dirichlet's formula,
        <f, B_a> = mult(a) * sum_e f_e (a + (0,e))! / (n+|e|+d)!,
    and <1, B_a> = n!/(n+d)!.  With f = F / D for an integer map F and the
    common factorial N = (n + deg f + d)!, the image is one integer sum
        sum_a mult(a) * [sum_e F_e (a+(0,e))! N/(n+|e|+d)!] * B_a
    times the single scale (n+d)! / (n! D N).
    """
    check_polynomial(f)
    if f.d != spec.dimension:
        raise ValueError(f"dimension mismatch: operator {spec.dimension}, polynomial {f.d}")
    n, d = spec.degree, spec.dimension
    if f.is_zero():
        return CartesianPolynomial.zero(d)
    top = n + f.total_degree() + d
    fact = FactorialTable()
    moments = [((0,) + exps, c * (fact[top] // fact[n + sum(exps) + d]))
               for exps, c in f.nums.items()]
    image = {}
    for alpha in enumerate_multi_indices(n, d):
        total = 0
        for shift, c in moments:
            for a, e in zip(alpha, shift):
                c *= fact[a + e]
            total += c
        if not total:
            continue
        total *= table_multinomial(alpha, fact)
        for exps, b in bernstein_basis(alpha).nums.items():
            image[exps] = image.get(exps, 0) + total * b
    scale = Fraction(fact[n + d], fact[n] * f.den * fact[top])
    return CartesianPolynomial.from_integers(d, image, scale)


def compose_apply(specs: Sequence[OperatorSpec], f: CartesianPolynomial) -> CartesianPolynomial:
    """Apply a composition of operators, rightmost (innermost) first.

    [M_m, M_n] means M_m o M_n, so f passes through M_n before M_m.
    An empty list returns f unchanged.
    """
    dims = {s.dimension for s in specs}
    if dims and dims != {f.d}:
        raise ValueError("all operators must share the polynomial's dimension")
    out = f
    for spec in reversed(list(specs)):
        out = apply_operator(spec, out)
    return out


def composition_coefficients(m: int, n: int, d: int) -> List[Fraction]:
    """Coefficients c_0..c_min(m,n) with M_m o M_n = sum_k c_k M_k.

    c_k = (m+d)! (n+d)! / (m+n+d)! * C(m,k) C(n,k) k! / (k+d)!.
    All coefficients are positive and sum to one, so the composition is a
    convex combination of the operators themselves.
    """
    m, n, d = check_degree(m), check_degree(n), check_dimension(d)
    prefactor = Fraction(factorial(m + d) * factorial(n + d), factorial(m + n + d))
    return [
        prefactor * binomial(m, k) * binomial(n, k) * Fraction(factorial(k), factorial(k + d))
        for k in range(min(m, n) + 1)
    ]
