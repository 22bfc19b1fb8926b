"""The Bernstein-Durrmeyer operator on exact polynomials.

M_n projects a function onto the degree-n Bernstein basis through
L2-type inner products over the simplex:

    (M_n f)(x) = sum over |alpha| = n of  <f, B_alpha> / <1, B_alpha> * B_alpha(x).

Operators here act on exact polynomials only, which is enough to verify
polynomial kernel identities: a degree-N identity is pinned down by
finitely many monomial images; kernel identities are decided separately,
in Bernstein coordinates (`bdk.kernels`).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import List, Sequence, Tuple

from .combinat import _FACT, _multi_indices, _multinomial, check_degree, check_dimension
from .polynomials import CartesianPolynomial, bernstein_basis, bernstein_sum, check_polynomial

__all__ = [
    "apply_operator",
    "compose_apply",
    "composition_coefficients",
]


def apply_operator(n: int, f: CartesianPolynomial) -> CartesianPolynomial:
    """Exact image M_n f on the simplex of f's dimension d; the result has
    total degree <= n.

    The moments come straight from Dirichlet's formula,
        <f, B_a> = mult(a) * sum_e f_e (a + (0,e))! / (n+|e|+d)!,
    and <1, B_a> = n!/(n+d)!.  With f = F / D for an integer map F and the
    common factorial N = (n + deg f + d)!, the image is one integer sum
        sum_a mult(a) * [sum_e F_e N/(n+|e|+d)! (a+(0,e))!] * B_a
    times the single scale (n+d)! / (n! D N).  The bracket is a dot product
    of the weights F_e N/(n+|e|+d)! with the moment columns
    (a+(0,e))! over |a| = n, which `_moment_column` keeps per (n, e).
    """
    n, d = check_degree(n), check_polynomial(f).d
    top = n + f.total_degree() + d
    weights = [c * (_FACT[top] // _FACT[n + sum(exps) + d]) for exps, c in f.nums.items()]
    columns = [_moment_column(n, exps) for exps in f.nums]
    # a zero f has no columns, so no totals and an empty image
    totals = (sum(map(mul, weights, moments)) for moments in zip(*columns))
    image = bernstein_sum((total * _multinomial(alpha), bernstein_basis(alpha).nums.items())
                          for alpha, total in zip(_multi_indices(n, d), totals) if total)
    scale = Fraction(_FACT[n + d], _FACT[n] * f.den * _FACT[top])
    return CartesianPolynomial.from_integers(d, image, scale)


@lru_cache(maxsize=None)
def _moment_column(n: int, exps: Tuple[int, ...]) -> Tuple[int, ...]:
    """(a + (0, exps))! for each a of `enumerate_multi_indices(n, d)`, in
    that order, d = len(exps).

    The product is gathered one barycentric coordinate at a time: part v of
    every a reads (a_v + shift_v)! from one table over a_v = 0..n.  Kept
    per (n, exps), as every image under M_n of a polynomial with the term
    x^exps reads the same column.
    """
    indices = _multi_indices(n, len(exps))
    column = [1] * len(indices)
    for parts, shift in zip(zip(*indices), (0, *exps)):
        # (k + shift)! for k = 0..n, each from the one before
        table = list(accumulate(range(shift + 1, shift + n + 1), mul, initial=_FACT[shift]))
        column = list(map(mul, column, map(table.__getitem__, parts)))
    return tuple(column)


def compose_apply(degrees: Sequence[int], f: CartesianPolynomial) -> CartesianPolynomial:
    """Apply a composition of operators, rightmost (innermost) first.

    Degrees [m, n] mean M_m o M_n, so f passes through M_n before M_m.
    Every degree is checked before any is applied.  An empty list returns
    f unchanged.
    """
    out = f
    for n in reversed([check_degree(n) for n in degrees]):
        out = apply_operator(n, out)
    return out


def composition_coefficients(m: int, n: int, d: int) -> List[Fraction]:
    """Coefficients c_0..c_min(m,n) with M_m o M_n = sum_k c_k M_k.

    c_k = (m+d)! (n+d)! / (m+n+d)! * C(m,k) C(n,k) k! / (k+d)!.
    All coefficients are positive and sum to one, so the composition is a
    convex combination of the operators themselves.
    """
    m, n, d = check_degree(m), check_degree(n), check_dimension(d)
    prefactor = Fraction(_FACT[m + d] * _FACT[n + d], _FACT[m + n + d])
    return [
        prefactor * comb(m, k) * comb(n, k) * Fraction(_FACT[k], _FACT[k + d])
        for k in range(min(m, n) + 1)
    ]
