"""Exact integrals over the standard simplex.

The Dirichlet formula gives every monomial integral in barycentric
exponents as a ratio of factorials, so all integrals here are exact
rationals.  No quadrature is used anywhere in the library.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .combinat import check_dimension, check_index, factorial, index_factorial, multinomial

__all__ = [
    "monomial_integral",
    "inner_one_bernstein",
    "bernstein_product_integral",
]


def monomial_integral(mu: Sequence[int], d: int) -> Fraction:
    """Integral of x_0^mu_0 ... x_d^mu_d over the standard d-simplex.

    Equals mu! / (|mu| + d)! exactly (Dirichlet's formula).
    """
    d = check_dimension(d)
    mu = check_index(mu, d)
    return Fraction(index_factorial(mu), factorial(sum(mu) + d))


def inner_one_bernstein(alpha: Sequence[int], d: int) -> Fraction:
    """<1, B_alpha> = |alpha|! / (|alpha| + d)!; depends only on the degree."""
    d = check_dimension(d)
    n = sum(check_index(alpha, d))
    return Fraction(factorial(n), factorial(n + d))


def bernstein_product_integral(alpha: Sequence[int], beta: Sequence[int], d: int) -> Fraction:
    """Integral of B_alpha * B_beta over the standard d-simplex.

    Computed from the closed form
        C(|a|,a) C(|b|,b) / C(|a+b|,a+b) * <1, B_{a+b}>,
    which the test suite cross-checks against brute-force polynomial
    expansion.
    """
    d = check_dimension(d)
    a = check_index(alpha, d)
    b = check_index(beta, d)
    ab = tuple(x + y for x, y in zip(a, b))
    quotient = Fraction(multinomial(a) * multinomial(b), multinomial(ab))
    return quotient * inner_one_bernstein(ab, d)
