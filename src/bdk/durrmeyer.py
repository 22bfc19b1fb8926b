"""The Bernstein-Durrmeyer operator on exact polynomials.

M_n projects a function onto the degree-n Bernstein basis through
L2-type inner products over the simplex:

    (M_n f)(x) = sum over |alpha| = n of  <f, B_alpha> / <1, B_alpha> * B_alpha(x).

Operators here act on exact polynomials only, which is enough to verify
polynomial kernel identities: a degree-N identity is pinned down by
finitely many monomial images; kernel identities are decided separately,
in Bernstein coordinates (`bdk.kernels`).

The image has two bodies that share no code.  `apply_operator` is the
definition: it enumerates every index a with |a| = n, so it costs
C(n+d, d) moment columns and Bernstein expansions; `bdk.verify` reads it.
`operator_image` is the closed form that `compose_apply`, and so
`bdk apply`, reads.  For a monomial x^e in x_1..x_d (Derriennic, J. Approx.
Theory 1985) it follows in three steps:

1. Dirichlet's formula gives the moment ratio
       <x^e, B_a> / <1, B_a> = prod_v (a_v+1)^(e_v) / ((n+d+1)...(n+d+|e|)),
   with (.)^(k) the rising factorial and a_1..a_d the cartesian parts of a.
2. A rising factorial expands in falling factorials:
       (a+1)^(e) = sum_{j<=e} C(e, j)^2 (e-j)! a_(j).
3. The multinomial's factorial moments give
       sum_a B_a(x) prod_v (a_v)_(j_v) = n_(|j|) x^j,
   which is 0 for |j| > n.

So M_n x^e = sum_{j<=e, |j|<=n} prod_v C(e_v, j_v)^2 (e_v-j_v)! n_(|j|) x^j
/ ((n+d+1)...(n+d+|e|)), and a term costs prod_v (e_v+1) products,
whatever n is.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import comb, perm, prod
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .combinat import (_FACT, _index_slots, _multi_indices, _multinomial, _slot_products,
                       check_degree, check_dimension)
from .polynomials import CartesianPolynomial, bernstein_basis, bernstein_sum, check_polynomial

__all__ = [
    "apply_operator",
    "operator_image",
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
    (a+(0,e))! over |a| = n, which `_moment_column` builds per (n, e).
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


def _moment_column(n: int, exps: Tuple[int, ...]) -> Tuple[int, ...]:
    """(a + (0, exps))! for each a of `enumerate_multi_indices(n, d)`, in
    that order, d = len(exps).

    The product is gathered one barycentric coordinate at a time
    (`_slot_products`): part v of every a reads (a_v + shift_v)! from one
    table over a_v = 0..n.  Uncached: `bdk verify` builds each (n, exps)
    column once, and `bdk apply` builds none.
    """
    # (k + shift)! for k = 0..n, each from the one before
    tables = (accumulate(range(shift + 1, shift + n + 1), mul, initial=_FACT[shift])
              for shift in (0, *exps))
    return tuple(_slot_products(_index_slots(n, len(exps)), map(list, tables)))


def operator_image(n: int, f: CartesianPolynomial) -> CartesianPolynomial:
    """Exact image M_n f in closed form, without enumerating Bernstein indices.

    For f = sum_e F_e x^e / D of total degree top,
        M_n x^e = sum_{j<=e, |j|<=n} prod_v C(e_v, j_v)^2 (e_v-j_v)!
                  * n_(|j|) x^j / ((n+d+1)...(n+d+|e|))
    (module docstring: a moment ratio, a rising factorial written in falling
    factorials, and the multinomial's factorial moments).  The sum runs in
    integers over the one denominator perm(n+d+top, top) * D, so term e
    carries perm(n+d+top, top-|e|).  The only `_FACT` entry read is
    (e_v - min(e_v, n))! per exponent, at most deg f; n_(|j|) is
    `math.perm(n, |j|)`, so cost and memory do not depend on n.  It equals
    `apply_operator(n, f)` and never calls it.
    """
    n, d = check_degree(n), check_polynomial(f).d
    top = max(f.total_degree(), 0)
    shift = n + d + top
    image: Dict[Tuple[int, ...], int] = {}
    for exps, c in f.nums.items():
        c *= perm(shift, top - sum(exps))
        # per coordinate v: the pairs (j_v, C(e_v, j_v)^2 (e_v-j_v)!), j_v <= min(e_v, n),
        # each (e_v-j_v)! from the one before
        choices = []
        for e in exps:
            low = e - min(e, n)
            facts = accumulate(range(low + 1, e + 1), mul, initial=_FACT[low])
            choices.append([(j, comb(e, j) ** 2 * fact)
                            for j, fact in zip(range(e - low, -1, -1), facts)])
        for pairs in product(*choices):
            key, weights = zip(*pairs)
            k = sum(key)
            if k <= n:
                image[key] = image.get(key, 0) + c * perm(n, k) * prod(weights)
    return CartesianPolynomial.from_integers(d, image, Fraction(1, perm(shift, top) * f.den))


def compose_apply(degrees: Sequence[int], f: CartesianPolynomial) -> CartesianPolynomial:
    """Apply a composition of operators, rightmost (innermost) first.

    Degrees [m, n] mean M_m o M_n, so f passes through M_n before M_m.
    Every degree is checked before any is applied.  An empty list returns
    f unchanged.  Each operator is the closed form `operator_image`.
    """
    out = f
    for n in reversed([check_degree(n) for n in degrees]):
        out = operator_image(n, out)
    return out


def composition_coefficients(m: int, n: int, d: int) -> List[Fraction]:
    """Coefficients c_0..c_min(m,n) with M_m o M_n = sum_k c_k M_k.

    c_k = (m+d)! (n+d)! / (m+n+d)! * C(m,k) C(n,k) k! / (k+d)!.
    All coefficients are positive and sum to one, so the composition is a
    convex combination of the operators themselves.  Each c_k is built as
    one `Fraction` of two integer products, (m+d)! (n+d)! C(m,k) C(n,k) k!
    over (m+n+d)! (k+d)!, so it is reduced once.
    """
    m, n, d = check_degree(m), check_degree(n), check_dimension(d)
    head, foot = _FACT[m + d] * _FACT[n + d], _FACT[m + n + d]
    return [Fraction(head * comb(m, k) * comb(n, k) * _FACT[k], foot * _FACT[k + d])
            for k in range(min(m, n) + 1)]
