"""Seeded rational test points and polynomials."""
import random
from fractions import Fraction
from typing import Tuple

from bdk.polynomials import CartesianPolynomial


def sample_simplex_point(rng: random.Random, d: int,
                         max_denominator: int = 97) -> Tuple[Fraction, ...]:
    """A seeded rational point inside the standard d-simplex.

    All coordinates share one denominator <= max_denominator, keeping the
    exact arithmetic small and the draw reproducible.
    """
    q = rng.randint(1, max_denominator)
    remaining = q
    coords = []
    for _ in range(d):
        p = rng.randint(0, remaining)
        coords.append(Fraction(p, q))
        remaining -= p
    return tuple(coords)


def sample_polynomial(rng: random.Random, d: int, degree: int,
                      n_terms: int = 5) -> CartesianPolynomial:
    """A seeded polynomial in x_1..x_d of up to n_terms terms over 97, as the
    benchmark's apply requests draw them: the first term has total degree
    exactly degree, each other one a drawn total degree <= degree."""
    terms = {}
    for total in [degree] + [rng.randint(0, degree) for _ in range(n_terms - 1)]:
        cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        terms[exps] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 96), 97)
    return CartesianPolynomial(d, terms)
