"""Seeded rational test points for the tests that evaluate at points."""
import random
from fractions import Fraction
from typing import Tuple


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
