from fractions import Fraction

import pytest

from bdk.combinat import check_dimension, enumerate_multi_indices, multinomial
from bdk.polynomials import bernstein_basis, inner_product
from bdk.simplex_integrals import (
    bernstein_product_integral,
    inner_one_bernstein,
    monomial_integral,
)


def all_indices_up_to(max_degree, d):
    for n in range(max_degree + 1):
        yield from enumerate_multi_indices(n, d)


class TestMonomialIntegral:
    def test_examples(self):
        assert monomial_integral((1, 1), 1) == Fraction(1, 6)
        assert monomial_integral((0, 0, 0), 2) == Fraction(1, 2)      # area of S^2
        assert monomial_integral((0, 0, 0, 0), 3) == Fraction(1, 6)   # volume 1/d!

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial_integral((1, 1, 1), 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            monomial_integral((1, -1), 1)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            check_dimension(0)

    @pytest.mark.parametrize("mu", [(1.5, 0.5), ("1", "1")])
    def test_non_integer_exponent_rejected(self, mu):
        with pytest.raises(ValueError):
            monomial_integral(mu, 1)


class TestInnerOneBernstein:
    def test_examples(self):
        assert inner_one_bernstein((0, 1), 1) == Fraction(1, 2)
        assert inner_one_bernstein((0, 0, 0), 2) == Fraction(1, 2)
        assert inner_one_bernstein((2, 1), 1) == Fraction(1, 4)

    def test_equals_multinomial_times_monomial_integral(self):
        for d in (1, 2, 3):
            for alpha in all_indices_up_to(4, d):
                assert inner_one_bernstein(alpha, d) == \
                    multinomial(alpha) * monomial_integral(alpha, d)

    def test_depends_only_on_degree(self):
        for d in (1, 2, 3):
            for n in range(7):
                values = {inner_one_bernstein(a, d) for a in enumerate_multi_indices(n, d)}
                assert len(values) == 1

    def test_partition_of_unity_integrates_to_volume(self):
        for d in (1, 2, 3):
            volume = monomial_integral((0,) * (d + 1), d)
            for n in range(7):
                total = sum(inner_one_bernstein(a, d) for a in enumerate_multi_indices(n, d))
                assert total == volume


class TestBernsteinProductIntegral:
    def test_examples(self):
        assert bernstein_product_integral((0, 1), (0, 1), 1) == Fraction(1, 3)
        assert bernstein_product_integral((1, 0), (0, 1), 1) == Fraction(1, 6)

    def test_d2_value_frozen_by_brute_force(self):
        # oracle: expand 2*x0*x1 and integrate the square termwise
        alpha = (1, 1, 0)
        oracle = inner_product(bernstein_basis(alpha), bernstein_basis(alpha))
        assert oracle == Fraction(1, 45)
        assert bernstein_product_integral(alpha, alpha, 2) == oracle

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bernstein_product_integral((1, 0), (1, 0, 0), 1)

    @pytest.mark.parametrize("d,max_degree", [(1, 4), (2, 4), (3, 4)])
    def test_matches_brute_force_expansion(self, d, max_degree):
        indices = list(all_indices_up_to(max_degree, d))
        for i, alpha in enumerate(indices):
            pa = bernstein_basis(alpha)
            for beta in indices[i:]:
                closed = bernstein_product_integral(alpha, beta, d)
                brute = inner_product(pa, bernstein_basis(beta))
                assert closed == brute, (alpha, beta)

    def test_symmetric_in_arguments(self):
        assert bernstein_product_integral((2, 1), (0, 3), 1) == \
            bernstein_product_integral((0, 3), (2, 1), 1)
