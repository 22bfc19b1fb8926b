from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bdk.combinat import enumerate_multi_indices
from bdk.durrmeyer import apply_operator, compose_apply, composition_coefficients
from bdk.polynomials import CartesianPolynomial, inner_product, integrate_simplex


def monomials(d, max_degree):
    out = []
    for deg in range(max_degree + 1):
        for mi in enumerate_multi_indices(deg, d):
            out.append(CartesianPolynomial.monomial(d, mi[1:]))
    return out


class TestApplyOperator:
    def test_preserves_constants(self):
        for d in (1, 2, 3):
            one = CartesianPolynomial.constant(d, 1)
            for n in range(7):
                assert apply_operator(n, one) == one

    def test_first_moment_degree_one(self):
        # hand computation: 2*(<x, 1-x>*(1-x) + <x, x>*x) = (1+x)/3
        x = CartesianPolynomial.variable(1, 1)
        image = apply_operator(1, x)
        assert image.terms == {(0,): Fraction(1, 3), (1,): Fraction(1, 3)}

    def test_first_moment_degree_two(self):
        x = CartesianPolynomial.variable(1, 1)
        image = apply_operator(2, x)
        assert image.terms == {(0,): Fraction(1, 4), (1,): Fraction(1, 2)}

    def test_degree_bound(self):
        for d in (1, 2):
            for n in range(4):
                for f in monomials(d, 3):
                    assert apply_operator(n, f).total_degree() <= n

    def test_self_adjoint(self):
        for d in (1, 2):
            basis = monomials(d, 2)
            for n in range(4):
                images = [apply_operator(n, f) for f in basis]
                for f, mf in zip(basis, images):
                    for g, mg in zip(basis, images):
                        assert inner_product(mf, g) == inner_product(f, mg)

    def test_integral_preserved(self):
        for d in (1, 2):
            for n in range(4):
                for f in monomials(d, 3):
                    image = apply_operator(n, f)
                    assert integrate_simplex(image) == integrate_simplex(f)


class TestComposeApply:
    def test_empty_composition_is_identity(self):
        f = CartesianPolynomial.monomial(1, (2,), Fraction(3, 5))
        assert compose_apply([], f) == f

    def test_degree_zero_averages(self):
        f = CartesianPolynomial.variable(1, 1)
        image = compose_apply([0], f)
        assert image == CartesianPolynomial.constant(1, Fraction(1, 2))

    def test_commutativity_on_monomials(self):
        for d in (1, 2):
            basis = monomials(d, 2)
            for m in range(4):
                for n in range(m + 1, 4):
                    mn, nm = [m, n], [n, m]
                    for f in basis:
                        assert compose_apply(mn, f) == compose_apply(nm, f), (d, m, n)

    def test_rightmost_applied_first(self):
        # M_0 o M_2 collapses (M_2 x) to its mean, so the outer degree wins
        x = CartesianPolynomial.variable(1, 1)
        image = compose_apply([0, 2], x)
        assert image == CartesianPolynomial.constant(1, Fraction(1, 2))


class TestCompositionCoefficients:
    def test_example_one_one(self):
        assert composition_coefficients(1, 1, 1) == [Fraction(2, 3), Fraction(1, 3)]

    def test_zero_degree_collapses(self):
        assert composition_coefficients(0, 5, 2) == [Fraction(1)]

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3))
    def test_convex_combination(self, m, n, d):
        coeffs = composition_coefficients(m, n, d)
        assert len(coeffs) == min(m, n) + 1
        assert sum(coeffs) == 1
        assert all(c > 0 for c in coeffs)

    def test_symmetry_in_degrees(self):
        for d in (1, 2):
            for m in range(5):
                for n in range(5):
                    assert composition_coefficients(m, n, d) == \
                        composition_coefficients(n, m, d)

    def test_operator_level_identity(self):
        # M_m(M_n f) equals the coefficient mix of single operators
        for d in (1, 2):
            basis = monomials(d, 2)
            for m in range(3):
                for n in range(3):
                    coeffs = composition_coefficients(m, n, d)
                    for f in basis:
                        lhs = compose_apply([m, n], f)
                        rhs = CartesianPolynomial.zero(d)
                        for k, ck in enumerate(coeffs):
                            rhs = rhs + apply_operator(k, f).scale(ck)
                        assert lhs == rhs, (d, m, n)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            composition_coefficients(-1, 2, 1)
        with pytest.raises(ValueError):
            composition_coefficients(1, 2, 0)
