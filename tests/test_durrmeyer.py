import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

import bdk.cli
import bdk.durrmeyer
import bdk.polynomials
from bdk.combinat import _FACT, enumerate_multi_indices
from bdk.durrmeyer import apply_operator, compose_apply, composition_coefficients, operator_image
from bdk.polynomials import CartesianPolynomial, inner_product, integrate_simplex
from bdk.verify import SuiteConfig, run_suite
from sampling import sample_polynomial


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

    def test_equals_the_prefactor_products(self):
        # the coefficients as first written, a Fraction per factor:
        # (m+d)! (n+d)! / (m+n+d)! * C(m,k) C(n,k) * k!/(k+d)!
        for d in range(1, 7):
            for m in range(13):
                for n in range(13):
                    prefactor = Fraction(_FACT[m + d] * _FACT[n + d], _FACT[m + n + d])
                    coeffs = composition_coefficients(m, n, d)
                    assert all(type(c) is Fraction for c in coeffs), (m, n, d)
                    assert coeffs == [
                        prefactor * comb(m, k) * comb(n, k) * Fraction(_FACT[k], _FACT[k + d])
                        for k in range(min(m, n) + 1)], (m, n, d)

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


#: (d, largest n): every monomial of degree <= 4 is imaged under M_0..M_n
EQUIVALENCE_RANGES = [(1, 8), (2, 8), (3, 5)]


class TestOperatorImage:
    """The closed image equals the definitional `apply_operator` exactly."""

    @pytest.mark.parametrize("d, top", EQUIVALENCE_RANGES)
    def test_every_monomial_of_degree_at_most_four(self, d, top):
        # n < |e| is included: the terms with |j| > n vanish there
        for f in monomials(d, 4):
            for n in range(top + 1):
                assert operator_image(n, f) == apply_operator(n, f), (f.nums, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_random_polynomials(self, d):
        rng = random.Random(f"operator_image/{d}")
        for _ in range(20):
            f = sample_polynomial(rng, d, rng.randint(0, 5), rng.randint(1, 6))
            n = rng.randint(0, 8 if d < 3 else 5)
            assert operator_image(n, f) == apply_operator(n, f), (f.nums, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_polynomial(self, d):
        zero = CartesianPolynomial.zero(d)
        for n in range(4):
            assert operator_image(n, zero) == apply_operator(n, zero) == zero

    def test_degree_below_the_polynomial_degree(self):
        # M_1 x1^3 x2 = (1 + 3 x1 + x2) / 140 at d = 2: only |j| <= 1 survives
        f = CartesianPolynomial.monomial(2, (3, 1))
        assert operator_image(1, f).terms == {(0, 0): Fraction(1, 140), (1, 0): Fraction(3, 140),
                                              (0, 1): Fraction(1, 140)}
        assert operator_image(1, f) == apply_operator(1, f)

    def test_bad_degree_raises_before_any_image(self, monkeypatch):
        # compose_apply checks every degree before it applies the first
        def refuse(n, f):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(bdk.durrmeyer, "operator_image", refuse)
        with pytest.raises(ValueError, match="degree"):
            compose_apply([3, -1], CartesianPolynomial.variable(1, 1))


def _refuse(*args, **kwargs):
    raise AssertionError("the other side was called")


class TestClosedImageIndependence:
    """`bdk apply` enumerates no Bernstein index, and the definitional side
    never reads the closed image."""

    def test_closed_side_reads_no_index(self, monkeypatch, capsys):
        for module, name in [(bdk.durrmeyer, "apply_operator"), (bdk.durrmeyer, "_moment_column"),
                             (bdk.durrmeyer, "bernstein_basis"), (bdk.durrmeyer, "bernstein_sum"),
                             (bdk.durrmeyer, "_multi_indices"),
                             (bdk.polynomials, "bernstein_basis")]:
            monkeypatch.setattr(module, name, _refuse)
        f = CartesianPolynomial.monomial(2, (3, 1))
        assert compose_apply([6, 4], f).total_degree() == 4
        assert bdk.cli.main(["apply", "--d", "3", "--degrees", "40,8",
                             "--poly", "x1^3*x2 - 2/5*x3"]) == 0
        assert capsys.readouterr().out.count('"exp"') == 9

    def test_definitional_side_reads_no_closed_image(self, monkeypatch):
        monkeypatch.setattr(bdk.durrmeyer, "operator_image", _refuse)
        x = CartesianPolynomial.variable(1, 1)
        assert apply_operator(2, x).terms == {(0,): Fraction(1, 4), (1,): Fraction(1, 2)}
        report = run_suite(SuiteConfig(d_range=(1,), max_degree=3))
        assert report.ok and report.summary()["total"] > 0

    def test_cost_does_not_depend_on_n(self):
        # n_(|j|) comes from math.perm, so no n-sized factorial is tabled
        before = set(_FACT)
        image = operator_image(10**6, CartesianPolynomial.monomial(3, (3, 1, 0)))
        assert len(image.nums) == 8
        assert all(k < 10**6 for k in set(_FACT) - before)
