import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from bdk.combinat import enumerate_multi_indices, multinomial
from bdk.kernels import inner_sum_identity
from bdk.polynomials import (
    CartesianPolynomial,
    bernstein_basis,
    bernstein_value,
    difference_witness,
    inner_product,
    integer_point,
    integrate_simplex,
)
from bdk.simplex_integrals import inner_one_bernstein

from sampling import sample_simplex_point


F = Fraction


def poly(d, terms):
    return CartesianPolynomial(d, {e: Fraction(c) for e, c in terms.items()})


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def polynomials_strategy(draw, d=2, max_degree=3, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(d))
        terms[exps] = draw(rationals)
    return CartesianPolynomial(d, terms)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = poly(2, {(1, 0): 0, (0, 1): 1})
        assert p.terms == {(0, 1): Fraction(1)}

    def test_zero_polynomial(self):
        z = CartesianPolynomial.zero(3)
        assert z.is_zero()
        assert z.total_degree() == -1
        assert z.to_json_dict() == {"d": 3, "terms": []}

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            CartesianPolynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            CartesianPolynomial(1, {(-1,): 1})

    @pytest.mark.parametrize("bad", [1.9, "1", Fraction(1), True])
    def test_non_integer_exponent_rejected(self, bad):
        with pytest.raises(ValueError, match="exponent"):
            CartesianPolynomial(1, {(bad,): 1})

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            CartesianPolynomial(1.5, {})

    def test_variable(self):
        assert CartesianPolynomial.variable(3, 2).terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(ValueError):
            CartesianPolynomial.variable(2, 3)

    @pytest.mark.parametrize("d, i", [(2, True), (1, 1.0), (1, "1"), (1, Fraction(1))])
    def test_variable_index_must_be_an_integer(self, d, i):
        with pytest.raises(ValueError, match="^variable index must be an integer, got "):
            CartesianPolynomial.variable(d, i)


class TestRingOperations:
    def test_multiply_example(self):
        x = CartesianPolynomial.variable(1, 1)
        one_minus_x = poly(1, {(0,): 1, (1,): -1})
        assert (x * one_minus_x).terms == {(1,): Fraction(1), (2,): Fraction(-1)}

    def test_additive_inverse(self):
        p = poly(2, {(1, 2): Fraction(3, 7), (0, 1): -2})
        assert (p + (-1) * p).is_zero()

    def test_square_of_sum(self):
        s = CartesianPolynomial.variable(2, 1) + CartesianPolynomial.variable(2, 2)
        assert (s * s).terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}

    def test_pow(self):
        x = CartesianPolynomial.variable(1, 1)
        assert (x ** 3).terms == {(3,): Fraction(1)}
        assert (x ** 0).terms == {(0,): Fraction(1)}

    @pytest.mark.parametrize("k", [1.5, "2", -1])
    def test_pow_rejects_exponent_that_is_not_a_nonnegative_int(self, k):
        with pytest.raises(ValueError, match="exponent"):
            CartesianPolynomial.variable(1, 1) ** k

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CartesianPolynomial.variable(1, 1) + CartesianPolynomial.variable(2, 1)
        with pytest.raises(ValueError):
            CartesianPolynomial.variable(1, 1) * CartesianPolynomial.variable(2, 1)

    @settings(max_examples=40)
    @given(st.lists(st.tuples(rationals, polynomials_strategy()), max_size=4))
    def test_linear_combination_matches_chained_sums(self, pairs):
        chained = CartesianPolynomial.zero(2)
        for c, p in pairs:
            chained = chained + p.scale(c)
        combined = CartesianPolynomial.linear_combination(2, pairs)
        assert combined == chained
        assert (combined.den, combined.nums) == (chained.den, chained.nums)

    def test_linear_combination_of_nothing_is_zero(self):
        assert CartesianPolynomial.linear_combination(3, []) == CartesianPolynomial.zero(3)

    def test_linear_combination_cancels_to_reduced_form(self):
        p = poly(1, {(0,): F(1, 6), (1,): F(1, 4)})
        q = poly(1, {(1,): F(1, 4)})
        diff = CartesianPolynomial.linear_combination(1, [(2, p), (-2, q)])
        assert diff == poly(1, {(0,): F(1, 3)})
        assert (diff.den, diff.nums) == (3, {(0,): 1})
        assert p - q == poly(1, {(0,): F(1, 6)})

    def test_difference_witness(self):
        # the witness of a failing polynomial identity in a verify report
        p = poly(2, {(0, 0): F(1, 2), (1, 0): F(1, 3)})
        q = poly(2, {(0, 0): F(1, 2), (0, 1): F(-5, 4), (1, 0): F(1, 3)})
        assert difference_witness(p, p.scale(1)) is None
        assert difference_witness(p, q) == {"exp": [0, 1], "lhs": "0", "rhs": "-5/4"}

    def test_linear_combination_checks_each_term(self):
        x = CartesianPolynomial.variable(2, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            CartesianPolynomial.linear_combination(1, [(1, x)])
        with pytest.raises(ValueError, match="coefficient"):
            CartesianPolynomial.linear_combination(2, [(0.5, x)])

    @settings(max_examples=40)
    @given(polynomials_strategy(), polynomials_strategy(), polynomials_strategy())
    def test_ring_axioms(self, p, q, r):
        assert p * q == q * p
        assert p + q == q + p
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)


class TestBernsteinBasis:
    def test_univariate_example(self):
        assert bernstein_basis((1, 1)).terms == \
            {(1,): Fraction(2), (2,): Fraction(-2)}

    @pytest.mark.parametrize("alpha", [(1.5, 0.5), ("1", "1"), (1,), (1, -1)])
    def test_rejects_invalid_index(self, alpha):
        with pytest.raises(ValueError):
            bernstein_basis(alpha)
        with pytest.raises(ValueError):
            bernstein_value(alpha, [Fraction(1, 3)])

    def test_constant(self):
        assert bernstein_basis((0, 0, 0)).terms == {(0, 0): Fraction(1)}

    def test_bivariate_example(self):
        assert bernstein_basis((1, 1, 0)).terms == \
            {(1, 0): Fraction(2), (2, 0): Fraction(-2), (1, 1): Fraction(-2)}

    def test_partition_of_unity(self):
        for d in (1, 2, 3):
            for n in range(9 if d == 1 else 7):
                total = CartesianPolynomial.zero(d)
                for alpha in enumerate_multi_indices(n, d):
                    total = total + bernstein_basis(alpha)
                assert total == CartesianPolynomial.constant(d, 1), (d, n)

    def test_nonnegative_on_simplex(self):
        rng = random.Random(12345)
        for d in (1, 2, 3):
            points = [sample_simplex_point(rng, d) for _ in range(5)]
            for alpha in enumerate_multi_indices(3, d):
                basis = bernstein_basis(alpha)
                for pt in points:
                    assert min(pt) >= 0 and sum(pt) <= 1
                    assert basis.evaluate(pt) >= 0

    def test_integral_equals_inner_one(self):
        for d in (1, 2, 3):
            for n in range(7):
                for alpha in enumerate_multi_indices(n, d):
                    assert integrate_simplex(bernstein_basis(alpha)) == \
                        inner_one_bernstein(alpha, d)

    def test_value_shortcut_matches_expansion(self):
        rng = random.Random(99)
        for d in (1, 2):
            pts = [sample_simplex_point(rng, d) for _ in range(3)]
            for alpha in enumerate_multi_indices(3, d):
                expanded = bernstein_basis(alpha)
                for pt in pts:
                    assert bernstein_value(alpha, pt) == expanded.evaluate(pt)


    def test_matches_product_of_powers(self):
        # B_a = mult(a) * (1 - x_1 - ... - x_d)^a0 * x_1^a1 ... x_d^ad, by ring
        # arithmetic alone
        for d in (1, 2, 3):
            x = [CartesianPolynomial.variable(d, v) for v in range(1, d + 1)]
            x0 = CartesianPolynomial.constant(d, 1) - sum(x, CartesianPolynomial.zero(d))
            for n in range(9):
                for alpha in enumerate_multi_indices(n, d):
                    expected = prod((xv ** a for xv, a in zip(x, alpha[1:])),
                                    start=multinomial(alpha) * x0 ** alpha[0])
                    assert bernstein_basis(alpha) == expected, alpha

    def test_keeps_cache_info(self):
        # the benchmark reads the basis cache's hit and miss counts
        info = bernstein_basis.cache_info()
        assert info.hits >= 0 and info.misses >= 0

    @pytest.mark.parametrize("alpha", [(1.0, 0), (True, False)])
    def test_cached_index_does_not_admit_an_equal_float_or_bool(self, alpha):
        # (1.0, 0) and (True, False) equal (1, 0) and hash as it does: the
        # cache keys each part with its type, so they miss and are refused
        assert bernstein_basis((1, 0)).terms == {(0,): 1, (1,): -1}
        before = bernstein_basis.cache_info()
        with pytest.raises(ValueError, match="multi-index part must be an integer"):
            bernstein_basis(alpha)
        bernstein_basis((1, 0))
        after = bernstein_basis.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


class TestEvaluation:
    def test_bernstein_midpoint(self):
        assert bernstein_basis((1, 1)).evaluate([Fraction(1, 2)]) == Fraction(1, 2)

    def test_constant_term_at_origin(self):
        p = poly(2, {(0, 0): Fraction(5, 3), (1, 1): 7})
        assert p.evaluate([0, 0]) == Fraction(5, 3)

    def test_bivariate_example(self):
        value = bernstein_value((0, 1, 1), [Fraction(1, 3), Fraction(1, 3)])
        assert value == Fraction(2, 9)

    def test_outside_simplex_is_allowed(self):
        p = bernstein_basis((1, 1))
        assert p.evaluate([Fraction(2)]) == -4  # 2*2*(1-2)

    def test_point_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bernstein_basis((1, 1)).evaluate([Fraction(1), Fraction(2)])


class TestIntegerPoint:
    def test_ints_and_fractions_accepted(self):
        assert integer_point((1, Fraction(1, 3)), 2) == (3, (-1, 3, 1))
        assert CartesianPolynomial.variable(1, 1).evaluate([Fraction(1, 2)]) == Fraction(1, 2)

    @pytest.mark.parametrize("build", [
        lambda: integer_point([0.1], 1),
        lambda: integer_point([Fraction(1, 3), "1/3"], 2),
        lambda: inner_sum_identity(2, (1, 1), [0.1]),
        lambda: CartesianPolynomial.variable(1, 1).evaluate([0.5]),
    ], ids=["float", "string", "inner_sum_identity", "evaluate"])
    def test_float_and_string_coordinates_rejected(self, build):
        with pytest.raises(ValueError, match="point coordinate"):
            build()

    @pytest.mark.parametrize("pt", [(), (Fraction(1, 3),), (0, 0, 0)])
    def test_wrong_coordinate_count_rejected(self, pt):
        with pytest.raises(ValueError, match=f"^point has {len(pt)} coordinates, expected 2$"):
            integer_point(pt, 2)


class TestIntegration:
    def test_constant_over_triangle(self):
        assert integrate_simplex(CartesianPolynomial.constant(2, 1)) == Fraction(1, 2)

    def test_x_over_interval(self):
        assert integrate_simplex(CartesianPolynomial.variable(1, 1)) == Fraction(1, 2)

    def test_inner_product_examples(self):
        one = CartesianPolynomial.constant(1, 1)
        x = CartesianPolynomial.variable(1, 1)
        assert inner_product(x, x) == Fraction(1, 3)
        assert inner_product(one, bernstein_basis((0, 1))) == Fraction(1, 2)
        assert inner_product(bernstein_basis((1, 0)),
                             bernstein_basis((0, 1))) == Fraction(1, 6)

    def test_inner_product_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 1 vs 2$"):
            inner_product(CartesianPolynomial.constant(1, 1),
                          CartesianPolynomial.constant(2, 1))


class TestSerialization:
    def test_written_terms_are_the_coefficients(self):
        p = poly(2, {(2, 0): Fraction(-7, 3), (0, 1): 4})
        assert p.to_json_dict() == {"d": 2, "terms": [{"exp": [0, 1], "coef": "4"},
                                                      {"exp": [2, 0], "coef": "-7/3"}]}

    def test_deterministic_term_order(self):
        p = poly(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3})
        exps = [t["exp"] for t in p.to_json_dict()["terms"]]
        assert exps == [[0, 0], [0, 1], [1, 0]]

    def test_coefficients_are_fraction_strings(self):
        p = poly(1, {(1,): Fraction(2, 6)})
        assert p.to_json_dict()["terms"][0]["coef"] == "1/3"
