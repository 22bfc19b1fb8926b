import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

import bdk.kernels
from bdk.combinat import (clear_denominators, enumerate_multi_indices, format_rational,
                          index_factorial)
from bdk.kernels import (
    BernsteinKernelForm,
    DiagonalKernelForm,
    KernelPolynomial,
    first_coordinate_difference,
    first_kernel_difference,
    inner_sum_identity,
    kernel_closed,
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_coordinates,
    kernel_definition_threefold,
    kernel_definition_twofold,
    kernel_legendre,
    kernel_single,
    kernel_univariate_twofold,
    to_canonical,
)
from bdk.durrmeyer import apply_operator, compose_apply
from bdk.polynomials import (
    CartesianPolynomial,
    bernstein_basis,
    bernstein_value,
    inner_product,
    integrate_simplex,
)
from bdk.simplex_integrals import bernstein_product_integral, inner_one_bernstein
from bdk.verify import DEFAULT_DEGREE_CAPS, _stochastic

from sampling import sample_simplex_point

F = Fraction

#: Every (d, m, n) of the default two-fold checks.
DEFAULT_TWOFOLD = [(d, m, n) for d, cap in DEFAULT_DEGREE_CAPS.items()
                   for m in range(cap + 1) for n in range(cap + 1)]

# K_{1,1} = (2/3) * (1 + (1-x)(1-y) + x y), expanded by hand
K11_TERMS = {
    (0, 0): F(4, 3),
    (1, 0): F(-2, 3),
    (0, 1): F(-2, 3),
    (1, 1): F(4, 3),
}


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def diagonal_form_pairs(draw):
    """(lhs, rhs, m): two diagonal forms of one dimension with index degrees
    at most m <= 4.  rhs is lhs with its weights times r and its scale over
    r, the same kernel, or that with one weight or the scale changed, or a
    fresh draw; scales are negative, zero or positive."""
    d = draw(st.integers(1, 2))
    m = draw(st.integers(0, 4))

    def form():
        degrees = draw(st.lists(st.integers(0, m), unique=True, max_size=3))
        return DiagonalKernelForm(d, draw(small_rationals),
                                  [(j, draw(small_rationals.filter(bool))) for j in degrees])
    lhs = form()
    ratio = draw(small_rationals.filter(bool))
    terms = [(j, w * ratio) for j, w in lhs.terms]
    scale = lhs.scale / ratio
    change = draw(st.sampled_from(["none", "weight", "scale", "fresh"]))
    if change == "weight" and terms:
        j, w = terms[-1]
        terms[-1] = (j, w + 1 or 1)
    elif change == "scale":
        scale = draw(st.sampled_from([0, -scale, 2 * scale, scale + 1]))
    rhs = form() if change == "fresh" else DiagonalKernelForm(d, scale, terms)
    return lhs, rhs, m


class TestKernelPolynomial:
    def test_outer_product(self):
        x = CartesianPolynomial.variable(1, 1)
        k = KernelPolynomial.outer(x, x)
        assert k.terms == {(1, 1): F(1)}

    def test_zero_coefficients_dropped(self):
        k = KernelPolynomial(1, {(0, 0): F(0), (1, 0): F(2)})
        assert k.terms == {(1, 0): F(2)}

    def test_transpose(self):
        k = KernelPolynomial(1, {(1, 0): F(2)})
        assert k.transpose().terms == {(0, 1): F(2)}

    def test_json_splits_each_key_into_its_blocks(self):
        k = KernelPolynomial(2, {(1, 0, 0, 2): F(-3, 7)})
        assert k.to_json_dict() == {"d": 2, "form": "canonical", "scale": "1", "terms": [
            {"exp_x": [1, 0], "exp_y": [0, 2], "coef": "-3/7"}]}

    def test_evaluation_dimension_mismatch(self):
        k = KernelPolynomial(2, {(1, 0, 0, 1): F(1)})
        with pytest.raises(ValueError, match="^points have 1 and 2 coordinates, expected 2$"):
            k.evaluate([F(1)], [F(0), F(0)])
        with pytest.raises(ValueError, match="^points have 2 and 3 coordinates"):
            k.evaluate([F(1), F(0)], [F(0), F(0), F(1)])
        with pytest.raises(ValueError, match="point coordinate"):
            k.evaluate([F(1), 0.5], [F(0), F(0)])


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def kernel_and_parts(draw):
    """(a, b, fx, fy): two kernels and two polynomials sharing one d <= 3."""
    d = draw(st.integers(1, 3))
    kernel_keys = st.tuples(*[st.integers(0, 3)] * (2 * d))
    poly_keys = st.tuples(*[st.integers(0, 3)] * d)
    a, b = (KernelPolynomial(d, draw(st.dictionaries(kernel_keys, rationals, max_size=6)))
            for _ in range(2))
    fx, fy = (CartesianPolynomial(d, draw(st.dictionaries(poly_keys, rationals, max_size=4)))
              for _ in range(2))
    return a, b, fx, fy


class TestKernelIsAPolynomial:
    @settings(max_examples=60, deadline=None)
    @given(kernel_and_parts(), rationals)
    def test_operations_stay_exact_kernels(self, parts, c):
        a, b, fx, fy = parts
        results = [a + b, a - b, -a, a.scale(c), a.transpose(), KernelPolynomial.outer(fx, fy)]
        for k in results:
            assert type(k) is KernelPolynomial
            assert all(type(v) is Fraction and v for v in k.terms.values())
        assert (a + b) - b == a
        assert hash((a + b) - b) == hash(a)
        assert a.transpose().transpose() == a
        assert hash(a.transpose().transpose()) == hash(a)
        assert a - a == KernelPolynomial.zero(a.d)
        x = [F(1, 3)] * a.d
        y = [F(-2, 5)] * a.d
        assert KernelPolynomial.outer(fx, fy).evaluate(x, y) == fx.evaluate(x) * fy.evaluate(y)
        assert a.transpose().evaluate(x, y) == a.evaluate(y, x)

    def test_polynomial_functions_refuse_a_kernel(self):
        kernel = kernel_definition_twofold(1, 1, 1).expand()
        one = CartesianPolynomial.constant(1, 1)
        with pytest.raises(ValueError):
            integrate_simplex(kernel)
        with pytest.raises(ValueError):
            inner_product(kernel, one)
        with pytest.raises(ValueError):
            inner_product(one, kernel)
        with pytest.raises(ValueError):
            apply_operator(2, kernel)

    def test_kernel_and_polynomial_never_mix(self):
        # a d = 1 kernel and a d = 2 polynomial both have 2-tuple keys
        kernel = KernelPolynomial(1, {(1, 0): 1})
        poly = CartesianPolynomial(2, {(1, 0): 1})
        assert kernel != poly
        assert KernelPolynomial.zero(1) != CartesianPolynomial.zero(1)
        with pytest.raises(ValueError):
            kernel + CartesianPolynomial.constant(1, 1)
        with pytest.raises(ValueError):
            KernelPolynomial.outer(kernel, kernel)
        with pytest.raises(ValueError,
                           match="^cannot combine KernelPolynomial with CartesianPolynomial$"):
            kernel * CartesianPolynomial.constant(1, 1)

    MIXES = {
        "+": lambda a, b: a + b,
        "*": lambda a, b: a * b,
        "linear_combination": lambda a, b: type(a).linear_combination(a.d, [(1, a), (1, b)]),
        "first_difference": lambda a, b: a.first_difference(b),
    }

    @pytest.mark.parametrize("op", MIXES)
    def test_mixed_operands_name_both_sides(self, op):
        combine = self.MIXES[op]
        kernel, poly = KernelPolynomial(1, {(1, 0): 1}), CartesianPolynomial(1, {(1,): 1})
        with pytest.raises(ValueError,
                           match="^cannot combine KernelPolynomial with CartesianPolynomial$"):
            combine(kernel, poly)
        with pytest.raises(ValueError,
                           match="^cannot combine CartesianPolynomial with KernelPolynomial$"):
            combine(poly, kernel)
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
            combine(poly, CartesianPolynomial.variable(2, 1))
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 1$"):
            combine(KernelPolynomial.variable(2, 1), kernel)


class TestDiagonalKernelForm:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="nonzero"):
            DiagonalKernelForm(1, 1, [(0, 2), (1, 0)])

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match=">= 0"):
            DiagonalKernelForm(2, 1, [(1, 1), (-1, 1)])

    def test_rejects_repeated_degree(self):
        with pytest.raises(ValueError, match="repeat"):
            DiagonalKernelForm(2, 1, [(1, 1), (0, 3), (1, F(1, 2))])

    def test_sorts_degrees(self):
        # the weights 7, -1, 2/5 over their denominator 5 are 35, -5, 2,
        # with gcd 1 and the first positive, so the scale is 1/2 / 5
        form = DiagonalKernelForm(2, F(1, 2), [(3, F(2, 5)), (0, 7), (1, -1)])
        assert form.terms == ((0, 35), (1, -5), (3, 2))
        assert all(type(w) is int for _, w in form.terms)
        assert form.scale == F(1, 10)
        assert form.max_index_degree() == 3
        assert form == DiagonalKernelForm(2, F(1, 2), [(0, 7), (1, -1), (3, F(2, 5))])
        assert DiagonalKernelForm(2, 1, []).max_index_degree() == -1

    def test_a_common_factor_and_sign_move_into_the_scale(self):
        form = DiagonalKernelForm(1, F(3, 7), [(2, -6), (0, -4)])
        assert (form.scale, form.terms) == (F(-6, 7), ((0, 2), (2, 3)))
        assert DiagonalKernelForm(1, 2, [(0, 1)]) == DiagonalKernelForm(1, 1, [(0, 2)])
        assert DiagonalKernelForm(1, -1, [(0, 1)]) == DiagonalKernelForm(1, 1, [(0, -1)])
        # every zero form is the one zero kernel of its dimension
        zeros = [DiagonalKernelForm(1, 0, [(0, 1)]), DiagonalKernelForm(1, 0, [(1, 5)]),
                 DiagonalKernelForm(1, 3, [])]
        assert len(set(zeros)) == 1 and zeros[0] == zeros[2]
        assert zeros[0] != DiagonalKernelForm(2, 0, [])

    @settings(max_examples=300, deadline=None)
    @given(diagonal_form_pairs())
    @example((DiagonalKernelForm(1, 2, [(0, 1)]), DiagonalKernelForm(1, 1, [(0, 2)]), 0))
    @example((DiagonalKernelForm(2, 0, [(0, 1)]), DiagonalKernelForm(2, 0, [(1, 3)]), 1))
    @example((DiagonalKernelForm(1, -3, [(1, 2)]), DiagonalKernelForm(1, 6, [(1, -1)]), 2))
    def test_equal_exactly_when_the_coordinates_agree(self, pair):
        lhs, rhs, m = pair
        same = first_coordinate_difference(lhs.coordinates(m, m), rhs.coordinates(m, m)) is None
        assert (lhs == rhs) == (rhs == lhs) == same
        if same:
            assert hash(lhs) == hash(rhs)

    def test_closed_builders_enumerate_no_index(self, monkeypatch):
        calls = []

        def counted(n, d):
            calls.append((n, d))
            return enumerate_multi_indices(n, d)
        monkeypatch.setattr(bdk.kernels, "_multi_indices", counted)
        forms = [kernel_single(30, 3), kernel_closed_twofold(30, 30, 3),
                 kernel_univariate_twofold(20, 20), kernel_closed_threefold(5, 4, 3)]
        assert calls == []
        assert [len(f.terms) for f in forms] == [1, 31, 21, 4]

    def test_empty_form_canonicalizes_to_zero(self):
        assert to_canonical(DiagonalKernelForm(1, 5, [])).is_zero()

    def test_direct_evaluation_matches_canonical(self):
        form = kernel_closed_twofold(2, 2, 2)
        x, y = [F(1, 5), F(2, 5)], [F(1, 3), F(1, 7)]
        assert form.evaluate(x, y) == to_canonical(form).evaluate(x, y)


class TestKernelSingle:
    def test_degree_zero_is_inverse_volume(self):
        assert to_canonical(kernel_single(0, 1)).terms == {(0, 0): F(1)}
        assert to_canonical(kernel_single(0, 2)).terms == {(0, 0, 0, 0): F(2)}

    def test_scale_and_unit_weights(self):
        form = kernel_single(3, 2)
        assert form.scale == F(120, 6)  # (3+2)!/3!
        assert form.terms == ((3, F(1)),)  # weight 1 on every index of degree 3

    def test_row_integral_is_one(self):
        kernel = to_canonical(kernel_single(1, 1))
        assert kernel.integrate_y() == CartesianPolynomial.constant(1, 1)


class TestTwofoldKernels:
    def test_definition_trivial_cases(self):
        assert kernel_definition_twofold(0, 0, 1).expand().terms == {(0, 0): F(1)}
        assert kernel_definition_twofold(0, 0, 2).expand().terms == {(0, 0, 0, 0): F(2)}

    def test_definition_value_at_origin(self):
        # only the alpha = beta = (1,0) term survives at x = y = 0
        assert kernel_definition_twofold(1, 1, 1).evaluate([0], [0]) == F(4, 3)

    def test_closed_equals_definition_small(self):
        for d in (1, 2):
            for m in range(3):
                for n in range(3):
                    closed = to_canonical(kernel_closed_twofold(m, n, d))
                    assert closed == kernel_definition_twofold(m, n, d).expand(), (d, m, n)

    def test_closed_one_one_expansion(self):
        assert to_canonical(kernel_closed_twofold(1, 1, 1)).terms == K11_TERMS

    def test_degree_zero_side_gives_constant(self):
        for d in (1, 2, 3):
            for n in (0, 2, 4):
                kernel = to_canonical(kernel_closed_twofold(0, n, d))
                assert kernel.terms == {(0,) * (2 * d): F(index_factorial((d,)))}

    def test_form_symmetric_in_degrees(self):
        assert kernel_closed_twofold(2, 5, 2) == kernel_closed_twofold(5, 2, 2)

    def test_truncation_at_min_degree(self):
        form = kernel_closed_twofold(3, 7, 2)
        assert form.max_index_degree() == 3

    @pytest.mark.parametrize("d, m, n", DEFAULT_TWOFOLD)
    def test_closed_index_degrees_are_zero_to_min_degree(self, d, m, n):
        terms = kernel_closed_twofold(m, n, d).terms
        assert [j for j, _ in terms] == list(range(min(m, n) + 1))
        assert all(w != 0 for _, w in terms)

    def test_stochastic_in_y(self):
        for d in (1, 2):
            kernel = kernel_definition_twofold(2, 1, d).expand()
            assert kernel.integrate_y() == CartesianPolynomial.constant(d, 1)


class TestUnivariateTwofold:
    def test_value_at_origin(self):
        assert to_canonical(kernel_univariate_twofold(1, 1)).evaluate([0], [0]) == F(4, 3)

    def test_matches_the_definitional_coordinates(self):
        for m in range(5):
            for n in range(5):
                univariate = kernel_univariate_twofold(m, n).coordinates(m, n)
                assert first_coordinate_difference(
                    univariate, kernel_definition_coordinates((m, n), 1)) is None, (m, n)

    def test_degree_zero_is_constant_one(self):
        for n in range(4):
            assert to_canonical(kernel_univariate_twofold(0, n)).terms == {(0, 0): F(1)}


class TestLegendreKernel:
    def test_one_one_frozen_expansion(self):
        assert kernel_legendre(1, 1).expand().terms == K11_TERMS

    def test_one_one_coordinates(self):
        # (2/3) (1 + (1-x)(1-y) + x y) with 1 = B_(1,0) + B_(0,1), B_(1,0) = 1-x, B_(0,1) = x
        form = kernel_legendre(1, 1)
        assert form.x_indices == form.y_indices == ((1, 0), (0, 1))
        assert form.terms == {((1, 0), (1, 0)): F(4, 3), ((0, 1), (1, 0)): F(2, 3),
                              ((1, 0), (0, 1)): F(2, 3), ((0, 1), (0, 1)): F(4, 3)}

    def test_zero_zero_is_one(self):
        assert kernel_legendre(0, 0).expand().terms == {(0, 0): F(1)}

    def test_matches_univariate_closed_form(self):
        for m in range(6):
            for n in range(6):
                legendre = kernel_legendre(m, n)
                assert legendre.x_indices == tuple(enumerate_multi_indices(m, 1))
                assert legendre.y_indices == tuple(enumerate_multi_indices(n, 1))
                assert legendre.expand() == to_canonical(kernel_closed_twofold(m, n, 1)), (m, n)


class TestThreefoldKernels:
    def test_definition_trivial(self):
        assert kernel_definition_threefold(0, 0, 0, 1).expand().terms == {(0, 0): F(1)}

    def test_definition_value_frozen(self):
        # triple-sum brute force at the origin, cross-checked by hand
        assert kernel_definition_threefold(1, 1, 1, 1).evaluate([0], [0]) == F(10, 9)

    def test_closed_trivial_prefactor(self):
        form = kernel_closed_threefold(0, 0, 0)
        assert form.scale == 1
        assert to_canonical(form).terms == {(0, 0): F(1)}

    def test_closed_equals_definition_small(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    closed = to_canonical(kernel_closed_threefold(a, b, c))
                    assert closed == kernel_definition_threefold(a, b, c, 1).expand(), (a, b, c)

    def test_definition_permutation_invariance(self):
        base = kernel_definition_threefold(2, 1, 0, 1).expand()
        for perm in permutations((2, 1, 0)):
            assert kernel_definition_threefold(*perm, 1).expand() == base, perm

    def test_closed_form_symmetric(self):
        forms = {kernel_closed_threefold(*perm) for perm in permutations((3, 1, 2))}
        assert len(forms) == 1

    def test_definition_supports_higher_dimension(self):
        kernel = kernel_definition_threefold(1, 0, 1, 2).expand()
        assert kernel.integrate_y() == CartesianPolynomial.constant(2, 1)


def monomials_up_to(degree, d):
    return [CartesianPolynomial(d, {mi[1:]: 1})
            for k in range(degree + 1) for mi in enumerate_multi_indices(k, d)]


def applied(kernel, f):
    """x -> int K(x, y) f(y) dy, the operator a kernel represents, applied to f."""
    one = CartesianPolynomial.constant(f.d, 1)
    return (kernel * KernelPolynomial.outer(one, f)).integrate_y()


def chain_reference(degrees, d):
    """The coefficient of B_a(x) B_b(y), keyed (a, b), of the kernel of
    M_{n_r} o ... o M_{n_1} (degrees outermost first), from the definition
    alone: the Fraction sum over every index chain a = b_r, ..., b_1 = b of
    prod_i <B_{b_i}, B_{b_{i+1}}> / prod_i <1, B_{b_i}>; nonzero entries only."""
    out = {}
    for chain in product(*(enumerate_multi_indices(n, d) for n in degrees)):
        value = F(1)
        for b in chain:
            value /= inner_one_bernstein(b, d)
        for b, c in zip(chain, chain[1:]):
            value *= bernstein_product_integral(b, c, d)
        key = (chain[0], chain[-1])
        out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


class TestChainDefinition:
    """kernel_definition_coordinates, expanded, against the single kernel and
    against operator application."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("degrees", [(3,), (3, 1), (0, 2), (3, 1, 2), (2, 0, 3),
                                         (1, 3, 0, 2), (2, 1, 3, 1)])
    def test_coordinates_equal_the_gram_sum_over_every_chain(self, d, degrees):
        # unequal degrees at every level, so a step that reads a neighbouring
        # level's degree, or its indices, builds another kernel
        assert kernel_definition_coordinates(degrees, d).terms == chain_reference(degrees, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_operator_is_the_single_kernel(self, d):
        for n in range(5):
            assert kernel_definition_coordinates((n,), d).expand() == \
                to_canonical(kernel_single(n, d)), n

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("degrees", [(3,), (2, 3), (2, 1, 3), (1, 2, 2, 1)],
                             ids=["r1", "r2", "r3", "r4"])
    def test_kernel_applies_the_composition(self, d, degrees):
        # compose_apply runs apply_operator once per operator: no kernel involved
        kernel = kernel_definition_coordinates(degrees, d).expand()
        for f in monomials_up_to(2, d):
            assert applied(kernel, f) == compose_apply(degrees, f), f

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_chains(self, data):
        d = data.draw(st.integers(1, 2))
        degrees = data.draw(st.lists(st.integers(0, 3 if d == 1 else 2), min_size=1, max_size=4))
        f = data.draw(st.sampled_from(monomials_up_to(2, d)))
        kernel = kernel_definition_coordinates(degrees, d).expand()
        assert applied(kernel, f) == compose_apply(degrees, f)
        # each operator is self-adjoint, so reversing the chain transposes the kernel
        assert kernel_definition_coordinates(degrees[::-1], d).expand() == kernel.transpose()

    def test_rejects_an_empty_chain(self):
        with pytest.raises(ValueError, match="at least one degree"):
            kernel_definition_coordinates((), 1)


#: (d, number of degrees, largest degree): every chain of 3 and 4 degrees
#: up to these bounds, about 3600 chains in all
CHAIN_BOUNDS = [(1, 3, 6), (1, 4, 6), (2, 3, 4), (2, 4, 4), (3, 3, 3), (3, 4, 2)]


def paper_twofold(m, n, d):
    """The paper's two-fold closed form: (m+d)! (n+d)!/(m+n+d)! times the
    weights C(m,k) C(n,k), k <= min(m, n)."""
    scale = F(factorial(m + d) * factorial(n + d), factorial(m + n + d))
    return DiagonalKernelForm(d, scale, [(k, comb(m, k) * comb(n, k))
                                         for k in range(min(m, n) + 1)])


def paper_threefold(n3, n2, n1):
    """The paper's d = 1 three-fold closed form: the weights
    C(n3,k) C(n2,k) C(n1,k)/C(n3+n2+n1+1,k) over the factorial prefactor
    (n3+1)! (n2+1)! (n1+1)! (n3+n2+n1+1)!/((n3+n2+1)! (n3+n1+1)! (n2+n1+1)!)."""
    total = n3 + n2 + n1
    scale = F(factorial(n3 + 1) * factorial(n2 + 1) * factorial(n1 + 1) * factorial(total + 1),
              factorial(n3 + n2 + 1) * factorial(n3 + n1 + 1) * factorial(n2 + n1 + 1))
    return DiagonalKernelForm(1, scale, [(k, F(comb(n3, k) * comb(n2, k) * comb(n1, k),
                                               comb(total + 1, k)))
                                         for k in range(min(n3, n2, n1) + 1)])


class TestChainClosed:
    """kernel_closed, the one closed builder, against the definitional
    builder on whole chains and against the paper's own formulas."""

    @pytest.mark.parametrize("d, r, top", CHAIN_BOUNDS)
    def test_coordinates_equal_the_definition_on_every_chain(self, d, r, top):
        for degrees in product(range(top + 1), repeat=r):
            closed = kernel_closed(degrees, d).coordinates(degrees[0], degrees[-1])
            definition = kernel_definition_coordinates(degrees, d)
            assert first_coordinate_difference(closed, definition) is None, degrees

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weights_are_positive_and_the_y_integral_is_one(self, d):
        # each B_l of degree j integrates to j!/(j+d)!, and the B_l(x) of one
        # degree sum to 1, so int K(x, y) dy = scale sum_j w_j j!/(j+d)!
        for r in (1, 2, 3, 4):
            for degrees in product(range(4), repeat=r):
                form = kernel_closed(degrees, d)
                assert form.scale > 0 and all(w > 0 for _, w in form.terms), degrees
                assert form.scale * sum(F(w * factorial(j), factorial(j + d))
                                        for j, w in form.terms) == 1, degrees
        form = kernel_closed((2, 1, 3), d)
        assert to_canonical(form).integrate_y() == CartesianPolynomial.constant(d, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_a_pair_is_the_papers_twofold_form(self, d):
        for m in range(12):
            for n in range(12):
                assert kernel_closed((m, n), d) == paper_twofold(m, n, d), (m, n)

    def test_a_univariate_triple_is_the_papers_threefold_form(self):
        for degrees in product(range(9), repeat=3):
            assert kernel_closed(degrees, 1) == paper_threefold(*degrees), degrees

    def test_the_operators_commute(self):
        # M_m o M_n = M_n o M_m, so every order of one chain is one form
        for d in (1, 2):
            for degrees in ((3, 1, 2), (0, 2, 4), (2, 2, 1, 3)):
                assert len({kernel_closed(p, d) for p in permutations(degrees)}) == 1

    def test_rejects_an_empty_chain(self):
        with pytest.raises(ValueError, match="at least one degree"):
            kernel_closed((), 1)


def rational_points(d):
    coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=97)
    return st.lists(coordinate, min_size=d, max_size=d)


class TestCoordinateForm:
    """kernel_definition_coordinates: the definitional kernel before expansion."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_chains_match_the_expanded_kernel(self, data):
        d = data.draw(st.integers(1, 3))
        degrees = data.draw(st.lists(st.integers(0, 3 if d < 3 else 2), min_size=1, max_size=4))
        x, y = data.draw(rational_points(d)), data.draw(rational_points(d))
        coords = kernel_definition_coordinates(degrees, d)
        assert coords.evaluate(x, y) == coords.expand().evaluate(x, y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_twofold_values_match_the_closed_form(self, d):
        rng = random.Random(d)
        for m, n in [(0, 0), (2, 0), (1, 3), (4, 4)]:
            coords = kernel_definition_coordinates((m, n), d)
            closed = kernel_closed_twofold(m, n, d)
            for _ in range(3):
                x, y = sample_simplex_point(rng, d), sample_simplex_point(rng, d)
                assert coords.evaluate(x, y) == closed.evaluate(x, y), (m, n, x, y)

    def test_shape_and_scale(self):
        # M_2 o M_1 at d = 1: rows over |b| = 1 (y), columns over |a| = 2 (x)
        coords = kernel_definition_coordinates((2, 1), 1)
        assert coords.x_indices == ((2, 0), (1, 1), (0, 2))
        assert coords.y_indices == ((1, 0), (0, 1))
        # G(a, b) = prod_v C(a_v+b_v, a_v), and S K = 3! 2! / (2! 1! 4!) * 2! 1!
        assert coords.rows == [[3, 2, 1], [1, 2, 3]]
        assert coords.scale == F(1, 2)
        # terms: scale * C[b][a], keyed by (a, b)
        assert coords.terms == {((2, 0), (1, 0)): F(3, 2), ((1, 1), (1, 0)): F(1),
                                ((0, 2), (1, 0)): F(1, 2), ((2, 0), (0, 1)): F(1, 2),
                                ((1, 1), (0, 1)): F(1), ((0, 2), (0, 1)): F(3, 2)}

    def test_definitional_kernel_is_the_canonical_map(self):
        kernel = kernel_definition_coordinates((2, 3), 2).expand()
        closed = to_canonical(kernel_closed_twofold(2, 3, 2))
        x, y = [F(1, 4), F(1, 3)], [F(2, 5), F(-1, 7)]
        assert type(kernel) is KernelPolynomial
        assert kernel == closed and hash(kernel) == hash(closed)
        assert kernel.terms == closed.terms and kernel.den == closed.den
        assert kernel.evaluate(x, y) == closed.evaluate(x, y) == \
            kernel_definition_coordinates((2, 3), 2).evaluate(x, y)

    @pytest.mark.parametrize("degrees, d", [((0, 0), 1), ((3, 2), 1), ((2, 4), 2),
                                            ((3, 1), 3), ((2, 1, 3), 2), ((2,), 2)])
    def test_stochastic_check_agrees_with_the_expanded_y_integral(self, degrees, d):
        coords = kernel_definition_coordinates(degrees, d)
        assert _stochastic(coords) is None
        # a y integral of 1 in every Bernstein coordinate of x is the constant 1
        x_side = CartesianPolynomial.linear_combination(
            d, ((1, bernstein_basis(a)) for a in coords.x_indices))
        assert x_side == coords.expand().integrate_y()

    def test_stochastic_check_reads_each_column(self):
        coords = kernel_definition_coordinates((2, 1), 1)
        coords.rows[1][2] += 2  # C[(0, 1)][(0, 2)]: scale 1/2 and int B_b = 1/2
        assert _stochastic(coords) == {"a": [0, 2], "lhs": "3/2", "rhs": "1"}

    @pytest.mark.parametrize("d, m, n", DEFAULT_TWOFOLD)
    def test_closed_and_definitional_coordinates_are_one_matrix(self, d, m, n):
        # Vandermonde in each slot makes both sides scale * prod_v C(a_v+b_v, a_v)
        # with the closed scale (m+d)! (n+d)! / (m+n+d)!: the constant m! n!
        # is in the definitional scale, and the rows compare as they are
        closed = kernel_closed_twofold(m, n, d).coordinates(m, n)
        definition = kernel_definition_twofold(m, n, d)
        assert closed.scale == definition.scale == \
            F(factorial(m + d) * factorial(n + d), factorial(m + n + d))
        assert closed.rows == definition.rows == [
            [prod(map(comb, map(add, a, b), a)) for a in definition.x_indices]
            for b in definition.y_indices]

    @pytest.mark.parametrize("d, m, n", DEFAULT_TWOFOLD)
    def test_reversed_degrees_transpose_the_coordinates(self, d, m, n):
        # each operator is self-adjoint, so C_{n,m} = C_{m,n} transposed, entry by entry
        swapped = kernel_definition_coordinates((n, m), d)
        transposed = kernel_definition_coordinates((m, n), d).transpose()
        assert (swapped.d, swapped.m, swapped.n, swapped.scale, swapped.rows) == \
            (transposed.d, transposed.m, transposed.n, transposed.scale, transposed.rows)

    def test_a_single_operator_has_identity_coordinates(self):
        coords = kernel_definition_coordinates((2,), 2)
        size = len(coords.x_indices)
        assert coords.rows == [[int(i == j) for j in range(size)] for i in range(size)]
        assert coords.scale == 12  # (n+d)!/n! = 4!/2!


nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=30).filter(bool)


@st.composite
def diagonal_forms_and_degrees(draw):
    """(form, m, n): a diagonal form with random rational weights whose index
    degree is at most min(m, n) <= 4."""
    d = draw(st.integers(1, 3))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    degrees = draw(st.lists(st.integers(0, min(m, n)), unique=True, max_size=3))
    form = DiagonalKernelForm(d, draw(nonzero_rationals),
                              [(j, draw(nonzero_rationals)) for j in degrees])
    return form, m, n


@st.composite
def bernstein_forms(draw):
    """A kernel in Bernstein coordinates with a random integer matrix."""
    d = draw(st.integers(1, 3))
    m, n = draw(st.integers(0, 3 if d < 3 else 2)), draw(st.integers(0, 3 if d < 3 else 2))
    width, height = len(enumerate_multi_indices(m, d)), len(enumerate_multi_indices(n, d))
    entry = st.integers(-50, 50)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=height, max_size=height))
    return BernsteinKernelForm(d, draw(nonzero_rationals), m, n, rows)


def crossed_difference(lhs, rhs):
    """The first coefficient where two forms on one basis differ, every row of
    both sides multiplied by the other side's scale: the reference for
    `first_coordinate_difference` on rows of one shape."""
    p = lhs.scale.numerator * rhs.scale.denominator
    q = rhs.scale.numerator * lhs.scale.denominator
    for b, left, right in zip(lhs.y_indices, lhs.rows, rhs.rows):
        for a, u, v in zip(lhs.x_indices, left, right):
            if p * u != q * v:
                return {"a": list(a), "b": list(b), "lhs": format_rational(lhs.scale * u),
                        "rhs": format_rational(rhs.scale * v)}
    return None


class TestClosedCoordinates:
    """DiagonalKernelForm.coordinates and BernsteinKernelForm.elevate: degree
    elevation into the product basis, checked against the canonical map."""

    @settings(max_examples=60, deadline=None)
    @given(diagonal_forms_and_degrees())
    def test_coordinates_expand_to_the_canonical_map(self, case):
        form, m, n = case
        coords = form.coordinates(m, n)
        assert coords.x_indices == tuple(enumerate_multi_indices(m, form.d))
        assert coords.y_indices == tuple(enumerate_multi_indices(n, form.d))
        assert coords.expand() == to_canonical(form)

    @settings(max_examples=40, deadline=None)
    @given(bernstein_forms(), st.integers(0, 2), st.integers(0, 2))
    def test_elevation_keeps_the_kernel(self, form, up_x, up_y):
        m, n = form.m + up_x, form.n + up_y
        elevated = form.elevate(m, n)
        assert elevated.x_indices == tuple(enumerate_multi_indices(m, form.d))
        assert elevated.y_indices == tuple(enumerate_multi_indices(n, form.d))
        assert elevated.expand() == form.expand()
        assert elevated.transpose().expand() == form.expand().transpose()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_coordinates_are_the_definitional_ones(self, d):
        for m, n in [(0, 0), (3, 0), (1, 2), (3, 3)]:
            assert first_coordinate_difference(kernel_closed_twofold(m, n, d).coordinates(m, n),
                                               kernel_definition_twofold(m, n, d)) is None

    def test_elevation_lowers_the_scale(self):
        # B^1_(1,0) = B^2_(2,0) + B^2_(1,1) / 2: coefficients C(a, l) = 2, 1, scale / C(2, 1)
        form = BernsteinKernelForm(1, F(3), 1, 0, [[1, 0]])
        elevated = form.elevate(2, 0)
        assert elevated.rows == [[2, 1, 0]] and elevated.scale == F(3, 2)
        with pytest.raises(ValueError, match="cannot lower"):
            elevated.elevate(1, 0)

    def test_coordinates_refuse_an_index_above_the_degrees(self):
        form = kernel_closed_twofold(3, 3, 2)
        with pytest.raises(ValueError, match="index degree 3"):
            form.coordinates(2, 5)
        with pytest.raises(ValueError, match="index degree 3"):
            form.coordinates(4, 2)
        assert form.coordinates(3, 4).expand() == to_canonical(form)

    def test_difference_cross_multiplies_the_scales(self):
        coords = kernel_definition_twofold(2, 1, 1)
        same = BernsteinKernelForm(1, coords.scale / 3, coords.m, coords.n,
                                   [[3 * c for c in row] for row in coords.rows])
        assert first_coordinate_difference(coords, same) is None
        same.rows[1][2] += 1  # C[(0, 1)][(0, 2)]
        assert first_coordinate_difference(coords, same) == {
            "a": [0, 2], "b": [0, 1], "lhs": "3/2", "rhs": "5/3"}
        with pytest.raises(ValueError, match="one basis"):
            first_coordinate_difference(coords, coords.transpose())

    @settings(max_examples=150, deadline=None)
    @given(bernstein_forms(), st.sampled_from(["p/1", "1/q", "p/q", "1/1", "0", "0/0"]),
           st.integers(2, 30), st.sampled_from([1, -1]), st.booleans(), st.data())
    def test_one_sided_difference_is_the_cross_multiplied_one(self, form, kind, p, sign,
                                                              perturb, data):
        # lhs.scale / rhs.scale reduces to the factor pair the kind names
        # (p/1 multiplies only the right rows, 1/q only the left ones, p/q
        # both, 1/1 neither; 0 is a zero left scale, 0/0 two zero scales),
        # and the rows are written so that every coefficient agrees
        ratio = {"p/1": F(sign * p), "1/q": F(sign, p), "p/q": F(sign * p, p + 1),
                 "1/1": F(1), "0": F(0), "0/0": F(0)}[kind]
        scale = F(0) if kind == "0/0" else form.scale
        num, den = ratio.numerator, ratio.denominator
        rhs = BernsteinKernelForm(form.d, scale, form.m, form.n,
                                  [[num * c for c in row] for row in form.rows])
        lhs = BernsteinKernelForm(form.d, scale * ratio, form.m, form.n,
                                  [[den * c for c in row] for row in form.rows])
        if perturb:
            i = data.draw(st.integers(0, len(lhs.rows) - 1))
            k = data.draw(st.integers(0, len(lhs.rows[i]) - 1))
            lhs.rows[i][k] += data.draw(st.sampled_from([1, -1, 7]))
        found = first_coordinate_difference(lhs, rhs)
        assert found == crossed_difference(lhs, rhs)
        assert (found is None) == (not perturb or lhs.scale == 0)
        assert first_coordinate_difference(rhs, lhs) == crossed_difference(rhs, lhs)

    @pytest.mark.parametrize("shape", ["short rows", "short scaled rows", "missing rows"])
    def test_difference_refuses_rows_of_another_shape(self, shape):
        # rows compared by zip alone would stop at the shorter side and find
        # no differing entry, so the two kernels would read as identical
        k = kernel_definition_twofold(2, 2, 1)
        if shape == "missing rows":
            other = BernsteinKernelForm(1, k.scale, 2, 2, k.rows[:1])
        else:
            factor = 3 if shape == "short scaled rows" else 1
            other = BernsteinKernelForm(1, k.scale / factor, 2, 2,
                                        [[factor * c for c in row[:2]] for row in k.rows])
        for lhs, rhs in ((k, other), (other, k)):
            with pytest.raises(ValueError, match="^kernels in Bernstein coordinates are "
                                                 "compared on one basis$"):
                first_coordinate_difference(lhs, rhs)

    def test_two_zero_kernels_do_not_differ(self):
        # with both scales 0 every entry is 0 after scaling, whatever the rows
        lhs = DiagonalKernelForm(1, 0, [(0, 1)]).coordinates(1, 1)
        rhs = DiagonalKernelForm(1, 0, [(1, 1)]).coordinates(1, 1)
        assert lhs.rows != rhs.rows
        assert first_coordinate_difference(lhs, rhs) is None
        short = BernsteinKernelForm(1, F(0), 1, 1, [row[:1] for row in rhs.rows])
        with pytest.raises(ValueError, match="one basis"):
            first_coordinate_difference(lhs, short)

    def test_one_zero_scale_still_differs_at_a_nonzero_entry(self):
        zero = DiagonalKernelForm(1, 0, [(0, 1)]).coordinates(1, 1)
        other = DiagonalKernelForm(1, 1, [(1, 1)]).coordinates(1, 1)
        witness = {"a": [1, 0], "b": [1, 0], "lhs": "0", "rhs": "1"}
        assert first_coordinate_difference(zero, other) == witness
        assert first_coordinate_difference(other, zero) == {**witness, "lhs": "1", "rhs": "0"}

    def test_a_mix_of_single_kernels_is_one_diagonal_form(self):
        # sum_k c_k K_k with K_k = scale_k * sum_{|l|=k} B_l(x) B_l(y) has
        # weight c_k scale_k at degree k
        coeffs = [F(1, 3), F(-2, 5), F(7)]
        mix = DiagonalKernelForm(2, 1, [(k, c * kernel_single(k, 2).scale)
                                        for k, c in enumerate(coeffs)])
        expected = sum((c * to_canonical(kernel_single(k, 2)) for k, c in enumerate(coeffs)),
                       KernelPolynomial(2, {}))
        assert mix.coordinates(2, 3).expand() == to_canonical(mix) == expected


def reference_elevation(j, m, d):
    """`_elevation` by its definition: for each l of degree j, the pairs
    (position of a, C(a, l) = prod_v C(a_v, l_v)) over a = l + c, c of degree m - j."""
    position = {a: i for i, a in enumerate(enumerate_multi_indices(m, d))}
    shifts = enumerate_multi_indices(m - j, d)
    columns = []
    for ell in enumerate_multi_indices(j, d):
        above = [tuple(map(add, ell, c)) for c in shifts]
        columns.append(tuple((position[a], prod(map(comb, a, ell))) for a in above))
    return tuple(columns)


def falling(s, k):
    return prod(range(s - k + 1, s + 1))


def reference_legendre(m, n):
    """`kernel_legendre`'s rows and scale, with each factor built as a Fraction
    from falling factorials and each column u_k[(m-t, t)] summed directly."""
    den, factors = clear_denominators(
        F(falling(m, k) * falling(n, k) * (2 * k + 1),
          falling(m + k + 1, k) * falling(n + k + 1, k) * comb(m, k) * comb(n, k))
        for k in range(min(m, n) + 1))

    def column(k, degree):
        return [sum((-1) ** i * comb(k, i) * comb(degree - t, k - i) * comb(t, i)
                    for i in range(k + 1)) for t in range(degree + 1)]
    us = [column(k, m) for k in range(len(factors))]
    vs = [column(k, n) for k in range(len(factors))]
    rows = [[sum(w * u[a] * v[b] for w, u, v in zip(factors, us, vs)) for a in range(m + 1)]
            for b in range(n + 1)]
    return rows, F(1, den)


class TestBuildersAgainstTheirDefinitions:
    """The integer builders against the definitions they compute, rows and
    scale alike: a failure witness prints scale times entry, so an equal
    kernel with other rows or another scale would still change reports."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_elevation_columns(self, d):
        for m in range(9):
            for j in range(m + 1):
                assert bdk.kernels._elevation(j, m, d) == reference_elevation(j, m, d), (j, m, d)

    def test_legendre_rows_and_scale(self):
        for m in range(17):
            for n in range(17):
                form = kernel_legendre(m, n)
                assert (form.rows, form.scale) == reference_legendre(m, n), (m, n)

    @settings(max_examples=60, deadline=None)
    @given(diagonal_forms_and_degrees())
    def test_diagonal_coordinates_rows_and_scale(self, case):
        form, m, n = case
        d = form.d
        den, factors = clear_denominators(F(w, comb(m, j) * comb(n, j)) for j, w in form.terms)
        rows = [[0] * comb(m + d, d) for _ in range(comb(n + d, d))]
        for (j, _), factor in zip(form.terms, factors):
            for x_column, y_column in zip(reference_elevation(j, m, d),
                                          reference_elevation(j, n, d)):
                for i, e in y_column:
                    for k, c in x_column:
                        rows[i][k] += factor * e * c
        coords = form.coordinates(m, n)
        assert (coords.rows, coords.scale) == (rows, form.scale / den)


class TestInnerSumIdentity:
    def test_degree_zero_gives_index_factorial(self):
        beta = (2, 1)
        lhs, rhs = inner_sum_identity(0, beta, [F(1, 3)])
        assert lhs == rhs == index_factorial(beta)

    def test_small_case_at_origin(self):
        lhs, rhs = inner_sum_identity(1, (1, 0), [F(0)])
        assert lhs == rhs

    def test_seeded_rational_points(self):
        rng = random.Random(4242)
        for d in (1, 2):
            for n in range(4):
                for beta_degree in range(4):
                    for beta in enumerate_multi_indices(beta_degree, d):
                        y = sample_simplex_point(rng, d)
                        lhs, rhs = inner_sum_identity(n, beta, y)
                        assert lhs == rhs, (n, beta, y)

    @pytest.mark.parametrize("beta", [(1.5, 0.5), ("1", "1"), (2,), (1, -1)])
    def test_rejects_invalid_index(self, beta):
        with pytest.raises(ValueError):
            inner_sum_identity(1, beta, [F(1, 3)])

    def test_point_outside_simplex_still_agrees(self):
        lhs, rhs = inner_sum_identity(2, (1, 1), [F(7, 5)])
        assert lhs == rhs

    def test_coordinates_of_a_small_case(self):
        build = bdk.kernels._inner_sum_coordinates
        for y in ([F(1, 3), F(1, 5)], [F(2, 7), F(0)], [F(1, 2), F(1, 2)]):
            lhs, rhs = inner_sum_identity(3, (1, 0, 2), y)
            assert lhs == rhs
        # over B_(1,0), B_(0,1): the left side has (a+beta)!/a! = 2 and 1; on
        # the right, l = (0, 0) has weight C(1, 0) 1! C(1, 0) = 1 and B_l = 1
        # elevates to B_(1,0) + B_(0,1), and l = (1, 0) has weight
        # C(1, 1) 1! C(1, 1) = 1 and is B_(1,0) already
        assert build(1, (1, 0)) == (((1, 0), (0, 1)), (2, 1), (2, 1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sides_have_equal_coordinates(self, d):
        for n in range(5):
            for beta_degree in range(5):
                for beta in enumerate_multi_indices(beta_degree, d):
                    alphas, left, right = bdk.kernels._inner_sum_coordinates(n, beta)
                    assert list(alphas) == enumerate_multi_indices(n, d)
                    assert left == right, (n, beta)

    def test_sides_match_the_sums_they_name(self):
        # each side written out term by term with bernstein_value, independent
        # of the elevation columns the coordinates are built with
        rng = random.Random(31)
        for d in (1, 2):
            for n in range(4):
                for beta_degree in range(4):
                    for beta in enumerate_multi_indices(beta_degree, d):
                        y = sample_simplex_point(rng, d)
                        left = sum(bernstein_value(a, y) * prod(
                            factorial(a_v + b_v) // factorial(a_v) for a_v, b_v in zip(a, beta))
                            for a in enumerate_multi_indices(n, d))
                        right = sum(comb(n, sum(ell)) * bernstein_value(ell, y)
                                    * index_factorial(beta) * prod(map(comb, beta, ell))
                                    for ell in product(*(range(b + 1) for b in beta)))
                        assert inner_sum_identity(n, beta, y) == (left, right), (n, beta, y)


class TestEvalAndDiff:
    def test_eval_constant(self):
        k = KernelPolynomial(1, {(0, 0): F(1)})
        assert k.evaluate([F(1, 3)], [F(2, 3)]) == 1

    def test_eval_closed_value(self):
        k = to_canonical(kernel_closed_twofold(1, 1, 1))
        assert k.evaluate([0], [0]) == F(4, 3)

    def test_eval_respects_symmetry(self):
        k = kernel_definition_twofold(2, 3, 1)
        x, y = (F(1, 7),), (F(3, 5),)
        assert k.evaluate(x, y) == k.evaluate(y, x)

    def test_first_difference_none_for_equal(self):
        k = kernel_definition_twofold(1, 1, 1).expand()
        assert first_kernel_difference(k, k) is None

    def test_first_difference_witness(self):
        k = to_canonical(kernel_closed_twofold(1, 1, 1))
        perturbed = k + KernelPolynomial(1, {(1, 1): F(1, 2)})
        diff = first_kernel_difference(k, perturbed)
        assert diff == {"exp_x": [1], "exp_y": [1], "lhs": "4/3", "rhs": "11/6"}
        lhs = KernelPolynomial(2, {(1, 0, 0, 2): F(1)})
        rhs = lhs + KernelPolynomial(2, {(0, 1, 2, 0): F(3)})
        diff = first_kernel_difference(lhs, rhs)
        assert diff == {"exp_x": [0, 1], "exp_y": [2, 0], "lhs": "0", "rhs": "3"}
