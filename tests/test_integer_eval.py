"""Integer evaluation against the plain Fraction evaluation loops.

The reference functions below are the straightforward Fraction versions
of the four evaluators (and of the collapse identity's two sides), kept
verbatim as oracles: each multiplies Fraction powers term by term.  The
library versions write each point over its common denominator, sum
integers and build one Fraction at the end; they must return exactly the
same values, of type Fraction.
"""
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from bdk.combinat import (
    binomial,
    enumerate_multi_indices,
    factorial,
    falling_factorial,
    index_factorial,
    multinomial,
)
from bdk.kernels import (
    DiagonalKernelForm,
    KernelPolynomial,
    inner_sum_identity,
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_twofold,
    kernel_univariate_twofold,
)
from bdk.polynomials import CartesianPolynomial, bernstein_value, integer_point

F = Fraction
SETTINGS = settings(max_examples=40, deadline=None)


# -- reference implementations (Fraction arithmetic throughout) -------------


def _coords(pt):
    return tuple(Fraction(c) for c in pt)


def ref_cartesian_evaluate(poly, pt):
    total = Fraction(0)
    for exps, coef in poly.terms.items():
        v = coef
        for c, e in zip(_coords(pt), exps):
            if e:
                v *= c ** e
        total += v
    return total


def ref_kernel_evaluate(kernel, x, y):
    xc, yc = _coords(x), _coords(y)
    total = Fraction(0)
    for exps, coef in kernel.terms.items():
        ex, ey = exps[:kernel.d], exps[kernel.d:]
        v = coef
        for c, e in zip(xc, ex):
            if e:
                v *= c ** e
        for c, e in zip(yc, ey):
            if e:
                v *= c ** e
        total += v
    return total


def ref_bernstein_value(alpha, pt):
    coords = _coords(pt)
    value = Fraction(multinomial(alpha))
    for coord, exp in zip((1 - sum(coords),) + coords, alpha):
        if exp:
            value *= coord ** exp
    return value


def ref_diagonal_evaluate(form, x, y):
    total = Fraction(0)
    for degree, weight in form.terms:
        for mi in enumerate_multi_indices(degree, form.d):
            total += weight * ref_bernstein_value(mi, x) * ref_bernstein_value(mi, y)
    return form.scale * total


def ref_inner_sum_identity(n, beta, y):
    beta = tuple(beta)
    lhs = Fraction(0)
    for alpha in enumerate_multi_indices(n, len(beta) - 1):
        shifted = index_factorial([a + b for a, b in zip(alpha, beta)]) // index_factorial(alpha)
        lhs += ref_bernstein_value(alpha, y) * shifted
    rhs = Fraction(0)
    beta_fact = index_factorial(beta)
    for ell in product(*(range(b + 1) for b in beta)):
        prod_binom = 1
        for b, l in zip(beta, ell):
            prod_binom *= binomial(b, l)
        rhs += (Fraction(falling_factorial(n, sum(ell)), factorial(sum(ell)))
                * ref_bernstein_value(ell, y) * beta_fact * prod_binom)
    return lhs, rhs


def assert_same(actual, expected):
    assert actual == expected
    assert type(actual) is Fraction


# -- strategies ----------------------------------------------------------------

dims = st.integers(1, 3)
# mixed denominators, negative values and values past the simplex
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60))
coefs = st.one_of(rationals, st.integers(-9, 9))


@st.composite
def points(draw, d):
    """A point as a list or a tuple of d ints and Fractions."""
    coords = draw(st.lists(st.one_of(rationals, st.integers(-3, 3)), min_size=d, max_size=d))
    return draw(st.sampled_from([coords, tuple(coords)]))


def exponents(d, max_degree=5):
    return st.tuples(*[st.integers(0, max_degree)] * d)


@st.composite
def polynomials(draw, d):
    terms = draw(st.dictionaries(exponents(d), coefs, max_size=8))
    return CartesianPolynomial(d, terms)


@st.composite
def kernels(draw, d):
    terms = draw(st.dictionaries(exponents(2 * d, 4), coefs, max_size=8))
    return KernelPolynomial(d, terms)


@st.composite
def diagonal_forms(draw, d):
    """Graded forms: distinct degrees in any order, each with a nonzero weight."""
    degrees = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
    weights = draw(st.lists(coefs.filter(bool), min_size=len(degrees), max_size=len(degrees)))
    scale = draw(rationals)
    return DiagonalKernelForm(d, scale, list(zip(degrees, weights)))


# -- the four evaluators -------------------------------------------------------


@SETTINGS
@given(st.data(), dims)
def test_cartesian_evaluate(data, d):
    poly = data.draw(polynomials(d))
    pt = data.draw(points(d))
    assert_same(poly.evaluate(pt), ref_cartesian_evaluate(poly, pt))


@SETTINGS
@given(st.data(), dims)
def test_kernel_evaluate(data, d):
    kernel = data.draw(kernels(d))
    x, y = data.draw(points(d)), data.draw(points(d))
    assert_same(kernel.evaluate(x, y), ref_kernel_evaluate(kernel, x, y))


@SETTINGS
@given(st.data(), dims)
def test_bernstein_value(data, d):
    alpha = data.draw(st.integers(0, 6).flatmap(
        lambda k: st.sampled_from(enumerate_multi_indices(k, d))))
    pt = data.draw(points(d))
    assert_same(bernstein_value(alpha, pt), ref_bernstein_value(alpha, pt))


@SETTINGS
@given(st.data(), dims)
def test_diagonal_evaluate(data, d):
    form = data.draw(diagonal_forms(d))
    x, y = data.draw(points(d)), data.draw(points(d))
    assert_same(form.evaluate(x, y), ref_diagonal_evaluate(form, x, y))


@SETTINGS
@given(st.data(), dims)
def test_diagonal_grid_matches_pointwise(data, d):
    form = data.draw(diagonal_forms(d))
    xs = data.draw(st.lists(points(d), max_size=3))
    ys = data.draw(st.lists(points(d), max_size=3))
    rows = list(form.evaluate_grid(xs, ys))
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        assert len(row) == len(ys)
        for y, value in zip(ys, row):
            assert_same(value, ref_diagonal_evaluate(form, x, y))


@SETTINGS
@given(st.data(), st.integers(1, 2), st.integers(0, 4))
def test_inner_sum_identity_sides(data, d, n):
    beta = data.draw(st.integers(0, 4).flatmap(
        lambda k: st.sampled_from(enumerate_multi_indices(k, d))))
    y = data.draw(points(d))
    lhs, rhs = inner_sum_identity(n, beta, y)
    ref_lhs, ref_rhs = ref_inner_sum_identity(n, beta, y)
    assert_same(lhs, ref_lhs)
    assert_same(rhs, ref_rhs)


# -- fixed edge cases --------------------------------------------------------


def test_zero_and_constant_polynomials():
    for d in (1, 2, 3):
        pt = [F(-7, 3)] + [F(5, 11)] * (d - 1)
        assert_same(CartesianPolynomial.zero(d).evaluate(pt), F(0))
        assert_same(CartesianPolynomial.constant(d, F(-4, 9)).evaluate(pt), F(-4, 9))
        assert_same(KernelPolynomial.zero(d).evaluate(pt, pt), F(0))
        assert_same(DiagonalKernelForm(d, 3, []).evaluate(pt, pt), F(0))


def test_integer_points_and_integer_coefficients():
    poly = CartesianPolynomial(2, {(2, 1): 3, (0, 0): -1, (1, 0): F(1, 2)})
    assert_same(poly.evaluate([2, -1]), ref_cartesian_evaluate(poly, [2, -1]))
    kernel = KernelPolynomial(1, {(1, 2): 5, (0, 0): 1})
    assert_same(kernel.evaluate([3], [-2]), F(61))


def test_x_and_y_with_different_denominators():
    form = kernel_closed_twofold(3, 4, 2)
    x, y = [F(1, 7), F(2, 9)], [F(3, 11), F(-1, 13)]
    expected = ref_diagonal_evaluate(form, x, y)
    assert_same(form.evaluate(x, y), expected)
    kernel = kernel_definition_twofold(3, 4, 2)
    assert_same(kernel.evaluate(x, y), expected)


def test_closed_forms_at_points_outside_the_simplex():
    x, y = [F(7, 5)], [F(-2, 9)]
    for form in (kernel_closed_twofold(5, 3, 1), kernel_univariate_twofold(4, 6),
                 kernel_closed_threefold(2, 3, 4)):
        assert_same(form.evaluate(x, y), ref_diagonal_evaluate(form, x, y))


def test_high_degree_sparse_monomial():
    poly = CartesianPolynomial(2, {(1500, 0): F(1, 3), (0, 1): 1})
    pt = [F(2, 3), F(5, 7)]
    assert_same(poly.evaluate(pt), ref_cartesian_evaluate(poly, pt))


def test_integer_form_of_a_point():
    assert integer_point([F(1, 6), F(-1, 4)], 2) == (12, (13, 2, -3))
