"""The integer-accumulating builders against the plain Fraction versions.

The reference functions below are the straightforward Fraction
implementations of the six exact hot paths, kept verbatim as oracles:
each sums Fraction terms as the definitions read.  The library versions
accumulate Python ints and apply one rational scale at the end; they must
return exactly the same maps and values, coefficient types included.
`loop_apply_operator` is the integer per-index loop that `apply_operator`
ran before its moment columns were cached, kept as a second oracle.
"""
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bdk.combinat
import bdk.kernels
from bdk.combinat import clear_denominators, enumerate_multi_indices, factorial
from bdk.durrmeyer import apply_operator, compose_apply
from bdk.kernels import (
    DiagonalKernelForm,
    KernelPolynomial,
    first_coordinate_difference,
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_threefold,
    kernel_definition_twofold,
    kernel_legendre,
    kernel_single,
    to_canonical,
)
from bdk.polynomials import (
    CartesianPolynomial,
    bernstein_basis,
    inner_product,
    _Moments,
    integrate_simplex,
)
from bdk.simplex_integrals import (
    bernstein_product_integral,
    inner_one_bernstein,
    monomial_integral,
)

F = Fraction
SETTINGS = settings(max_examples=30, deadline=None)


# -- reference implementations (Fraction arithmetic throughout) -------------


def _accumulate(acc, key, value):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def ref_integrate_simplex(p):
    total = Fraction(0)
    for exps, coef in p.terms.items():
        total += coef * monomial_integral((0,) + exps, p.d)
    return total


def ref_integrate_y(kernel):
    d = kernel.d
    out = {}
    for e, coef in kernel.terms.items():
        ex = e[:d]
        out[ex] = out.get(ex, 0) + coef * monomial_integral((0,) + e[d:], d)
    return CartesianPolynomial(d, out)


def ref_inner_product(f, g):
    return ref_integrate_simplex(f * g)


def ref_apply_operator(n, f):
    d = f.d
    weight = 1 / inner_one_bernstein((n,) + (0,) * d, d)
    image = CartesianPolynomial.zero(d)
    for alpha in enumerate_multi_indices(n, d):
        basis = bernstein_basis(alpha)
        image = image + basis.scale(weight * ref_inner_product(f, basis))
    return image


def loop_apply_operator(n, f):
    d = f.d
    if f.is_zero():
        return CartesianPolynomial.zero(d)
    top = n + f.total_degree() + d
    fact = math.factorial
    moments = [((0,) + exps, c * (fact(top) // fact(n + sum(exps) + d)))
               for exps, c in f.nums.items()]
    image = {}
    for alpha in enumerate_multi_indices(n, d):
        total = 0
        for shift, c in moments:
            for a, e in zip(alpha, shift):
                c *= fact(a + e)
            total += c
        if not total:
            continue
        total *= fact(n) // math.prod(map(fact, alpha))
        for exps, b in bernstein_basis(alpha).nums.items():
            image[exps] = image.get(exps, 0) + total * b
    scale = Fraction(fact(n + d), fact(n) * f.den * fact(top))
    return CartesianPolynomial.from_integers(d, image, scale)


def ref_definition_twofold(m, n, d):
    x_side = [(b, bernstein_basis(b)) for b in enumerate_multi_indices(m, d)]
    acc = {}
    for alpha in enumerate_multi_indices(n, d):
        one_alpha = inner_one_bernstein(alpha, d)
        inner = {}
        for beta, bx in x_side:
            c = bernstein_product_integral(alpha, beta, d) / (
                one_alpha * inner_one_bernstein(beta, d))
            for ex, cx in bx.terms.items():
                _accumulate(inner, ex, c * cx)
        for ey, cy in bernstein_basis(alpha).terms.items():
            for ex, cx in inner.items():
                _accumulate(acc, ex + ey, cx * cy)
    return KernelPolynomial(d, acc)


def ref_definition_threefold(n3, n2, n1, d):
    betas = enumerate_multi_indices(n2, d)
    alphas = enumerate_multi_indices(n1, d)
    acc = {}
    for gamma in enumerate_multi_indices(n3, d):
        one_gamma = inner_one_bernstein(gamma, d)
        inner = {}
        for alpha in alphas:
            ratio = Fraction(0)
            for beta in betas:
                ratio += (bernstein_product_integral(alpha, beta, d)
                          * bernstein_product_integral(beta, gamma, d)
                          / inner_one_bernstein(beta, d))
            ratio /= inner_one_bernstein(alpha, d) * one_gamma
            for ey, cy in bernstein_basis(alpha).terms.items():
                _accumulate(inner, ey, ratio * cy)
        for ex, cx in bernstein_basis(gamma).terms.items():
            for ey, cy in inner.items():
                _accumulate(acc, ex + ey, cx * cy)
    return KernelPolynomial(d, acc)


def ref_to_canonical(form):
    acc = {}
    for degree, weight in form.terms:
        w = form.scale * weight
        for mi in enumerate_multi_indices(degree, form.d):
            basis = bernstein_basis(mi)
            for ex, cx in basis.terms.items():
                for ey, cy in basis.terms.items():
                    _accumulate(acc, ex + ey, w * cx * cy)
    return KernelPolynomial(form.d, acc)


# -- strategies -------------------------------------------------------------

dims = st.integers(min_value=1, max_value=3)
degrees = st.integers(min_value=0, max_value=4)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_rationals = rationals.filter(bool)


@st.composite
def polynomials(draw, d=None, max_degree=4):
    """Sparse polynomials: zero, constants, mixed denominators, negative terms."""
    d = draw(dims) if d is None else d
    exps = st.sampled_from([mi[1:] for k in range(max_degree + 1)
                            for mi in enumerate_multi_indices(k, d)])
    return CartesianPolynomial(d, draw(st.dictionaries(exps, rationals, max_size=6)))


@st.composite
def kernels(draw):
    """Sparse kernels in 2d variables, y-degree-0 terms and the zero kernel included."""
    d = draw(dims)
    block = st.sampled_from([mi[1:] for k in range(4)
                             for mi in enumerate_multi_indices(k, d)])
    keys = st.tuples(block, block).map(lambda xy: xy[0] + xy[1])
    return KernelPolynomial(d, draw(st.dictionaries(keys, rationals, max_size=8)))


@st.composite
def diagonal_forms(draw):
    """Graded forms: distinct degrees in any order, each with a nonzero weight."""
    d = draw(dims)
    degrees = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
    terms = [(j, draw(nonzero_rationals)) for j in degrees]
    return DiagonalKernelForm(d, draw(rationals), terms)


def assert_identical(new, ref):
    """Same map, and every coefficient a Fraction, so the JSON is the same too."""
    assert new.d == ref.d
    assert new.terms == ref.terms
    assert all(type(c) is Fraction for c in new.terms.values())
    assert new.to_json_dict() == ref.to_json_dict()


# -- the six paths ----------------------------------------------------------


class TestReferenceEquivalence:
    @SETTINGS
    @given(dims, degrees, degrees)
    def test_definition_twofold(self, d, m, n):
        assert_identical(kernel_definition_twofold(m, n, d).expand(),
                         ref_definition_twofold(m, n, d))

    @SETTINGS
    @given(st.data())
    def test_definition_threefold(self, data):
        d = data.draw(dims)
        # the reference triple sum costs C(n+d,d)^3; d=3 stays at degree 2
        deg = st.integers(0, 4 if d < 3 else 2)
        n3, n2, n1 = data.draw(deg), data.draw(deg), data.draw(deg)
        assert_identical(kernel_definition_threefold(n3, n2, n1, d).expand(),
                         ref_definition_threefold(n3, n2, n1, d))

    @SETTINGS
    @given(diagonal_forms())
    def test_to_canonical(self, form):
        assert_identical(to_canonical(form), ref_to_canonical(form))

    @pytest.mark.parametrize("form", [
        kernel_closed_twofold(4, 3, 2),
        kernel_closed_twofold(0, 0, 3),
        kernel_closed_threefold(3, 2, 4),
        DiagonalKernelForm(2, 0, [(2, 5)]),
        DiagonalKernelForm(1, F(3, 7), []),
        DiagonalKernelForm(3, F(-5, 4), [(3, F(2, 9)), (0, -1)]),
    ])
    def test_to_canonical_closed_and_degenerate_forms(self, form):
        assert_identical(to_canonical(form), ref_to_canonical(form))

    @SETTINGS
    @given(st.data())
    def test_apply_operator(self, data):
        f = data.draw(polynomials())
        n = data.draw(degrees)
        assert_identical(apply_operator(n, f), ref_apply_operator(n, f))

    @SETTINGS
    @given(st.data())
    def test_apply_operator_matches_the_per_index_loop(self, data):
        f = data.draw(polynomials())
        n = data.draw(st.integers(0, 6))
        image, ref = apply_operator(n, f), loop_apply_operator(n, f)
        assert (image.den, image.nums) == (ref.den, ref.nums)

    @SETTINGS
    @given(st.data())
    def test_inner_product_against_monomials(self, data):
        # a row of a Gram matrix: one inner product per monomial, and their
        # weighted sum is the inner product with the whole polynomial
        p = data.draw(polynomials())
        keys = data.draw(st.lists(st.sampled_from(
            [mi[1:] for k in range(5) for mi in enumerate_multi_indices(k, p.d)]),
            max_size=6, unique=True))
        weights = data.draw(st.lists(st.fractions(-3, 3, max_denominator=5),
                                     min_size=len(keys), max_size=len(keys)))
        row = [inner_product(p, CartesianPolynomial.monomial(p.d, e)) for e in keys]
        for e, value in zip(keys, row):
            assert value == ref_inner_product(p, CartesianPolynomial.monomial(p.d, e))
        g = CartesianPolynomial(p.d, dict(zip(keys, weights)))
        assert inner_product(p, g) == sum(map(Fraction.__mul__, weights, row))

    @SETTINGS
    @given(st.integers(1, 3), st.integers(0, 8))
    def test_moment_table(self, d, top):
        # Dirichlet's formula over W = (top+d)! up to degree top; above it the table refuses
        table = _Moments(d, top)
        assert table.scale == math.factorial(top + d)
        for mi in enumerate_multi_indices(top, d):
            k = mi[1:]
            ref = F(math.prod(map(math.factorial, k)), math.factorial(sum(k) + d))
            assert table[k] == table.scale * ref
        assert len(table) == math.comb(top + d, d)
        for k in [(top + 1,) + (0,) * (d - 1), (0,) * (d - 1) + (top + 1,)]:
            with pytest.raises(ValueError, match=f"degree {top + 1} .* degree {top}$"):
                table[k]
            assert k not in table

    @SETTINGS
    @given(st.data())
    def test_inner_product(self, data):
        f = data.draw(polynomials())
        g = data.draw(polynomials(d=f.d))
        value = inner_product(f, g)
        assert type(value) is Fraction
        assert value == ref_inner_product(f, g)

    @SETTINGS
    @given(polynomials())
    def test_integrate_simplex(self, p):
        value = integrate_simplex(p)
        assert type(value) is Fraction
        assert value == ref_integrate_simplex(p)

    @SETTINGS
    @given(kernels())
    def test_integrate_y(self, kernel):
        result = kernel.integrate_y()
        assert type(result) is CartesianPolynomial
        assert_identical(result, ref_integrate_y(kernel))

    @pytest.mark.parametrize("kernel", [
        KernelPolynomial.zero(1),
        KernelPolynomial.zero(3),
        # mixed denominators, and terms of y-degree 0 beside higher ones
        KernelPolynomial(2, {(0, 0, 0, 0): F(1, 6), (1, 0, 0, 0): F(-3, 4),
                             (1, 0, 2, 1): F(5, 7), (0, 2, 0, 3): F(2, 9)}),
        # only y-degree 0: integrate_y multiplies by the simplex volume 1/d!
        KernelPolynomial(3, {(1, 1, 0, 0, 0, 0): F(7, 5), (0, 0, 2, 0, 0, 0): 3}),
        # terms that cancel after integration
        KernelPolynomial(1, {(0, 1): 1, (0, 0): F(-1, 2)}),
        to_canonical(kernel_closed_twofold(3, 2, 2)),
    ])
    def test_integrate_y_degenerate_and_mixed_inputs(self, kernel):
        result = kernel.integrate_y()
        assert type(result) is CartesianPolynomial
        assert_identical(result, ref_integrate_y(kernel))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_and_constant_inputs(self, d):
        zero = CartesianPolynomial.zero(d)
        half = CartesianPolynomial.constant(d, F(-1, 2))
        for n in (0, 1, 3):
            assert apply_operator(n, zero).is_zero()
            assert_identical(apply_operator(n, half), half)
        assert inner_product(zero, half) == inner_product(zero, zero) == 0
        assert inner_product(half, half) == ref_inner_product(half, half)


class TestIntegerHelpers:
    def test_clear_denominators(self):
        assert clear_denominators([F(1, 6), F(-3, 4), 2]) == (12, [2, -9, 24])
        assert clear_denominators([]) == (1, [])

    def test_from_integers_drops_zeros_and_scales(self):
        poly = CartesianPolynomial.from_integers(1, {(0,): 3, (1,): 0, (2,): -4}, F(1, 6))
        assert poly.terms == {(0,): F(1, 2), (2,): F(-2, 3)}
        assert CartesianPolynomial.from_integers(1, {(0,): 3}, 0).is_zero()
        kernel = KernelPolynomial.from_integers(1, {(0, 1): 2, (1, 0): 0}, F(3, 4))
        assert kernel.terms == {(0, 1): F(3, 2)}

    def test_factorial_table_fills_on_lookup(self):
        table = bdk.combinat._FACT
        table.clear()
        assert [table[k] for k in range(7)] == [1, 1, 2, 6, 24, 120, 720]
        assert table[1500] == math.factorial(1500)
        # only the entries looked up are computed
        assert sorted(table) == [0, 1, 2, 3, 4, 5, 6, 1500]
        with pytest.raises(ValueError):
            table[-1]
        assert -1 not in table
        # the public factorial reads the same table
        assert factorial(9) == 362880
        assert 9 in table

    def test_high_degree_inputs(self):
        f = CartesianPolynomial(1, {(1500,): F(-2, 3), (1,): F(1, 5)})
        g = CartesianPolynomial(1, {(2,): F(3, 7)})
        assert inner_product(f, g) == ref_inner_product(f, g)
        assert_identical(apply_operator(2, f), ref_apply_operator(2, f))

    def test_inner_product_refuses_another_dimension(self):
        p = CartesianPolynomial(2, {(0, 1): F(1, 3)})
        assert inner_product(p, CartesianPolynomial.zero(2)) == 0
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
            inner_product(p, CartesianPolynomial.constant(1, 1))
        # a zero of another dimension has no terms to misread, and is refused too
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
            inner_product(p, CartesianPolynomial.zero(1))

    def test_den_nums_round_trip(self):
        poly = CartesianPolynomial(2, {(0, 1): F(1, 3), (2, 0): F(-5, 2)})
        assert (poly.den, poly.nums) == (6, {(0, 1): 2, (2, 0): -15})
        assert CartesianPolynomial.from_integers(2, poly.nums, F(1, poly.den)) == poly


# -- the oracle never reaches for what it checks -----------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_definitional_builders_use_no_closed_form_code(monkeypatch, d):
    def forbidden(*args, **kwargs):
        raise AssertionError("a definitional builder called closed-form code")

    for name in ("kernel_closed_twofold", "kernel_closed_threefold", "kernel_single",
                 "to_canonical", "DiagonalKernelForm", "_outer_products", "_elevation",
                 "kernel_legendre"):
        monkeypatch.setattr(bdk.kernels, name, forbidden)
    two = bdk.kernels.kernel_definition_twofold(3, 2, d).expand()
    three = bdk.kernels.kernel_definition_threefold(2, 1, 2, d).expand()
    one = bdk.kernels.kernel_definition_coordinates((3,), d).expand()
    four = bdk.kernels.kernel_definition_coordinates((1, 2, 2, 1), d).expand()
    x, y = [F(1, 5)] * d, [F(2, 7)] * d
    coords = bdk.kernels.kernel_definition_coordinates((3, 2), d)
    value = coords.evaluate(x, y)
    expanded = coords.expand()
    monkeypatch.undo()
    assert value == kernel_closed_twofold(3, 2, d).evaluate(x, y)
    assert expanded == two
    assert two == to_canonical(kernel_closed_twofold(3, 2, d))
    assert three == ref_definition_threefold(2, 1, 2, d)
    assert one == to_canonical(kernel_single(3, d))
    x = CartesianPolynomial.variable(d, 1)
    one_x = KernelPolynomial.outer(CartesianPolynomial.constant(d, 1), x)
    assert (four * one_x).integrate_y() == compose_apply([1, 2, 2, 1], x)


# -- the shared tables --------------------------------------------------------


def bdk_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "bdk" or name.startswith("bdk."))]


def empty_tables():
    """Empty the factorial table and every cache bdk keeps, so that the next
    build computes each entry it reads."""
    bdk.combinat._FACT.clear()
    for module in bdk_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def build_each_layer():
    """A definitional kernel at d = 2 and its closed form's coordinates, a
    Legendre kernel, an operator image, its inner product with a three-term
    polynomial and a basis polynomial."""
    coordinates = kernel_definition_twofold(4, 3, 2)
    assert first_coordinate_difference(
        kernel_closed_twofold(4, 3, 2).coordinates(4, 3), coordinates) is None
    kernel_legendre(5, 3)
    f = CartesianPolynomial(2, {(2, 1): F(-3, 7), (0, 3): F(5, 2), (1, 0): 1})
    image = apply_operator(4, f)
    inner_product(image, CartesianPolynomial(2, {(0, 0): 1, (1, 0): 1, (2, 1): 1}))
    bernstein_basis((2, 1, 3))


#: The combinatorial functions bench/tracer.py wraps in a span per call.
TRACED = ("factorial", "multinomial", "index_factorial", "enumerate_multi_indices")


class TestSharedTables:
    def test_builds_call_no_traced_combinatorial_function(self, monkeypatch):
        # rebind each name wherever it was imported, as the tracer does
        for name in TRACED:
            original = getattr(bdk.combinat, name)

            def refuse(*args, name=name):
                raise AssertionError(f"{name}{args} called")
            for module in bdk_modules():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
        empty_tables()
        build_each_layer()

    def test_a_second_build_of_one_size_computes_no_new_factorial(self, monkeypatch):
        computed = []
        real = math.factorial

        def counted(k):
            computed.append(k)
            return real(k)
        monkeypatch.setattr(math, "factorial", counted)
        empty_tables()
        build_each_layer()
        assert computed
        assert len(computed) == len(set(computed))  # each entry once
        first = len(computed)
        kernel_definition_twofold(4, 3, 2)
        kernel_definition_twofold(3, 4, 2)
        build_each_layer()
        assert len(computed) == first
