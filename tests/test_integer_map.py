"""A polynomial is one positive denominator over a canonical integer map.

CartesianPolynomial (and so KernelPolynomial) stores den and nums with
coefficient nums[e] / den, zeros dropped and gcd(den, *nums) == 1.  These
tests check that invariant against plain Fraction dicts: one value built
several ways gives equal objects with equal hashes, JSON round-trips,
`first_difference` agrees with a Fraction-dict scan, exact scalars are
the only ones accepted, and the verify path never builds the Fraction
`terms` view.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bdk.kernels import DiagonalKernelForm, KernelPolynomial, kernel_closed_twofold, to_canonical
from bdk.polynomials import CartesianPolynomial
from bdk.verify import SuiteConfig, run_suite

F = Fraction
SETTINGS = settings(max_examples=30, deadline=None)

dims = st.integers(1, 3)
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
nonzero_rationals = rationals.filter(bool)


def keys_for(d, blocks):
    return st.tuples(*[st.integers(0, 3)] * (blocks * d))


@st.composite
def coefficient_maps(draw, d, blocks=1, max_size=6):
    """exponents -> Fraction, zeros included so dropping them is exercised."""
    return draw(st.dictionaries(keys_for(d, blocks), rationals, max_size=max_size))


@st.composite
def polys(draw, cls=CartesianPolynomial, d=None):
    d = draw(dims) if d is None else d
    return cls(d, draw(coefficient_maps(d, cls.BLOCKS)))


def assert_canonical(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.terms == {e: F(c, p.den) for e, c in p.nums.items()}


def fraction_dict(p):
    """p's coefficients as a plain dict, built from the public Fraction view."""
    return dict(p.terms)


class TestCanonicalForm:
    @SETTINGS
    @given(st.data())
    def test_constructor_matches_fraction_dict(self, data):
        cls = data.draw(st.sampled_from([CartesianPolynomial, KernelPolynomial]))
        d = data.draw(dims)
        coefs = data.draw(coefficient_maps(d, cls.BLOCKS))
        p = cls(d, coefs)
        assert_canonical(p)
        assert fraction_dict(p) == {e: c for e, c in coefs.items() if c}

    @SETTINGS
    @given(st.data())
    def test_one_value_built_several_ways(self, data):
        cls = data.draw(st.sampled_from([CartesianPolynomial, KernelPolynomial]))
        d = data.draw(dims)
        coefs = data.draw(coefficient_maps(d, cls.BLOCKS))
        p = cls(d, coefs)
        q = data.draw(polys(cls, d))
        c = data.draw(nonzero_rationals)
        k = data.draw(st.integers(1, 50))
        # the same coefficients written as (k p) / (k q), integral ones as ints
        unreduced = {e: F(v.numerator * k, v.denominator * k) if v.denominator > 1
                     else v.numerator for e, v in coefs.items()}
        # from_integers with a scale: integers over a common denominator D*k
        den = math.lcm(*(v.denominator for v in coefs.values())) if coefs else 1
        ints = {e: v.numerator * (den // v.denominator) * k for e, v in coefs.items()}
        ways = [
            cls(d, unreduced),
            cls.from_integers(d, ints, F(1, den * k)),
            (p + q) - q,
            p.scale(c).scale(1 / c),
            -(-p),
            p * 1,
        ]
        for other in ways:
            assert_canonical(other)
            assert other == p
            assert (other.den, other.nums) == (p.den, p.nums)
            assert hash(other) == hash(p)

    @SETTINGS
    @given(st.data())
    def test_arithmetic_matches_fraction_dicts(self, data):
        d = data.draw(dims)
        p, q = data.draw(polys(d=d)), data.draw(polys(d=d))
        c = data.draw(rationals)

        def ref_add(a, b):
            out = dict(a)
            for e, v in b.items():
                out[e] = out.get(e, 0) + v
            return {e: v for e, v in out.items() if v}

        def ref_mul(a, b):
            out = {}
            for e1, v1 in a.items():
                for e2, v2 in b.items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    out[key] = out.get(key, 0) + v1 * v2
            return {e: v for e, v in out.items() if v}

        fp, fq = fraction_dict(p), fraction_dict(q)
        for result, expected in [
            (p + q, ref_add(fp, fq)),
            (p - q, ref_add(fp, {e: -v for e, v in fq.items()})),
            (p * q, ref_mul(fp, fq)),
            (p.scale(c), {e: v * c for e, v in fp.items() if v * c}),
        ]:
            assert_canonical(result)
            assert fraction_dict(result) == expected

    @SETTINGS
    @given(st.data())
    def test_outer_and_transpose(self, data):
        d = data.draw(dims)
        fx, fy = data.draw(polys(d=d)), data.draw(polys(d=d))
        k = KernelPolynomial.outer(fx, fy)
        assert_canonical(k)
        assert fraction_dict(k) == {ex + ey: cx * cy for ex, cx in fx.terms.items()
                                    for ey, cy in fy.terms.items()}
        t = k.transpose()
        assert_canonical(t)
        assert fraction_dict(t) == {e[d:] + e[:d]: c for e, c in k.terms.items()}

    def test_zero_has_denominator_one(self):
        for p in (CartesianPolynomial.zero(2), CartesianPolynomial.constant(1, F(3, 4)).scale(0),
                  CartesianPolynomial.from_integers(1, {(1,): 0, (0,): 0}, F(5, 7))):
            assert (p.den, p.nums) == (1, {})
            assert p == CartesianPolynomial.zero(p.d)


def written_kernel(obj):
    """(d, terms) of a canonical kernel's JSON, read back by the test itself."""
    assert (obj["form"], obj["scale"]) == ("canonical", "1")
    return obj["d"], {tuple(t["exp_x"] + t["exp_y"]): F(t["coef"]) for t in obj["terms"]}


class TestJsonWriter:
    """The JSON writers list every coefficient exactly; bdk reads no JSON back."""

    @SETTINGS
    @given(polys())
    def test_polynomial(self, p):
        obj = p.to_json_dict()
        assert obj["d"] == p.d
        assert {tuple(t["exp"]): F(t["coef"]) for t in obj["terms"]} == p.terms

    @SETTINGS
    @given(polys(KernelPolynomial))
    def test_canonical_kernel(self, k):
        assert written_kernel(k.to_json_dict()) == (k.d, k.terms)

    @pytest.mark.parametrize("m, n, d", [(3, 2, 1), (2, 2, 2), (1, 2, 3)])
    def test_closed_kernel(self, m, n, d):
        k = to_canonical(kernel_closed_twofold(m, n, d))
        assert written_kernel(k.to_json_dict()) == (d, k.terms)


def ref_first_difference(a, b):
    """The first key, in sorted order, where two Fraction dicts differ."""
    ta, tb = fraction_dict(a), fraction_dict(b)
    for key in sorted(ta.keys() | tb.keys()):
        x, y = ta.get(key, F(0)), tb.get(key, F(0))
        if x != y:
            return key, x, y
    return None


class TestFirstDifference:
    @SETTINGS
    @given(st.data())
    def test_matches_fraction_dict_reference(self, data):
        cls = data.draw(st.sampled_from([CartesianPolynomial, KernelPolynomial]))
        d = data.draw(dims)
        a = data.draw(polys(cls, d))
        # b is a copy of a with at most one term changed half the time, so
        # equal and nearly equal pairs occur
        if data.draw(st.booleans()):
            b = a + cls(d, data.draw(coefficient_maps(d, cls.BLOCKS, max_size=1)))
        else:
            b = data.draw(polys(cls, d))
        found = a.first_difference(b)
        assert found == ref_first_difference(a, b)
        if found is not None:
            assert all(type(v) is Fraction for v in found[1:])
        assert (found is None) == (a == b)

    def test_same_values_over_different_denominators(self):
        a = CartesianPolynomial(1, {(0,): F(1, 2), (1,): F(1, 3)})
        b = CartesianPolynomial(1, {(0,): F(1, 2), (1,): F(1, 4)})
        assert a.first_difference(b) == ((1,), F(1, 3), F(1, 4))
        assert a.first_difference(a.scale(F(6, 6))) is None


class TestExactScalarsOnly:
    @pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", "3"])
    def test_polynomial_coefficients(self, bad):
        message = f"coefficient must be an int or a Fraction, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            CartesianPolynomial(1, {(1,): bad})
        with pytest.raises(ValueError, match="coefficient"):
            KernelPolynomial(1, {(1, 0): bad})
        with pytest.raises(ValueError, match="coefficient"):
            CartesianPolynomial.constant(1, bad)
        with pytest.raises(ValueError, match="coefficient"):
            CartesianPolynomial.monomial(1, (2,), bad)

    @pytest.mark.parametrize("bad", [0.5, "2"])
    def test_scales(self, bad):
        p = CartesianPolynomial.variable(1, 1)
        with pytest.raises(ValueError, match=f"scale must be an int or a Fraction, got {bad!r}"):
            p.scale(bad)
        with pytest.raises(ValueError, match="scale"):
            CartesianPolynomial.from_integers(1, {(1,): 3}, bad)

    @pytest.mark.parametrize("bad", [0.5, "2"])
    def test_diagonal_form_scale_and_weights(self, bad):
        with pytest.raises(ValueError, match=f"scale must be an int or a Fraction, got {bad!r}"):
            DiagonalKernelForm(1, bad, [(0, 1)])
        with pytest.raises(ValueError, match=f"weight must be an int or a Fraction, got {bad!r}"):
            DiagonalKernelForm(1, 1, [(0, 1), (1, bad)])
        # rebuilding a valid form's terms under a new scale checks the scale too
        form = DiagonalKernelForm(1, 1, [(0, 1)])
        with pytest.raises(ValueError, match="scale"):
            DiagonalKernelForm(form.d, bad, form.terms)


def test_verify_never_builds_the_fraction_view(monkeypatch):
    """The exact paths read den and nums; `terms` is for display only."""
    reads = []
    view = CartesianPolynomial.terms

    def counted(self):
        reads.append(type(self).__name__)
        return view.fget(self)

    monkeypatch.setattr(CartesianPolynomial, "terms", property(counted))
    cfg = SuiteConfig(d_range=(1, 2), max_degree=2)
    report = run_suite(cfg)
    assert report.ok and len(report.checks) > 100
    assert reads == []
    # the patched view is live: reading it is counted
    assert CartesianPolynomial.constant(1, 1).terms == {(0,): F(1)}
    assert reads == ["CartesianPolynomial"]
