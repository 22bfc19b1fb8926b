import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from bdk.combinat import (
    _FACT,
    _binomial_shifts,
    _index_slots,
    _slot_product_rows,
    _slot_products,
    binomial,
    check_degree,
    check_dimension,
    check_index,
    enumerate_multi_indices,
    factorial,
    falling_factorial,
    format_rational,
    index_factorial,
    multinomial,
    parse_rational,
)
from fractions import Fraction

from bdk.durrmeyer import apply_operator, compose_apply, composition_coefficients, operator_image
from bdk.kernels import (
    DiagonalKernelForm,
    inner_sum_identity,
    kernel_closed,
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_coordinates,
    kernel_legendre,
    kernel_single,
    kernel_univariate_twofold,
)
from bdk.polynomials import CartesianPolynomial


class TestCheckIndex:
    def test_returns_tuple(self):
        assert check_index((2, 1, 0)) == (2, 1, 0)
        assert check_index([1, 0]) == (1, 0)
        assert check_index(range(3)) == (0, 1, 2)
        assert type(check_index([1, 0])) is tuple

    def test_length_for_dimension(self):
        assert check_index((0, 1, 2), 2) == (0, 1, 2)
        with pytest.raises(ValueError, match="expected 3"):
            check_index((1, 1), 2)

    @pytest.mark.parametrize("parts", [(1, -1), (), (3,)])
    def test_rejects_negative_empty_and_one_part(self, parts):
        with pytest.raises(ValueError):
            check_index(parts)

    @pytest.mark.parametrize("bad", [1.5, "1", Fraction(1)])
    def test_rejects_non_integer_parts(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            check_index((bad, 1))


class TestCheckDimension:
    def test_accepts_positive_int(self):
        assert check_dimension(3) == 3

    # a bool is an int to operator.index, but not a dimension
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_dimension(bad)


X1 = CartesianPolynomial.variable(1, 1)

#: every entry point that takes a degree, with a fractional or a negative one
BAD_DEGREE_CALLS = [
    (apply_operator, (1.5, X1)),
    (apply_operator, (-1, X1)),
    (operator_image, (1.5, X1)),
    (operator_image, (True, X1)),
    (operator_image, (-1, X1)),
    (compose_apply, ([3, -1], X1)),
    (composition_coefficients, (2.5, 1, 1)),
    (enumerate_multi_indices, (1.5, 1)),
    (enumerate_multi_indices, (-1, 1)),
    (kernel_single, (1.5, 1)),
    (kernel_closed_twofold, (2.5, 2, 1)),
    (kernel_closed_twofold, (2, -2, 1)),
    (kernel_closed_twofold, (True, 2, 1)),
    (kernel_univariate_twofold, (1, 1.5)),
    (kernel_legendre, (-1, 1)),
    (kernel_closed_threefold, (1, 1, 0.5)),
    (inner_sum_identity, (1.5, (1, 1), [Fraction(1, 2)])),
    (DiagonalKernelForm, (1, 1, [(1.9, 1)])),
    (DiagonalKernelForm, (1, 1, [(-1, 1)])),
    (kernel_definition_coordinates, ((2, 1.5), 1)),
    (kernel_definition_coordinates, ((2, -1, 1), 1)),
    (kernel_closed, ((2, 1.5), 1)),
    (kernel_closed, ((2, -1, 1), 1)),
]


#: each public combinatorial function, with an argument that is not an int:
#: a float, or a bool, which operator.index alone would read as 0 or 1
BAD_INTEGER_CALLS = [
    (factorial, (True,)),
    (factorial, (1.5,)),
    (multinomial, ((True, 1),)),
    (index_factorial, ((True,),)),
    (binomial, (2.5, 1)),
    (falling_factorial, (2.5, 2)),
    (falling_factorial, (3, 0.5)),
]


@pytest.mark.parametrize("call, args", BAD_INTEGER_CALLS,
                         ids=[f"{call.__name__}{args}" for call, args in BAD_INTEGER_CALLS])
def test_public_functions_reject_arguments_that_are_not_integers(call, args):
    with pytest.raises(ValueError, match="must be an integer"):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (factorial, (sys.maxsize + 1,)),
    (kernel_closed, ((sys.maxsize - 1, 3), 2)),
])
def test_a_factorial_past_the_largest_argument_is_a_value_error(call, args):
    # math.factorial raises OverflowError past sys.maxsize, which the CLI
    # would pass on as a traceback; the table refuses it as a usage error
    with pytest.raises(ValueError, match=r"^\d+! is too large to compute$"):
        call(*args)
    assert max(_FACT, default=0) <= sys.maxsize


class TestCheckDegree:
    def test_accepts_nonnegative_int(self):
        assert check_degree(0) == 0
        assert check_degree(7) == 7

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", Fraction(1)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="degree"):
            check_degree(bad)

    @pytest.mark.parametrize("call, args", BAD_DEGREE_CALLS,
                             ids=[f"{call.__name__}{args}" for call, args in BAD_DEGREE_CALLS])
    def test_entry_points_reject_bad_degrees(self, call, args):
        with pytest.raises(ValueError, match="degree"):
            call(*args)


class TestEnumeration:
    def test_ordered_example_d1(self):
        assert enumerate_multi_indices(2, 1) == [(2, 0), (1, 1), (0, 2)]

    def test_indices_are_plain_tuples(self):
        assert all(type(m) is tuple for m in enumerate_multi_indices(3, 2))

    def test_degree_zero(self):
        assert enumerate_multi_indices(0, 3) == [(0, 0, 0, 0)]

    def test_count_d2(self):
        assert len(enumerate_multi_indices(2, 2)) == 6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_multi_indices(2, 0)
        with pytest.raises(ValueError):
            enumerate_multi_indices(-1, 1)

    def test_counts_match_binomial(self):
        for d in range(1, 5):
            for n in range(11):
                indices = enumerate_multi_indices(n, d)
                assert len(indices) == binomial(n + d, d)
                assert len(set(indices)) == len(indices)

    def test_order_is_descending_lexicographic(self):
        for d in (1, 2, 3):
            parts = enumerate_multi_indices(4, d)
            assert parts == sorted(parts, reverse=True)

    def test_each_call_returns_a_fresh_list(self):
        first = enumerate_multi_indices(2, 1)
        first.append((9, 9))
        first[0] = (0, 0)
        assert enumerate_multi_indices(2, 1) == [(2, 0), (1, 1), (0, 2)]
        assert enumerate_multi_indices(2, 1) is not enumerate_multi_indices(2, 1)


class TestMultinomial:
    def test_examples(self):
        assert multinomial((2, 1, 0)) == 3
        assert multinomial((0, 0, 0, 0)) == 1
        assert multinomial((1, -1, 2)) == 0
        assert multinomial((2, -1)) == 0

    def test_matches_direct_factorials(self):
        for d in range(1, 4):
            for n in range(9):
                for mi in enumerate_multi_indices(n, d):
                    direct = math.factorial(n)
                    for p in mi:
                        direct //= math.factorial(p)
                    assert multinomial(mi) == direct

    def test_vandermonde_row_sums(self):
        # sum over |beta| = m of C(m, beta) is (d+1)^m
        for d in range(1, 4):
            for m in range(9):
                total = sum(multinomial(b) for b in enumerate_multi_indices(m, d))
                assert total == (d + 1) ** m

    @given(st.permutations([3, 1, 0, 2]))
    def test_symmetric_in_parts(self, parts):
        assert multinomial(parts) == multinomial((0, 1, 2, 3))


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(3, 0) == 1
        assert binomial(2, 4) == 0

    def test_negative_upper_argument(self):
        # product definition extends to negative integers
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4
        assert binomial(-1, 0) == 1

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial(5, -1)

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_math_comb(self, s, k):
        assert binomial(s, k) == math.comb(s, k)


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(9, 0) == 1
        assert falling_factorial(-3, 0) == 1
        assert falling_factorial(1, 1) == 1
        assert falling_factorial(3, 1) == 3

    def test_legendre_weight_ratio(self):
        assert Fraction(falling_factorial(1, 1), falling_factorial(3, 1)) == Fraction(1, 3)

    def test_identity_with_binomial(self):
        for s in range(13):
            for k in range(13):
                assert falling_factorial(s, k) == binomial(s, k) * math.factorial(k)

    def test_vanishes_past_integer_argument(self):
        assert falling_factorial(2, 3) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="^falling factorial needs k >= 0$"):
            falling_factorial(3, -1)


class TestFactorialCache:
    def test_matches_math_factorial_beyond_bound(self):
        for n in range(301):
            assert factorial(n) == math.factorial(n)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestSlotProducts:
    @given(st.integers(0, 6), st.integers(1, 3), st.data())
    def test_equals_the_product_per_index(self, n, d, data):
        # one table per slot over the part values 0..n; degree 0 has the one
        # index (0, ..., 0), which reads entry 0 of every table
        tables = [data.draw(st.lists(st.integers(-99, 99), min_size=n + 1, max_size=n + 1))
                  for _ in range(d + 1)]
        indices = enumerate_multi_indices(n, d)
        assert _index_slots(n, d) == tuple(zip(*indices))
        assert _slot_products(_index_slots(n, d), iter(tables)) == [
            math.prod(table[part] for table, part in zip(tables, index)) for index in indices]

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3), st.data())
    def test_rows_equal_the_product_per_pair_of_indices(self, m, n, d, data):
        # row a_v of the table is read at part i_v of every index; degree 0
        # gives one row, or one entry per row
        table = [data.draw(st.lists(st.integers(-99, 99), min_size=n + 1, max_size=n + 1))
                 for _ in range(m + 1)]
        indices = enumerate_multi_indices(n, d)
        assert _slot_product_rows(_index_slots(m, d), _index_slots(n, d), table) == [
            [math.prod(table[p][k] for p, k in zip(a, i)) for i in indices]
            for a in enumerate_multi_indices(m, d)]

    def test_binomial_shifts_is_one_table_grown_to_the_largest_top(self):
        small = _binomial_shifts(2)
        assert all(small[p][k] == math.comb(p + k, k) for p in range(3) for k in range(3))
        large = _binomial_shifts(9)
        assert large is small is _binomial_shifts(4)
        assert all(large[p][k] == math.comb(p + k, k) for p in range(10) for k in range(10))


class TestIndexFactorial:
    def test_product_of_part_factorials(self):
        assert index_factorial((3, 2, 0)) == 12
        assert index_factorial((1, 1, 1)) == 1

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError, match="^index factorial needs nonnegative parts$"):
            index_factorial((2, -1))


class TestRationalStrings:
    @pytest.mark.parametrize("text,value", [
        ("2/3", Fraction(2, 3)),
        ("-5/10", Fraction(-1, 2)),
        ("7", Fraction(7)),
        ("+4/6", Fraction(2, 3)),
        ("0", Fraction(0)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1.5", "a/b", "1/0", "", "2/-3", "1e3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_round_trip(self, p, q):
        f = Fraction(p, q)
        assert parse_rational(format_rational(f)) == f
