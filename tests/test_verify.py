import hashlib
import importlib.util
import json
import math
import random
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest

import bdk.cli
import bdk.combinat
import bdk.durrmeyer
import bdk.kernels
import bdk.polynomials
import bdk.verify
from bdk.combinat import clear_denominators, enumerate_multi_indices
from bdk.durrmeyer import apply_operator, composition_coefficients
from bdk.kernels import (DiagonalKernelForm, first_coordinate_difference, kernel_closed_twofold,
                         kernel_legendre, kernel_single)
from bdk.polynomials import CartesianPolynomial, _combine
from bdk.verify import (
    FAMILIES,
    FAMILY_CAPS,
    REPORT_SCHEMA,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    canonical_json_bytes,
    run_suite,
)

from sampling import sample_simplex_point


#: sha256 of the default report body; any change to an answer, a check or the
#: report schema moves it.
DEFAULT_BODY_SHA256 = "5696c436014e494bd15620c9a50c8ff08bb42e8db634b3167e9e16bca31bbb7d"

#: sha256 of the report body of SuiteConfig(d_range=(3,), max_degree=6), whose
#: d = 3 two-fold checks elevate forms with m != n.
D3_BODY_SHA256 = "9ecb2000155af2275c24cb81c3601055e5ff03497bf5e297d141598340ba114e"

#: sha256 of the default report body with the closed-form prefactor doubled
#: (`--self-test-corrupt`), and how many of its checks fail.
CORRUPT_BODY_SHA256 = "ccbf7ca5ba2a0223b428925f0eac71f61ee73ce33037ed7080d5127ae997caad"
CORRUPT_FAILURES = 155

#: sha256 of the report body of SuiteConfig(d_range=(1, 2), max_degree=7), whose
#: bounds disagree: combination 5 < degree 7, moment 6 > operator 5, lemma 4.
MIXED_BOUNDS_BODY_SHA256 = "3da1d1fb25a58c58027a0788e48f51053dee0154498d40c09c046cdc6b60c673"


#: (SuiteConfig keywords, job count, sha256 of the ordered name + "\0" +
#: canonical params + "\n" of every job `_iter_jobs` yields): the job plan,
#: whose order the report's sort hides.
JOB_PLANS = [
    ({}, 1618, "1cfa084511a09fa11d0c1ad58b3ffede5ed1163e475b6f873b9601d3bf16be7d"),
    ({"d_range": (1,)}, 1107, "9861f3ad92f531526f42cb926b54d1e7d7e9d7c328b5a823ca2d4f8f34d02558"),
    ({"max_degree": 10}, 2560, "3dbe0a2d68bc2711eb9abf1766143106fb68c8fb0c553c41cd2e967f945efef5"),
    ({"d_range": (1,), "max_degree": 2}, 160,
     "29305a49556fcdeaea05648db46a4478e5e5eb43863294f3cdc68fee75e719e0"),
]


#: The benchmark's reference checks, loaded by path as they are not part of the package.
ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def load_oracle():
    spec = importlib.util.spec_from_file_location("bdk_bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


#: (module, name) of the functions whose calls the work-count tests count.
#: bdk.polynomials' inner_product would count every reference integral
#: (integrate_simplex reads it too); the operator checks read their own
#: moment table instead.
COUNTED = ((bdk.verify, "kernel_legendre"), (bdk.verify, "kernel_single"),
           (bdk.verify, "kernel_closed_twofold"),
           (bdk.verify, "kernel_definition_twofold"),
           (bdk.kernels.BernsteinKernelForm, "expand"),
           (bdk.kernels.BernsteinKernelForm, "elevate"),
           (bdk.kernels.DiagonalKernelForm, "coordinates"),
           (bdk.verify, "apply_operator"),
           (bdk.polynomials, "inner_product"), (bdk.verify, "composition_coefficients"),
           (bdk.verify, "_inner_sum_coordinates"))


def run_counted(cfg):
    """The report of run_suite(cfg), the number of calls to each COUNTED name,
    and under "raising_elevate" how many elevate calls changed a degree.
    Every apply_operator call must receive one monomial with coefficient 1."""
    counts = dict.fromkeys((name for _, name in COUNTED), 0)
    counts["raising_elevate"] = 0

    def counter(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "apply_operator":
                # one monomial x^e with coefficient 1
                assert args[1].den == 1 and list(args[1].nums.values()) == [1], args
            result = fn(*args, **kwargs)
            if name == "elevate" and result is not args[0]:
                counts["raising_elevate"] += 1
            return result
        return counted

    with pytest.MonkeyPatch.context() as mp:
        for module, name in COUNTED:
            mp.setattr(module, name, counter(name, getattr(module, name)))
        report = run_suite(cfg)
    return report, counts


def dimensions(cfg, family):
    """The dimensions of cfg that FAMILIES runs family at."""
    max_d = FAMILIES[family].max_d
    return [d for d in cfg.d_range if max_d is None or d <= max_d]


def expected_work(cfg):
    """The call counts of run_counted(cfg) when each distinct input is built once."""
    operator_dims = dimensions(cfg, "operator_self_adjoint")
    combination_dims = dimensions(cfg, "composition_linear_combination_kernel")
    monomials = {d: comb(cfg.operator_monomial_degree + d, d) for d in operator_dims}
    # one image column per (d, n, e) read: every test monomial at each n up to
    # operator_cap (M_n x^e has no term above x^e in degree, so a composition
    # reads no other); the first moments read x up to moment_cap, which the
    # operator checks read already up to operator_cap when x is a test monomial
    columns = sum((cfg.operator_cap + 1) * monomials[d] for d in operator_dims)
    if dimensions(cfg, "univariate_first_moment"):
        columns += cfg.moment_cap - (cfg.operator_cap if cfg.operator_monomial_degree else -1)
    singles = sum(cfg.degree_caps[d] + 1 for d in cfg.d_range)
    # every kernel is compared in Bernstein coordinates; the Legendre form is
    # built once per (m, n) up to univariate_cap, which bounds legendre_cap
    legendre = 0
    # two-fold keys (d, m, n): the d = 1 checks reach univariate_cap
    twofold = {d: cfg.degree_caps[d] for d in cfg.d_range}
    if 1 in cfg.d_range:
        legendre = (cfg.univariate_cap + 1) ** 2
        twofold[1] = max(twofold[1], cfg.univariate_cap)
    twofold_keys = sum((cap + 1) ** 2 for cap in twofold.values())
    # one lemma check per (n, beta degree), one pair of coordinate vectors per beta
    betas = sum((cfg.lemma_cap + 1) * comb(cfg.lemma_cap + d + 1, d + 1)
                for d in dimensions(cfg, "inner_sum_collapse"))
    # one square per (d, m, n) with m != n, each a raise; the permutation check
    # elevates its base and each other ordering of a <= b <= c to (c, c), a
    # raise unless the outer and inner degrees are both c already
    elevations = raising = sum((cap + 1) * cap for cap in cfg.degree_caps.values())
    if 1 in cfg.d_range:
        for a, b, c in combinations_with_replacement(range(min(3, cfg.threefold_cap) + 1), 3):
            forms = [(a, b, c), *{(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}]
            elevations += len(forms)
            raising += sum(1 for outer, _, inner in forms if (outer, inner) != (c, c))
    # the two-fold closed coordinates, once per (d, {m, n}): (n, m) takes the
    # transpose of (m, n)'s matrix, and composition_linear_combination_kernel
    # reads it, as its mix equals the closed form
    closed_coordinates = (
        sum((cap + 1) * (cap + 2) // 2 for cap in twofold.values())
        # single_stochastic_in_y, once per (d, k)
        + singles
        # threefold_closed_equals_definition, once per (a, b, c)
        + ((cfg.threefold_cap + 1) ** 3 if 1 in cfg.d_range else 0))
    return {
        "kernel_legendre": legendre,
        "kernel_single": singles,
        "kernel_closed_twofold": twofold_keys,
        "kernel_definition_twofold": twofold_keys,
        "expand": 0,
        "elevate": elevations,
        "raising_elevate": raising,
        "coordinates": closed_coordinates,
        "_inner_sum_coordinates": betas,
        "apply_operator": columns,
        "inner_product": 0,
        # one list per (d, m, n) that composition_coefficients_convex or
        # operator_linear_combination reads
        "composition_coefficients": sum(
            (max(min(cfg.combination_cap, cfg.degree_caps[d]) if d in combination_dims else -1,
                 min(cfg.combination_cap, cfg.operator_cap) if d in operator_dims else -1)
             + 1) ** 2 for d in cfg.d_range),
    }


def bump_top_weight(build):
    """A closed-form builder whose top weight is one more."""
    def bumped(*args):
        form = build(*args)
        terms = list(form.terms)
        j, w = terms[-1]
        terms[-1] = (j, w + 1)
        return DiagonalKernelForm(form.d, form.scale, terms)
    return bumped


def bump_elevation(elevation):
    """Degree elevation with the first coefficient of each raise by one or more
    degrees off by one: B_l for l = (j, 0, ..., 0) gains B_a for a = (m, 0, ..., 0)."""
    def bumped(j, m, d):
        columns = elevation(j, m, d)
        if j == m:
            return columns
        (i, c), *rest = columns[0]
        return ((i, c + 1), *rest), *columns[1:]
    return bumped


def extra_closed_degree(build):
    """A closed-form builder with one more degree, above min(m, n), of weight 1."""
    def extended(*args):
        form = build(*args)
        return DiagonalKernelForm(form.d, form.scale,
                                  [*form.terms, (form.max_index_degree() + 1, 1)])
    return extended


def bump_first_row(build):
    """A Bernstein-coordinate builder whose entry C[b][a], b first and a last
    in their lists, is one more."""
    def bumped(*args):
        form = build(*args)
        form.rows[0][-1] += 1
        return form
    return bumped


def perturb_off_diagonal(build):
    """A definitional builder whose entry C[b][a], b = (n, 0, ..., 0) and
    a = (0, ..., 0, m), is one more whenever the outer and inner degrees differ."""
    def perturbed(*args):
        form = build(*args)
        if form.m != form.n:
            form.rows[0][-1] += 1
        return form
    return perturbed


def bump_gram_constant(build):
    """A definitional builder whose scale has its constant
    K = prod_i n_i! n_{i+1}! one more: S K becomes S (K + 1)."""
    def bumped(*args):
        form, degrees = build(*args), args[:-1]
        gram = math.prod(math.factorial(a) * math.factorial(b)
                         for a, b in zip(degrees, degrees[1:]))
        form.scale = form.scale / gram * (gram + 1)
        return form
    return bumped


def bump_moment_column(column):
    """Moment columns whose first entry, at a = (2, 0, ..., 0), is one more in
    every column of degree n = 2 and exponent degree |e| = 1."""
    def bumped(n, exps):
        values = column(n, exps)
        if n == 2 and sum(exps) == 1:
            return (values[0] + 1, *values[1:])
        return values
    return bumped


def bump_last_moment(row):
    """Moment rows whose entry at the last test monomial g is one more: each
    <M_n x^e, x^g> at that g gains the sum of its image's numerators."""
    def bumped(moments, k, exponents):
        *rest, last = row(moments, k, exponents)
        return [*rest, last + 1]
    return bumped


def double_first_multinomial(multinomial):
    """Multinomials whose value at the first index of each degree,
    (n, 0, ..., 0), is doubled: M_n weighs B_(n,0,...,0) twice."""
    def doubled(alpha):
        return 2 * multinomial(alpha) if not any(alpha[1:]) else multinomial(alpha)
    return doubled


def add_term_past_degree(apply):
    """Operator images with the term x_1^(n+1) added."""
    def extended(n, f):
        return apply(n, f) + CartesianPolynomial.monomial(f.d, (n + 1,) + (0,) * (f.d - 1))
    return extended


def move_last_coefficient(coefficients):
    """Composition coefficients with the last one moved onto the first: the
    sum stays 1, and the last is 0 wherever there are two or more."""
    def moved(m, n, d):
        coeffs = list(coefficients(m, n, d))
        if len(coeffs) > 1:
            coeffs[0], coeffs[-1] = coeffs[0] + coeffs[-1], Fraction(0)
        return coeffs
    return moved


def bump_lemma_side(coordinates):
    """Inner-sum lemma coordinates whose right side at a = (n, 0, ..., 0) is one more."""
    def perturbed(n, beta):
        alphas, left, right = coordinates(n, beta)
        return alphas, left, (right[0] + 1,) + right[1:]
    return perturbed


def bump_lemma_left(coordinates):
    """Inner-sum lemma coordinates whose left side at a = (n, 0, ..., 0) is one more."""
    def perturbed(n, beta):
        alphas, left, right = coordinates(n, beta)
        return alphas, (left[0] + 1,) + left[1:], right
    return perturbed


def bump_first_weight(combine):
    """Combinations of operator images whose first weight is one more: a
    composition M_m(M_n x^e) gains M_m of the first term of M_n x^e, and
    sum_k c_k M_k x^e gains M_0 x^e over the coefficients' denominator."""
    def bumped(pairs, den):
        (w, p), *rest = pairs
        return combine([(w + 1, p), *rest], den)
    return bumped


def double_single_scale(build):
    """A single-operator kernel builder whose scale (n+d)!/n! is doubled."""
    def doubled(n, d):
        form = build(n, d)
        return DiagonalKernelForm(form.d, 2 * form.scale, form.terms)
    return doubled


def bump_binomial(table):
    """A copy of the shared binomial table p -> (k -> C(p+k, k)) whose entry
    C(2, 1), row 1 and column 1, is 3.  The closed elevation columns, the
    definitional Gram rows and the lemma's left side all read that table."""
    bdk.combinat._binomial_shifts(1)  # the entry exists before the copy
    bumped = [list(row) for row in table]
    bumped[1][1] += 1
    return bumped


def fresh_cache(cached):
    """The function behind an lru_cache, behind an empty cache of its own with
    the same parameters: a run reads no entry built before the patch, and
    every entry built under it goes when the patch is undone."""
    return lru_cache(**cached.cache_parameters())(cached.__wrapped__)


#: The mutant table: for each mutant, its monkeypatches as (module, name,
#: wrapper of the original), and the families it fails on `mutated_run`'s config.
#: The sets are written out, not derived from the constructions each family
#: compares: a helper mutant breaks only part of a side, so first_multinomial
#: spares operator_degree_bound and operator_self_adjoint, moment_column
#: spares operator_constant_preservation and operator_degree_bound, and
#: moment_row, read by operator_self_adjoint alone, spares every other family.
#: shared_binomial is read by the definitional and the closed side alike,
#: and still fails every family that compares two of them; it spares
#: single_stochastic_in_y, whose kernel is written at its own degree and so
#: reads only the table's column C(p, 0) = 1.  definition_gram_constant
#: scales a pair's definitional kernels by one factor, the same in both
#: orientations (K = m! n!), so it spares the two symmetry families.
MUTANTS = {
    "top_closed_weight": (
        [(bdk.verify, name, bump_top_weight) for name in (
            "kernel_closed_twofold", "kernel_closed_threefold", "kernel_single")],
        {"twofold_closed_equals_definition", "univariate_twofold_path",
         "univariate_twofold_vs_definition", "threefold_closed_equals_definition",
         "single_stochastic_in_y", "composition_linear_combination_kernel"}),
    "elevation_coefficient": (
        [(bdk.kernels, "_elevation", bump_elevation)],
        {"twofold_closed_equals_definition", "univariate_twofold_path",
         "univariate_twofold_vs_definition", "legendre_equals_definition",
         "threefold_closed_equals_definition", "threefold_permutation_invariance",
         "twofold_symmetry_xy", "twofold_symmetry_degrees",
         "composition_linear_combination_kernel", "inner_sum_collapse"}),
    "off_diagonal_definition": (
        [(bdk.verify, name, perturb_off_diagonal) for name in (
            "kernel_definition_twofold", "kernel_definition_threefold")],
        {"twofold_closed_equals_definition", "univariate_twofold_vs_definition",
         "legendre_equals_definition", "threefold_closed_equals_definition",
         "threefold_permutation_invariance", "twofold_symmetry_xy", "twofold_symmetry_degrees",
         "twofold_stochastic_in_y", "composition_linear_combination_kernel"}),
    "definition_gram_constant": (
        [(bdk.verify, name, bump_gram_constant) for name in (
            "kernel_definition_twofold", "kernel_definition_threefold")],
        {"twofold_closed_equals_definition", "univariate_twofold_vs_definition",
         "legendre_equals_definition", "threefold_closed_equals_definition",
         "threefold_permutation_invariance", "twofold_stochastic_in_y",
         "composition_linear_combination_kernel"}),
    "legendre_entry": (
        [(bdk.verify, "kernel_legendre", bump_first_row)],
        {"univariate_twofold_path", "legendre_equals_definition"}),
    "extra_closed_degree": (
        [(bdk.verify, "kernel_closed_twofold", extra_closed_degree)],
        {"twofold_closed_equals_definition", "univariate_twofold_path",
         "univariate_twofold_vs_definition", "diagonal_truncation"}),
    "shared_binomial": (
        [(bdk.combinat, "_PASCAL", bump_binomial)],
        {"twofold_closed_equals_definition", "univariate_twofold_path",
         "univariate_twofold_vs_definition", "legendre_equals_definition",
         "threefold_closed_equals_definition", "threefold_permutation_invariance",
         "twofold_symmetry_xy", "twofold_symmetry_degrees", "twofold_stochastic_in_y",
         "composition_linear_combination_kernel", "inner_sum_collapse"}),
    "lemma_side": (
        [(bdk.verify, "_inner_sum_coordinates", bump_lemma_side)],
        {"inner_sum_collapse"}),
    "lemma_left": (
        [(bdk.verify, "_inner_sum_coordinates", bump_lemma_left)],
        {"inner_sum_collapse"}),
    "single_scale": (
        [(bdk.verify, "kernel_single", double_single_scale)],
        {"single_stochastic_in_y", "composition_linear_combination_kernel"}),
    "moment_column": (
        [(bdk.durrmeyer, "_moment_column", bump_moment_column)],
        {"operator_self_adjoint", "operator_integral_preservation", "operator_commutativity",
         "operator_linear_combination", "univariate_first_moment"}),
    "moment_row": (
        [(bdk.verify, "_moment_row", bump_last_moment)],
        {"operator_self_adjoint"}),
    "first_multinomial": (
        [(bdk.durrmeyer, "_multinomial", double_first_multinomial)],
        {"operator_constant_preservation", "operator_integral_preservation",
         "operator_commutativity", "operator_linear_combination", "univariate_first_moment"}),
    "term_past_degree": (
        [(bdk.verify, "apply_operator", add_term_past_degree)],
        {"operator_constant_preservation", "operator_degree_bound", "operator_self_adjoint",
         "operator_integral_preservation", "operator_commutativity",
         "operator_linear_combination", "univariate_first_moment"}),
    "combination_term": (
        [(module, "_combine", bump_first_weight) for module in (bdk.polynomials, bdk.verify)],
        {"operator_commutativity", "operator_linear_combination"}),
    "last_coefficient": (
        [(bdk.verify, "composition_coefficients", move_last_coefficient)],
        {"composition_coefficients_convex", "composition_linear_combination_kernel",
         "operator_linear_combination"}),
}


def mutated_run(mp, mutant):
    """The report of run_suite on a small config, d = 1 and 2 up to degree 2,
    with the named mutant patched in through the monkeypatch mp.

    First every cached function of every bdk module gets a fresh cache
    (`fresh_cache`), so the mutant sees no entry that an earlier run built,
    and no entry built under the mutant outlives it: the families a mutant
    fails do not depend on what ran before it."""
    for module in [module for name, module in sorted(sys.modules.items())
                   if module is not None and (name == "bdk" or name.startswith("bdk."))]:
        for name, value in list(vars(module).items()):
            if hasattr(value, "cache_clear"):
                mp.setattr(module, name, fresh_cache(value))
    for module, name, mutate in MUTANTS[mutant][0]:
        mp.setattr(module, name, mutate(getattr(module, name)))
    return run_suite(tiny_config(d_range=(1, 2)))


@pytest.fixture(scope="module")
def default_run():
    return run_counted(SuiteConfig())


@pytest.fixture(scope="module")
def default_report(default_run):
    return default_run[0]


@pytest.fixture(scope="module")
def d3_report():
    return run_suite(SuiteConfig(d_range=(3,), max_degree=6))


@pytest.fixture(scope="module")
def corrupt_report():
    return run_suite(SuiteConfig(corrupt_scale=True))


def tiny_config(**overrides):
    base = dict(d_range=(1,), max_degree=2)
    base.update(overrides)
    return SuiteConfig(**base)


class TestSuiteConfig:
    def test_defaults_cover_all_dimensions(self):
        cfg = SuiteConfig()
        assert cfg.d_range == (1, 2, 3)
        assert cfg.degree_caps == {1: 8, 2: 6, 3: 4}

    def test_rejects_empty_dimension_range(self):
        with pytest.raises(ValueError):
            SuiteConfig(d_range=())

    def test_rejects_missing_cap(self):
        with pytest.raises(ValueError, match=r"no default degree cap for d=\[4\]"):
            SuiteConfig(d_range=(1, 4))
        assert SuiteConfig(d_range=(1, 4), max_degree=1).degree_caps == {1: 1, 4: 1}

    def test_rejects_repeated_dimension(self):
        with pytest.raises(ValueError, match="repeats"):
            SuiteConfig(d_range=(1, 1), max_degree=1)
        with pytest.raises(ValueError, match="repeats"):
            SuiteConfig(d_range=(1, 2, 1))

    @pytest.mark.parametrize("bad, problem", [(1.5, "an integer"), ("2", "an integer"),
                                              (-1, ">= 0"), (True, "an integer")])
    def test_rejects_max_degree_that_is_not_a_degree(self, bad, problem):
        with pytest.raises(ValueError, match=f"^max_degree must be {problem}"):
            SuiteConfig(d_range=(1,), max_degree=bad)

    @pytest.mark.parametrize("bad, problem", [(1.0, "an integer"), (0, ">= 1"),
                                              (True, "an integer")])
    def test_rejects_dimension_that_is_not_one_or_more(self, bad, problem):
        with pytest.raises(ValueError, match=f"^d_range entry must be {problem}"):
            SuiteConfig(d_range=(bad,), max_degree=1)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
    def test_rejects_time_budget_that_is_not_finite_and_nonnegative(self, budget):
        with pytest.raises(ValueError, match="time_budget_s"):
            SuiteConfig(d_range=(1,), max_degree=1, time_budget_s=budget)

    @pytest.mark.parametrize("budget", ["5", True, Fraction(1, 2)])
    def test_time_budget_must_be_an_int_or_a_float(self, budget):
        with pytest.raises(ValueError, match="^time_budget_s must be an int or a float"):
            SuiteConfig(d_range=(1,), time_budget_s=budget)
        for ok in (0, 2.5):
            assert SuiteConfig(d_range=(1,), time_budget_s=ok).time_budget_s == ok

    @pytest.mark.parametrize("keyword", ["seed", "points_per_case"])
    def test_takes_no_sampling_keyword(self, keyword):
        # every check is exact: there is no sampled point for these to set
        with pytest.raises(TypeError, match=keyword):
            SuiteConfig(d_range=(1,), **{keyword: 1})

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, "True"])
    def test_corrupt_scale_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match="^corrupt_scale must be a bool"):
            SuiteConfig(d_range=(1,), corrupt_scale=flag)

    def test_max_degree_holds_every_cap_to_min_of_default_and_k(self):
        default = SuiteConfig(d_range=(1, 2))
        assert default.degree_caps == {1: 8, 2: 6}
        assert {name: getattr(default, name) for name in FAMILY_CAPS} == FAMILY_CAPS
        for k in range(12):
            cfg = SuiteConfig(d_range=(1, 2), max_degree=k)
            for name, cap in FAMILY_CAPS.items():
                assert getattr(cfg, name) == min(cap, k), (name, k)
            assert cfg.degree_caps == {1: k, 2: k}

    @pytest.mark.parametrize("max_degree", [None, *range(13)])
    def test_the_dropped_caps_could_never_bind(self, max_degree):
        # why the composition rows name no "degree" cap and
        # operator_linear_combination no combination_cap: neither could bind
        cfg = SuiteConfig(max_degree=max_degree)
        assert cfg.combination_cap == cfg.operator_cap
        for family in ("composition_coefficients_convex",
                       "composition_linear_combination_kernel"):
            assert FAMILIES[family].caps == ("combination_cap",)
            for d in dimensions(cfg, family):
                assert cfg.combination_cap <= cfg.degree_caps[d], (family, d)
        assert FAMILIES["operator_linear_combination"].caps == ("operator_cap",)

    def test_config_echo_keeps_every_bound(self):
        assert SuiteConfig(d_range=(2, 1), max_degree=3).to_json_dict() == {
            "d_range": [2, 1], "degree_caps": {"1": 3, "2": 3}, "threefold_cap": 3,
            "univariate_cap": 3, "legendre_cap": 3, "combination_cap": 3, "lemma_cap": 3,
            "operator_cap": 3, "operator_monomial_degree": 3, "moment_cap": 3,
            "time_budget_s": None, "corrupt_scale": False}


def old_monomials_up_to(d, max_degree):
    """The slack-dropping enumeration, which repeats each monomial once per
    degree from its own up to max_degree."""
    return [CartesianPolynomial.monomial(d, mi[1:])
            for deg in range(max_degree + 1)
            for mi in enumerate_multi_indices(deg, d)]


def monomials_up_to(d, max_degree):
    """Each monomial of degree <= max_degree once, in first-appearance order."""
    return list(dict.fromkeys(old_monomials_up_to(d, max_degree)))


class TestMonomials:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(6))
    def test_each_monomial_once_in_first_appearance_order(self, d, k, monkeypatch):
        # operator_degree_bound reads the image of each test monomial in turn
        read = []

        def recording(n, f):
            read.append(f)
            return apply_operator(n, f)
        monkeypatch.setattr(bdk.verify, "apply_operator", recording)
        jobs = bdk.verify._operator_jobs(d, 0, dict.fromkeys(FAMILIES, 0), k,
                                         composition_coefficients)
        for name, _, check in jobs:
            if name == "operator_degree_bound":
                assert check() is None
        assert len(read) == comb(k + d, d)
        assert read == monomials_up_to(d, k)


def table_images(d, f, m, n):
    """M_m(M_n f) and sum_k c_k M_k f as `bdk.verify` composes them: integer
    combinations (`bdk.polynomials._combine`) of the monomial images
    apply_operator(k, x^e)."""
    column = cache(lambda k, e: apply_operator(k, CartesianPolynomial.monomial(d, e)))
    inner, inner_den = _combine(((v, column(n, e)) for e, v in f.nums.items()), f.den)
    composed = _combine(((v, column(m, e)) for e, v in inner.items()), inner_den)
    den, weights = clear_denominators(composition_coefficients(m, n, d))
    mixed = _combine(((w * v, column(k, e)) for k, w in enumerate(weights)
                      for e, v in f.nums.items()), den * f.den)
    return [CartesianPolynomial.from_integers(d, nums, Fraction(1, den))
            for nums, den in (composed, mixed)]


class TestOperatorTable:
    """The operator checks compose monomial images; apply_operator's
    multi-term path gives the same images."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", range(6))
    def test_combined_columns_equal_the_multi_term_images(self, d, n):
        mixed = CartesianPolynomial(d, {(0,) * d: Fraction(-3, 2), (1,) * d: Fraction(2, 3),
                                        (3,) + (0,) * (d - 1): -5, (0,) * (d - 1) + (4,): 1})
        for f in [*monomials_up_to(d, 4), mixed]:
            for m in range(6):
                composed, combined = table_images(d, f, m, n)
                assert composed == apply_operator(m, apply_operator(n, f)), (f, m)
                assert combined == CartesianPolynomial.linear_combination(
                    d, ((c, apply_operator(k, f))
                        for k, c in enumerate(composition_coefficients(m, n, d)))), (f, m)
                assert composed == combined, (f, m)


class TestSamplePoint:
    """The test-only sampler the point-evaluating tests draw from."""

    def test_points_are_inside_and_small_denominator(self):
        rng = random.Random(5)
        for d in (1, 2, 3):
            for _ in range(20):
                pt = sample_simplex_point(rng, d)
                assert min(pt) >= 0 and sum(pt) <= 1
                assert all(c.denominator <= 97 for c in pt)

    def test_deterministic_for_seed(self):
        a = [sample_simplex_point(random.Random(9), 2) for _ in range(5)]
        b = [sample_simplex_point(random.Random(9), 2) for _ in range(5)]
        assert a == b


class TestRunSuite:
    def test_tiny_suite_passes(self):
        report = run_suite(tiny_config())
        assert report.complete
        assert report.ok
        summary = report.summary()
        assert summary["failed"] == 0
        assert summary["total"] == summary["passed"] > 0

    def test_default_suite_is_green(self, default_report):
        # the full claimed identity set at default ranges; the artifact's
        # definition of done
        report = default_report
        assert report.ok, [(c.name, c.params, c.witness) for c in report.failures][:3]

    def test_default_report_body_is_pinned(self, default_report):
        assert hashlib.sha256(default_report.body_bytes()).hexdigest() == DEFAULT_BODY_SHA256

    def test_jobs_built_before_any_runs_give_the_pinned_body(self, monkeypatch):
        # each job reads its own dimension's monomials, not the last dimension built
        iter_jobs = bdk.verify._iter_jobs
        monkeypatch.setattr(bdk.verify, "_iter_jobs", lambda cfg: list(iter_jobs(cfg)))
        report = run_suite(SuiteConfig())
        assert hashlib.sha256(report.body_bytes()).hexdigest() == DEFAULT_BODY_SHA256

    @pytest.mark.parametrize("keywords, count, digest", JOB_PLANS)
    def test_job_plan_is_pinned(self, keywords, count, digest):
        # run order decides which checks a --time-budget run reaches and which
        # check pays each build; the report's sort would hide any change to it
        plan = [name.encode() + b"\0" + canonical_json_bytes(params) + b"\n"
                for name, params, _ in bdk.verify._iter_jobs(SuiteConfig(**keywords))]
        assert (len(plan), hashlib.sha256(b"".join(plan)).hexdigest()) == (count, digest)

    def test_default_check_count_is_the_benchmarks(self, default_report):
        # the benchmark counts each check of a default run as one operation
        assert len(default_report.checks) == load_oracle().VERIFY_CHECKS

    def test_mixed_bounds_report_body_is_pinned(self):
        report = run_suite(SuiteConfig(d_range=(1, 2), max_degree=7))
        assert report.ok
        assert len(report.checks) == 1363
        assert hashlib.sha256(report.body_bytes()).hexdigest() == MIXED_BOUNDS_BODY_SHA256

    def test_d3_report_body_is_pinned(self, d3_report):
        report = d3_report
        assert report.ok
        assert len(report.checks) == 224
        assert hashlib.sha256(report.body_bytes()).hexdigest() == D3_BODY_SHA256

    def test_corrupted_report_body_is_pinned(self, corrupt_report):
        report = corrupt_report
        assert hashlib.sha256(report.body_bytes()).hexdigest() == CORRUPT_BODY_SHA256
        assert len(report.checks) == 1618
        assert len(report.failures) == CORRUPT_FAILURES
        assert {c.name for c in report.failures} == {"twofold_closed_equals_definition"}

    def test_a_check_passes_exactly_when_it_returns_no_witness(
            self, default_report, d3_report, corrupt_report):
        for report in (default_report, d3_report, corrupt_report):
            assert all(c.passed is (c.witness is None) for c in report.checks)
        witnessed = [c for c in corrupt_report.checks if c.witness is not None]
        assert len(witnessed) == CORRUPT_FAILURES
        assert all(c.witness for c in witnessed)

    def test_degree_zero_suite_is_trivial_and_green(self):
        cfg = tiny_config(max_degree=0)
        report = run_suite(cfg)
        assert report.ok

    def test_check_names_cover_every_identity_family(self):
        assert {c.name for c in run_suite(tiny_config()).checks} == set(FAMILIES)

    def test_readme_lists_exactly_the_families(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Check families\n", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|", section, re.M)
        assert [name for name, _ in rows] == list(FAMILIES)
        # each default in the bound column is its named cap's, in order
        for name, bound in rows:
            assert [int(v) for v in re.findall(r"\((\d+)\)", bound)] == [
                FAMILY_CAPS[cap] for cap in FAMILIES[name].caps if cap in FAMILY_CAPS], name

    def test_default_run_builds_each_input_once(self, default_run):
        _, counts = default_run
        assert counts == {"kernel_legendre": 121, "kernel_single": 21,
                          "kernel_closed_twofold": 195, "kernel_definition_twofold": 195,
                          "expand": 0, "elevate": 214, "raising_elevate": 200,
                          "coordinates": 346, "_inner_sum_coordinates": 250,
                          "apply_operator": 121, "inner_product": 0,
                          "composition_coefficients": 72}
        assert counts == expected_work(SuiteConfig())

    def test_the_self_test_corrupts_the_matrix_the_check_reads(self, default_run):
        # the corrupt run doubles the scale of the closed matrix the honest
        # check compares, so it writes the same matrices as the default run,
        # and every witness reads a closed coefficient twice the definitional one
        report, counts = run_counted(SuiteConfig(corrupt_scale=True))
        assert counts["coordinates"] == default_run[1]["coordinates"] == 346
        assert len(report.failures) == CORRUPT_FAILURES
        for record in report.failures:
            assert Fraction(record.witness["lhs"]) == 2 * Fraction(record.witness["rhs"]), record

    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        # the default d = 1 bounds, where univariate_cap (10) != legendre_cap (8)
        SuiteConfig(d_range=(1,)),
        tiny_config(d_range=(1, 2), max_degree=3),
        tiny_config(d_range=(2, 3), max_degree=1),
        # the only test monomial is 1, so the first moments' x is read by them alone
        tiny_config(d_range=(1, 2), max_degree=0),
    ])
    def test_small_run_builds_each_input_once(self, cfg):
        report, counts = run_counted(cfg)
        assert report.ok
        assert counts == expected_work(cfg)

    def test_columns_and_moments_are_built_inside_checks_only(self, monkeypatch):
        # job generation builds nothing; every image column, moment, kernel,
        # closed matrix and elevation is built inside the timed call of the
        # check that first reads it
        built = [(bdk.verify, name) for name in (
            "apply_operator", "kernel_definition_twofold", "kernel_definition_threefold",
            "kernel_closed_twofold", "kernel_closed_threefold", "kernel_legendre",
            "kernel_single")]
        built += [(bdk.polynomials._Moments, "__missing__"),
                  (DiagonalKernelForm, "coordinates"), (bdk.kernels.BernsteinKernelForm, "elevate")]
        inside, calls = [False], dict.fromkeys((name for _, name in built), 0)

        def counter(name, fn):
            def counted(*args):
                assert inside[0], (name, args)
                calls[name] += 1
                return fn(*args)
            return counted
        for owner, name in built:
            monkeypatch.setattr(owner, name, counter(name, getattr(owner, name)))
        jobs = list(bdk.verify._iter_jobs(SuiteConfig()))
        assert not any(calls.values()), calls
        for _, _, check in jobs:
            inside[0] = True
            assert check() is None
            inside[0] = False
        assert calls["apply_operator"] == 121 and all(calls.values()), calls

    def test_default_run_fills_each_moment_once(self, monkeypatch):
        # one moment table per dimension the operator checks run at (d <= 2),
        # sized before any check runs, and no entry of it computed twice; a
        # moment row reads every test monomial, so the diagonal entries
        # <M_n x^e, x^e>, which no pair compares, fill x^8 at d = 1 and
        # x1^8, x2^8 at d = 2 as well: 51 keys the pairs read, and these 3
        fills, tables = Counter(), {}
        missing = bdk.polynomials._Moments.__missing__

        def counted(table, k):
            tables[id(table)] = table
            fills[id(table), k] += 1
            return missing(table, k)
        monkeypatch.setattr(bdk.polynomials._Moments, "__missing__", counted)
        assert run_suite(SuiteConfig()).ok
        assert sorted(table.d for table in tables.values()) == [1, 2]
        assert len(fills) == sum(fills.values()) == 54

    def test_operator_checks_catch_a_perturbed_image(self, monkeypatch):
        target = CartesianPolynomial.monomial(2, (2, 0))
        original = bdk.verify.apply_operator

        def perturbed(n, f):
            image = original(n, f)
            return image + CartesianPolynomial.variable(2, 1) if f == target else image
        monkeypatch.setattr(bdk.verify, "apply_operator", perturbed)
        report = run_suite(tiny_config(d_range=(2,)))
        named = target.to_json_dict()["terms"]
        for family in ("operator_self_adjoint", "operator_integral_preservation",
                       "operator_linear_combination"):
            records = [c for c in report.checks if c.name == family]
            assert records, family
            for record in records:
                assert not record.passed, (family, record.params)
                assert named in (record.witness.get("f"), record.witness.get("g")), \
                    (family, record.witness)

    def test_lemma_checks_one_degree_pair_with_no_sampled_cases(self):
        report = run_suite(tiny_config(d_range=(1, 2)))
        params = [c.params for c in report.checks if c.name == "inner_sum_collapse"]
        assert all(set(p) == {"d", "n", "beta_degree"} for p in params), params
        cap = report.config["lemma_cap"]
        assert sorted((p["d"], p["n"], p["beta_degree"]) for p in params) == [
            (d, n, k) for d in (1, 2) for n in range(cap + 1) for k in range(cap + 1)]

    def test_each_first_moment_image_is_built_once(self, monkeypatch):
        # the first moments read the d = 1 operator checks' images
        x = CartesianPolynomial.variable(1, 1)
        original = bdk.verify.apply_operator
        calls = []

        def counted(n, f):
            if f == x:
                calls.append(n)
            return original(n, f)
        monkeypatch.setattr(bdk.verify, "apply_operator", counted)
        cfg = SuiteConfig(d_range=(1,))
        assert run_suite(cfg).ok
        assert sorted(calls) == list(range(cfg.moment_cap + 1))

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_each_mutant_fails_exactly_its_families_with_witnesses(self, mutant, monkeypatch):
        report = mutated_run(monkeypatch, mutant)
        assert {c.name for c in report.failures} == MUTANTS[mutant][1]
        for record in report.failures:
            witness, kind = record.witness, FAMILIES[record.name].witness
            if "error" in witness:
                # a form the comparison cannot take fails with the message
                assert set(witness) == {"error"}, record
            elif kind == "coordinates":
                assert {"a", "b", "lhs", "rhs"} <= set(witness), record
            elif kind == "stochastic":
                assert set(witness) == {"a", "lhs", "rhs"}, record
            elif kind == "monomial":
                assert "f" in witness, record
            else:
                assert witness, record

    def test_mutants_fail_their_families_after_a_warm_run(self, default_report, monkeypatch):
        # the default run has filled the process-wide elevation and Legendre
        # caches, which both mutants change; each still fails exactly its row,
        # and no mutated entry is left in those caches once it is undone
        for mutant in ("elevation_coefficient", "shared_binomial"):
            with monkeypatch.context() as mp:
                report = mutated_run(mp, mutant)
            assert {c.name for c in report.failures} == MUTANTS[mutant][1], mutant
        # B_(1,0) = (3 B_(3,0) + 2 B_(2,1) + B_(1,2)) / 3, and B_(0,1) mirrored
        assert bdk.kernels._elevation(1, 3, 1) == (((0, 3), (1, 2), (2, 1)),
                                                   ((1, 1), (2, 2), (3, 3)))
        # u_2 at degree 4: sum_i (-1)^i C(2, i) C(4 - t, 2 - i) C(t, i) for t = 0..4
        assert bdk.kernels._legendre_column(2, 4) == ((0, 6), (1, -3), (2, -6), (3, -3), (4, 6))
        for m in range(3):
            for n in range(3):
                closed = kernel_closed_twofold(m, n, 1).coordinates(m, n)
                assert first_coordinate_difference(closed, kernel_legendre(m, n)) is None

    def test_every_family_of_the_default_report_is_killed(self, default_report):
        # each mutant fails exactly its listed families (the test above)
        killed = set().union(*(families for _, families in MUTANTS.values()))
        assert {c.name for c in default_report.checks} == set(FAMILIES)
        for family in FAMILIES:
            assert family in killed, family

    def test_self_adjoint_witness_of_a_perturbed_moment_row(self, monkeypatch):
        # the first pair that differs is (1, x^g) for the last test monomial
        # g: <1, x^g> gains 1 / (moments.scale) with scale (2+2+d)!.  These
        # witnesses were recorded from the pairwise Dirichlet sums that the
        # moment rows replace, with the same moments bumped
        report = mutated_run(monkeypatch, "moment_row")
        witnesses = {(c.params["d"], c.params["n"]): c.witness for c in report.failures}
        expected = {1: ([0], [2], "41/120", "1/3"), 2: ([0, 0], [0, 2], "61/720", "1/12")}
        assert set(witnesses) == {(d, n) for d in (1, 2) for n in range(3)}
        for (d, n), witness in witnesses.items():
            f, g, lhs, rhs = expected[d]
            assert witness == {"f": [{"exp": f, "coef": "1"}], "g": [{"exp": g, "coef": "1"}],
                               "lhs": lhs, "rhs": rhs}, (d, n)

    def test_lemma_check_catches_a_perturbed_side(self, monkeypatch):
        report = mutated_run(monkeypatch, "lemma_side")
        records = [c for c in report.checks if c.name == "inner_sum_collapse"]
        assert records
        for record in records:
            assert not record.passed, record.params
            d, n = record.params["d"], record.params["n"]
            witness = record.witness
            assert set(witness) == {"beta", "a", "lhs", "rhs"}
            # the first beta of its degree fails at the first index a
            assert witness["beta"] == [record.params["beta_degree"]] + [0] * d
            assert witness["a"] == [n] + [0] * d
            assert int(witness["rhs"]) - int(witness["lhs"]) == 1

    def test_lemma_check_catches_a_perturbed_left_side(self, monkeypatch):
        report = mutated_run(monkeypatch, "lemma_left")
        records = [c for c in report.checks if c.name == "inner_sum_collapse"]
        assert records and not any(record.passed for record in records)
        for record in records:
            d, n = record.params["d"], record.params["n"]
            assert record.witness["beta"] == [record.params["beta_degree"]] + [0] * d
            assert record.witness["a"] == [n] + [0] * d
            assert int(record.witness["lhs"]) - int(record.witness["rhs"]) == 1

    def test_stochastic_check_catches_a_perturbed_coordinate(self, monkeypatch):
        monkeypatch.setattr(bdk.verify, "kernel_definition_twofold",
                            bump_first_row(bdk.verify.kernel_definition_twofold))
        report = run_suite(tiny_config(d_range=(1, 2)))
        records = [c for c in report.checks if c.name == "twofold_stochastic_in_y"]
        assert records
        for record in records:
            assert not record.passed, record.params
            d, m = record.params["d"], record.params["m"]
            # the last outermost index is (0, ..., 0, m)
            assert record.witness["a"] == [0] * d + [m]
            assert record.witness["rhs"] == "1"
            assert Fraction(record.witness["lhs"]) > 1

    def test_corrupted_prefactor_is_caught_with_witness(self):
        report = run_suite(tiny_config(corrupt_scale=True))
        failures = report.failures
        assert failures
        assert all(f.name == "twofold_closed_equals_definition" for f in failures)
        witness = failures[0].witness
        assert set(witness) == {"a", "b", "lhs", "rhs"}
        # the corrupted prefactor doubles every closed-form coefficient
        assert Fraction(witness["lhs"]) == 2 * Fraction(witness["rhs"])

    def test_legendre_entry_fails_every_pair_of_both_legendre_families(self, monkeypatch):
        report = mutated_run(monkeypatch, "legendre_entry")
        assert len(report.failures) == 2 * (tiny_config().univariate_cap + 1) ** 2

    def test_a_raising_check_is_a_failed_check(self, monkeypatch, tmp_path, capsys):
        # a closed form one degree too high has no coordinates at (m, n):
        # each check that writes them fails with the error, and the run goes on
        total = len(run_suite(tiny_config(d_range=(1, 2))).checks)
        report = mutated_run(monkeypatch, "extra_closed_degree")
        assert report.complete
        assert len(report.checks) == total
        raised = [c for c in report.failures if c.name != "diagonal_truncation"]
        assert raised
        for record in raised:
            m, n = record.params["m"], record.params["n"]
            assert record.witness == {"error": (
                f"a diagonal form of index degree {min(m, n) + 1} has no "
                f"coordinates at degrees ({m}, {n})")}, record
        code = bdk.cli.main(["verify", "--d", "1,2", "--max-degree", "2",
                             "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert "failed" in capsys.readouterr().err
        assert json.loads((tmp_path / "r.json").read_text())["complete"] is True

    def test_doubled_multinomial_kills_constant_preservation(self, monkeypatch):
        records = [c for c in mutated_run(monkeypatch, "first_multinomial").checks
                   if c.name == "operator_constant_preservation"]
        assert records
        for record in records:
            assert not record.passed, record.params
            # M_n 1 = 1 + B_(n,0,...,0): the constant term is first and is 2
            assert record.witness == {"exp": [0] * record.params["d"], "lhs": "2", "rhs": "1"}

    def test_term_past_the_degree_kills_the_degree_bound(self, monkeypatch):
        records = [c for c in mutated_run(monkeypatch, "term_past_degree").checks
                   if c.name == "operator_degree_bound"]
        assert records
        for record in records:
            assert not record.passed, record.params
            d, n = record.params["d"], record.params["n"]
            # the first monomial is the constant 1
            assert record.witness == {"f": [{"exp": [0] * d, "coef": "1"}],
                                      "image_degree": n + 1}

    def test_moved_coefficient_kills_convexity_and_the_kernel_mix(self, monkeypatch):
        report = mutated_run(monkeypatch, "last_coefficient")
        records = [c for c in report.checks if c.name == "composition_coefficients_convex"]
        assert any(min(c.params["m"], c.params["n"]) > 0 for c in records)
        for record in records:
            # with one coefficient there is nothing to move
            moved = min(record.params["m"], record.params["n"]) > 0
            assert record.passed != moved, record.params
            if moved:
                assert record.witness["sum"] == "1"
                assert record.witness["coefficients"][-1] == "0"
        # a zero coefficient is a zero weight, which the diagonal mix refuses
        for record in report.checks:
            if record.name == "composition_linear_combination_kernel":
                moved = min(record.params["m"], record.params["n"]) > 0
                assert record.witness == ({"error": "diagonal weights must be nonzero"}
                                          if moved else None), record

    def test_a_pairs_kernels_are_freed_before_the_next_pair_and_after_the_run(self,
                                                                              monkeypatch):
        # a weak reference to each two-fold form built or elevated, with its (d, {m, n})
        forms = []

        def pairs_alive():
            return {pair for pair, ref in forms if ref() is not None}

        def build(m, n, d, original=bdk.verify.kernel_definition_twofold):
            pair = (d, frozenset((m, n)))
            # the first form of a pair: every earlier pair's forms are freed
            assert pairs_alive() <= {pair}
            form = original(m, n, d)
            forms.append((pair, weakref.ref(form)))
            return form

        def elevate(self, m, n, original=bdk.kernels.BernsteinKernelForm.elevate):
            form = original(self, m, n)
            # only a two-fold form keeps its pair; a three-fold one has none
            for pair, ref in list(forms):
                if ref() is self:
                    forms.append((pair, weakref.ref(form)))
            return form
        monkeypatch.setattr(bdk.verify, "kernel_definition_twofold", build)
        monkeypatch.setattr(bdk.kernels.BernsteinKernelForm, "elevate", elevate)
        assert run_suite(SuiteConfig()).ok
        # the pairs {m, n} of d = 1, 2, 3 up to 10, 6 and 4: (d, m, n) once
        # each, and a square of each m != n up to 8, 6 and 4
        assert len({pair for pair, _ in forms}) == 66 + 28 + 15
        assert len(forms) == 121 + 49 + 25 + 72 + 42 + 20
        assert not pairs_alive()

    def test_time_budget_flags_incomplete(self):
        report = run_suite(tiny_config(time_budget_s=0.0))
        assert not report.complete
        assert "time budget" in report.incomplete_reason
        assert not report.ok

    def test_checks_are_order_normalized(self):
        report = run_suite(tiny_config())
        keys = [(c.name, canonical_json_bytes(c.params)) for c in report.checks]
        assert keys == sorted(keys)


class TestPairSharing:
    """The premises on which a degree pair writes each closed matrix once: the
    (n, m) orientation takes the transpose of (m, n)'s, and the kernel mix
    of composition_linear_combination_kernel reads it."""

    def test_mirrored_closed_forms_are_equal_and_their_coordinates_transposes(self):
        cfg = SuiteConfig()
        # the d = 1 closed coordinates reach univariate_cap
        caps = {**cfg.degree_caps, 1: max(cfg.degree_caps[1], cfg.univariate_cap)}
        for d, cap in caps.items():
            for m, n in combinations_with_replacement(range(cap + 1), 2):
                if m == n:
                    continue
                closed = kernel_closed_twofold(m, n, d)
                assert kernel_closed_twofold(n, m, d) == closed, (d, m, n)
                direct, mirrored = closed.coordinates(n, m), closed.coordinates(m, n).transpose()
                assert (direct.d, direct.m, direct.n, direct.scale, direct.rows) == (
                    mirrored.d, mirrored.m, mirrored.n, mirrored.scale, mirrored.rows), (d, m, n)

    def test_every_default_mix_is_the_closed_form(self):
        cfg = SuiteConfig()
        for d in dimensions(cfg, "composition_linear_combination_kernel"):
            cap = min(cfg.combination_cap, cfg.degree_caps[d])
            for m, n in product(range(cap + 1), repeat=2):
                mix = [(k, c * kernel_single(k, d).scale)
                       for k, c in enumerate(composition_coefficients(m, n, d))]
                closed = kernel_closed_twofold(m, n, d)
                assert mix == [(j, closed.scale * w) for j, w in closed.terms], (d, m, n)

    def test_a_mix_unlike_the_closed_form_is_elevated(self, monkeypatch):
        # a doubled K_k doubles the mix, which then differs from the closed
        # form: the mix is elevated, and every check fails with its witness
        report = mutated_run(monkeypatch, "single_scale")
        records = [c for c in report.checks if c.name == "composition_linear_combination_kernel"]
        assert records
        for record in records:
            assert set(record.witness) == {"a", "b", "lhs", "rhs"}, record
            assert Fraction(record.witness["lhs"]) == 2 * Fraction(record.witness["rhs"]), record

    def test_closed_matrices_are_freed_with_their_pair(self, monkeypatch):
        # a weak reference to each closed matrix written or transposed, with
        # its (d, {m, n}); a matrix of another pair is never alive at a write
        matrices = []

        def alive():
            return {pair for pair, ref in matrices if ref() is not None}

        def coordinates(self, m, n, original=DiagonalKernelForm.coordinates):
            pair = (self.d, frozenset((m, n)))
            assert alive() <= {pair}
            matrix = original(self, m, n)
            matrices.append((pair, weakref.ref(matrix)))
            return matrix

        def transpose(self, original=bdk.kernels.BernsteinKernelForm.transpose):
            matrix = original(self)
            for pair, ref in list(matrices):
                if ref() is self:
                    matrices.append((pair, weakref.ref(matrix)))
            return matrix
        monkeypatch.setattr(DiagonalKernelForm, "coordinates", coordinates)
        monkeypatch.setattr(bdk.kernels.BernsteinKernelForm, "transpose", transpose)
        assert run_suite(tiny_config(d_range=(1, 2), max_degree=3)).ok
        assert matrices and not alive()


class TestReportSerialization:
    def test_schema_and_summary(self):
        report = run_suite(tiny_config())
        obj = report.to_json_dict()
        assert obj["schema"] == REPORT_SCHEMA
        assert obj["version"] == bdk.__version__
        assert obj["summary"]["total"] == len(obj["checks"])
        assert obj["config"] == tiny_config().to_json_dict()
        assert "total_ms" in obj
        assert all("wall_ms" in c for c in obj["checks"])

    def test_body_excludes_timing(self):
        report = run_suite(tiny_config())
        body = json.loads(report.body_bytes())
        assert "total_ms" not in body
        assert all("wall_ms" not in c for c in body["checks"])

    def test_same_config_same_body_bytes(self):
        cfg = tiny_config()
        assert run_suite(cfg).body_bytes() == run_suite(cfg).body_bytes()

    def test_report_round_trips_through_json(self):
        report = run_suite(tiny_config())
        obj = json.loads(json.dumps(report.to_json_dict()))
        assert obj["complete"] is True
        assert isinstance(obj["checks"], list)


class TestVerificationReportHelpers:
    def test_passed_and_complete_are_read_off_the_witness_and_the_reason(self):
        assert CheckRecord._fields == ("name", "params", "witness", "wall_ms")
        assert VerificationReport._fields == ("config", "checks", "incomplete_reason",
                                              "total_ms")
        failed = CheckRecord("twofold_symmetry_xy", {"d": 1, "m": 0, "n": 0},
                             {"lhs": "1", "rhs": "2"}, 1.25)
        held = failed._replace(witness=None)
        assert (failed.passed, held.passed) == (False, True)
        cut = VerificationReport({"d_range": [1]}, [failed, held], "budget", 2.5)
        assert (cut.complete, cut._replace(incomplete_reason=None).complete) == (False, True)
        assert cut.to_json_dict() == {
            "schema": REPORT_SCHEMA, "version": bdk.__version__, "config": {"d_range": [1]},
            "complete": False, "incomplete_reason": "budget",
            "summary": {"total": 2, "passed": 1, "failed": 1},
            "checks": [{"name": "twofold_symmetry_xy", "params": {"d": 1, "m": 0, "n": 0},
                        "passed": False, "witness": {"lhs": "1", "rhs": "2"},
                        "wall_ms": 1.25},
                       {"name": "twofold_symmetry_xy", "params": {"d": 1, "m": 0, "n": 0},
                        "passed": True, "witness": None, "wall_ms": 1.25}],
            "total_ms": 2.5}

    def test_failures_property(self):
        report = run_suite(tiny_config(max_degree=1, corrupt_scale=True))
        summary = report.summary()
        assert summary["failed"] == len(report.failures) > 0
        assert summary["passed"] + summary["failed"] == summary["total"]
        assert not report.ok
