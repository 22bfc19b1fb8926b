import hashlib
import importlib.util
import json
import math
import random
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

import bdk.cli
import bdk.durrmeyer
import bdk.kernels
import bdk.verify
from bdk.combinat import enumerate_multi_indices
from bdk.kernels import DiagonalKernelForm
from bdk.polynomials import CartesianPolynomial
from bdk.verify import (
    FAMILY_CAPS,
    REPORT_SCHEMA,
    SuiteConfig,
    _monomials_up_to,
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


#: The benchmark's reference checks, loaded by path as they are not part of the package.
ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def load_oracle():
    spec = importlib.util.spec_from_file_location("bdk_bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


#: (module, name) of the functions whose calls the work-count tests count.
COUNTED = ((bdk.verify, "kernel_legendre"), (bdk.verify, "kernel_single"),
           (bdk.verify, "kernel_closed_twofold"),
           (bdk.verify, "kernel_definition_twofold"),
           (bdk.kernels.BernsteinKernelForm, "expand"),
           (bdk.kernels.BernsteinKernelForm, "elevate"),
           (bdk.kernels.DiagonalKernelForm, "coordinates"),
           (bdk.verify, "moment_numerators"), (bdk.verify, "composition_coefficients"),
           (bdk.verify, "_inner_sum_coordinates"))


def run_counted(cfg):
    """The report of run_suite(cfg), the number of calls to each COUNTED name,
    and under "raising_elevate" how many elevate calls changed a degree."""
    counts = dict.fromkeys((name for _, name in COUNTED), 0)
    counts["raising_elevate"] = 0

    def counter(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
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


def expected_work(cfg):
    """The call counts of run_counted(cfg) when each distinct input is built once."""
    operator_dims = [d for d in cfg.d_range if d <= 2]
    monomials = {d: comb(cfg.operator_monomial_degree + d, d) for d in operator_dims}
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
    betas = sum((cfg.lemma_cap + 1) * comb(cfg.lemma_cap + d + 1, d + 1) for d in operator_dims)
    # one square per (d, m, n) with m != n, each a raise; the permutation check
    # elevates its base and each other ordering of a <= b <= c to (c, c), a
    # raise unless the outer and inner degrees are both c already
    elevations = raising = sum((cap + 1) * cap for cap in cfg.degree_caps.values())
    if 1 in cfg.d_range:
        for a, b, c in combinations_with_replacement(range(min(3, cfg.threefold_cap) + 1), 3):
            forms = [(a, b, c), *{(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}]
            elevations += len(forms)
            raising += sum(1 for outer, _, inner in forms if (outer, inner) != (c, c))
    closed_coordinates = (
        # twofold_closed_equals_definition at d > 1, once per (d, m, n)
        sum((cfg.degree_caps[d] + 1) ** 2 for d in cfg.d_range if d > 1)
        # the d = 1 closed coordinates, once per (m, n)
        + ((twofold[1] + 1) ** 2 if 1 in cfg.d_range else 0)
        # single_stochastic_in_y, once per (d, k)
        + singles
        # composition_linear_combination_kernel, once per (d, m, n)
        + sum((min(cfg.combination_cap, cfg.degree_caps[d]) + 1) ** 2 for d in operator_dims)
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
        "moment_numerators": sum((cfg.operator_cap + 1) * monomials[d] for d in operator_dims),
        # one list per (d, m, n) that composition_coefficients_convex or
        # operator_linear_combination reads
        "composition_coefficients": sum(
            (max(min(cfg.combination_cap, cfg.degree_caps[d]),
                 min(cfg.combination_cap, cfg.operator_cap)) + 1) ** 2
            for d in operator_dims),
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
        if sum(form.x_indices[0]) != sum(form.y_indices[0]):
            form.rows[0][-1] += 1
        return form
    return perturbed


def bump_moment_column(column):
    """Moment columns whose first entry, at a = (2, 0, ..., 0), is one more in
    every column of degree n = 2 and exponent degree |e| = 1."""
    def bumped(n, exps):
        values = column(n, exps)
        if n == 2 and sum(exps) == 1:
            return (values[0] + 1, *values[1:])
        return values
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


#: The mutant table: for each mutant, its monkeypatches as (module, name,
#: wrapper of the original), and the families it fails on `mutated_run`'s config.
MUTANTS = {
    "top_closed_weight": (
        [(bdk.verify, name, bump_top_weight) for name in (
            "kernel_closed_twofold", "kernel_closed_threefold", "kernel_single")],
        {"twofold_closed_equals_definition", "univariate_twofold_path",
         "univariate_twofold_vs_definition", "threefold_closed_equals_definition",
         "single_stochastic_in_y"}),
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
    "legendre_entry": (
        [(bdk.verify, "kernel_legendre", bump_first_row)],
        {"univariate_twofold_path", "legendre_equals_definition"}),
    "extra_closed_degree": (
        [(bdk.verify, "kernel_closed_twofold", extra_closed_degree)],
        {"twofold_closed_equals_definition", "univariate_twofold_path",
         "univariate_twofold_vs_definition", "diagonal_truncation"}),
    "lemma_side": (
        [(bdk.verify, "_inner_sum_coordinates", bump_lemma_side)],
        {"inner_sum_collapse"}),
    "moment_column": (
        [(bdk.durrmeyer, "_moment_column", bump_moment_column)],
        {"operator_self_adjoint", "operator_integral_preservation", "operator_commutativity",
         "operator_linear_combination", "univariate_first_moment"}),
    "first_multinomial": (
        [(bdk.durrmeyer, "_multinomial", double_first_multinomial)],
        {"operator_constant_preservation", "operator_integral_preservation",
         "operator_commutativity", "operator_linear_combination", "univariate_first_moment"}),
    "term_past_degree": (
        [(bdk.verify, "apply_operator", add_term_past_degree)],
        {"operator_constant_preservation", "operator_degree_bound", "operator_self_adjoint",
         "operator_integral_preservation", "operator_commutativity",
         "operator_linear_combination", "univariate_first_moment"}),
    "last_coefficient": (
        [(bdk.verify, "composition_coefficients", move_last_coefficient)],
        {"composition_coefficients_convex", "composition_linear_combination_kernel",
         "operator_linear_combination"}),
}

#: The families that compare two kernels in Bernstein coordinates, those that
#: integrate one there, and those whose witness names the monomial f that failed.
COORDINATE_FAMILIES = ("twofold_closed_equals_definition", "univariate_twofold_vs_definition",
                       "univariate_twofold_path", "legendre_equals_definition",
                       "threefold_closed_equals_definition", "twofold_symmetry_xy",
                       "twofold_symmetry_degrees", "threefold_permutation_invariance",
                       "composition_linear_combination_kernel")
STOCHASTIC_FAMILIES = ("twofold_stochastic_in_y", "single_stochastic_in_y")
MONOMIAL_FAMILIES = ("operator_degree_bound", "operator_self_adjoint",
                     "operator_integral_preservation", "operator_commutativity",
                     "operator_linear_combination", "univariate_first_moment")


def mutated_run(mp, mutant):
    """The report of run_suite on a small config, d = 1 and 2 up to degree 2,
    with the named mutant patched in through the monkeypatch mp."""
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
                                              (-1, ">= 0")])
    def test_rejects_max_degree_that_is_not_a_degree(self, bad, problem):
        with pytest.raises(ValueError, match=f"^max_degree must be {problem}"):
            SuiteConfig(d_range=(1,), max_degree=bad)

    @pytest.mark.parametrize("bad, problem", [(1.0, "an integer"), (0, ">= 1")])
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


class TestMonomials:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(6))
    def test_each_monomial_once_in_first_appearance_order(self, d, k):
        monomials = _monomials_up_to(d, k)
        assert len(monomials) == len(set(monomials)) == comb(k + d, d)
        assert monomials == list(dict.fromkeys(old_monomials_up_to(d, k)))


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

    def test_default_check_count_is_the_benchmarks(self, default_report):
        # the benchmark counts each check of a default run as one operation
        assert len(default_report.checks) == load_oracle().VERIFY_CHECKS

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
        report = run_suite(tiny_config())
        names = {c.name for c in report.checks}
        assert names == {
            "twofold_closed_equals_definition",
            "twofold_stochastic_in_y",
            "twofold_symmetry_xy",
            "twofold_symmetry_degrees",
            "diagonal_truncation",
            "single_stochastic_in_y",
            "univariate_twofold_path",
            "univariate_twofold_vs_definition",
            "legendre_equals_definition",
            "threefold_closed_equals_definition",
            "threefold_permutation_invariance",
            "composition_coefficients_convex",
            "composition_linear_combination_kernel",
            "operator_constant_preservation",
            "operator_degree_bound",
            "operator_self_adjoint",
            "operator_integral_preservation",
            "operator_commutativity",
            "operator_linear_combination",
            "univariate_first_moment",
            "inner_sum_collapse",
        }

    def test_default_run_builds_each_input_once(self, default_run):
        _, counts = default_run
        assert counts == {"kernel_legendre": 121, "kernel_single": 21,
                          "kernel_closed_twofold": 195, "kernel_definition_twofold": 195,
                          "expand": 0, "elevate": 214, "raising_elevate": 200,
                          "coordinates": 504, "_inner_sum_coordinates": 250,
                          "moment_numerators": 120, "composition_coefficients": 72}
        assert counts == expected_work(SuiteConfig())

    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        # the default d = 1 bounds, where univariate_cap (10) != legendre_cap (8)
        SuiteConfig(d_range=(1,)),
        tiny_config(d_range=(1, 2), max_degree=3),
        tiny_config(d_range=(2, 3), max_degree=1),
    ])
    def test_small_run_builds_each_input_once(self, cfg):
        report, counts = run_counted(cfg)
        assert report.ok
        assert counts == expected_work(cfg)

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

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_each_mutant_fails_exactly_its_families_with_witnesses(self, mutant, monkeypatch):
        report = mutated_run(monkeypatch, mutant)
        assert {c.name for c in report.failures} == MUTANTS[mutant][1]
        for record in report.failures:
            witness = record.witness
            if "error" in witness:
                # a form the comparison cannot take fails with the message
                assert set(witness) == {"error"}, record
            elif record.name in COORDINATE_FAMILIES:
                assert {"a", "b", "lhs", "rhs"} <= set(witness), record
            elif record.name in STOCHASTIC_FAMILIES:
                assert set(witness) == {"a", "lhs", "rhs"}, record
            elif record.name in MONOMIAL_FAMILIES:
                assert "f" in witness, record
            else:
                assert witness, record

    def test_every_family_of_the_default_report_is_killed(self, default_report):
        # each mutant fails exactly its listed families (the test above)
        killed = set().union(*(families for _, families in MUTANTS.values()))
        assert {c.name for c in default_report.checks} <= killed

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


class TestReportSerialization:
    def test_schema_and_summary(self):
        report = run_suite(tiny_config())
        obj = report.to_json_dict()
        assert obj["schema"] == REPORT_SCHEMA
        assert obj["version"]
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
    def test_failures_property(self):
        report = run_suite(tiny_config(max_degree=1, corrupt_scale=True))
        summary = report.summary()
        assert summary["failed"] == len(report.failures) > 0
        assert summary["passed"] + summary["failed"] == summary["total"]
        assert not report.ok
