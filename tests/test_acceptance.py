"""Acceptance suite: every claimed identity at its full stated range.

All identities are exact rational equalities, so every criterion runs at
zero tolerance.  Each test prints one PASS/FAIL line (visible with
`pytest -s` or in failure output) and carries the first counterexample
in its assertion message.
"""
import json
import random
from fractions import Fraction

import pytest

from bdk.cli import main as cli_main
from bdk.combinat import enumerate_multi_indices
from bdk.durrmeyer import apply_operator, composition_coefficients
from bdk.kernels import (
    KernelPolynomial,
    first_coordinate_difference,
    first_kernel_difference,
    inner_sum_identity,
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
from bdk.polynomials import CartesianPolynomial, inner_product, integrate_simplex

from sampling import sample_simplex_point

TWOFOLD_CAPS = {1: 8, 2: 6, 3: 4}


def _announce(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number} ({label}): {status}", flush=True)
    assert not failures, f"criterion {number} ({label}): {failures[:3]}"


@pytest.fixture(scope="module")
def twofold_kernels():
    """Shared cache of (definitional, closed-canonical) kernel pairs."""
    cache = {}

    def get(d, m, n):
        key = (d, m, n)
        if key not in cache:
            cache[key] = (
                kernel_definition_twofold(m, n, d).expand(),
                to_canonical(kernel_closed_twofold(m, n, d)),
            )
        return cache[key]

    return get


def test_criterion_01_multivariate_closed_form(twofold_kernels):
    failures = []
    for d, cap in TWOFOLD_CAPS.items():
        for m in range(cap + 1):
            for n in range(cap + 1):
                definition, closed = twofold_kernels(d, m, n)
                diff = first_kernel_difference(closed, definition)
                if diff is not None:
                    failures.append({"d": d, "m": m, "n": n, "diff": diff})
    _announce(1, "multivariate closed form equals definitional oracle", failures)


def test_criterion_02_univariate_closed_form(twofold_kernels):
    failures = []
    for m in range(11):
        for n in range(11):
            univariate = kernel_univariate_twofold(m, n)
            diff = first_coordinate_difference(univariate.coordinates(m, n),
                                               kernel_definition_coordinates((m, n), 1))
            if diff is not None:
                failures.append({"m": m, "n": n, "coordinates": diff})
                continue
            oracle = (twofold_kernels(1, m, n)[0] if max(m, n) <= TWOFOLD_CAPS[1]
                      else kernel_definition_twofold(m, n, 1).expand())
            diff = first_kernel_difference(to_canonical(univariate), oracle)
            if diff is not None:
                failures.append({"m": m, "n": n, "diff": diff})
    _announce(2, "univariate two-fold closed form", failures)


def test_criterion_03_legendre_representation():
    failures = []
    for m in range(9):
        for n in range(9):
            diff = first_kernel_difference(
                kernel_legendre(m, n).expand(),
                to_canonical(kernel_univariate_twofold(m, n)))
            if diff is not None:
                failures.append({"m": m, "n": n, "diff": diff})
    _announce(3, "Legendre representation", failures)


def test_criterion_04_threefold_closed_form():
    failures = []
    oracles = {}
    for a in range(6):
        for b in range(6):
            for c in range(6):
                oracles[(a, b, c)] = kernel_definition_threefold(a, b, c, 1).expand()
                diff = first_kernel_difference(
                    to_canonical(kernel_closed_threefold(a, b, c)), oracles[(a, b, c)])
                if diff is not None:
                    failures.append({"degrees": (a, b, c), "diff": diff})
    # full permutation symmetry of the composition kernel
    for (a, b, c), kernel in oracles.items():
        base = oracles[tuple(sorted((a, b, c)))]
        if kernel != base:
            failures.append({"degrees": (a, b, c), "mismatch": "permutation"})
    _announce(4, "three-fold closed form incl. permutation symmetry", failures)


def test_criterion_05_linear_combination_of_operators(twofold_kernels):
    failures = []
    for d in (1, 2):
        singles = [to_canonical(kernel_single(k, d)) for k in range(6)]
        for m in range(6):
            for n in range(6):
                coeffs = composition_coefficients(m, n, d)
                if sum(coeffs) != 1 or any(c <= 0 for c in coeffs):
                    failures.append({"d": d, "m": m, "n": n, "coeffs": coeffs})
                    continue
                mix = KernelPolynomial.zero(d)
                for k, ck in enumerate(coeffs):
                    mix = mix + singles[k].scale(ck)
                diff = first_kernel_difference(mix, twofold_kernels(d, m, n)[0])
                if diff is not None:
                    failures.append({"d": d, "m": m, "n": n, "diff": diff})
    _announce(5, "composition is a convex mix of single operators", failures)


def test_criterion_06_inner_sum_collapse():
    rng = random.Random(271828)
    failures = []
    for d in (1, 2):
        for n in range(5):
            for beta_degree in range(5):
                for beta in enumerate_multi_indices(beta_degree, d):
                    for _ in range(5):
                        y = sample_simplex_point(rng, d)
                        lhs, rhs = inner_sum_identity(n, beta, y)
                        if lhs != rhs:
                            failures.append({"d": d, "n": n, "beta": beta,
                                             "y": [str(c) for c in y]})
    _announce(6, "inner-sum collapse identity", failures)


def test_criterion_07_operator_invariants():
    failures = []
    for d in (1, 2):
        monomials = [CartesianPolynomial.monomial(d, mi[1:])
                     for deg in range(5) for mi in enumerate_multi_indices(deg, d)]
        one = CartesianPolynomial.constant(d, 1)
        images = {}

        def image(k, f):
            key = (k, f)
            if key not in images:
                images[key] = apply_operator(k, f)
            return images[key]

        for n in range(6):
            if image(n, one) != one:
                failures.append({"d": d, "n": n, "invariant": "M_n 1 = 1"})
            for f in monomials:
                mf = image(n, f)
                if integrate_simplex(mf) != integrate_simplex(f):
                    failures.append({"d": d, "n": n, "invariant": "integral preserved"})
                for g in monomials:
                    if inner_product(mf, g) != inner_product(f, image(n, g)):
                        failures.append({"d": d, "n": n, "invariant": "self-adjoint"})
        for m in range(6):
            for n in range(m + 1, 6):
                for f in monomials:
                    if image(m, image(n, f)) != image(n, image(m, f)):
                        failures.append({"d": d, "m": m, "n": n,
                                         "invariant": "commutativity"})
    _announce(7, "operator invariants", failures)


def test_criterion_08_stochasticity(twofold_kernels):
    failures = []
    for d, cap in TWOFOLD_CAPS.items():
        one = CartesianPolynomial.constant(d, 1)
        for m in range(cap + 1):
            for n in range(cap + 1):
                definition, closed = twofold_kernels(d, m, n)
                for label, kernel in (("definition", definition), ("closed", closed)):
                    if kernel.integrate_y() != one:
                        failures.append({"d": d, "m": m, "n": n, "form": label})
        for k in range(cap + 1):
            if to_canonical(kernel_single(k, d)).integrate_y() != one:
                failures.append({"d": d, "n": k, "form": "single"})
    _announce(8, "kernels integrate to one over y", failures)


def test_criterion_09_univariate_first_moment():
    failures = []
    x = CartesianPolynomial.variable(1, 1)
    for n in range(7):
        expected = CartesianPolynomial(
            1, {(0,): Fraction(1, n + 2), (1,): Fraction(n, n + 2)})
        if apply_operator(n, x) != expected:
            failures.append({"n": n})
    _announce(9, "first moment (n x + 1)/(n + 2)", failures)


def test_criterion_10_report_determinism(tmp_path, capsys):
    bodies = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code = cli_main(["verify", "--d", "1,2", "--max-degree", "2",
                         "--report", str(path)])
        assert code == 0
        obj = json.loads(path.read_text())
        obj.pop("total_ms", None)
        for check in obj["checks"]:
            check.pop("wall_ms", None)
        bodies.append(json.dumps(obj, sort_keys=True).encode())
    capsys.readouterr()
    failures = [] if bodies[0] == bodies[1] else [{"mismatch": "report bodies differ"}]
    _announce(10, "reports are byte-identical", failures)
