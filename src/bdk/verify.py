"""Identity verification suite with machine-readable reports.

Runs every kernel and operator identity the library claims, across
configurable degree/dimension ranges, and assembles a deterministic JSON
report.  Every check is exact and decided over a basis, never at chosen
points.  Kernel identities are decided in Bernstein coordinates: a failing
one is reported with the first differing basis pair B_a(x) B_b(y), a
failing inner-sum lemma with the first differing coordinate B_a, and a
failing polynomial identity with the first differing monomial, so
exact-arithmetic mismatches can be debugged directly from the report.  A
check returns its witness when its identity fails and None when it holds,
so it passes exactly when it returns no witness; a check that raises
ValueError fails with the message as its witness.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from . import __version__ as ARTIFACT_VERSION
from .combinat import _FACT, _multi_indices, check_degree, check_dimension, format_rational
from .durrmeyer import apply_operator, composition_coefficients
from .kernels import (
    BernsteinKernelForm,
    DiagonalKernelForm,
    _inner_sum_coordinates,
    first_coordinate_difference,
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_threefold,
    kernel_definition_twofold,
    kernel_legendre,
    kernel_single,
)
from .polynomials import (CartesianPolynomial, difference_witness, integrate_simplex,
                          moment_numerators)

__all__ = ["SuiteConfig", "VerificationReport", "run_suite"]

REPORT_SCHEMA = "bdk-report/2"

#: The default two-fold degree bound of each dimension.
DEFAULT_DEGREE_CAPS = {1: 8, 2: 6, 3: 4}

#: The default degree bound of each check family.
FAMILY_CAPS = {"threefold_cap": 5, "univariate_cap": 10, "legendre_cap": 8,
               "combination_cap": 5, "lemma_cap": 4, "operator_cap": 5,
               "operator_monomial_degree": 4, "moment_cap": 6}


class SuiteConfig:
    """Dimensions, degree bound and execution hints for one run.

    With max_degree None, each dimension in d_range gets its
    DEFAULT_DEGREE_CAPS bound and each family its FAMILY_CAPS bound, which
    together reproduce the full claimed identity set.  With max_degree K,
    each dimension's bound is K and each family's min(default, K).  The
    bounds are plain attributes: degree_caps and one per FAMILY_CAPS name.
    """

    def __init__(self, *,
                 d_range: Tuple[int, ...] = tuple(DEFAULT_DEGREE_CAPS),
                 max_degree: Optional[int] = None,
                 time_budget_s: Optional[float] = None,
                 corrupt_scale: bool = False):
        if not d_range:
            raise ValueError("d_range must not be empty")
        if len(set(d_range)) != len(d_range):
            raise ValueError(f"d_range repeats a dimension: {list(d_range)}")
        self.d_range = tuple(check_dimension(d, "d_range entry") for d in d_range)
        if max_degree is None:
            missing = [d for d in self.d_range if d not in DEFAULT_DEGREE_CAPS]
            if missing:
                raise ValueError(f"no default degree cap for d={missing}; "
                                 "set max_degree (--max-degree)")
            self.degree_caps = {d: DEFAULT_DEGREE_CAPS[d] for d in self.d_range}
            caps = dict(FAMILY_CAPS)
        else:
            max_degree = check_degree(max_degree, "max_degree")
            self.degree_caps = dict.fromkeys(self.d_range, max_degree)
            caps = {name: min(cap, max_degree) for name, cap in FAMILY_CAPS.items()}
        for name, cap in caps.items():
            setattr(self, name, cap)

        if time_budget_s is not None:
            if isinstance(time_budget_s, bool) or not isinstance(time_budget_s, (int, float)):
                raise ValueError(
                    f"time_budget_s must be an int or a float, got {time_budget_s!r}")
            if not 0 <= time_budget_s < math.inf:
                raise ValueError(
                    f"time_budget_s must be a finite number >= 0, got {time_budget_s}")
        if not isinstance(corrupt_scale, bool):
            raise ValueError(f"corrupt_scale must be a bool, got {corrupt_scale!r}")
        self.time_budget_s = time_budget_s
        self.corrupt_scale = corrupt_scale

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in FAMILY_CAPS}
        out.update(d_range=list(self.d_range),
                   degree_caps={str(d): c for d, c in sorted(self.degree_caps.items())},
                   time_budget_s=self.time_budget_s, corrupt_scale=self.corrupt_scale)
        return out


class CheckRecord(NamedTuple):
    name: str
    params: dict
    passed: bool
    witness: Optional[dict]
    wall_ms: float


class VerificationReport(NamedTuple):
    config: dict
    checks: List[CheckRecord]
    complete: bool
    incomplete_reason: Optional[str]
    total_ms: float

    @property
    def failures(self) -> List[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    @property
    def ok(self) -> bool:
        return self.complete and not self.failures

    def summary(self) -> dict:
        failed = len(self.failures)
        return {"total": len(self.checks), "passed": len(self.checks) - failed,
                "failed": failed}

    def to_json_dict(self, include_timing: bool = True) -> dict:
        checks = []
        for c in self.checks:
            rec = {"name": c.name, "params": c.params, "passed": c.passed,
                   "witness": c.witness}
            if include_timing:
                rec["wall_ms"] = round(c.wall_ms, 3)
            checks.append(rec)
        out = {
            "schema": REPORT_SCHEMA,
            "version": ARTIFACT_VERSION,
            "config": self.config,
            "complete": self.complete,
            "incomplete_reason": self.incomplete_reason,
            "summary": self.summary(),
            "checks": checks,
        }
        if include_timing:
            out["total_ms"] = round(self.total_ms, 3)
        return out

    def body_bytes(self) -> bytes:
        """Canonical serialization with all timing fields stripped.

        Two runs with the same config produce identical bytes.
        """
        return canonical_json_bytes(self.to_json_dict(include_timing=False))


#: One encoder for every canonical serialization; without indent it runs in C.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json_bytes(obj: dict) -> bytes:
    return _CANONICAL.encode(obj).encode("utf-8")


# -- check construction ---------------------------------------------------

#: A check returns None when its identity holds, else its witness.
Check = Callable[[], Optional[dict]]
Job = Tuple[str, dict, Check]


def _stochastic(form: BernsteinKernelForm) -> Optional[dict]:
    """None when the y integral of a kernel is 1.

    Each B_b of degree n integrates to n!/(n+d)!, so its coefficient on
    B_a(x) is unit * sum_b C[b][a] with the one rational unit
    scale n!/(n+d)!, and the B_a(x) are independent and sum to 1; so each
    integer column sum is compared with 1/unit by cross-multiplying.  The
    witness names the first outermost index a that fails."""
    unit = form.scale * Fraction(_FACT[form.n], _FACT[form.n + form.d])
    for a, total in zip(form.x_indices, map(sum, zip(*form.rows))):
        if total * unit.numerator != unit.denominator:
            return {"a": list(a), "lhs": format_rational(unit * total), "rhs": "1"}
    return None


def _each_monomial(monomials: List[CartesianPolynomial],
                   check: Callable[[CartesianPolynomial], Optional[dict]]) -> Optional[dict]:
    """None when check(f) finds no witness for any f in monomials; otherwise
    the first witness, with the f that failed."""
    for f in monomials:
        diff = check(f)
        if diff is not None:
            return {**diff, "f": f.to_json_dict()["terms"]}
    return None


def _monomials_up_to(d: int, max_degree: int) -> List[CartesianPolynomial]:
    """Each monomial in x_1..x_d of degree <= max_degree once, by degree.

    The degree-deg monomials are the multi-indices of degree deg with a
    zero slack slot, in enumeration order.
    """
    return [CartesianPolynomial.monomial(d, mi[1:])
            for deg in range(max_degree + 1)
            for mi in _multi_indices(deg, d) if mi[0] == 0]


def _iter_jobs(cfg: SuiteConfig) -> Iterator[Job]:
    """Every check, each artifact a cached local of the jobs that read it.

    A cached artifact is built by the first check that calls for it and
    freed with the last job that can read it.  The composition coefficients
    and the single-operator kernels are read by more than one degree pair,
    and the coefficients by operator_linear_combination too, so they are
    kept for the run; every other kernel is kept for its degree pair only,
    and the operator images (`apply_operator`) for their dimension's
    operator checks.
    """
    coefficients = cache(composition_coefficients)
    single = cache(kernel_single)
    for d in cfg.d_range:
        top = cfg.degree_caps[d]
        if d == 1:
            top = max(top, cfg.univariate_cap, cfg.legendre_cap)
        for n in range(top + 1):
            for m in range(n + 1):
                yield from _pair_jobs(cfg, d, m, n, single, coefficients)
    if 1 in cfg.d_range:
        yield from _threefold_jobs(cfg)
        yield from _moment_jobs(cfg)
    for d in cfg.d_range:
        if d <= 2:
            yield from _operator_jobs(cfg, d, cache(apply_operator), coefficients)
    yield from _lemma_jobs(cfg)


def _pair_jobs(cfg: SuiteConfig, d: int, m: int, n: int,
               single: Callable, coefficients: Callable) -> Iterator[Job]:
    """Every check that reads a two-fold kernel of the degree pair {m, n},
    m <= n, at dimension d, each family within its own bound: the checks of
    (m, n) and of (n, m), then twofold_symmetry_degrees, which compares
    their squares, or single_stochastic_in_y at m = n.

    So the d = 1 kernel is built three independent ways, closed, Legendre
    and definitional, and each two of them are compared by one family.
    """
    twofold = n <= cfg.degree_caps[d]
    squares = {}

    def oriented(m: int, n: int) -> Iterator[Job]:
        definition = cache(partial(kernel_definition_twofold, m, n, d))
        closed = cache(partial(kernel_closed_twofold, m, n, d))
        closed_coordinates = cache(lambda: closed().coordinates(m, n))
        legendre = cache(partial(kernel_legendre, m, n))
        top = max(m, n)
        # at m = n the coordinates are the square already
        square = squares[m, n] = cache(lambda: definition().elevate(top, top)) \
            if m != n else definition
        params = {"d": d, "m": m, "n": n}

        if twofold:
            def closed_vs_def():
                form = closed()
                lhs = DiagonalKernelForm(d, 2 * form.scale, form.terms).coordinates(m, n) \
                    if cfg.corrupt_scale else closed_coordinates()
                return first_coordinate_difference(lhs, definition())
            yield "twofold_closed_equals_definition", params, closed_vs_def
            yield "twofold_stochastic_in_y", params, lambda: _stochastic(definition())
            yield "twofold_symmetry_xy", params, \
                lambda: first_coordinate_difference(square(), square().transpose())

            def truncated():
                degree = closed().max_index_degree()
                return None if degree <= min(m, n) else {"max_index_degree": degree,
                                                         "min_degree": min(m, n)}
            yield "diagonal_truncation", params, truncated

        if d == 1 and top <= cfg.univariate_cap:
            yield "univariate_twofold_path", {"m": m, "n": n}, \
                lambda: first_coordinate_difference(closed_coordinates(), legendre())
            yield "univariate_twofold_vs_definition", {"m": m, "n": n}, \
                lambda: first_coordinate_difference(closed_coordinates(), definition())

        if d == 1 and top <= cfg.legendre_cap:
            yield "legendre_equals_definition", {"m": m, "n": n}, \
                lambda: first_coordinate_difference(legendre(), definition())

        if d <= 2 and top <= min(cfg.combination_cap, cfg.degree_caps[d]):
            def convex():
                coeffs = coefficients(m, n, d)
                total = sum(coeffs)
                if total == 1 and all(c > 0 for c in coeffs):
                    return None
                return {"sum": format_rational(total),
                        "coefficients": [format_rational(c) for c in coeffs]}
            yield "composition_coefficients_convex", params, convex

            def combo_kernel():
                # each K_k is diagonal at degree k, so sum_k c_k K_k is one
                # diagonal form with weight c_k (k+d)!/k! at degree k
                mix = DiagonalKernelForm(d, 1, [(k, c * single(k, d).scale)
                                                for k, c in enumerate(coefficients(m, n, d))])
                return first_coordinate_difference(mix.coordinates(m, n), definition())
            yield "composition_linear_combination_kernel", params, combo_kernel

    yield from oriented(m, n)
    if m < n:
        yield from oriented(n, m)
        if twofold:
            yield "twofold_symmetry_degrees", {"d": d, "m": m, "n": n}, \
                lambda: first_coordinate_difference(squares[m, n](), squares[n, m]())
    elif twofold:
        yield "single_stochastic_in_y", {"d": d, "n": n}, \
            lambda: _stochastic(single(n, d).coordinates(n, n))


def _threefold_jobs(cfg: SuiteConfig) -> Iterator[Job]:
    threefold = cache(lambda a, b, c: kernel_definition_threefold(a, b, c, 1))
    cap = cfg.threefold_cap
    for a in range(cap + 1):
        for b in range(cap + 1):
            for c in range(cap + 1):
                yield ("threefold_closed_equals_definition", {"n3": a, "n2": b, "n1": c},
                       lambda a=a, b=b, c=c: first_coordinate_difference(
                           kernel_closed_threefold(a, b, c).coordinates(a, c), threefold(a, b, c)))

    perm_cap = min(3, cap)
    for a in range(perm_cap + 1):
        for b in range(a, perm_cap + 1):
            for c in range(b, perm_cap + 1):
                def permuted(a=a, b=b, c=c):
                    # a <= b <= c: every permutation's outer and inner degree is at most c
                    base = threefold(a, b, c).elevate(c, c)
                    for perm in {(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                        diff = first_coordinate_difference(threefold(*perm).elevate(c, c), base)
                        if diff is not None:
                            return {**diff, "permutation": list(perm)}
                    return None
                yield ("threefold_permutation_invariance",
                       {"degrees": [a, b, c]}, permuted)


def _operator_jobs(cfg: SuiteConfig, d: int, image: Callable,
                   coefficients: Callable) -> Iterator[Job]:
    """The operator checks in dimension d, image the cached `apply_operator`.

    Each call has its own monomials and exponents, so a job keeps reading
    its own dimension's even when every job is built before any runs.
    """
    cap = cfg.operator_cap
    monomials = _monomials_up_to(d, cfg.operator_monomial_degree)
    # each monomial is x^e with coefficient 1, so <p, g> is the moment at e
    exponents = [e for g in monomials for e in g.nums]

    for n in range(cap + 1):
        def constant_preserved(n=n):
            one = CartesianPolynomial.constant(d, 1)
            return difference_witness(image(n, one), one)
        yield "operator_constant_preservation", {"d": d, "n": n}, constant_preserved

        def degree_bound(n=n):
            def above(f):
                degree = image(n, f).total_degree()
                return {"image_degree": degree} if degree > n else None
            return _each_monomial(monomials, above)
        yield "operator_degree_bound", {"d": d, "n": n}, degree_bound

        def self_adjoint(n=n):
            # rows[i] = (D_i, [D_i <M_n f_i, g_j> for each j]), so
            # <f_i, M_n f_j> is rows[j][1][i] / D_j; a pair can first fail
            # at i < j, as (j, i) repeats (i, j)
            rows = [moment_numerators(image(n, f), exponents) for f in monomials]
            for i, (den_i, row_i) in enumerate(rows):
                for j in range(i + 1, len(rows)):
                    den_j, row_j = rows[j]
                    if row_i[j] * den_j != row_j[i] * den_i:
                        return {"f": monomials[i].to_json_dict()["terms"],
                                "g": monomials[j].to_json_dict()["terms"],
                                "lhs": format_rational(Fraction(row_i[j], den_i)),
                                "rhs": format_rational(Fraction(row_j[i], den_j))}
            return None
        yield "operator_self_adjoint", {"d": d, "n": n}, self_adjoint

        def integral_preserved(n=n):
            def changed(f):
                lhs, rhs = integrate_simplex(image(n, f)), integrate_simplex(f)
                return None if lhs == rhs else {"lhs": format_rational(lhs),
                                                "rhs": format_rational(rhs)}
            return _each_monomial(monomials, changed)
        yield "operator_integral_preservation", {"d": d, "n": n}, integral_preserved

    for m in range(cap + 1):
        for n in range(m + 1, cap + 1):
            yield "operator_commutativity", {"d": d, "m": m, "n": n}, \
                lambda m=m, n=n: _each_monomial(monomials, lambda f: difference_witness(
                    image(m, image(n, f)), image(n, image(m, f))))

    combo_cap = min(cfg.combination_cap, cap)
    for m in range(combo_cap + 1):
        for n in range(combo_cap + 1):
            def combo_operator(m=m, n=n):
                coeffs = coefficients(m, n, d)
                return _each_monomial(monomials, lambda f: difference_witness(
                    image(m, image(n, f)), CartesianPolynomial.linear_combination(
                        d, ((c, image(k, f)) for k, c in enumerate(coeffs)))))
            yield ("operator_linear_combination",
                   {"d": d, "m": m, "n": n}, combo_operator)


def _moment_jobs(cfg: SuiteConfig) -> Iterator[Job]:
    for n in range(cfg.moment_cap + 1):
        def first_moment(n=n):
            expected = CartesianPolynomial(
                1, {(0,): Fraction(1, n + 2), (1,): Fraction(n, n + 2)})
            return _each_monomial([CartesianPolynomial.variable(1, 1)],
                                  lambda x: difference_witness(apply_operator(n, x), expected))
        yield "univariate_first_moment", {"n": n}, first_moment


def _lemma_jobs(cfg: SuiteConfig) -> Iterator[Job]:
    for d in cfg.d_range:
        if d > 2:
            continue
        for n in range(cfg.lemma_cap + 1):
            for beta_degree in range(cfg.lemma_cap + 1):
                def lemma(d=d, n=n, beta_degree=beta_degree):
                    # the B_a of degree n are a basis: both sides agree as
                    # polynomials exactly when their coordinates do
                    for beta in _multi_indices(beta_degree, d):
                        alphas, left, right = _inner_sum_coordinates(n, beta)
                        for a, lhs, rhs in zip(alphas, left, right):
                            if lhs != rhs:
                                return {"beta": list(beta), "a": list(a),
                                        "lhs": format_rational(lhs), "rhs": format_rational(rhs)}
                    return None
                yield ("inner_sum_collapse",
                       {"d": d, "n": n, "beta_degree": beta_degree}, lemma)


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run every configured identity check and assemble the report.

    Deterministic for a fixed config.  If the optional time
    budget runs out, the report is flagged incomplete rather than
    silently truncated.
    """
    start = time.perf_counter()
    checks: List[CheckRecord] = []
    incomplete_reason = None

    for name, params, fn in _iter_jobs(cfg):
        if cfg.time_budget_s is not None and time.perf_counter() - start > cfg.time_budget_s:
            incomplete_reason = (
                f"time budget of {cfg.time_budget_s}s exceeded after "
                f"{len(checks)} checks")
            break
        t0 = time.perf_counter()
        try:
            witness = fn()
        except ValueError as exc:
            # a form the comparison cannot take (say, a closed form above the
            # degrees it is written at) fails its check, it does not end the run
            witness = {"error": str(exc)}
        checks.append(CheckRecord(name, params, witness is None, witness,
                                  (time.perf_counter() - t0) * 1000.0))

    checks.sort(key=lambda c: (c.name, canonical_json_bytes(c.params)))
    return VerificationReport(
        config=cfg.to_json_dict(),
        checks=checks,
        complete=incomplete_reason is None,
        incomplete_reason=incomplete_reason,
        total_ms=(time.perf_counter() - start) * 1000.0,
    )
