"""Identity verification suite with machine-readable reports.

Runs every kernel and operator identity the library claims, across
configurable degree/dimension ranges, and assembles a deterministic JSON
report.  Every check is exact and decided over a basis, never at chosen
points.  Kernel identities are decided in Bernstein coordinates: a failing
one is reported with the first differing basis pair B_a(x) B_b(y), a
failing inner-sum lemma with the first differing coordinate B_a, and a
failing polynomial identity with the first differing monomial, so
exact-arithmetic mismatches can be debugged directly from the report.  A
check that raises ValueError fails with the message as its witness.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .combinat import _FACT, _multi_indices, check_degree, check_dimension, format_rational
from .durrmeyer import OperatorSpec, apply_operator, composition_coefficients
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
from .polynomials import CartesianPolynomial, integrate_simplex, moment_numerators

__all__ = [
    "SuiteConfig",
    "CheckRecord",
    "VerificationReport",
    "run_suite",
    "DEFAULT_DEGREE_CAPS",
    "FAMILY_CAPS",
]

REPORT_SCHEMA = "bdk-report/2"
ARTIFACT_VERSION = "0.1.0"

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
    each dimension's bound is K and each family's min(default, K).
    threefold_cap, when given, replaces the three-fold bound.  The bounds
    are plain attributes: degree_caps and one per FAMILY_CAPS name.
    """

    def __init__(self, *,
                 d_range: Tuple[int, ...] = tuple(DEFAULT_DEGREE_CAPS),
                 max_degree: Optional[int] = None,
                 threefold_cap: Optional[int] = None,
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
        if threefold_cap is not None:
            caps["threefold_cap"] = check_degree(threefold_cap, "threefold_cap")
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

CheckFn = Callable[[], Tuple[bool, Optional[dict]]]
Job = Tuple[str, dict, CheckFn]


def _coordinates_equal(lhs: BernsteinKernelForm,
                       rhs: BernsteinKernelForm) -> Tuple[bool, Optional[dict]]:
    diff = first_coordinate_difference(lhs, rhs)
    return (diff is None), diff


def _stochastic(form: BernsteinKernelForm) -> Tuple[bool, Optional[dict]]:
    """Whether the y integral of a kernel is 1.

    Its coefficient on B_a(x) is unit * sum_b C[b][a], with the one rational
    unit = scale n!/(n+d)! (`BernsteinKernelForm.integrate_y`), and the
    B_a(x) are independent and sum to 1; so each integer column sum is
    compared with 1/unit by cross-multiplying.  The witness names the first
    outermost index a that fails."""
    n = sum(form.y_indices[0])
    unit = form.scale * Fraction(_FACT[n], _FACT[n + form.d])
    for a, total in zip(form.x_indices, map(sum, zip(*form.rows))):
        if total * unit.numerator != unit.denominator:
            return False, {"a": list(a), "lhs": format_rational(unit * total), "rhs": "1"}
    return True, None


def _poly_witness(lhs: CartesianPolynomial, rhs: CartesianPolynomial) -> Tuple[bool, Optional[dict]]:
    found = lhs.first_difference(rhs)
    if found is None:
        return True, None
    key, a, b = found
    return False, {"exp": list(key), "lhs": format_rational(a), "rhs": format_rational(b)}


class _SuiteState:
    """Shared lazy artifacts, so each one with more than one reader is
    built once per run.  Every artifact is kept in one memo, keyed by its
    kind and parameters:

    - "coordinates", kernel_definition_twofold(m, n, d) per (d, m, n), in
      Bernstein coordinates: twofold_closed_equals_definition,
      twofold_stochastic_in_y, "square", univariate_twofold_vs_definition,
      legendre_matches_univariate and composition_linear_combination_kernel.
    - "square", the (d, m, n) coordinates elevated to (max(m, n), max(m, n))
      per (d, m, n), m != n (at m = n they are the square already):
      twofold_symmetry_xy, then twofold_symmetry_degrees, its last reader,
      which drops it.  The two-fold jobs run one degree pair at a time, so
      at most the squares of (m, n) and (n, m) are kept at once.
    - "closed", kernel_closed_twofold(m, n, d) per (d, m, n):
      twofold_closed_equals_definition at d > 1 and under corrupt_scale
      (which corrupts a with_scale copy, never the form kept here),
      diagonal_truncation and "univariate".
    - "single", kernel_single(k, d) per (d, k): single_stochastic_in_y and
      composition_linear_combination_kernel.
    - "univariate", the d = 1 closed form's coordinates at (m, n) per
      (m, n): twofold_closed_equals_definition, univariate_twofold_path and
      univariate_twofold_vs_definition.
    - "legendre", kernel_legendre(m, n) per (m, n), in Bernstein
      coordinates: univariate_twofold_path and legendre_matches_univariate.
    - "threefold", kernel_definition_threefold(a, b, c, 1) per (a, b, c):
      threefold_closed_equals_definition and
      threefold_permutation_invariance.
    - "image", M_n f per (d, n, f): every operator_* family.
    - "coefficients", composition_coefficients(m, n, d) per (d, m, n):
      composition_coefficients_convex, composition_linear_combination_kernel
      and operator_linear_combination.

    So the d = 1 two-fold kernel is built three independent ways, closed,
    Legendre and definitional, and each pair is compared by one family.
    What a check derives from these, a closed form's coordinates at d > 1,
    a three-fold form elevated to a common degree or a row of moments, has
    one reader and is built in the check, not kept.
    """

    def __init__(self):
        self._built: Dict[tuple, object] = {}

    def _memo(self, key: tuple, build: Callable[[], object], last: bool = False):
        """The artifact stored under key, built by build() on first use;
        last=True marks its last reader, and drops it from the memo."""
        value = self._built.get(key)
        if value is None:
            value = self._built[key] = build()
        if last:
            del self._built[key]
        return value

    def coordinates(self, d: int, m: int, n: int) -> BernsteinKernelForm:
        return self._memo(("coordinates", d, m, n),
                          lambda: kernel_definition_twofold(m, n, d))

    def square(self, d: int, m: int, n: int, last: bool = False) -> BernsteinKernelForm:
        if m == n:
            return self.coordinates(d, m, n)
        top = max(m, n)
        return self._memo(("square", d, m, n),
                          lambda: self.coordinates(d, m, n).elevate(top, top), last)

    def closed(self, d: int, m: int, n: int) -> DiagonalKernelForm:
        return self._memo(("closed", d, m, n), lambda: kernel_closed_twofold(m, n, d))

    def single(self, d: int, k: int) -> DiagonalKernelForm:
        return self._memo(("single", d, k), lambda: kernel_single(k, d))

    def univariate(self, m: int, n: int) -> BernsteinKernelForm:
        return self._memo(("univariate", m, n),
                          lambda: self.closed(1, m, n).coordinates(m, n))

    def legendre(self, m: int, n: int) -> BernsteinKernelForm:
        return self._memo(("legendre", m, n), lambda: kernel_legendre(m, n))

    def threefold(self, a: int, b: int, c: int) -> BernsteinKernelForm:
        return self._memo(("threefold", a, b, c),
                          lambda: kernel_definition_threefold(a, b, c, 1))

    def image(self, d: int, degree: int, f: CartesianPolynomial) -> CartesianPolynomial:
        return self._memo(("image", d, degree, f),
                          lambda: apply_operator(OperatorSpec(degree, d), f))

    def coefficients(self, d: int, m: int, n: int) -> List[Fraction]:
        return self._memo(("coefficients", d, m, n),
                          lambda: composition_coefficients(m, n, d))


def _monomials_up_to(d: int, max_degree: int) -> List[CartesianPolynomial]:
    """Each monomial in x_1..x_d of degree <= max_degree once, by degree.

    The degree-deg monomials are the multi-indices of degree deg with a
    zero slack slot, in enumeration order.
    """
    return [CartesianPolynomial.monomial(d, mi[1:])
            for deg in range(max_degree + 1)
            for mi in _multi_indices(deg, d) if mi[0] == 0]


def _iter_jobs(cfg: SuiteConfig, state: _SuiteState) -> Iterator[Job]:
    yield from _twofold_jobs(cfg, state)
    if 1 in cfg.d_range:
        yield from _univariate_jobs(cfg, state)
        yield from _threefold_jobs(cfg, state)
        yield from _moment_jobs(cfg)
    yield from _combination_jobs(cfg, state)
    yield from _operator_jobs(cfg, state)
    yield from _lemma_jobs(cfg)


def _twofold_jobs(cfg: SuiteConfig, state: _SuiteState) -> Iterator[Job]:
    """The two-fold checks one degree pair {m, n} at a time, by (d, max(m, n)):
    the checks of (m, n) and of (n, m), then twofold_symmetry_degrees, the
    last reader of both squares, which drops them."""
    for d in cfg.d_range:
        cap = cfg.degree_caps[d]
        for n in range(cap + 1):
            for m in range(n + 1):
                yield from _twofold_pair_jobs(cfg, state, d, m, n)
                if m < n:
                    yield from _twofold_pair_jobs(cfg, state, d, n, m)

                    def symmetric_degrees(d=d, m=m, n=n):
                        return _coordinates_equal(state.square(d, m, n, last=True),
                                                  state.square(d, n, m, last=True))
                    yield "twofold_symmetry_degrees", {"d": d, "m": m, "n": n}, symmetric_degrees

        for k in range(cap + 1):
            def single_stochastic(d=d, k=k):
                return _stochastic(state.single(d, k).coordinates(k, k))
            yield "single_stochastic_in_y", {"d": d, "n": k}, single_stochastic


def _twofold_pair_jobs(cfg: SuiteConfig, state: _SuiteState,
                       d: int, m: int, n: int) -> Iterator[Job]:
    params = {"d": d, "m": m, "n": n}

    def closed_vs_def():
        if cfg.corrupt_scale:
            form = state.closed(d, m, n)
            closed = form.with_scale(2 * form.scale).coordinates(m, n)
        elif d == 1:
            closed = state.univariate(m, n)
        else:
            closed = state.closed(d, m, n).coordinates(m, n)
        return _coordinates_equal(closed, state.coordinates(d, m, n))
    yield "twofold_closed_equals_definition", params, closed_vs_def

    def stochastic():
        return _stochastic(state.coordinates(d, m, n))
    yield "twofold_stochastic_in_y", params, stochastic

    def symmetric_xy():
        k = state.square(d, m, n)
        return _coordinates_equal(k, k.transpose())
    yield "twofold_symmetry_xy", params, symmetric_xy

    def truncated():
        top = state.closed(d, m, n).max_index_degree()
        if top <= min(m, n):
            return True, None
        return False, {"max_index_degree": top, "min_degree": min(m, n)}
    yield "diagonal_truncation", params, truncated


def _univariate_jobs(cfg: SuiteConfig, state: _SuiteState) -> Iterator[Job]:
    for m in range(cfg.univariate_cap + 1):
        for n in range(cfg.univariate_cap + 1):
            def uni_path(m=m, n=n):
                return _coordinates_equal(state.univariate(m, n), state.legendre(m, n))
            yield "univariate_twofold_path", {"m": m, "n": n}, uni_path

            def uni_vs_def(m=m, n=n):
                return _coordinates_equal(state.univariate(m, n), state.coordinates(1, m, n))
            yield "univariate_twofold_vs_definition", {"m": m, "n": n}, uni_vs_def

    for m in range(cfg.legendre_cap + 1):
        for n in range(cfg.legendre_cap + 1):
            def legendre(m=m, n=n):
                return _coordinates_equal(state.legendre(m, n), state.coordinates(1, m, n))
            yield "legendre_matches_univariate", {"m": m, "n": n}, legendre


def _threefold_jobs(cfg: SuiteConfig, state: _SuiteState) -> Iterator[Job]:
    cap = cfg.threefold_cap
    for a in range(cap + 1):
        for b in range(cap + 1):
            for c in range(cap + 1):
                def closed_vs_def(a=a, b=b, c=c):
                    return _coordinates_equal(kernel_closed_threefold(a, b, c).coordinates(a, c),
                                              state.threefold(a, b, c))
                yield ("threefold_closed_equals_definition",
                       {"n3": a, "n2": b, "n1": c}, closed_vs_def)

    perm_cap = min(3, cap)
    for a in range(perm_cap + 1):
        for b in range(a, perm_cap + 1):
            for c in range(b, perm_cap + 1):
                def permuted(a=a, b=b, c=c):
                    # a <= b <= c: every permutation's outer and inner degree is at most c
                    base = state.threefold(a, b, c).elevate(c, c)
                    for perm in {(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                        ok, diff = _coordinates_equal(state.threefold(*perm).elevate(c, c), base)
                        if not ok:
                            diff["permutation"] = list(perm)
                            return False, diff
                    return True, None
                yield ("threefold_permutation_invariance",
                       {"degrees": [a, b, c]}, permuted)


def _combination_jobs(cfg: SuiteConfig, state: _SuiteState) -> Iterator[Job]:
    for d in cfg.d_range:
        if d > 2:
            continue
        cap = min(cfg.combination_cap, cfg.degree_caps.get(d, cfg.combination_cap))
        for m in range(cap + 1):
            for n in range(cap + 1):
                params = {"d": d, "m": m, "n": n}

                def convex(d=d, m=m, n=n):
                    coeffs = state.coefficients(d, m, n)
                    total = sum(coeffs)
                    if total == 1 and all(c > 0 for c in coeffs):
                        return True, None
                    return False, {"sum": format_rational(total),
                                   "coefficients": [format_rational(c) for c in coeffs]}
                yield "composition_coefficients_convex", params, convex

                def combo_kernel(d=d, m=m, n=n):
                    acc = BernsteinKernelForm.linear_combination(
                        (ck, state.single(d, k).coordinates(m, n))
                        for k, ck in enumerate(state.coefficients(d, m, n)))
                    return _coordinates_equal(acc, state.coordinates(d, m, n))
                yield "composition_linear_combination_kernel", params, combo_kernel


def _operator_jobs(cfg: SuiteConfig, state: _SuiteState) -> Iterator[Job]:
    for d in cfg.d_range:
        if d > 2:
            continue
        cap = cfg.operator_cap
        monomials = _monomials_up_to(d, cfg.operator_monomial_degree)
        # each monomial is x^e with coefficient 1, so <p, g> is the moment at e
        exponents = [e for g in monomials for e in g.nums]

        for n in range(cap + 1):
            def constant_preserved(d=d, n=n):
                one = CartesianPolynomial.constant(d, 1)
                return _poly_witness(state.image(d, n, one), one)
            yield "operator_constant_preservation", {"d": d, "n": n}, constant_preserved

            def degree_bound(d=d, n=n):
                for f in monomials:
                    img = state.image(d, n, f)
                    if img.total_degree() > n:
                        return False, {"f": f.to_json_dict()["terms"],
                                       "image_degree": img.total_degree()}
                return True, None
            yield "operator_degree_bound", {"d": d, "n": n}, degree_bound

            def self_adjoint(d=d, n=n):
                # rows[i] = (D_i, [D_i <M_n f_i, g_j> for each j]), so
                # <f_i, M_n f_j> is rows[j][1][i] / D_j; a pair can first fail
                # at i < j, as (j, i) repeats (i, j)
                rows = [moment_numerators(state.image(d, n, f), exponents) for f in monomials]
                for i, (den_i, row_i) in enumerate(rows):
                    for j in range(i + 1, len(rows)):
                        den_j, row_j = rows[j]
                        if row_i[j] * den_j != row_j[i] * den_i:
                            return False, {"f": monomials[i].to_json_dict()["terms"],
                                           "g": monomials[j].to_json_dict()["terms"],
                                           "lhs": format_rational(Fraction(row_i[j], den_i)),
                                           "rhs": format_rational(Fraction(row_j[i], den_j))}
                return True, None
            yield "operator_self_adjoint", {"d": d, "n": n}, self_adjoint

            def integral_preserved(d=d, n=n):
                for f in monomials:
                    lhs = integrate_simplex(state.image(d, n, f))
                    rhs = integrate_simplex(f)
                    if lhs != rhs:
                        return False, {"f": f.to_json_dict()["terms"],
                                       "lhs": format_rational(lhs),
                                       "rhs": format_rational(rhs)}
                return True, None
            yield "operator_integral_preservation", {"d": d, "n": n}, integral_preserved

        for m in range(cap + 1):
            for n in range(m + 1, cap + 1):
                def commute(d=d, m=m, n=n):
                    for f in monomials:
                        mn = state.image(d, m, state.image(d, n, f))
                        nm = state.image(d, n, state.image(d, m, f))
                        ok, diff = _poly_witness(mn, nm)
                        if not ok:
                            diff["f"] = f.to_json_dict()["terms"]
                            return False, diff
                    return True, None
                yield "operator_commutativity", {"d": d, "m": m, "n": n}, commute

        combo_cap = min(cfg.combination_cap, cap)
        for m in range(combo_cap + 1):
            for n in range(combo_cap + 1):
                def combo_operator(d=d, m=m, n=n):
                    coeffs = state.coefficients(d, m, n)
                    for f in monomials:
                        lhs = state.image(d, m, state.image(d, n, f))
                        rhs = CartesianPolynomial.linear_combination(
                            d, ((ck, state.image(d, k, f)) for k, ck in enumerate(coeffs)))
                        ok, diff = _poly_witness(lhs, rhs)
                        if not ok:
                            diff["f"] = f.to_json_dict()["terms"]
                            return False, diff
                    return True, None
                yield ("operator_linear_combination",
                       {"d": d, "m": m, "n": n}, combo_operator)


def _moment_jobs(cfg: SuiteConfig) -> Iterator[Job]:
    for n in range(cfg.moment_cap + 1):
        def first_moment(n=n):
            x = CartesianPolynomial.variable(1, 1)
            expected = CartesianPolynomial(
                1, {(0,): Fraction(1, n + 2), (1,): Fraction(n, n + 2)})
            ok, diff = _poly_witness(apply_operator(OperatorSpec(n, 1), x), expected)
            if not ok:
                diff["f"] = x.to_json_dict()["terms"]
            return ok, diff
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
                                return False, {"beta": list(beta), "a": list(a),
                                               "lhs": format_rational(lhs),
                                               "rhs": format_rational(rhs)}
                    return True, None
                yield ("inner_sum_collapse",
                       {"d": d, "n": n, "beta_degree": beta_degree}, lemma)


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run every configured identity check and assemble the report.

    Deterministic for a fixed config.  If the optional time
    budget runs out, the report is flagged incomplete rather than
    silently truncated.
    """
    state = _SuiteState()
    start = time.perf_counter()
    checks: List[CheckRecord] = []
    incomplete_reason = None

    for name, params, fn in _iter_jobs(cfg, state):
        if cfg.time_budget_s is not None and time.perf_counter() - start > cfg.time_budget_s:
            incomplete_reason = (
                f"time budget of {cfg.time_budget_s}s exceeded after "
                f"{len(checks)} checks")
            break
        t0 = time.perf_counter()
        try:
            passed, witness = fn()
        except ValueError as exc:
            # a form the comparison cannot take (say, a closed form above the
            # degrees it is written at) fails its check, it does not end the run
            passed, witness = False, {"error": str(exc)}
        checks.append(CheckRecord(name, params, passed, witness,
                                  (time.perf_counter() - t0) * 1000.0))

    checks.sort(key=lambda c: (c.name, canonical_json_bytes(c.params)))
    return VerificationReport(
        config=cfg.to_json_dict(),
        checks=checks,
        complete=incomplete_reason is None,
        incomplete_reason=incomplete_reason,
        total_ms=(time.perf_counter() - start) * 1000.0,
    )
