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

The operator checks read one table of monomial images and one table of
integer Dirichlet moments per dimension, each entry built by the first
check that reads it.  Self-adjointness is decided from moment rows: row k
holds the moments of x^k against every test monomial (`_moment_row`), so
the inner products of one image with every test monomial are one sum of
scaled rows, one `map` pass per term of the image.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, product
from operator import add
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from . import __version__ as ARTIFACT_VERSION
from .combinat import (_FACT, _multi_indices, check_degree, check_dimension, clear_denominators,
                      format_rational)
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
from .polynomials import CartesianPolynomial, _combine, _Moments, difference_witness

__all__ = ["SuiteConfig", "VerificationReport", "run_suite"]

REPORT_SCHEMA = "bdk-report/2"

#: The default two-fold degree bound of each dimension.
DEFAULT_DEGREE_CAPS = {1: 8, 2: 6, 3: 4}

#: The default degree bound of each check family.
FAMILY_CAPS = {"threefold_cap": 5, "univariate_cap": 10, "legendre_cap": 8,
               "combination_cap": 5, "lemma_cap": 4, "operator_cap": 5,
               "operator_monomial_degree": 4, "moment_cap": 6}

#: Where each check family runs: the group whose generator yields its jobs,
#: the largest dimension it runs at (None: every one), the caps whose least
#: bounds the largest degree its jobs name ("degree" is the dimension's
#: degree cap, a number is itself), and the kind of witness it fails with.
Family = NamedTuple("Family", [("group", str), ("max_d", Optional[int]), ("caps", tuple),
                               ("witness", str)])
FAMILIES = {name: Family(*row) for name, row in dict(
    threefold_closed_equals_definition=("triple", 1, ("threefold_cap",), "coordinates"),
    threefold_permutation_invariance=("triple", 1, ("threefold_cap", 3), "coordinates"),
    twofold_closed_equals_definition=("pair", None, ("degree",), "coordinates"),
    twofold_stochastic_in_y=("pair", None, ("degree",), "stochastic"),
    twofold_symmetry_xy=("pair", None, ("degree",), "coordinates"),
    diagonal_truncation=("pair", None, ("degree",), "truncation"),
    univariate_twofold_path=("pair", 1, ("univariate_cap",), "coordinates"),
    univariate_twofold_vs_definition=("pair", 1, ("univariate_cap",), "coordinates"),
    legendre_equals_definition=("pair", 1, ("legendre_cap",), "coordinates"),
    composition_coefficients_convex=("pair", 2, ("combination_cap",), "coefficients"),
    composition_linear_combination_kernel=("pair", 2, ("combination_cap",), "coordinates"),
    twofold_symmetry_degrees=("pair", None, ("degree",), "coordinates"),
    single_stochastic_in_y=("pair", None, ("degree",), "stochastic"),
    operator_constant_preservation=("operator", 2, ("operator_cap",), "polynomial"),
    operator_degree_bound=("operator", 2, ("operator_cap",), "monomial"),
    operator_self_adjoint=("operator", 2, ("operator_cap",), "monomial"),
    operator_integral_preservation=("operator", 2, ("operator_cap",), "monomial"),
    operator_commutativity=("operator", 2, ("operator_cap",), "monomial"),
    operator_linear_combination=("operator", 2, ("operator_cap",), "monomial"),
    univariate_first_moment=("operator", 1, ("moment_cap",), "monomial"),
    inner_sum_collapse=("lemma", 2, ("lemma_cap",), "lemma"),
).items()}


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
    witness: Optional[dict]
    wall_ms: float

    @property
    def passed(self) -> bool:
        return self.witness is None


class VerificationReport(NamedTuple):
    config: dict
    checks: List[CheckRecord]
    incomplete_reason: Optional[str]
    total_ms: float

    @property
    def complete(self) -> bool:
        return self.incomplete_reason is None

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


def _each_monomial(exponents: List[Tuple[int, ...]],
                   check: Callable[[Tuple[int, ...]], Optional[dict]]) -> Optional[dict]:
    """None when check(e) finds no witness for any e in exponents; otherwise
    the first witness, with the monomial f = x^e that failed."""
    for e in exponents:
        diff = check(e)
        if diff is not None:
            return {**diff, "f": [{"exp": list(e), "coef": "1"}]}
    return None


def _moment_row(moments: _Moments, k: Tuple[int, ...],
                exponents: List[Tuple[int, ...]]) -> List[int]:
    """moments[k + g] for each g in exponents: scale * <x^k, x^g> against every
    test monomial."""
    return [moments[tuple(map(add, k, g))] for g in exponents]


def _iter_jobs(cfg: SuiteConfig) -> Iterator[Job]:
    """Every check that FAMILIES runs, dimension by dimension: the three-fold
    checks, the degree pairs, the operator checks, then the inner-sum lemma.
    A family's bound at d is the least of its caps, or -1 at a d it does not
    run at; each group loops over its families' degrees within their bounds,
    so it makes only jobs that run.

    Each artifact is built by the first check that calls for it and freed
    with the last job that can read it.  The composition coefficients and
    the single-operator kernels are read by more than one degree pair, and
    the coefficients by operator_linear_combination too, so they are kept
    for the run by `functools.cache`; the elevated Legendre columns, each
    read by every degree pair whose degrees reach its own, are kept for
    the process by `bdk.kernels._legendre_column`, as the elevation columns
    are; every other kernel is kept for its degree pair only, in the pair's
    one memo, and the operator group's tables (monomial images, their
    compositions, one `bdk.polynomials._Moments` whose degree is set when
    it is built, and its moment rows) for their dimension's operator
    checks, which fill each entry once, inside a check.
    """
    coefficients = cache(composition_coefficients)
    single = cache(kernel_single)
    caps = {name: getattr(cfg, name) for name in FAMILY_CAPS}
    for d in cfg.d_range:
        caps["degree"] = cfg.degree_caps[d]
        bounds, top = {}, {}
        for name, family in FAMILIES.items():
            runs = family.max_d is None or d <= family.max_d
            bounds[name] = min(caps.get(cap, cap) for cap in family.caps) if runs else -1
            top[family.group] = max(top.get(family.group, -1), bounds[name])
        pairs = (job for n in range(top["pair"] + 1) for m in range(n + 1)
                 for job in _pair_jobs(d, m, n, bounds, single, coefficients, cfg.corrupt_scale))
        yield from chain(_threefold_jobs(bounds), pairs,
                         _operator_jobs(d, top["operator"], bounds, cfg.operator_monomial_degree,
                                        coefficients),
                         _lemma_jobs(d, bounds["inner_sum_collapse"]))


class _PairMemo(dict):
    """The two-fold artifacts of one degree pair at dimension d, keyed by
    (artifact, m, n) for either orientation, each built on its first read:
    the definitional and closed forms, the closed coordinates, the Legendre
    form and the square (max(m, n), max(m, n)) of the definitional one."""

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, key: Tuple[str, int, int]):
        artifact, m, n = key
        value = self[key] = getattr(self, artifact)(m, n)
        return value

    def definition(self, m: int, n: int) -> BernsteinKernelForm:
        return kernel_definition_twofold(m, n, self.d)

    def closed(self, m: int, n: int) -> DiagonalKernelForm:
        return kernel_closed_twofold(m, n, self.d)

    def coordinates(self, m: int, n: int) -> BernsteinKernelForm:
        """The closed matrix: the transpose of the mirror's, when the mirror
        orientation wrote one and its closed form is equal."""
        closed, mirror = self["closed", m, n], self.get(("coordinates", n, m))
        if mirror is not None and self["closed", n, m] == closed:
            return mirror.transpose()
        return closed.coordinates(m, n)

    def legendre(self, m: int, n: int) -> BernsteinKernelForm:
        return kernel_legendre(m, n)

    def square(self, m: int, n: int) -> BernsteinKernelForm:
        # at m = n the coordinates are the square already
        definition = self["definition", m, n]
        return definition if m == n else definition.elevate(max(m, n), max(m, n))


def _pair_jobs(d: int, m: int, n: int, bounds: dict, single: Callable, coefficients: Callable,
               corrupt_scale: bool) -> Iterator[Job]:
    """Every check that reads a two-fold kernel of the degree pair {m, n},
    m <= n, at dimension d, of each family whose bound there reaches n: the
    checks of (m, n) and of (n, m), then twofold_symmetry_degrees, which
    compares their squares, or single_stochastic_in_y at m = n.

    So the d = 1 kernel is built three independent ways, closed, Legendre
    and definitional, and each two of them are compared by one family.
    The pair keeps the kernels of both orientations in one `_PairMemo`,
    each built by the first check that reads it.

    The pair writes each distinct closed coordinate matrix once: the
    closed forms of (m, n) and (n, m) are equal, and `coordinates` is
    symmetric in its two degrees, so the orientation read second takes
    the transpose of the first's matrix when the two forms compare equal.
    The mix sum_k c_k K_k of composition_linear_combination_kernel is built
    in integers from the coefficients and each single kernel in full, and
    reads the closed matrix when it equals the closed form (equal diagonal
    kernels compare equal).  A closed matrix and the definitional one have
    one scale, so their rows are compared as they are.  With corrupt_scale
    (the self-test) twofold_closed_equals_definition doubles the scale of
    the closed matrix it reads, the one the honest check compares, and
    writes no matrix of its own.
    """
    memo = _PairMemo(d)

    def oriented(m: int, n: int) -> Iterator[Job]:
        top = max(m, n)
        params, univariate = {"d": d, "m": m, "n": n}, {"m": m, "n": n}
        if top <= bounds["twofold_closed_equals_definition"]:
            def closed_vs_def():
                """The closed matrix, at twice its scale under the self-test, against
                the definitional one."""
                lhs = memo["coordinates", m, n]
                if corrupt_scale:
                    lhs = BernsteinKernelForm(d, 2 * lhs.scale, m, n, lhs.rows)
                return first_coordinate_difference(lhs, memo["definition", m, n])
            yield "twofold_closed_equals_definition", params, closed_vs_def
        if top <= bounds["twofold_stochastic_in_y"]:
            yield "twofold_stochastic_in_y", params, \
                lambda: _stochastic(memo["definition", m, n])
        if top <= bounds["twofold_symmetry_xy"]:
            yield "twofold_symmetry_xy", params, lambda: first_coordinate_difference(
                memo["square", m, n], memo["square", m, n].transpose())

        if top <= bounds["diagonal_truncation"]:
            def truncated():
                degree = memo["closed", m, n].max_index_degree()
                return None if degree <= min(m, n) else {"max_index_degree": degree,
                                                         "min_degree": min(m, n)}
            yield "diagonal_truncation", params, truncated

        if top <= bounds["univariate_twofold_path"]:
            yield "univariate_twofold_path", univariate, lambda: first_coordinate_difference(
                memo["coordinates", m, n], memo["legendre", m, n])
        if top <= bounds["univariate_twofold_vs_definition"]:
            yield "univariate_twofold_vs_definition", univariate, \
                lambda: first_coordinate_difference(memo["coordinates", m, n],
                                                    memo["definition", m, n])
        if top <= bounds["legendre_equals_definition"]:
            yield "legendre_equals_definition", univariate, lambda: first_coordinate_difference(
                memo["legendre", m, n], memo["definition", m, n])

        if top <= bounds["composition_coefficients_convex"]:
            def convex():
                coeffs = coefficients(m, n, d)
                den, nums = clear_denominators(coeffs)
                if sum(nums) == den and all(c > 0 for c in nums):
                    return None
                return {"sum": format_rational(sum(coeffs)),
                        "coefficients": [format_rational(c) for c in coeffs]}
            yield "composition_coefficients_convex", params, convex

        if top <= bounds["composition_linear_combination_kernel"]:
            def combo_kernel():
                # each K_k is diagonal, so sum_k c_k K_k is one diagonal form: with
                # c_k = C_k / D and the scales of the K_k = P_k / Q, each term w
                # at degree j of K_k adds C_k P_k w at j, over the one scale 1 / (D Q)
                den, nums = clear_denominators(coefficients(m, n, d))
                singles = [single(k, d) for k in range(len(nums))]
                scale_den, scales = clear_denominators(form.scale for form in singles)
                weights = {}
                for c, s, form in zip(nums, scales, singles):
                    for j, w in form.terms:
                        weights[j] = weights.get(j, 0) + c * s * w
                mix = DiagonalKernelForm(d, Fraction(1, den * scale_den), weights.items())
                lhs = memo["coordinates", m, n] if mix == memo["closed", m, n] \
                    else mix.coordinates(m, n)
                return first_coordinate_difference(lhs, memo["definition", m, n])
            yield "composition_linear_combination_kernel", params, combo_kernel

    yield from oriented(m, n)
    if m < n:
        yield from oriented(n, m)
        if n <= bounds["twofold_symmetry_degrees"]:
            yield "twofold_symmetry_degrees", {"d": d, "m": m, "n": n}, \
                lambda: first_coordinate_difference(memo["square", m, n], memo["square", n, m])
    elif n <= bounds["single_stochastic_in_y"]:
        yield "single_stochastic_in_y", {"d": d, "n": n}, \
            lambda: _stochastic(single(n, d).coordinates(n, n))


def _threefold_jobs(bounds: dict) -> Iterator[Job]:
    threefold = cache(lambda a, b, c: kernel_definition_threefold(a, b, c, 1))
    for a, b, c in product(range(bounds["threefold_closed_equals_definition"] + 1), repeat=3):
        yield ("threefold_closed_equals_definition", {"n3": a, "n2": b, "n1": c},
               lambda a=a, b=b, c=c: first_coordinate_difference(
                   kernel_closed_threefold(a, b, c).coordinates(a, c), threefold(a, b, c)))

    for a, b, c in combinations_with_replacement(
            range(bounds["threefold_permutation_invariance"] + 1), 3):
        def permuted(a=a, b=b, c=c):
            # a <= b <= c: every permutation's outer and inner degree is at most c
            base = threefold(a, b, c).elevate(c, c)
            for perm in {(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                diff = first_coordinate_difference(threefold(*perm).elevate(c, c), base)
                if diff is not None:
                    return {**diff, "permutation": list(perm)}
            return None
        yield "threefold_permutation_invariance", {"degrees": [a, b, c]}, permuted


def _operator_jobs(d: int, top: int, bounds: dict, monomial_degree: int,
                   coefficients: Callable) -> Iterator[Job]:
    """The operator checks and the first moments in dimension d, each family
    up to its bound, all read off one table of monomial images; top is the
    largest of those bounds.

    The test monomials x^e are those of degree <= monomial_degree, by degree.
    Column (n, e) is `apply_operator(n, x^e)`, built by the first check that
    reads it.  M_n is linear, so every other image is an integer combination
    of columns (`_combine`): M_m(M_n x^e) reads column (m, e') for each term
    x^e' of column (n, e), whatever its degree, and is kept too, as both
    operator_commutativity and operator_linear_combination read it; the
    sides are compared unreduced (`difference_witness`).  The integrals
    read one `_Moments` of degree min(top, monomial_degree) + monomial_degree:
    M_n x^e has degree <= min(n, |e|), and an inner product adds a test
    monomial's degree.
    Self-adjointness reads it one moment row per term x^k (`_moment_row`),
    each built by the first check that reads it and kept for the dimension.
    Each call has its own tables and exponents, so a job reads its own
    dimension's even when every job is built before any runs.
    """
    exponents = [e for deg in range(monomial_degree + 1) for e in _multi_indices(deg, d - 1)]
    column = cache(lambda n, e: apply_operator(n, CartesianPolynomial.from_integers(d, {e: 1})))
    moments = _Moments(d, min(top, monomial_degree) + monomial_degree)
    moment_row = cache(lambda k: _moment_row(moments, k, exponents))

    @cache
    def composed(m: int, n: int, e: Tuple[int, ...]) -> Tuple[dict, int]:
        inner = column(n, e)
        return _combine(((v, column(m, k)) for k, v in inner.nums.items()), inner.den)

    for n in range(top + 1):
        if n <= bounds["operator_constant_preservation"]:
            yield "operator_constant_preservation", {"d": d, "n": n}, \
                lambda n=n: difference_witness(column(n, (0,) * d),
                                               CartesianPolynomial.constant(d, 1))

        if n <= bounds["operator_degree_bound"]:
            def degree_bound(n=n):
                def above(e):
                    degree = column(n, e).total_degree()
                    return {"image_degree": degree} if degree > n else None
                return _each_monomial(exponents, above)
            yield "operator_degree_bound", {"d": d, "n": n}, degree_bound

        if n <= bounds["operator_self_adjoint"]:
            def self_adjoint(n=n):
                # gram[i][j] = <M_n x^e_i, x^e_j> D moments.scale for the image
                # M_n x^e_i over D: the sum over its terms v x^k of v times row k;
                # (g, e) repeats (e, g), so g runs past e only
                images = [column(n, e) for e in exponents]
                gram = []
                for f in images:
                    row = [0] * len(exponents)
                    for k, v in f.nums.items():
                        row = list(map(add, row, map(v.__mul__, moment_row(k))))
                    gram.append(row)
                for i, f in enumerate(images):
                    for j in range(i + 1, len(images)):
                        h, lhs, rhs = images[j], gram[i][j], gram[j][i]
                        if lhs * h.den != rhs * f.den:
                            return {"g": [{"exp": list(exponents[j]), "coef": "1"}],
                                    "lhs": format_rational(Fraction(lhs, f.den * moments.scale)),
                                    "rhs": format_rational(Fraction(rhs, h.den * moments.scale)),
                                    "f": [{"exp": list(exponents[i]), "coef": "1"}]}
                return None
            yield "operator_self_adjoint", {"d": d, "n": n}, self_adjoint

        if n <= bounds["operator_integral_preservation"]:
            def integral_preserved(n=n):
                def changed(e):
                    image = column(n, e)
                    lhs, rhs = moments.inner(image, (0,) * d), moments[e]
                    return None if lhs == rhs * image.den else {
                        "lhs": format_rational(Fraction(lhs, image.den * moments.scale)),
                        "rhs": format_rational(Fraction(rhs, moments.scale))}
                return _each_monomial(exponents, changed)
            yield "operator_integral_preservation", {"d": d, "n": n}, integral_preserved

    for m, n in combinations(range(bounds["operator_commutativity"] + 1), 2):
        yield "operator_commutativity", {"d": d, "m": m, "n": n}, \
            lambda m=m, n=n: _each_monomial(exponents, lambda e: difference_witness(
                composed(m, n, e), composed(n, m, e)))

    for m, n in product(range(bounds["operator_linear_combination"] + 1), repeat=2):
        def combo_operator(m=m, n=n):
            den, weights = clear_denominators(coefficients(m, n, d))
            return _each_monomial(exponents, lambda e: difference_witness(
                composed(m, n, e),
                _combine(((w, column(k, e)) for k, w in enumerate(weights)), den)))
        yield "operator_linear_combination", {"d": d, "m": m, "n": n}, combo_operator

    for n in range(bounds["univariate_first_moment"] + 1):
        def first_moment(n=n):
            expected = CartesianPolynomial(1, {(0,): Fraction(1, n + 2), (1,): Fraction(n, n + 2)})
            return _each_monomial([(1,)], lambda e: difference_witness(column(n, e), expected))
        yield "univariate_first_moment", {"n": n}, first_moment

def _lemma_jobs(d: int, top: int) -> Iterator[Job]:
    for n, beta_degree in product(range(top + 1), repeat=2):
        def lemma(n=n, beta_degree=beta_degree):
            # the B_a of degree n are a basis: both sides agree as
            # polynomials exactly when their coordinates do
            for beta in _multi_indices(beta_degree, d):
                alphas, left, right = _inner_sum_coordinates(n, beta)
                for a, lhs, rhs in zip(alphas, left, right):
                    if lhs != rhs:
                        return {"beta": list(beta), "a": list(a),
                                "lhs": format_rational(lhs), "rhs": format_rational(rhs)}
            return None
        yield "inner_sum_collapse", {"d": d, "n": n, "beta_degree": beta_degree}, lemma


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
        checks.append(CheckRecord(name, params, witness, (time.perf_counter() - t0) * 1000.0))

    # one encoding per params object: the families of an orientation share one
    encoded = {key: canonical_json_bytes(params)
               for key, params in {id(c.params): c.params for c in checks}.items()}
    checks.sort(key=lambda c: (c.name, encoded[id(c.params)]))
    return VerificationReport(
        config=cfg.to_json_dict(),
        checks=checks,
        incomplete_reason=incomplete_reason,
        total_ms=(time.perf_counter() - start) * 1000.0,
    )
