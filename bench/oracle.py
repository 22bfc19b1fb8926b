"""Reference checks for every bdk CLI output the benchmark requests.

Written with the standard library only (``fractions``, ``math``) and never
imports ``bdk``, so the program under measurement never checks itself.
Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is wrong.
"""
from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import comb, factorial, prod

__all__ = [
    "VERIFY_CHECKS",
    "compositions",
    "twofold_kernel_value",
    "simplex_integral",
    "grid_points",
    "check_eval",
    "check_dump",
    "check_table",
    "check_apply",
    "check_coeffs",
    "check_verify",
]

#: Number of identity checks `bdk verify` runs at its default ranges.
VERIFY_CHECKS = 1618

_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_exact(text: str) -> Fraction:
    """Parse a 'p' or 'p/q' string; decimal notation is rejected."""
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def _bernstein_values(k: int, bary: tuple) -> list:
    """B_l(point) for every |l| = k, in `compositions` order."""
    pows = [[Fraction(1)] for _ in bary]
    for row, c in zip(pows, bary):
        for _ in range(k):
            row.append(row[-1] * c)
    out = []
    for ell in compositions(k, len(bary)):
        mult = factorial(k) // prod(factorial(e) for e in ell)
        out.append(mult * prod(row[e] for row, e in zip(pows, ell)))
    return out


def _barycentric(point) -> tuple:
    return (1 - sum(point),) + tuple(point)


def twofold_kernel_value(m: int, n: int, d: int, x, y) -> Fraction:
    """K_{m,n}(x, y) from the paper's two-fold diagonal sum, evaluated directly:
    (m+d)!(n+d)!/(m+n+d)! * sum_l C(m,|l|) C(n,|l|) B_l(x) B_l(y).
    """
    bx, by = _barycentric(x), _barycentric(y)
    total = Fraction(0)
    for k in range(min(m, n) + 1):
        pairs = zip(_bernstein_values(k, bx), _bernstein_values(k, by))
        total += comb(m, k) * comb(n, k) * sum(u * v for u, v in pairs)
    return Fraction(factorial(m + d) * factorial(n + d), factorial(m + n + d)) * total


def simplex_integral(terms: dict, d: int) -> Fraction:
    """Integral over the standard d-simplex of sum c * x^e (Dirichlet's formula)."""
    return sum((c * Fraction(prod(factorial(e) for e in exps), factorial(sum(exps) + d))
                for exps, c in terms.items()), Fraction(0))


def grid_points(d: int, grid: int) -> list:
    """The points `bdk table` tabulates, in its row order."""
    step = Fraction(1, grid - 1)
    if d == 1:
        return [(i * step,) for i in range(grid)]
    return [(i * step, j * step) for i in range(grid) for j in range(grid) if i + j <= grid - 1]


# -- per-request checks ------------------------------------------------------


def check_eval(spec: dict, stdout: bytes):
    """`bdk eval` prints K(x, y) as its first line; every form must equal the sum."""
    lines = stdout.decode().splitlines()
    if not lines:
        return "no output"
    try:
        got = parse_exact(lines[0])
    except ValueError as exc:
        return str(exc)
    want = twofold_kernel_value(spec["m"], spec["n"], spec["d"], spec["x"], spec["y"])
    return None if got == want else f"K = {got}, expected {want}"


def check_dump(spec: dict, payload: bytes):
    """The canonical kernel JSON written by --dump-kernel.

    It must be a well-formed sorted term list of the right degrees, take
    the reference value at the request's points, integrate to 1 over y for
    every x, and be symmetric when m == n.
    """
    d, m, n = spec["d"], spec["m"], spec["n"]
    try:
        obj = json.loads(payload)
        if obj["form"] != "canonical" or obj["d"] != d or obj["scale"] != "1":
            return "dump header does not match the request"
        keys = [(tuple(t["exp_x"]), tuple(t["exp_y"])) for t in obj["terms"]]
        coefs = [parse_exact(t["coef"]) for t in obj["terms"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed dump: {exc}"
    if keys != sorted(set(keys)) or not all(coefs):
        return "dump terms are not sorted, unique and nonzero"
    if any(len(ex) != d or len(ey) != d or min(ex + ey) < 0 for ex, ey in keys):
        return "dump exponent tuple of the wrong shape"
    if max(sum(ex) for ex, _ in keys) > m or max(sum(ey) for _, ey in keys) > n:
        return "dump exceeds the degrees of the composition"
    terms = dict(zip(keys, coefs))
    value = sum((c * prod(v ** e for v, e in zip(spec["x"] + spec["y"], ex + ey))
                 for (ex, ey), c in terms.items()), Fraction(0))
    want = twofold_kernel_value(m, n, d, spec["x"], spec["y"])
    if value != want:
        return f"dumped kernel gives {value}, expected {want}"
    marginal: dict = {}
    for (ex, ey), c in terms.items():
        marginal[ex] = marginal.get(ex, 0) + simplex_integral({ey: c}, d)
    if {e: c for e, c in marginal.items() if c} != {(0,) * d: 1}:
        return "dumped kernel does not integrate to 1 over y"
    if m == n and any(terms.get((ey, ex)) != c for (ex, ey), c in terms.items()):
        return "dumped kernel is not symmetric"
    return None


def check_table(spec: dict, stdout: bytes):
    """CSV of float kernel values: header, row count and the rows in spec["rows"].

    Each sampled row must hold the float nearest to the exact reference
    value; floats are compared for equality, since both sides round one
    exact rational.
    """
    d, m, n = spec["d"], spec["m"], spec["n"]
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    header = [f"x{i + 1}" for i in range(d)] + [f"y{i + 1}" for i in range(d)] + ["K"]
    if not rows or rows[0] != header:
        return "table header is wrong"
    points = grid_points(d, spec["grid"])
    if len(rows) - 1 != len(points) ** 2:
        return f"table has {len(rows) - 1} rows, expected {len(points) ** 2}"
    for r in spec["rows"]:
        x, y = points[r // len(points)], points[r % len(points)]
        want = [float(c) for c in x + y] + [float(twofold_kernel_value(m, n, d, x, y))]
        try:
            got = [float(v) for v in rows[r + 1]]
        except ValueError:
            return f"table row {r} is not numeric"
        if got != want:
            return f"table row {r} is {got}, expected {want}"
    return None


def check_apply(spec: dict, stdout: bytes):
    """Image of a composition: total degree <= the outermost degree, same integral.

    Every Bernstein-Durrmeyer operator preserves the integral over the
    simplex, so the image integrates to exactly what f does.
    """
    d = spec["d"]
    try:
        obj = json.loads(stdout)
        terms = {tuple(t["exp"]): parse_exact(t["coef"]) for t in obj["terms"]}
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed image: {exc}"
    if obj.get("d") != d or any(len(e) != d or min(e) < 0 for e in terms):
        return "image has the wrong dimension"
    top = max((sum(e) for e in terms), default=-1)
    if top > spec["degrees"][0]:
        return f"image degree {top} exceeds the outermost degree {spec['degrees'][0]}"
    got, want = simplex_integral(terms, d), simplex_integral(spec["terms"], d)
    return None if got == want else f"image integrates to {got}, f to {want}"


def check_coeffs(spec: dict, stdout: bytes):
    """Convex coefficients of M_m o M_n: the paper's closed form, positive, summing to 1."""
    d, m, n = spec["d"], spec["m"], spec["n"]
    lines = stdout.decode().splitlines()
    try:
        coeffs = [parse_exact(c) for c in json.loads(lines[0])]
        total = parse_exact(lines[1])
    except (ValueError, IndexError, TypeError) as exc:
        return f"malformed coefficients: {exc}"
    pre = Fraction(factorial(m + d) * factorial(n + d), factorial(m + n + d))
    want = [pre * comb(m, k) * comb(n, k) * Fraction(factorial(k), factorial(k + d))
            for k in range(min(m, n) + 1)]
    if coeffs != want:
        return "coefficients differ from the closed form"
    if min(coeffs) <= 0 or sum(coeffs) != 1 or total != 1:
        return "coefficients are not a convex combination"
    return None


def check_verify(stdout: bytes, exit_code: int):
    """Read a `bdk verify` report.

    Returns (failed checks, reason, per-check latencies in ms, body) where
    body is the report with its timing fields removed.  A report that is
    unreadable, incomplete, of the wrong size or whose exit code disagrees
    with its own summary fails every check.
    """
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        failed = sum(1 for c in checks if not c["passed"])
        latencies = [float(c["wall_ms"]) for c in checks]
    except (ValueError, KeyError, TypeError) as exc:
        return VERIFY_CHECKS, f"unreadable report: {exc}", [], None
    if (len(checks) != VERIFY_CHECKS or not report.get("complete")
            or report.get("summary") != {"total": len(checks), "passed": len(checks) - failed,
                                         "failed": failed}):
        return VERIFY_CHECKS, f"{len(checks)} checks, complete={report.get('complete')}", [], None
    if exit_code != (0 if failed == 0 else 1):
        return VERIFY_CHECKS, f"exit {exit_code} with {failed} failed checks", [], None
    body = dict(report, checks=[{k: v for k, v in c.items() if k != "wall_ms"} for c in checks])
    body.pop("total_ms", None)
    reason = f"{failed} identity checks failed" if failed else None
    return failed, reason, latencies, body
