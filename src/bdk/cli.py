"""Command-line front end.

Subcommands:
  eval    exact kernel value at rational points (several kernel forms)
  coeffs  convex coefficients writing M_m o M_n as a mix of single operators
  apply   apply composed operators to a polynomial, print canonical JSON
  table   CSV of float kernel values on a simplex grid (plot data)
  verify  run the identity suite and write a JSON report

Exact values cross this boundary as 'p/q' strings; floats appear only in
table emission and the optional --float echo.  Exit codes: 0 success,
1 verification failure, 2 usage error (any ValueError), 3 incomplete
verification (the time budget ran out before every check ran, and none of
those that ran failed).
"""
from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .combinat import check_dimension, format_rational, parse_rational
from .durrmeyer import compose_apply, composition_coefficients
from .kernels import (
    BernsteinKernelForm,
    DiagonalKernelForm,
    kernel_closed_twofold,
    kernel_definition_twofold,
    kernel_legendre,
    kernel_univariate_twofold,
    to_canonical,
)
from .polynomials import CartesianPolynomial
from .verify import DEFAULT_DEGREE_CAPS, SuiteConfig, run_suite

__all__ = ["main", "parse_polynomial", "PolynomialParseError"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


class PolynomialParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# -- polynomial expression grammar ---------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>x\d+(?:\^\d+)?)|(?P<op>[+\-*]))")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:]
            stripped = rest.lstrip()
            if stripped:
                raise PolynomialParseError(
                    f"unexpected character {stripped[0]!r}",
                    pos + len(rest) - len(stripped))
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, d: int) -> CartesianPolynomial:
    """Parse 'c*x1^a*x2^b + ...' with rational coefficients into a polynomial.

    The grammar is deliberately small: signed terms joined by '+'/'-',
    each term a '*'-separated product of a rational constant and simple
    powers of x1..xd.  The terms are summed per monomial, and the
    polynomial is built once from the sums.
    """
    check_dimension(d)
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial expression", 0)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolynomialParseError("dangling sign", tokens[-1][2])
        coef = Fraction(sign)
        exps = [0] * d
        expect_factor = True
        while i < len(tokens):
            kind, value, pos = tokens[i]
            if kind == "op" and value == "*":
                if expect_factor:
                    raise PolynomialParseError("'*' without a preceding factor", pos)
                expect_factor = True
                i += 1
                continue
            if kind == "op":
                break
            if not expect_factor:
                raise PolynomialParseError("missing '*' between factors", pos)
            if kind == "number":
                coef *= parse_rational(value)
            else:
                var, _, power = value.partition("^")
                index = int(var[1:])
                if not 1 <= index <= d:
                    raise PolynomialParseError(
                        f"variable {var} out of range for dimension {d}", pos)
                exps[index - 1] += int(power) if power else 1
            expect_factor = False
            i += 1
        if expect_factor:
            raise PolynomialParseError("term with no factors", tokens[min(i, len(tokens) - 1)][2])
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coef
    return CartesianPolynomial(d, terms)


# -- shared flag helpers ---------------------------------------------------


def _fields(raw: str, flag: str) -> List[str]:
    """The comma-separated fields of raw; an empty one is a usage error."""
    parts = raw.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"{flag}: empty field in {raw!r}")
    return parts


def _parse_point(raw: str, d: int, flag: str) -> Tuple[Fraction, ...]:
    parts = _fields(raw, flag)
    if len(parts) != d:
        raise ValueError(f"{flag} needs {d} comma-separated rationals, got {len(parts)}")
    try:
        return tuple(parse_rational(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _parse_ints(raw: str, flag: str) -> Tuple[int, ...]:
    parts = _fields(raw, flag)
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _write_file(path: str, flag: str, text: str, mode: str = "w") -> None:
    """Write text to path; a path that cannot be written is a usage error.

    Mode "a" with empty text checks, before any output or long work, that
    path can be written, and leaves what it holds as it is.
    """
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"{flag}: cannot write {path!r}: {exc}") from exc


def _build_kernel(form: str, m: int, n: int, d: int
                  ) -> Union[DiagonalKernelForm, BernsteinKernelForm]:
    """The kernel as built: diagonal for 'closed' and 'univariate', in
    Bernstein coordinates for 'definition' and 'legendre'.  Each is
    evaluated as it stands; only --dump-kernel writes its canonical map."""
    if form == "definition":
        return kernel_definition_twofold(m, n, d)
    if form == "closed":
        return kernel_closed_twofold(m, n, d)
    if d != 1:
        raise ValueError(f"--form {form} is univariate; it requires --d 1")
    # argparse's choices leave 'univariate' and 'legendre' here
    return kernel_univariate_twofold(m, n) if form == "univariate" else kernel_legendre(m, n)


def _to_float(value: Fraction) -> float:
    """The nearest float to value, and past the float range its IEEE
    rounding, inf or -inf, where float() raises OverflowError instead."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


# -- subcommands -----------------------------------------------------------


def _cmd_eval(args) -> int:
    kernel = _build_kernel(args.form, args.m, args.n, args.d)
    x = _parse_point(args.x, args.d, "--x")
    y = _parse_point(args.y, args.d, "--y")
    dump = args.dump_kernel
    if dump and dump != "-":
        _write_file(dump, "--dump-kernel", "", "a")
    value = kernel.evaluate(x, y)
    print(format_rational(value))
    if args.float:
        print(f"{_to_float(value):.17g}")
    if dump:
        kernel = to_canonical(kernel) if isinstance(kernel, DiagonalKernelForm) \
            else kernel.expand()
        payload = json.dumps(kernel.to_json_dict(), sort_keys=True)
        if dump == "-":
            print(payload)
        else:
            _write_file(dump, "--dump-kernel", payload + "\n")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    coeffs = composition_coefficients(args.m, args.n, args.d)
    print(json.dumps([format_rational(c) for c in coeffs]))
    print(format_rational(sum(coeffs)))
    return EXIT_OK


def _cmd_apply(args) -> int:
    degrees = _parse_ints(args.degrees, "--degrees")
    poly = parse_polynomial(args.poly, args.d)
    image = compose_apply(degrees, poly)
    print(json.dumps(image.to_json_dict(), sort_keys=True))
    return EXIT_OK


def _grid_points(d: int, grid: int) -> List[Tuple[Fraction, ...]]:
    """The grid points of spacing 1/(grid-1) in the simplex, in lexicographic order."""
    step = Fraction(1, grid - 1)
    return [tuple(i * step for i in index) for index in product(range(grid), repeat=d)
            if sum(index) < grid]


def _cmd_table(args) -> int:
    import csv  # only table emission writes CSV; other requests skip the import

    if args.d not in (1, 2):
        raise ValueError("--d must be 1 or 2 for table emission")
    if args.grid < 2:
        raise ValueError("--grid must be >= 2")
    kernel = kernel_closed_twofold(args.m, args.n, args.d)
    points = _grid_points(args.d, args.grid)
    coords = [[float(c) for c in pt] for pt in points]
    header = [f"x{i + 1}" for i in range(args.d)] + [f"y{i + 1}" for i in range(args.d)] + ["K"]
    try:
        fh = open(args.out, "w", newline="", encoding="utf-8") if args.out != "-" else sys.stdout
    except OSError as exc:
        raise ValueError(f"--out: cannot write {args.out!r}: {exc}") from exc
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x, row in zip(coords, kernel.evaluate_grid(points, points)):
            for y, value in zip(coords, row):
                writer.writerow(x + y + [_to_float(value)])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(d_range=_parse_ints(args.d, "--d"), max_degree=args.max_degree,
                      time_budget_s=args.time_budget, corrupt_scale=args.self_test_corrupt)
    if args.report:
        _write_file(args.report, "--report", "", "a")
    report = run_suite(cfg)
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    if args.report:
        _write_file(args.report, "--report", payload + "\n")
    else:
        print(payload)

    summary = report.summary()
    status = f"{summary['total']} checks, {summary['passed']} passed, {summary['failed']} failed"
    if not report.complete:
        status += f" (INCOMPLETE: {report.incomplete_reason})"
    print(f"bdk verify: {status}", file=sys.stderr)
    if summary["failed"]:
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK if report.complete else EXIT_INCOMPLETE


# -- parser ----------------------------------------------------------------


def _add_eval(sub) -> None:
    p_eval = sub.add_parser("eval", help="evaluate a composition kernel at rational points")
    p_eval.add_argument("--d", type=int, required=True, help="simplex dimension")
    p_eval.add_argument("--m", type=int, required=True, help="outer operator degree")
    p_eval.add_argument("--n", type=int, required=True, help="inner operator degree")
    p_eval.add_argument("--x", required=True, help="d comma-separated rationals p/q")
    p_eval.add_argument("--y", required=True, help="d comma-separated rationals p/q")
    p_eval.add_argument("--form", default="closed",
                        choices=["definition", "closed", "univariate", "legendre"])
    p_eval.add_argument("--float", action="store_true",
                        help="also print a 17-significant-digit decimal")
    p_eval.add_argument("--dump-kernel", metavar="PATH",
                        help="write the canonical kernel JSON to PATH ('-' for stdout)")
    p_eval.set_defaults(func=_cmd_eval)


def _add_coeffs(sub) -> None:
    p_coeffs = sub.add_parser("coeffs", help="linear-combination coefficients of a composition")
    p_coeffs.add_argument("--d", type=int, required=True)
    p_coeffs.add_argument("--m", type=int, required=True)
    p_coeffs.add_argument("--n", type=int, required=True)
    p_coeffs.set_defaults(func=_cmd_coeffs)


def _add_apply(sub) -> None:
    p_apply = sub.add_parser("apply", help="apply composed operators to a polynomial")
    p_apply.add_argument("--d", type=int, required=True)
    p_apply.add_argument("--degrees", required=True,
                         help="comma-separated degrees, outermost first")
    p_apply.add_argument("--poly", required=True,
                         help="polynomial like '2/3*x1^2*x2 - x1 + 1'")
    p_apply.set_defaults(func=_cmd_apply)


def _add_table(sub) -> None:
    p_table = sub.add_parser("table", help="CSV float table of kernel values on a grid")
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--m", type=int, required=True)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--grid", type=int, required=True)
    p_table.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_table.set_defaults(func=_cmd_table)


def _add_verify(sub) -> None:
    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--d", default=",".join(map(str, DEFAULT_DEGREE_CAPS)),
                          help="comma-separated dimensions")
    p_verify.add_argument("--max-degree", type=int, default=None,
                          help="cap all check families at this degree")
    p_verify.add_argument("--time-budget", type=float, default=None,
                          help="soft wall-clock budget in seconds")
    p_verify.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p_verify.add_argument("--self-test-corrupt", action="store_true",
                          help="corrupt the closed-form prefactor to prove failures are caught")
    p_verify.set_defaults(func=_cmd_verify)


#: Each subcommand's parser builder, in the order `bdk --help` lists them.
_SUBCOMMANDS = {"eval": _add_eval, "coeffs": _add_coeffs, "apply": _add_apply,
                "table": _add_table, "verify": _add_verify}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The bdk parser.  When command names a subcommand, only that
    subcommand's parser is built; otherwise all of them are.

    A request pays for the one parser it uses, and reads the same help,
    usage and errors as with all five.  Once a subcommand's name is read,
    the top level can print only its usage line, which lists the names
    through the metavar.  Otherwise the metavar stays unset: argparse
    names the subcommand argument by its metavar, and "bdk" alone and
    "bdk nosuch" report it as 'command'.
    """
    parser = argparse.ArgumentParser(
        prog="bdk",
        description="Exact Bernstein-Durrmeyer kernel algebra on the simplex.")
    single = command in _SUBCOMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if single else None)
    for name, add in _SUBCOMMANDS.items():
        if not single or name == command:
            add(sub)
    return parser


def _attach_dash_values(argv: Sequence[str]) -> List[str]:
    """argv with each value that starts with '-' joined to its flag: --flag=value.

    argparse reads -5/3, -1,3 or -x1^2 as an unknown option unless it is a
    plain negative number.  Every bdk flag is long, so a token after a flag
    that starts with one '-' and is not -h is that flag's value.
    """
    out: List[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and not token.startswith("--") and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"bdk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cli_entry() -> None:
    code = main()
    # Move every live object out of the collector's reach, so the full
    # collection at interpreter exit skips them; the OS reclaims the memory.
    # Only here: tests and tracers call main() in-process and go on running.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    cli_entry()
