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
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .combinat import check_degree, check_dimension, format_rational, parse_rational
from .durrmeyer import compose_apply, composition_coefficients
from .kernels import (
    BernsteinKernelForm,
    DiagonalKernelForm,
    kernel_closed_twofold,
    kernel_definition_twofold,
    kernel_legendre,
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


def _parse_list(raw: str, flag: str, convert: Callable[[str], object],
                count: Optional[int] = None) -> tuple:
    """The comma-separated fields of raw, each through convert.

    Usage errors, checked in this order: an empty field, a field count
    other than count (when given; only a point has one), and the first
    field convert refuses, its message prefixed by the flag.
    """
    parts = raw.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"{flag}: empty field in {raw!r}")
    if count is not None and len(parts) != count:
        raise ValueError(f"{flag} needs {count} comma-separated rationals, got {len(parts)}")
    try:
        return tuple(map(convert, parts))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


@contextmanager
def _output(path: str, flag: str, mode: str = "w") -> Iterator[TextIO]:
    """The output to write to: stdout for path '-', else the file path opened
    in mode, flushed before the block ends.  An OSError in the open, a write
    or the flush (a closed pipe, a full disk, a missing directory) is a usage
    error naming the output, not a traceback."""
    try:
        with nullcontext(sys.stdout) if path == "-" \
                else open(path, mode, newline="", encoding="utf-8") as fh:
            yield fh
            fh.flush()
    except OSError as exc:
        if path == "-":
            raise ValueError(f"cannot write to stdout: {exc}") from exc
        raise ValueError(f"{flag}: cannot write {path!r}: {exc}") from exc


def _write_file(path: str, flag: str, text: str, mode: str = "w") -> None:
    """Write text to path, or to stdout for '-'.

    Mode "a" with empty text checks, before any output or long work, that
    path can be written, and leaves what it holds as it is.
    """
    with _output(path, flag, mode) as fh:
        fh.write(text)


def _write_stdout(*lines: str) -> None:
    """Write each line to stdout and flush them."""
    _write_file("-", "", "".join(line + "\n" for line in lines))


def _build_kernel(form: str, m: int, n: int, d: int
                  ) -> Union[DiagonalKernelForm, BernsteinKernelForm]:
    """The kernel as built: diagonal for 'closed' and 'univariate', in
    Bernstein coordinates for 'definition' and 'legendre'.  Each is
    evaluated as it stands; only --dump-kernel writes its canonical map."""
    if form == "definition":
        return kernel_definition_twofold(m, n, d)
    if form == "legendre":
        return kernel_legendre(m, n)
    # 'univariate' is the closed form; `_cmd_eval` has checked that d is 1
    return kernel_closed_twofold(m, n, d)


def _to_float(value: Fraction) -> float:
    """The nearest float to value, and past the float range its IEEE
    rounding, inf or -inf, where float() raises OverflowError instead."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


# -- subcommands -----------------------------------------------------------


def _cmd_eval(args) -> int:
    # every input is checked before the build, which can take long
    m, n, d = check_degree(args.m), check_degree(args.n), check_dimension(args.d)
    if args.form in ("univariate", "legendre") and d != 1:
        raise ValueError(f"--form {args.form} is univariate; it requires --d 1")
    x = _parse_list(args.x, "--x", parse_rational, d)
    y = _parse_list(args.y, "--y", parse_rational, d)
    dump = args.dump_kernel
    if dump and dump != "-":
        _write_file(dump, "--dump-kernel", "", "a")
    kernel = _build_kernel(args.form, m, n, d)
    value = kernel.evaluate(x, y)
    _write_stdout(format_rational(value), *([f"{_to_float(value):.17g}"] if args.float else []))
    if dump:
        kernel = to_canonical(kernel) if isinstance(kernel, DiagonalKernelForm) \
            else kernel.expand()
        _write_file(dump, "--dump-kernel", json.dumps(kernel.to_json_dict(), sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    coeffs = composition_coefficients(args.m, args.n, args.d)
    _write_stdout(json.dumps([format_rational(c) for c in coeffs]), format_rational(sum(coeffs)))
    return EXIT_OK


def _cmd_apply(args) -> int:
    degrees = _parse_list(args.degrees, "--degrees", int)
    poly = parse_polynomial(args.poly, args.d)
    image = compose_apply(degrees, poly)
    _write_stdout(json.dumps(image.to_json_dict(), sort_keys=True))
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
    with _output(args.out, "--out") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x, row in zip(coords, kernel.evaluate_grid(points, points)):
            for y, value in zip(coords, row):
                writer.writerow(x + y + [_to_float(value)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(d_range=_parse_list(args.d, "--d", int), max_degree=args.max_degree,
                      time_budget_s=args.time_budget, corrupt_scale=args.self_test_corrupt)
    if args.report:
        _write_file(args.report, "--report", "", "a")
    report = run_suite(cfg)
    _write_file(args.report or "-", "--report",
                json.dumps(report.to_json_dict(), sort_keys=True) + "\n")

    summary = report.summary()
    status = f"{summary['total']} checks, {summary['passed']} passed, {summary['failed']} failed"
    if not report.complete:
        status += f" (INCOMPLETE: {report.incomplete_reason})"
    print(f"bdk verify: {status}", file=sys.stderr)
    if summary["failed"]:
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK if report.complete else EXIT_INCOMPLETE


# -- parser ----------------------------------------------------------------


_REQUIRED_INT = dict(type=int, required=True)

#: Each subcommand, in the order `bdk --help` lists them: its handler, its
#: help line, and the `add_argument` keywords of each of its flags.
_SUBCOMMANDS = {
    "eval": (_cmd_eval, "evaluate a composition kernel at rational points", {
        "--d": dict(_REQUIRED_INT, help="simplex dimension"),
        "--m": dict(_REQUIRED_INT, help="outer operator degree"),
        "--n": dict(_REQUIRED_INT, help="inner operator degree"),
        "--x": dict(required=True, help="d comma-separated rationals p/q"),
        "--y": dict(required=True, help="d comma-separated rationals p/q"),
        "--form": dict(default="closed", choices=["definition", "closed", "univariate",
                                                   "legendre"]),
        "--float": dict(action="store_true", help="also print a 17-significant-digit decimal"),
        "--dump-kernel": dict(metavar="PATH",
                              help="write the canonical kernel JSON to PATH ('-' for stdout)"),
    }),
    "coeffs": (_cmd_coeffs, "linear-combination coefficients of a composition",
               {"--d": _REQUIRED_INT, "--m": _REQUIRED_INT, "--n": _REQUIRED_INT}),
    "apply": (_cmd_apply, "apply composed operators to a polynomial", {
        "--d": _REQUIRED_INT,
        "--degrees": dict(required=True, help="comma-separated degrees, outermost first"),
        "--poly": dict(required=True, help="polynomial like '2/3*x1^2*x2 - x1 + 1'"),
    }),
    "table": (_cmd_table, "CSV float table of kernel values on a grid", {
        "--d": _REQUIRED_INT, "--m": _REQUIRED_INT, "--n": _REQUIRED_INT, "--grid": _REQUIRED_INT,
        "--out": dict(default="-", help="output CSV path ('-' for stdout)"),
    }),
    "verify": (_cmd_verify, "run the identity verification suite", {
        "--d": dict(default=",".join(map(str, DEFAULT_DEGREE_CAPS)),
                    help="comma-separated dimensions"),
        "--max-degree": dict(type=int, help="cap all check families at this degree"),
        "--time-budget": dict(type=float, help="soft wall-clock budget in seconds"),
        "--report": dict(metavar="PATH", help="write the JSON report here"),
        "--self-test-corrupt": dict(
            action="store_true",
            help="corrupt the closed-form prefactor to prove failures are caught"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The bdk parser, with one subparser per entry of `_SUBCOMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="bdk",
        description="Exact Bernstein-Durrmeyer kernel algebra on the simplex.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, flags) in _SUBCOMMANDS.items():
        sub_parser = sub.add_parser(name, help=help_line)
        for flag, keywords in flags.items():
            sub_parser.add_argument(flag, **keywords)
        sub_parser.set_defaults(func=handler)
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
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"bdk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cli_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a write that main() did not flush failed: report it; one it did
        # flush was reported there, as a usage error
        if code != EXIT_USAGE:
            print(f"bdk: error: cannot write to stdout: {exc}", file=sys.stderr)
            code = EXIT_USAGE
        # the bytes that failed are still buffered: send them nowhere, so the
        # flush at exit does not fail again (and exit 120)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    # Move every live object out of the collector's reach, so the full
    # collection at interpreter exit skips them; the OS reclaims the memory.
    # Only here: tests and tracers call main() in-process and go on running.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    cli_entry()
