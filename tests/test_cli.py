import csv
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bdk.cli
from bdk.cli import PolynomialParseError, build_parser, main, parse_polynomial
from bdk.combinat import parse_rational
from bdk.durrmeyer import apply_operator
from bdk.polynomials import CartesianPolynomial
from sampling import sample_polynomial


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Each malformed input of `bdk eval` alone, over a valid d = 1 request:
#: its flag, its value and its error line, with {missing} a path in a
#: missing directory.
EVAL_INPUT_ERRORS = [
    ("--d", "0", "simplex dimension must be >= 1, got 0"),
    ("--m", "-1", "degree must be >= 0, got -1"),
    ("--n", "-2", "degree must be >= 0, got -2"),
    ("--x", "1/2,1/3", "--x needs 1 comma-separated rationals, got 2"),
    ("--x", "0.5", "--x: not a rational 'p/q' string: '0.5'"),
    ("--y", "1/5,", "--y: empty field in '1/5,'"),
    ("--y", "a", "--y: not a rational 'p/q' string: 'a'"),
    ("--dump-kernel", "{missing}", "--dump-kernel: cannot write {missing!r}: "
                                   "[Errno 2] No such file or directory: {missing!r}"),
]


class TestEval:
    def test_closed_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--d", "1", "--m", "1", "--n", "1",
                               "--x", "0", "--y", "0", "--form", "closed")
        assert code == 0
        assert out.strip() == "4/3"

    def test_constant_kernel_bivariate(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--d", "2", "--m", "0", "--n", "3",
                               "--x", "1/3,1/3", "--y", "1/4,1/4", "--form", "closed")
        assert code == 0
        assert out.strip() == "2"

    def test_definition_matches_closed(self, capsys):
        args = ["--d", "2", "--m", "2", "--n", "1", "--x", "1/5,1/5", "--y", "1/7,2/7"]
        _, closed_out, _ = run_cli(capsys, "eval", *args, "--form", "closed")
        _, def_out, _ = run_cli(capsys, "eval", *args, "--form", "definition")
        assert closed_out == def_out

    def test_point_may_start_with_a_minus_sign(self, capsys):
        args = ["eval", "--d", "1", "--m", "2", "--n", "3"]
        assert run_cli(capsys, *args, "--x", "-5/3", "--y", "7/2") == (0, "7537/60\n", "")
        assert run_cli(capsys, *args, "--x=-5/3", "--y", "7/2") == (0, "7537/60\n", "")
        assert run_cli(capsys, *args, "--x", "-5", "--y", "1/2") == (0, "-161/20\n", "")
        # a flag is never taken for the value of the one before it
        code, out, err = run_cli(capsys, *args, "--x", "--y", "1/2")
        assert (code, out) == (2, "")
        assert "--x: expected one argument" in err

    def test_float_echo(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--d", "1", "--m", "1", "--n", "1",
                               "--x", "0", "--y", "0", "--float")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "4/3"
        assert lines[1] == f"{4 / 3:.17g}"

    @pytest.mark.parametrize("form", ["closed", "definition"])
    @pytest.mark.parametrize("m, x, y, exact, echo", [
        # K_{2,2}(x, 0) = (3/10) (x^2 - 6x + 6) and K_{1,1}(x, 2) = 2x at d = 1
        (2, 10 ** 400, 0, Fraction(3, 10) * (10 ** 800 - 6 * 10 ** 400 + 6), "inf"),
        (1, -10 ** 400, 2, -2 * 10 ** 400, "-inf"),
    ], ids=["positive", "negative"])
    def test_float_echo_past_float_range(self, capsys, form, m, x, y, exact, echo):
        # float(Fraction) raises OverflowError here; the echo is the IEEE rounding
        code, out, err = run_cli(capsys, "eval", "--d", "1", "--m", str(m), "--n", str(m),
                                 "--x", str(x), "--y", str(y), "--form", form, "--float")
        assert (code, out, err) == (0, f"{exact}\n{echo}\n", "")

    def test_univariate_form_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--d", "1", "--m", "1", "--n", "1",
                               "--x", "0", "--y", "0", "--form", "univariate")
        assert code == 0
        assert out.strip() == "4/3"

    def test_legendre_form_matches_closed(self, capsys):
        args = ["--d", "1", "--m", "3", "--n", "2", "--x", "1/3", "--y", "4/7"]
        _, legendre_out, _ = run_cli(capsys, "eval", *args, "--form", "legendre")
        _, closed_out, _ = run_cli(capsys, "eval", *args, "--form", "closed")
        assert legendre_out == closed_out

    @pytest.mark.parametrize("m, n, x, y, digest", [
        (12, 12, "1/3", "4/7", "e5e39a26f1fa0d1143acca82bb3809d5a8a04560546836f91487537036086349"),
        (7, 4, "2/9", "5/6", "6ddcfbf4efd437c97f7959fcadaf25969a98492d3ad2f42d147810bf2bc1b174"),
    ], ids=["m12-n12", "m7-n4"])
    def test_legendre_dump_is_pinned(self, capsys, m, n, x, y, digest):
        # digest of stdout when the Legendre kernel was built as a monomial map
        outputs = [run_cli(capsys, "eval", "--d", "1", "--m", str(m), "--n", str(n), "--x", x,
                           "--y", y, "--form", form, "--dump-kernel", "-")
                   for form in ("legendre", "univariate")]
        assert outputs[0] == outputs[1]
        code, out, err = outputs[0]
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_univariate_forms_require_d1(self, capsys):
        for form in ("univariate", "legendre"):
            code, _, err = run_cli(capsys, "eval", "--d", "2", "--m", "1", "--n", "1",
                                   "--x", "0,0", "--y", "0,0", "--form", form)
            assert code == 2
            assert "requires --d 1" in err

    def test_malformed_rational_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--d", "1", "--m", "1", "--n", "1",
                               "--x", "0.5", "--y", "0")
        assert code == 2
        assert "rational" in err

    def test_wrong_coordinate_count(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--d", "2", "--m", "1", "--n", "1",
                               "--x", "1/2", "--y", "0,0")
        assert code == 2

    def test_dump_kernel(self, capsys, tmp_path):
        path = tmp_path / "kernel.json"
        code, out, _ = run_cli(capsys, "eval", "--d", "1", "--m", "1", "--n", "1",
                               "--x", "0", "--y", "0", "--dump-kernel", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["form"] == "canonical"
        assert obj["d"] == 1
        assert len(obj["terms"]) == 4

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--bogus", "1")
        assert code == 2

    def test_unwritable_dump_path_is_usage_error_before_any_output(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--d", "1", "--m", "2", "--n", "2",
                                 "--x", "1/2", "--y", "1/3",
                                 "--dump-kernel", "/nonexistent-dir/k.json")
        assert code == 2
        assert out == ""
        assert "bdk: error: --dump-kernel: cannot write" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("form", ["definition", "closed", "univariate", "legendre"])
    @pytest.mark.parametrize("flag, value, line", EVAL_INPUT_ERRORS,
                             ids=[f"{flag} {value}" for flag, value, _ in EVAL_INPUT_ERRORS])
    def test_each_input_is_checked_before_the_build(self, capsys, monkeypatch, tmp_path,
                                                    form, flag, value, line):
        # a definitional build at (3, 40, 40) does not finish in 20 s; a
        # malformed input must be refused without waiting for it
        import bdk.cli

        def refuse(*args):
            raise AssertionError("the kernel was built")

        builders = [name for name in vars(bdk.cli) if name.startswith("kernel_")]
        assert builders == ["kernel_closed_twofold", "kernel_definition_twofold",
                            "kernel_legendre"]
        for name in builders:
            monkeypatch.setattr(bdk.cli, name, refuse)
        missing = str(tmp_path / "missing" / "k.json")
        argv = {"--d": "1", "--m": "40", "--n": "40", "--x": "1/2", "--y": "1/5",
                "--form": form, flag: value.format(missing=missing)}
        code, out, err = run_cli(capsys, "eval", *(token for item in argv.items()
                                                   for token in item))
        assert (code, out) == (2, "")
        assert err == f"bdk: error: {line.format(missing=missing)}\n"

    @pytest.mark.parametrize("raw", ["1/2,,1/3", ",1/2,1/3,", "1/2,1/3,", ",1/2,1/3",
                                     "1/2, ,1/3", ""])
    def test_empty_point_field_is_usage_error(self, capsys, raw):
        code, out, err = run_cli(capsys, "eval", "--d", "2", "--m", "2", "--n", "2",
                                 "--x", raw, "--y", "1/3,1/3")
        assert code == 2
        assert out == ""
        assert "--x" in err and "empty field" in err

    def test_empty_field_in_y_names_y(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--d", "1", "--m", "1", "--n", "1",
                               "--x", "1/2", "--y", "1/3,")
        assert code == 2
        assert "--y: empty field" in err

    def test_spaces_around_fields_still_parse(self, capsys):
        args = ["eval", "--d", "2", "--m", "2", "--n", "2", "--y", "1/3,1/3"]
        code, spaced, _ = run_cli(capsys, *args, "--x", "1/2, 1/3")
        assert code == 0
        _, plain, _ = run_cli(capsys, *args, "--x", "1/2,1/3")
        assert spaced == plain


#: eval --form definition stdout, read from the canonicalizing evaluator:
#: (d, m, n, x, y, exact value, 17-digit float echo)
DEFINITION_PINS = [
    (1, 20, 20, "3/97", "50/97",
     "4746810678075728080682883665755775375008627416989356954457998091225044162233807115916377"
     "/85574982398520222650719008717270502480207106005793623459030868908317854849223466793891540",
     "0.05546960741364769"),
    (2, 8, 8, "3/97,40/97", "17/97,61/97",
     "353725104568379729832396599604300990/149325063156778894754706773024711551",
     "2.3688260837833885"),
    (3, 6, 6, "5/97,21/97,33/97", "48/97,12/97,30/97",
     "140727262806359643835997208/45099753464703470019177665", "3.1203554785836549"),
    (2, 5, 3, "1/3,1/5", "2/7,3/11", "1416176/622545", "2.2748170814961166"),
    (3, 0, 4, "1/2,1/4,1/8", "1/3,1/6,1/9", "6", "6"),
    (2, 4, 0, "1/2,1/3", "1/5,2/5", "2", "2"),
]


class TestDefinitionInCoordinates:
    """eval --form definition reads the Bernstein coordinates; only a dump expands them."""

    @staticmethod
    def eval_argv(d, m, n, x, y):
        return ["eval", "--d", str(d), "--m", str(m), "--n", str(n), "--x", x, "--y", y,
                "--form", "definition"]

    @pytest.mark.parametrize("d, m, n, x, y, exact, echo", DEFINITION_PINS,
                             ids=[f"d{p[0]}-m{p[1]}-n{p[2]}" for p in DEFINITION_PINS])
    def test_stdout_bytes_are_pinned(self, capsys, d, m, n, x, y, exact, echo):
        argv = self.eval_argv(d, m, n, x, y)
        assert run_cli(capsys, *argv) == (0, exact + "\n", "")
        assert run_cli(capsys, *argv, "--float") == (0, f"{exact}\n{echo}\n", "")

    def test_value_never_expands_the_kernel(self, capsys, monkeypatch):
        import bdk.cli
        import bdk.kernels
        import bdk.polynomials

        def refuse(*args, **kwargs):
            raise AssertionError("expanded into monomials")

        monkeypatch.setattr(bdk.polynomials, "bernstein_basis", refuse)
        monkeypatch.setattr(bdk.kernels, "bernstein_rows", refuse)
        monkeypatch.setattr(bdk.kernels.BernsteinKernelForm, "expand", refuse)
        code, out, _ = run_cli(capsys, *self.eval_argv(2, 3, 2, "1/5,1/5", "1/7,2/7"), "--float")
        assert code == 0
        assert out.splitlines()[0] == "3016/1225"
        with pytest.raises(AssertionError, match="expanded into monomials"):
            main([*self.eval_argv(2, 3, 2, "1/5,1/5", "1/7,2/7"), "--dump-kernel", "-"])

    def test_dump_writes_the_canonical_kernel(self, capsys, tmp_path):
        from bdk.kernels import kernel_definition_twofold

        path = tmp_path / "k.json"
        code, out, _ = run_cli(capsys, *self.eval_argv(2, 3, 2, "1/5,1/5", "1/7,2/7"),
                               "--dump-kernel", str(path))
        assert code == 0
        assert out == "3016/1225\n"
        expected = json.dumps(kernel_definition_twofold(3, 2, 2).expand().to_json_dict(), sort_keys=True)
        assert path.read_text() == expected + "\n"
        # digest of the file written when the definitional form was built canonical
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "aac5e3c11f5dbe0e7df3503570e7084f22aa3c4fdbf91c1f4f87b562834f8145"
        _, to_stdout, _ = run_cli(capsys, *self.eval_argv(2, 3, 2, "1/5,1/5", "1/7,2/7"),
                                  "--dump-kernel", "-")
        assert to_stdout == out + expected + "\n"


class TestNoCanonicalization:
    """eval's closed, univariate and legendre forms and table read the kernel as built."""

    @pytest.fixture(autouse=True)
    def refuse_canonicalization(self, monkeypatch):
        import bdk.cli
        import bdk.kernels

        def refuse(form):
            raise AssertionError("to_canonical called")

        monkeypatch.setattr(bdk.cli, "to_canonical", refuse)
        monkeypatch.setattr(bdk.kernels, "to_canonical", refuse)

    @pytest.mark.parametrize("form", ["closed", "univariate", "legendre"])
    def test_eval(self, capsys, form):
        code, out, _ = run_cli(capsys, "eval", "--d", "1", "--m", "3", "--n", "2",
                               "--x", "1/3", "--y", "4/7", "--form", form, "--float")
        assert code == 0
        assert out.splitlines()[0] == "143/147"

    def test_eval_closed_d3(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--d", "3", "--m", "2", "--n", "2",
                               "--x", "0,0,0", "--y", "0,0,0")
        assert code == 0
        assert out.strip() == "120/7"

    def test_table(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "table", "--d", "2", "--m", "2", "--n", "3",
                             "--grid", "4", "--out", str(path))
        assert code == 0
        assert len(list(csv.DictReader(path.read_text().splitlines()))) == 100

    def test_dump_kernel_still_canonicalizes(self, capsys):
        with pytest.raises(AssertionError, match="to_canonical called"):
            main(["eval", "--d", "1", "--m", "1", "--n", "1", "--x", "0", "--y", "0",
                  "--dump-kernel", "-"])


class TestCoeffs:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--d", "1", "--m", "1", "--n", "1")
        lines = out.strip().splitlines()
        assert code == 0
        assert json.loads(lines[0]) == ["2/3", "1/3"]
        assert lines[1] == "1"

    def test_degree_zero(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--d", "2", "--m", "0", "--n", "4")
        lines = out.strip().splitlines()
        assert code == 0
        assert json.loads(lines[0]) == ["1"]
        assert lines[1] == "1"

    def test_sum_is_always_one(self, capsys):
        for m, n, d in [(3, 5, 1), (4, 4, 2), (2, 6, 3)]:
            _, out, _ = run_cli(capsys, "coeffs", "--d", str(d), "--m", str(m), "--n", str(n))
            lines = out.strip().splitlines()
            assert lines[1] == "1"
            assert sum(parse_rational(c) for c in json.loads(lines[0])) == 1


class TestPolynomialGrammar:
    def test_simple_variable(self):
        p = parse_polynomial("x1", 1)
        assert p.terms == {(1,): Fraction(1)}

    def test_full_term(self):
        p = parse_polynomial("2/3*x1^2*x2", 2)
        assert p.terms == {(2, 1): Fraction(2, 3)}

    def test_signs_and_constants(self):
        p = parse_polynomial("x1 - x2 + 1/2", 2)
        assert p.terms == {(1, 0): Fraction(1), (0, 1): Fraction(-1), (0, 0): Fraction(1, 2)}

    def test_leading_minus(self):
        assert parse_polynomial("-x1", 1).terms == {(1,): Fraction(-1)}

    def test_repeated_variable_multiplies(self):
        assert parse_polynomial("x1*x1", 1).terms == {(2,): Fraction(1)}

    def test_cancelling_terms_give_zero(self):
        assert parse_polynomial("x1 + x1 - 2*x1", 1) == CartesianPolynomial.zero(1)

    def test_repeated_monomial_terms_add(self):
        assert parse_polynomial("x1*x1 + x1^2", 1) == CartesianPolynomial.monomial(1, (2,), 2)

    def test_error_carries_position(self):
        with pytest.raises(PolynomialParseError) as exc:
            parse_polynomial("x1 + @", 1)
        assert exc.value.position == 5

    def test_out_of_range_variable(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x3", 2)

    def test_dangling_operator(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x1 +", 1)

    def test_missing_star(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("2 x1", 1)


@st.composite
def grammar_polynomials(draw):
    d = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * d),
        st.fractions(min_value=-30, max_value=30, max_denominator=12), max_size=6))
    return CartesianPolynomial(d, terms)


def print_polynomial(p):
    """p in the `apply --poly` grammar: signed terms, each 'c*x1^a*...'."""
    if p.is_zero():
        return "0"
    text = ""
    for exps, coef in p.sorted_terms():
        factors = [str(abs(coef))] + [f"x{v}" if e == 1 else f"x{v}^{e}"
                                      for v, e in enumerate(exps, 1) if e]
        sign = "-" if coef < 0 else "+"
        text += f" {sign} " + "*".join(factors)
    return text.lstrip(" +")


class TestPolynomialGrammarRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(grammar_polynomials())
    def test_printed_polynomial_parses_back_equal(self, p):
        assert parse_polynomial(print_polynomial(p), p.d) == p


class TestApply:
    def test_first_moment_example(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "--d", "1", "--degrees", "1",
                               "--poly", "x1")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"d": 1, "terms": [{"coef": "1/3", "exp": [0]},
                                         {"coef": "1/3", "exp": [1]}]}

    def test_constant_preserved(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "--d", "2", "--degrees", "3",
                               "--poly", "1")
        assert code == 0
        assert json.loads(out)["terms"] == [{"coef": "1", "exp": [0, 0]}]

    def test_composition_order_is_irrelevant(self, capsys):
        _, out_a, _ = run_cli(capsys, "apply", "--d", "1", "--degrees", "2,3", "--poly", "x1")
        _, out_b, _ = run_cli(capsys, "apply", "--d", "1", "--degrees", "3,2", "--poly", "x1")
        assert out_a == out_b

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "apply", "--d", "1", "--degrees", "1",
                               "--poly", "x1 + $")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("raw", ["2,", ",2", "2,,3", "2, ,3", ""])
    def test_empty_degree_field_is_usage_error(self, capsys, raw):
        code, out, err = run_cli(capsys, "apply", "--d", "1", "--degrees", raw, "--poly", "x1")
        assert code == 2
        assert out == ""
        assert f"bdk: error: --degrees: empty field in {raw!r}" in err

    @pytest.mark.parametrize("raw", ["3,-1", "2,-1,3", "-1,3"])
    def test_negative_degree_is_usage_error(self, capsys, raw):
        code, out, err = run_cli(capsys, "apply", "--d", "1", "--degrees", raw, "--poly", "x1")
        assert code == 2
        assert out == ""
        assert "bdk: error: degree must be >= 0, got -1" in err

    @pytest.mark.parametrize("poly, terms", [
        ("-x1^2", [("-1/10", 0), ("-2/5", 1), ("-1/10", 2)]),
        ("- 5/97*x1", [("-5/388", 0), ("-5/194", 1)]),
    ])
    def test_polynomial_may_start_with_a_minus_sign(self, capsys, poly, terms):
        code, out, err = run_cli(capsys, "apply", "--d", "1", "--degrees", "2", "--poly", poly)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"d": 1, "terms": [{"coef": c, "exp": [e]} for c, e in terms]}

    @pytest.mark.parametrize("poly, message", [
        (" ", "parse error at position 0: empty polynomial expression"),
        ("*x1", "parse error at position 0: '*' without a preceding factor"),
        ("2*", "parse error at position 1: term with no factors"),
    ])
    def test_malformed_polynomial_is_usage_error(self, capsys, poly, message):
        code, out, err = run_cli(capsys, "apply", "--d", "1", "--degrees", "1", "--poly", poly)
        assert (code, out) == (2, "")
        assert err == f"bdk: error: {message}\n"

    @pytest.mark.parametrize("poly", ["x1", "1"])
    def test_dimension_is_checked_before_the_polynomial(self, capsys, poly):
        code, out, err = run_cli(capsys, "apply", "--d", "0", "--degrees", "2", "--poly", poly)
        assert (code, out) == (2, "")
        assert err == "bdk: error: simplex dimension must be >= 1, got 0\n"

    def test_non_integer_degree_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "apply", "--d", "1", "--degrees", "1,a", "--poly", "x1")
        assert (code, out) == (2, "")
        assert err == "bdk: error: --degrees: invalid literal for int() with base 10: 'a'\n"

    def test_degrees_with_spaces_still_parse(self, capsys):
        _, spaced, _ = run_cli(capsys, "apply", "--d", "1", "--degrees", "2, 3", "--poly", "x1")
        _, plain, _ = run_cli(capsys, "apply", "--d", "1", "--degrees", "2,3", "--poly", "x1")
        assert spaced == plain != ""


@pytest.mark.parametrize("argv, flag", [
    (("eval", "--d", "1", "--m", "99999999999999999999", "--n", "3", "--x", "1/2", "--y", "1/3"),
     "--m"),
    (("apply", "--d", "2", "--degrees", "3", "--poly", "x1^99999999999999999999"), "--poly"),
    (("coeffs", "--d", "99999999999999999999", "--m", "1", "--n", "1"), "--d"),
    (("table", "--d", "1", "--m", "1", "--n", "1", "--grid", "99999999999999999999"), "--grid"),
    (("verify", "--max-degree", "99999999999999999999"), "--max-degree"),
], ids=["eval", "apply", "coeffs", "table", "verify"])
def test_a_factorial_past_the_largest_argument_is_a_usage_error(capsys, monkeypatch, argv, flag):
    # math.factorial raises OverflowError past sys.maxsize: a traceback and
    # exit 1, the code of a failed verification, before the table refused it;
    # the refusal names the flag the user typed, not the factorial it needed.
    # A grid or a suite of that size would never end, so neither may start.
    def refuse(*args):
        raise AssertionError("a size past sys.maxsize reached the work")

    monkeypatch.setattr(bdk.cli, "_grid_points", refuse)
    monkeypatch.setattr(bdk.cli, "run_suite", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"bdk: error: {flag}: 99999999999999999999 is too large "
                   f"(the largest is {sys.maxsize})\n")


def test_an_operator_degree_past_the_largest_argument_still_applies(capsys):
    # the closed image of a low-degree polynomial takes no factorial of the
    # operator degree, so --degrees is not refused: M_n x = (n x + 1)/(n + 2)
    n = 99999999999999999999
    assert run_cli(capsys, "apply", "--d", "1", "--degrees", str(n), "--poly", "x1") == (
        0, json.dumps({"d": 1, "terms": [{"coef": f"1/{n + 2}", "exp": [0]},
                                         {"coef": f"{n}/{n + 2}", "exp": [1]}]}) + "\n", "")


#: (d, degrees, degree of f): the request shapes of the benchmark's cli_apply workload
APPLY_SHAPES = [(1, (40, 30, 20), 9), (2, (10,), 5), (2, (8, 6), 5), (2, (10, 8, 6), 5),
                (3, (8,), 4), (3, (6, 5), 4)]


class TestApplyMatchesDefinition:
    """`bdk apply` prints the closed image byte for byte as the definitional
    chain of `apply_operator` would print it."""

    @pytest.mark.parametrize("d, degrees, degree", APPLY_SHAPES,
                             ids=[f"d{d}-{'_'.join(map(str, ns))}" for d, ns, _ in APPLY_SHAPES])
    def test_stdout_equals_the_definitional_chain(self, capsys, d, degrees, degree):
        rng = random.Random(f"apply/{d}/{degrees}")
        for _ in range(3):
            f = sample_polynomial(rng, d, degree)
            want = f
            for n in reversed(degrees):
                want = apply_operator(n, want)
            argv = ["apply", "--d", str(d), "--degrees", ",".join(map(str, degrees)),
                    "--poly", print_polynomial(f)]
            expected = json.dumps(want.to_json_dict(), sort_keys=True) + "\n"
            assert run_cli(capsys, *argv) == (0, expected, "")


class TestTable:
    def test_corner_values_d1(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "table", "--d", "1", "--m", "1", "--n", "1",
                             "--grid", "2", "--out", str(path))
        assert code == 0
        rows = list(csv.DictReader(path.read_text().splitlines()))
        values = {(r["x1"], r["y1"]): float(r["K"]) for r in rows}
        third = float(Fraction(4, 3))
        two_thirds = float(Fraction(2, 3))
        assert values == {
            ("0.0", "0.0"): third, ("0.0", "1.0"): two_thirds,
            ("1.0", "0.0"): two_thirds, ("1.0", "1.0"): third,
        }

    def test_degree_zero_kernel_is_flat(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        run_cli(capsys, "table", "--d", "1", "--m", "0", "--n", "0",
                "--grid", "3", "--out", str(path))
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 9
        assert all(float(r["K"]) == 1.0 for r in rows)

    def test_row_count_d1(self, capsys, tmp_path):
        path = tmp_path / "n.csv"
        run_cli(capsys, "table", "--d", "1", "--m", "2", "--n", "1",
                "--grid", "4", "--out", str(path))
        assert len(list(csv.DictReader(path.read_text().splitlines()))) == 16

    def test_d2_emits_only_simplex_points(self, capsys, tmp_path):
        path = tmp_path / "d2.csv"
        run_cli(capsys, "table", "--d", "2", "--m", "1", "--n", "1",
                "--grid", "3", "--out", str(path))
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 36  # 6 admissible grid points, squared
        for r in rows:
            assert float(r["x1"]) + float(r["x2"]) <= 1.0 + 1e-12
            assert float(r["y1"]) + float(r["y2"]) <= 1.0 + 1e-12

    @pytest.mark.parametrize("d, m, n, grid, sha256", [
        (1, 8, 8, 21, "c9fd3c64d3be08910a431813d6667b8a4e718ac63d4110501e22b4ffafed3979"),
        (2, 4, 4, 7, "dde1f68721c7937bbad63df6f1195d5726820d97bcd77adeeeaff62ccc3152e7"),
    ])
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, d, m, n, grid, sha256):
        # digests of the CSV files written by the canonicalizing evaluator
        path = tmp_path / "pinned.csv"
        code, _, _ = run_cli(capsys, "table", "--d", str(d), "--m", str(m), "--n", str(n),
                             "--grid", str(grid), "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_unsupported_dimension(self, capsys):
        code, _, err = run_cli(capsys, "table", "--d", "3", "--m", "1", "--n", "1",
                               "--grid", "2")
        assert code == 2

    def test_grid_below_two_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--d", "1", "--m", "1", "--n", "1",
                                 "--grid", "1")
        assert (code, out) == (2, "")
        assert err == "bdk: error: --grid must be >= 2\n"

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "table", "--d", "1", "--m", "1", "--n", "1",
                               "--grid", "2", "--out", "/nonexistent-dir/t.csv")
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_fails_after_open(self, capsys):
        # the open succeeds and the writes fail: a usage error, not a traceback
        code, out, err = run_cli(capsys, "table", "--d", "1", "--m", "2", "--n", "2",
                                 "--grid", "5", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("bdk: error: --out: cannot write '/dev/full': [Errno 28]")


#: A complete argument list for each subcommand, in `bdk --help` order.
COMPLETE_ARGV = {
    "eval": ["--d", "1", "--m", "1", "--n", "1", "--x", "0", "--y", "0"],
    "coeffs": ["--d", "1", "--m", "1", "--n", "1"],
    "apply": ["--d", "1", "--degrees", "1", "--poly", "x1"],
    "table": ["--d", "1", "--m", "1", "--n", "1", "--grid", "2"],
    "verify": [],
}


#: One request of each subcommand that prints its answer to stdout.
STDOUT_ARGV = {
    "eval": [*COMPLETE_ARGV["eval"], "--float"],
    "coeffs": COMPLETE_ARGV["coeffs"],
    "apply": COMPLETE_ARGV["apply"],
    "table": COMPLETE_ARGV["table"],
    "verify": ["--d", "1", "--max-degree", "1"],
}


def run_child(argv, stdout):
    """`python -m bdk.cli argv` in a child whose stdout is the given file or
    descriptor, importing the bdk this process imported."""
    env = {"PATH": os.environ.get("PATH", os.defpath),
           "PYTHONPATH": str(Path(bdk.cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "bdk.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)


class TestStdoutWriteFails:
    """A failed write to stdout is a usage error (exit 2, one error line), as
    a file that cannot be written is; exit 1 is left to failed verification."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", list(STDOUT_ARGV))
    def test_full_device(self, command):
        with open("/dev/full", "w") as full:
            run = run_child([command, *STDOUT_ARGV[command]], full)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("bdk: error: cannot write to stdout: [Errno 28]")
        assert run.stderr.count("\n") == 1, run.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_that_main_leaves_buffered(self):
        # argparse prints the help and exits 0 without a flush: the flush at
        # the end of the run reports the failed write
        with open("/dev/full", "w") as full:
            run = run_child(["--help"], full)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("bdk: error: cannot write to stdout: [Errno 28]")
        assert run.stderr.count("\n") == 1, run.stderr

    @pytest.mark.parametrize("command", list(STDOUT_ARGV))
    def test_closed_pipe(self, command):
        read, write = os.pipe()
        os.close(read)
        try:
            run = run_child([command, *STDOUT_ARGV[command]], write)
        finally:
            os.close(write)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("bdk: error: cannot write to stdout: [Errno 32]")
        assert run.stderr.count("\n") == 1, run.stderr


def parse_outcome(capsys, parser, argv):
    """The exit code, parsed values, stdout and stderr of parser.parse_args(argv)."""
    try:
        code, values = 0, vars(parser.parse_args(argv))
    except SystemExit as exc:
        code, values = exc.code, None
    captured = capsys.readouterr()
    return code, values, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("command", list(COMPLETE_ARGV))
    def test_each_subcommand_parses_and_reports_usage(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        complete = [command, *COMPLETE_ARGV[command]]
        # help, a complete request, a flag missing its value, and a stray
        # argument, which the top-level parser reports with its usage line
        cases = [([command, "--help"], 0), (complete, 0), ([command, "--d"], 2),
                 ([*complete, "stray"], 2)]
        for argv, code in cases:
            outcome = parse_outcome(capsys, build_parser(), argv)
            assert outcome[0] == code, argv
        assert outcome[3].startswith("usage: bdk [-h] {eval,coeffs,apply,table,verify} ...\n")

    def test_a_request_reads_only_its_subcommand(self, capsys):
        # one parser serves every request: each complete request reaches its
        # own handler with its own flags, and a second subcommand name is stray
        parser = build_parser()
        for command, (handler, _, flags) in bdk.cli._SUBCOMMANDS.items():
            complete = [command, *COMPLETE_ARGV[command]]
            code, values, _, _ = parse_outcome(capsys, parser, complete)
            assert code == 0 and values.pop("command") == command
            assert values.pop("func") is handler
            assert set(values) == {flag[2:].replace("-", "_") for flag in flags}
            other = "apply" if command != "apply" else "coeffs"
            code, _, _, err = parse_outcome(capsys, parser, [*complete, other])
            assert code == 2 and err.endswith(f"unrecognized arguments: {other}\n"), err

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["nosuch"], 2), ([], 2)])
    def test_top_level_lists_every_subcommand(self, capsys, argv, code):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert "{eval,coeffs,apply,table,verify}" in out + err
        if argv == ["--help"]:
            for command in COMPLETE_ARGV:
                assert f"\n    {command} " in out, command
        if argv == ["nosuch"]:
            assert ("argument command: invalid choice: 'nosuch' (choose from 'eval', "
                    "'coeffs', 'apply', 'table', 'verify')") in err
        if not argv:
            assert "the following arguments are required: command" in err


class BuiltConfig(Exception):
    """Raised in place of running the suite once its config is built."""


#: The report's config echo for each `bdk verify` argument list: the bounds
#: each invocation asks for, pinned so that deriving them cannot drift.
DEFAULT_ECHO = {
    "d_range": [1, 2, 3], "degree_caps": {"1": 8, "2": 6, "3": 4}, "threefold_cap": 5,
    "univariate_cap": 10, "legendre_cap": 8, "combination_cap": 5, "lemma_cap": 4,
    "operator_cap": 5, "operator_monomial_degree": 4, "moment_cap": 6,
    "time_budget_s": None, "corrupt_scale": False,
}
VERIFY_CONFIGS = {
    "": DEFAULT_ECHO,
    "--self-test-corrupt": {**DEFAULT_ECHO, "corrupt_scale": True},
    "--d 1": {**DEFAULT_ECHO, "d_range": [1], "degree_caps": {"1": 8}},
    "--d 2,1": {**DEFAULT_ECHO, "d_range": [2, 1], "degree_caps": {"1": 8, "2": 6}},
    "--d 3 --max-degree 2": {
        **DEFAULT_ECHO, "d_range": [3], "degree_caps": {"3": 2}, "threefold_cap": 2,
        "univariate_cap": 2, "legendre_cap": 2, "combination_cap": 2, "lemma_cap": 2,
        "operator_cap": 2, "operator_monomial_degree": 2, "moment_cap": 2},
    "--d 1 --max-degree 0": {
        **DEFAULT_ECHO, "d_range": [1], "degree_caps": {"1": 0}, "threefold_cap": 0,
        "univariate_cap": 0, "legendre_cap": 0, "combination_cap": 0, "lemma_cap": 0,
        "operator_cap": 0, "operator_monomial_degree": 0, "moment_cap": 0},
    "--d 1,2 --max-degree 3": {
        **DEFAULT_ECHO, "d_range": [1, 2], "degree_caps": {"1": 3, "2": 3},
        "threefold_cap": 3, "univariate_cap": 3, "legendre_cap": 3, "combination_cap": 3,
        "lemma_cap": 3, "operator_cap": 3, "operator_monomial_degree": 3, "moment_cap": 3},
    "--max-degree 5": {
        **DEFAULT_ECHO, "degree_caps": {"1": 5, "2": 5, "3": 5}, "univariate_cap": 5,
        "legendre_cap": 5, "moment_cap": 5},
    "--d 1,4 --max-degree 1": {
        **DEFAULT_ECHO, "d_range": [1, 4], "degree_caps": {"1": 1, "4": 1},
        "threefold_cap": 1, "univariate_cap": 1, "legendre_cap": 1, "combination_cap": 1,
        "lemma_cap": 1, "operator_cap": 1, "operator_monomial_degree": 1, "moment_cap": 1},
    "--d 1 --max-degree 9 --time-budget 0": {
        **DEFAULT_ECHO, "d_range": [1], "degree_caps": {"1": 9}, "univariate_cap": 9,
        "time_budget_s": 0.0},
}

#: A non-default value for each `bdk verify` flag that reaches SuiteConfig.
SUITE_FLAG_SAMPLES = {"--d": ["2"], "--max-degree": ["3"], "--time-budget": ["9"],
                      "--self-test-corrupt": []}


class TestVerifyCommand:
    @pytest.mark.parametrize("argv", list(VERIFY_CONFIGS))
    def test_config_built_for_each_invocation_is_pinned(self, monkeypatch, argv):
        import bdk.cli

        def stop(cfg):
            raise BuiltConfig(cfg)

        monkeypatch.setattr(bdk.cli, "run_suite", stop)
        with pytest.raises(BuiltConfig) as built:
            main(["verify", *argv.split()])
        echo = built.value.args[0].to_json_dict()
        assert echo == VERIFY_CONFIGS[argv]
        # the JSON text also tells 0 from 0.0 and from False
        assert json.dumps(echo, sort_keys=True) == json.dumps(VERIFY_CONFIGS[argv],
                                                              sort_keys=True)

    def test_every_suite_keyword_is_set_by_exactly_one_flag(self, monkeypatch):
        """A SuiteConfig keyword that no `bdk verify` flag sets has no caller."""
        import argparse
        import inspect

        import bdk.cli
        from bdk.verify import SuiteConfig

        keywords = {name for name, p in inspect.signature(SuiteConfig).parameters.items()
                    if p.kind is p.KEYWORD_ONLY}

        def record(**kwargs):
            raise BuiltConfig(kwargs)

        monkeypatch.setattr(bdk.cli, "SuiteConfig", record)

        def built(*argv):
            with pytest.raises(BuiltConfig) as exc:
                main(["verify", *argv])
            return exc.value.args[0]

        base = built()
        assert set(base) == keywords
        sub = next(a for a in bdk.cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices["verify"]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        assert flags - {"--help", "--report"} == set(SUITE_FLAG_SAMPLES)
        setters = {}
        for flag, value in SUITE_FLAG_SAMPLES.items():
            changed = [k for k, v in built(flag, *value).items() if v != base[k]]
            assert len(changed) == 1, (flag, changed)
            setters.setdefault(changed[0], []).append(flag)
        assert {k: len(v) for k, v in setters.items()} == dict.fromkeys(keywords, 1)

    @pytest.mark.parametrize("raw", ["1,", ",1", "1,,2", "1, ,2", ""])
    def test_empty_dimension_field_is_usage_error(self, capsys, monkeypatch, raw):
        import bdk.cli

        def refuse(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(bdk.cli, "run_suite", refuse)
        code, out, err = run_cli(capsys, "verify", "--d", raw, "--max-degree", "0")
        assert code == 2
        assert out == ""
        assert f"bdk: error: --d: empty field in {raw!r}" in err

    def test_unwritable_report_fails_before_the_suite_runs(self, capsys, monkeypatch):
        import bdk.cli

        def refuse(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(bdk.cli, "run_suite", refuse)
        code, out, err = run_cli(capsys, "verify", "--d", "1", "--max-degree", "1",
                                 "--report", "/nonexistent-dir/r.json")
        assert code == 2
        assert out == ""
        assert "bdk: error: --report: cannot write" in err

    def test_existing_report_survives_a_suite_that_raises(self, capsys, monkeypatch, tmp_path):
        import bdk.cli

        def interrupted(cfg):
            raise KeyboardInterrupt

        path = tmp_path / "report.json"
        path.write_text("old report\n")
        monkeypatch.setattr(bdk.cli, "run_suite", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--d", "1", "--max-degree", "1", "--report", str(path)])
        assert path.read_text() == "old report\n"

    def test_report_replaces_a_longer_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("x" * 100000)
        code, out, _ = run_cli(capsys, "verify", "--d", "1", "--max-degree", "0",
                               "--report", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["summary"]["failed"] == 0

    def test_trivial_run_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "verify", "--d", "1", "--max-degree", "0",
                               "--report", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["schema"] == "bdk-report/2"
        assert report["summary"]["failed"] == 0
        assert "failed" in err

    def test_report_to_stdout_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "1", "--max-degree", "0")
        assert code == 0
        assert json.loads(out)["complete"] is True
        # one line, as every bdk JSON output; `python -m json.tool` indents it
        assert out.count("\n") == 1 and out.endswith("\n")

    def test_self_test_corruption_exits_one_with_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        code, _, _ = run_cli(capsys, "verify", "--d", "1", "--max-degree", "1",
                             "--self-test-corrupt", "--report", str(path))
        assert code == 1
        report = json.loads(path.read_text())
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing
        assert all(c["witness"] for c in failing)

    def test_dimension_without_default_cap_needs_max_degree(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--d", "4")
        assert code == 2
        assert "--max-degree" in err

    @pytest.mark.parametrize("argv", [
        ("--d", "1,1", "--max-degree", "1"),
        ("--d", "1,2,1"),
    ])
    def test_repeated_dimension_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "repeats a dimension" in err
        assert out == ""

    def test_byte_identical_bodies_for_same_config(self, capsys, tmp_path):
        bodies = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "verify", "--d", "1", "--max-degree", "2",
                                 "--report", str(path))
            assert code == 0
            obj = json.loads(path.read_text())
            obj.pop("total_ms", None)
            for check in obj["checks"]:
                check.pop("wall_ms", None)
            bodies.append(json.dumps(obj, sort_keys=True))
        assert bodies[0] == bodies[1]

    def test_seed_is_not_a_flag(self, capsys, monkeypatch):
        # every check is exact, so there is no sampled point for a seed to fix
        import bdk.cli

        def refuse(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(bdk.cli, "run_suite", refuse)
        code, out, err = run_cli(capsys, "verify", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_time_budget_marks_incomplete(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "1", "--max-degree", "1",
                                 "--time-budget", "0.0")
        report = json.loads(out)
        assert report["complete"] is False
        assert "INCOMPLETE" in err
        assert code == 3

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_bad_time_budget_is_usage_error(self, capsys, budget):
        code, out, err = run_cli(capsys, "verify", "--d", "1", "--max-degree", "0",
                                 "--time-budget", budget)
        assert code == 2
        assert out == ""
        assert "time_budget_s" in err

    def test_failure_outranks_incomplete(self, capsys, monkeypatch):
        import bdk.cli
        from bdk.verify import CheckRecord, VerificationReport

        def cut_short(cfg):
            failed = CheckRecord("twofold_symmetry_xy", {"d": 1, "m": 0, "n": 0},
                                 {"lhs": "1", "rhs": "2"}, 0.0)
            return VerificationReport(cfg.to_json_dict(), [failed], "budget", 0.0)
        monkeypatch.setattr(bdk.cli, "run_suite", cut_short)
        code, _, err = run_cli(capsys, "verify", "--d", "1", "--max-degree", "0")
        assert code == 1
        assert "INCOMPLETE" in err


    def test_restricting_dimensions_skips_univariate_families(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--max-degree", "1")
        assert code == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert not any(name.startswith(("univariate", "threefold", "legendre"))
                       for name in names)
        assert "twofold_closed_equals_definition" in names


#: A malformed comma-separated flag and its exact error line: an empty field,
#: then the field count of a point, then each field's own conversion.
LIST_FLAG_ERRORS = [
    (["eval", "--d", "2", "--m", "1", "--n", "1", "--x", "1/2", "--y", "1/3,1/3"],
     "--x needs 2 comma-separated rationals, got 1"),
    (["eval", "--d", "1", "--m", "1", "--n", "1", "--x", "1/2", "--y", "0.5"],
     "--y: not a rational 'p/q' string: '0.5'"),
    (["eval", "--d", "2", "--m", "1", "--n", "1", "--x", "0.5", "--y", "1/3,1/3"],
     "--x needs 2 comma-separated rationals, got 1"),
    (["eval", "--d", "2", "--m", "1", "--n", "1", "--x", ",1/2,1/3", "--y", "1/3,1/3"],
     "--x: empty field in ',1/2,1/3'"),
    (["apply", "--d", "1", "--degrees", "2,,3", "--poly", "x1"],
     "--degrees: empty field in '2,,3'"),
    (["apply", "--d", "1", "--degrees", "1.5", "--poly", "x1"],
     "--degrees: invalid literal for int() with base 10: '1.5'"),
    (["verify", "--d", "1, ", "--max-degree", "0"], "--d: empty field in '1, '"),
    (["verify", "--d", "1,x", "--max-degree", "0"],
     "--d: invalid literal for int() with base 10: 'x'"),
]


class TestListFlags:
    @pytest.mark.parametrize("argv, message", LIST_FLAG_ERRORS,
                             ids=[" ".join(argv) for argv, _ in LIST_FLAG_ERRORS])
    def test_error_line_is_pinned(self, capsys, monkeypatch, argv, message):
        import bdk.cli

        def refuse(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(bdk.cli, "run_suite", refuse)
        assert run_cli(capsys, *argv) == (2, "", f"bdk: error: {message}\n")


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2


#: The outputs that the comments of the README's CLI block state.
README_STDOUT = {
    "bdk eval --d 1 --m 1 --n 1 --x 0 --y 0 --form closed": "4/3\n",
    "bdk coeffs --d 1 --m 1 --n 1": '["2/3", "1/3"]\n1\n',
}


def test_readme_cli_block_runs(tmp_path):
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("bdk ")]
    assert len(lines) == 6
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src")}
    stated = {}
    for line in lines:
        argv = shlex.split(line, comments=True)
        run = subprocess.run([sys.executable, "-m", "bdk.cli", *argv[1:]], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, (line, run.stderr)
        stated[" ".join(argv)] = run.stdout
    for command, out in README_STDOUT.items():
        assert stated[command] == out, command
    assert (tmp_path / "kernel.csv").is_file() and (tmp_path / "report.json").is_file()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter limits no int <-> str conversion")
@pytest.mark.parametrize("digits", [1500, 5000])
def test_an_exact_answer_past_the_int_digit_limit_is_printed(capsys, digits):
    # the value of a 1500-digit point has more than 4300 digits, past
    # Python's default limit on int <-> str conversions; main lifts the limit
    # while it runs, so the answer is printed, and a 5000-digit input is read
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "eval", "--d", "1", "--m", "3", "--n", "3",
                             "--x", "1/" + "7" * digits, "--y", "1/3")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    value = out.splitlines()[0]
    assert len(value) > 4300 and re.fullmatch(r"\d+/\d+", value)
    if digits == 1500:
        assert len(out) == 9006


#: Tokens that no bdk flag reads as a number, or that one reads and another refuses.
MALFORMED = ["1/0", "1.5", "x4", "@", ""]


def spoiled(draw, values):
    """A value drawn from values, or one time in ten a malformed token."""
    return draw(st.sampled_from(MALFORMED)) if not draw(st.integers(0, 9)) else draw(values)


def comma_fields(draw, values, size):
    return ",".join(spoiled(draw, values) for _ in range(size))


def ints(low, high):
    return st.integers(low, high).map(str)


RATIONALS = st.one_of(st.builds("{}/{}".format, st.integers(-3, 9), st.integers(1, 9)),
                      ints(-2, 2))


def point(draw, d):
    """d comma-separated rationals, one time in four any count from 1 to 5."""
    size = d if d > 0 and draw(st.integers(0, 3)) else draw(st.integers(1, 5))
    return comma_fields(draw, RATIONALS, size)


def degrees(draw, d):
    return comma_fields(draw, ints(-1, 6), draw(st.integers(1, 3)))


def polynomial(draw, d):
    """One to three terms c*xv^e in x1..xd (x1 alone for d < 1), joined by + or -."""
    terms = st.builds("{}*x{}^{}".format, RATIONALS, st.integers(1, max(d, 1)),
                      st.integers(0, 8))
    return comma_fields(draw, terms, draw(st.integers(1, 3))).replace(
        ",", draw(st.sampled_from("+-")))


#: The flags of each drawn request and the values drawn for each: a
#: strategy, None for a flag that takes no value, or a function of draw and
#: the drawn dimension d for a comma-separated value.
CONTRACT_FLAGS = {
    "eval": {"--d": ints(-1, 4), "--m": ints(-1, 6), "--n": ints(-1, 6), "--x": point,
             "--y": point,
             "--form": st.sampled_from(["closed", "definition", "univariate", "legendre"]),
             "--float": None},
    "coeffs": {"--d": ints(-1, 4), "--m": ints(-1, 6), "--n": ints(-1, 6)},
    "apply": {"--d": ints(-1, 4), "--degrees": degrees, "--poly": polynomial},
    "table": {"--d": ints(-1, 4), "--m": ints(-1, 6), "--n": ints(-1, 6), "--grid": ints(-1, 5)},
}


@st.composite
def cli_requests(draw):
    """A small, partly malformed argv of eval, coeffs, apply or table: each
    flag left out one time in ten, each value drawn from a small range, and
    each value or list field malformed one time in ten."""
    command = draw(st.sampled_from(list(CONTRACT_FLAGS)))
    argv, d = [command], 0
    for flag, values in CONTRACT_FLAGS[command].items():
        if not draw(st.integers(0, 9)):
            continue
        if values is None:
            argv.append(flag)
            continue
        value = values(draw, d) if callable(values) else spoiled(draw, values)
        if flag == "--d" and value.lstrip("-").isdigit():
            d = int(value)
        argv += [flag, value]
    return argv


class TestContract:
    @settings(max_examples=200, deadline=None)
    @given(cli_requests())
    def test_every_request_succeeds_or_is_a_usage_error(self, argv):
        # exit 0 or 2, never a traceback, and a usage error ends with its error line
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            last = err.getvalue().splitlines()[-1]
            assert re.match(r"bdk( \w+)?: error: ", last), (argv, last)


def joined(argv):
    """argv with each value given as one '--flag=value' token with its flag."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def plain_as_argparse(argv):
    """The plain path's values for argv as `main` reads it, checked to be
    the values argparse returns whenever the plain path returns any."""
    argv = bdk.cli._attach_dash_values(argv)
    plain = bdk.cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv)), argv
    return plain


#: Requests the plain path leaves to argparse, after the complete `eval`
#: request of COMPLETE_ARGV: the tokens added, and the exit code and last
#: stderr line (stdout's first line for help) that bdk gave when argparse
#: parsed every request.
ARGPARSE_ONLY = [
    (["-h"], 0, "usage: bdk eval [-h] --d D --m M --n N --x X --y Y"),
    (["--deg", "3"], 2, "bdk: error: unrecognized arguments: --deg 3"),
    (["--m", "2"], 0, "3/2"),
    (["stray"], 2, "bdk: error: unrecognized arguments: stray"),
    (["--form", "bogus"], 2, "bdk eval: error: argument --form: invalid choice: 'bogus' "
                             "(choose from 'definition', 'closed', 'univariate', 'legendre')"),
    (["--m", "x"], 2, "bdk eval: error: argument --m: invalid int value: 'x'"),
    (["--float=1"], 2, "bdk eval: error: argument --float: ignored explicit argument '1'"),
    (["--dump-kernel"], 2, "bdk eval: error: argument --dump-kernel: expected one argument"),
    (["--dump-kernel", "--float"], 2,
     "bdk eval: error: argument --dump-kernel: expected one argument"),
]


class TestPlainPath:
    """`main` builds the values of a plain request from `_SUBCOMMANDS`
    without argparse; every other request is argparse's, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(cli_requests(), st.booleans())
    def test_plain_values_are_argparse_values(self, argv, join):
        plain_as_argparse(joined(argv) if join else argv)

    @pytest.mark.parametrize("join", [False, True], ids=["spaced", "joined"])
    @pytest.mark.parametrize("argv", [[command, *flags] for argvs in (COMPLETE_ARGV, STDOUT_ARGV)
                                      for command, flags in argvs.items()])
    def test_every_complete_request_is_plain(self, argv, join):
        assert plain_as_argparse(joined(argv) if join else argv) is not None

    def test_an_abbreviation_is_argparse_s(self, capsys):
        # --deg abbreviates --degrees: argparse takes it, the plain path does not
        argv = ["apply", "--d", "1", "--deg", "2", "--poly", "x1"]
        assert bdk.cli._plain_args(argv) is None
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv[:3], "--degrees", *argv[4:])

    @pytest.mark.parametrize("tokens, code, line", ARGPARSE_ONLY,
                             ids=[" ".join(tokens) for tokens, *_ in ARGPARSE_ONLY])
    def test_other_requests_are_argparse_s(self, capsys, monkeypatch, tokens, code, line):
        monkeypatch.setenv("COLUMNS", "80")
        argv = bdk.cli._attach_dash_values(["eval", *COMPLETE_ARGV["eval"], *tokens])
        assert bdk.cli._plain_args(argv) is None
        got, out, err = run_cli(capsys, *argv)
        assert (got, (err or out).splitlines()[-1 if err else 0]) == (code, line)
        if code == 2 and err.startswith("usage:"):
            # the whole of stderr is what argparse itself prints
            assert parse_outcome(capsys, build_parser(), argv)[2:] == ("", err)
