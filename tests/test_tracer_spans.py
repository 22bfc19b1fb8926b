"""Every span the benchmark's tracer patches must still name a bdk function,
and its exact counts must read the same from bdk's objects.

bench/tracer.py rebinds listed functions and methods by name; a name that
no longer exists makes its install step raise, so traced benchmark runs
fail.  Its term and coefficient-bit counts read the `terms` view of each
kernel it sees, so they are pinned here on fixed kernels: a change of
representation must not move `kernels.coef_bits_max` or the `*.terms`
counts.  A definitional builder returns its Bernstein coordinates, whose
`terms` are the nonzero coefficients of the basis products; the canonical
map they expand to is pinned beside them.  The tracer is loaded by path, as it is not part of the package.
"""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bdk.durrmeyer import apply_operator
from bdk.kernels import (
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_coordinates,
    kernel_definition_twofold,
    to_canonical,
)
from bdk.polynomials import CartesianPolynomial

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bdk_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = load_tracer()
SPANS = TRACER_MODULE.SPANS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in SPANS],
                         ids=[f"{m}:{a}" for m, a, _, _ in SPANS])
def test_span_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.partition(".")
    if method:
        owner = getattr(module, owner_name)
        assert inspect.isclass(owner), attr
        # the tracer reads the method from the class's own __dict__
        assert callable(owner.__dict__.get(method)), attr
    else:
        assert callable(getattr(module, attr, None)), attr


def _image():
    f = CartesianPolynomial(2, {(2, 1): Fraction(-3, 97), (0, 3): Fraction(5, 97),
                                (1, 0): Fraction(7, 2)})
    return apply_operator(6, f)


@pytest.mark.parametrize("build, terms, coef_bits", [
    (lambda: kernel_definition_coordinates((8, 8), 2).expand(), 2025, 32),
    (lambda: kernel_definition_twofold(8, 8, 2), 2025, 15),
    (lambda: to_canonical(kernel_closed_threefold(3, 4, 5)), 16, 11),
    (_image, 8, 17),
], ids=["definition_8_8_d2", "coordinates_8_8_d2", "canonical_threefold_3_4_5",
        "image_6_d2"])
def test_counts_read_the_same(build, terms, coef_bits):
    obj = build()
    assert TRACER_MODULE._terms(obj) == terms
    assert TRACER_MODULE._coef_bits(obj) == coef_bits


def test_coef_bits_of_a_diagonal_form():
    assert TRACER_MODULE._coef_bits(kernel_closed_twofold(8, 8, 2)) == 13


#: Runs `bdk ARGS...` under the recorder, as a traced benchmark request does,
#: with expansion into monomials refused; the summary goes to argv[1].
TRACED_EVAL = """
import sys
import bdk.cli, bdk.kernels
import tracer

def refuse(*args, **kwargs):
    raise AssertionError("expanded into monomials")

bdk.kernels.BernsteinKernelForm.expand = refuse
rec = tracer.install()
code = bdk.cli.main(sys.argv[2:])
tracer.write(rec, sys.argv[1])
sys.exit(code)
"""


def run_traced(tmp_path, *argv):
    """The finished `bdk ARGS...` run of TRACED_EVAL, and its recorder summary."""
    env = {"PATH": os.environ.get("PATH", os.defpath),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(TRACER.parent)])}
    summary = tmp_path / "trace.json"
    run = subprocess.run([sys.executable, "-c", TRACED_EVAL, str(summary), *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    return run, json.loads(summary.read_text())


def test_traced_definition_eval_never_expands(tmp_path):
    # the recorder reads counts off what each span returns; eval --form
    # definition must hand it nothing whose reading expands the kernel
    run, _ = run_traced(tmp_path, "eval", "--d", "3", "--m", "6", "--n", "6",
                        "--x", "5/97,21/97,33/97", "--y", "48/97,12/97,30/97",
                        "--form", "definition")
    assert run.stdout == "140727262806359643835997208/45099753464703470019177665\n"


def test_traced_univariate_eval_builds_one_closed_form(tmp_path):
    # `kernel_univariate_twofold` only calls `kernel_closed_twofold`, and the
    # tracer spans both as kernels.closed; eval calls the closed form once
    run, summary = run_traced(tmp_path, "eval", "--d", "1", "--m", "4", "--n", "3",
                              "--x", "1/3", "--y", "1/5", "--form", "univariate")
    assert run.stdout == "2167/1750\n"
    assert summary["layers"]["kernels.closed"][0] == 1
