"""Every span the benchmark's tracer patches must still name a bdk function.

bench/tracer.py rebinds listed functions and methods by name; a name that
no longer exists makes its install step raise, so traced benchmark runs
fail.  The tracer is loaded by path, as it is not part of the package.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bdk_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


SPANS = load_spans()


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
