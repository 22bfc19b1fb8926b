"""Every exported name resolves, no `__all__` lists a name twice, and each
name `bdk` exports is listed by exactly one module."""
import functools
import importlib
import pkgutil

import pytest

import bdk
import bdk.cli
import bdk.combinat
import bdk.durrmeyer
import bdk.kernels
import bdk.polynomials
import bdk.simplex_integrals
import bdk.verify
from bdk.verify import SuiteConfig, run_suite

MODULES = ["bdk", *(f"bdk.{m.name}" for m in pkgutil.iter_modules(bdk.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, missing


def test_each_exported_name_is_listed_by_exactly_one_module():
    # bdk re-exports every module's __all__ but bdk.cli's, which it does not import
    lists = [importlib.import_module(m).__all__ for m in MODULES if m not in ("bdk", "bdk.cli")]
    owners = {name: sum(name in names for names in lists) for name in bdk.__all__}
    assert owners.pop("__version__") == 0
    assert set(owners.values()) == {1}, sorted(n for n, k in owners.items() if k != 1)
    assert len(bdk.__all__) == 1 + sum(map(len, lists))


def test_multi_index_class_is_gone():
    assert not hasattr(bdk, "MultiIndex")
    assert "MultiIndex" not in bdk.__all__


def test_per_call_factorial_tables_are_gone():
    # bdk.combinat keeps one shared factorial table and one multinomial per index
    assert not hasattr(bdk.combinat, "FactorialTable")
    assert not hasattr(bdk.combinat, "table_multinomial")
    assert "FactorialTable" not in bdk.combinat.__all__


def test_expanded_definition_wrapper_is_gone():
    # the definitional kernel is `kernel_definition_coordinates`; its map is `.expand()`
    assert not hasattr(bdk, "kernel_definition")
    assert not hasattr(bdk.kernels, "kernel_definition")


@pytest.mark.parametrize("module_name", ["bdk", "bdk.polynomials", "bdk.durrmeyer"])
def test_point_and_operator_wrappers_are_gone(module_name):
    # a point is a sequence of d ints or Fractions, an operator is its degree
    module = importlib.import_module(module_name)
    for name in ("BarycentricPoint", "as_point", "OperatorSpec"):
        assert not hasattr(module, name), name
        assert name not in module.__all__, name


def test_second_paths_and_unread_readers_are_gone():
    # a mix of single kernels is one diagonal form, and bdk reads no JSON back
    assert not hasattr(bdk.kernels.BernsteinKernelForm, "linear_combination")
    assert not hasattr(bdk.kernels.KernelPolynomial, "from_json_dict")
    assert not hasattr(bdk.polynomials.CartesianPolynomial, "from_json_dict")
    # each integer-map job has one body, in bdk.polynomials, which bdk.verify imports
    assert not hasattr(bdk.polynomials, "_dirichlet_terms")
    assert not hasattr(bdk.verify, "_combination_difference")
    assert bdk.verify._combine is bdk.polynomials._combine
    assert bdk.verify._Moments is bdk.polynomials._Moments


def test_per_run_legendre_table_is_gone(monkeypatch):
    # the elevated Legendre columns are one process-wide cache, as the
    # elevation columns are, and kernel_legendre takes no table of them
    assert not hasattr(bdk.kernels, "_LegendreColumns")
    with pytest.raises(TypeError):
        bdk.kernels.kernel_legendre(1, 1, {})
    column = bdk.kernels._legendre_column
    fresh = functools.lru_cache(**column.cache_parameters())(column.__wrapped__)
    monkeypatch.setattr(bdk.kernels, "_legendre_column", fresh)
    run_suite(SuiteConfig())
    # each (k, m) with k <= m <= univariate_cap = 10 is built once
    info = fresh.cache_info()
    assert info.misses == 66 and info.hits > 0


def test_caches_with_no_hits_are_gone():
    assert not hasattr(bdk.kernels._inner_sum_coordinates, "cache_info")
    assert not hasattr(bdk.simplex_integrals, "_monomial_integral_cached")
    assert not hasattr(bdk.simplex_integrals.monomial_integral, "cache_info")
    assert not hasattr(bdk.durrmeyer._moment_column, "cache_info")
    assert "_hash" not in bdk.polynomials.CartesianPolynomial.__slots__


def test_threefold_cap_knob_is_gone(capsys):
    # --max-degree bounds the three-fold family with every other one
    with pytest.raises(TypeError, match="threefold_cap"):
        SuiteConfig(threefold_cap=1)
    assert bdk.cli.main(["verify", "--threefold-cap", "1"]) == 2
    assert "unrecognized arguments: --threefold-cap 1" in capsys.readouterr().err
