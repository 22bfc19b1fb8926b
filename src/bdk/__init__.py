"""Exact Bernstein-Durrmeyer kernel algebra on the standard simplex.

The package verifies, in exact rational arithmetic, the diagonal
closed-form representations of the integral kernels of composed
Bernstein-Durrmeyer operators against brute-force definitional
expansions, and ships the operators, kernels and a CLI around them.
"""
from .combinat import (
    Rational,
    binomial,
    enumerate_multi_indices,
    factorial,
    falling_factorial,
    format_rational,
    index_factorial,
    multinomial,
    parse_rational,
)
from .durrmeyer import apply_operator, compose_apply, composition_coefficients
from .kernels import (
    BernsteinKernelForm,
    DiagonalKernelForm,
    KernelPolynomial,
    first_coordinate_difference,
    first_kernel_difference,
    inner_sum_identity,
    kernel_closed_threefold,
    kernel_closed_twofold,
    kernel_definition_coordinates,
    kernel_definition_threefold,
    kernel_definition_twofold,
    kernel_legendre,
    kernel_single,
    kernel_univariate_twofold,
    to_canonical,
)
from .polynomials import (
    CartesianPolynomial,
    bernstein_basis,
    bernstein_value,
    inner_product,
    integrate_simplex,
)
from .simplex_integrals import (
    bernstein_product_integral,
    inner_one_bernstein,
    monomial_integral,
)
from .verify import SuiteConfig, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "binomial",
    "enumerate_multi_indices",
    "factorial",
    "falling_factorial",
    "format_rational",
    "index_factorial",
    "multinomial",
    "parse_rational",
    "apply_operator",
    "compose_apply",
    "composition_coefficients",
    "BernsteinKernelForm",
    "DiagonalKernelForm",
    "KernelPolynomial",
    "first_coordinate_difference",
    "first_kernel_difference",
    "inner_sum_identity",
    "kernel_closed_threefold",
    "kernel_closed_twofold",
    "kernel_definition_coordinates",
    "kernel_definition_threefold",
    "kernel_definition_twofold",
    "kernel_legendre",
    "kernel_single",
    "kernel_univariate_twofold",
    "to_canonical",
    "CartesianPolynomial",
    "bernstein_basis",
    "bernstein_value",
    "inner_product",
    "integrate_simplex",
    "bernstein_product_integral",
    "inner_one_bernstein",
    "monomial_integral",
    "SuiteConfig",
    "VerificationReport",
    "run_suite",
]
