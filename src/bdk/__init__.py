"""Exact Bernstein-Durrmeyer kernel algebra on the standard simplex.

The package verifies, in exact rational arithmetic, the diagonal
closed-form representations of the integral kernels of composed
Bernstein-Durrmeyer operators against brute-force definitional
expansions, and ships the operators, kernels and a CLI around them.

Each module's `__all__` is its public API, and the package re-exports
every one of them except `bdk.cli`'s, which is left unimported here so
that a library import does not pay for the command line.
"""
__version__ = "0.1.0"

from . import combinat, durrmeyer, kernels, polynomials, simplex_integrals, verify
from .combinat import *
from .durrmeyer import *
from .kernels import *
from .polynomials import *
from .simplex_integrals import *
from .verify import *

__all__ = ["__version__", *combinat.__all__, *durrmeyer.__all__, *kernels.__all__,
           *polynomials.__all__, *simplex_integrals.__all__, *verify.__all__]
