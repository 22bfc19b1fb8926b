"""Span recorder that times calls into bdk's public functions from outside.

launch.py installs it in trace mode; no file of bdk changes.  Each listed
function is rebound, in every ``bdk.*`` namespace that imported it, to a
wrapper, and each listed method is rebound on its class.  A wrapper keeps
(name, start, end, parent) of each call in flat arrays, plus exact counts
read from the returned objects.  At exit the spans are reduced to call
counts and self times (span time minus the time its child spans cover)
per layer and written out as JSON.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

__all__ = ["SPANS", "LAYERS", "COUNTS", "Recorder", "install", "write"]


def _terms(obj) -> int:
    return len(obj.terms)


def _coef_bits(kernel) -> int:
    """Largest numerator or denominator bit length in a kernel object."""
    if isinstance(kernel.terms, dict):
        values = list(kernel.terms.values())
    else:  # diagonal form: a scale and (index, weight) pairs
        values = [kernel.scale] + [w for _, w in kernel.terms]
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


_KERNEL = {"kernels.coef_bits_max": _coef_bits}
_DEFINITION = dict(_KERNEL, **{"kernels.definition.terms": _terms})

#: (module, attribute, layer, counts): "Class.method" attributes are patched on
#: the class.  counts maps a count name to a function of the returned object;
#: names ending in "_max" keep the largest value, the others are summed.
SPANS = [
    *(("bdk.combinat", f, "combinat", None) for f in (
        "factorial", "binomial", "falling_factorial", "multinomial", "index_factorial",
        "enumerate_multi_indices", "parse_rational", "format_rational")),
    *(("bdk.simplex_integrals", f, "simplex_integrals", None) for f in (
        "monomial_integral", "inner_one_bernstein", "bernstein_product_integral")),
    ("bdk.polynomials", "bernstein_basis", "polynomials.basis", None),
    *(("bdk.polynomials", f"CartesianPolynomial.{f}", "polynomials.arith", None)
      for f in ("__init__", "__add__", "__mul__", "scale")),
    ("bdk.polynomials", "integrate_simplex", "polynomials.integrate", None),
    ("bdk.polynomials", "inner_product", "polynomials.integrate", None),
    ("bdk.polynomials", "CartesianPolynomial.evaluate", "polynomials.evaluate", None),
    ("bdk.polynomials", "bernstein_value", "polynomials.evaluate", None),
    ("bdk.durrmeyer", "apply_operator", "durrmeyer.apply", {"durrmeyer.image_terms": _terms}),
    ("bdk.durrmeyer", "compose_apply", "durrmeyer.apply", None),
    ("bdk.durrmeyer", "composition_coefficients", "durrmeyer.coeffs", None),
    ("bdk.kernels", "kernel_definition_twofold", "kernels.definition", _DEFINITION),
    ("bdk.kernels", "kernel_definition_threefold", "kernels.definition", _DEFINITION),
    *(("bdk.kernels", f, "kernels.closed", _KERNEL) for f in (
        "kernel_closed_twofold", "kernel_univariate_twofold", "kernel_closed_threefold",
        "kernel_single", "kernel_legendre")),
    ("bdk.kernels", "to_canonical", "kernels.canonical",
     dict(_KERNEL, **{"kernels.canonical.terms": _terms})),
    ("bdk.kernels", "KernelPolynomial.evaluate", "kernels.evaluate", None),
    ("bdk.kernels", "DiagonalKernelForm.evaluate", "kernels.evaluate", None),
    ("bdk.kernels", "first_kernel_difference", "kernels.compare", None),
    ("bdk.kernels", "KernelPolynomial.transpose", "kernels.compare", None),
    ("bdk.kernels", "KernelPolynomial.integrate_y", "kernels.compare", None),
    ("bdk.kernels", "inner_sum_identity", "kernels.lemma", None),
    ("bdk.verify", "run_suite", "verify", {"verify.checks": lambda r: len(r.checks)}),
    ("bdk.verify", "VerificationReport.to_json_dict", "verify", None),
    ("bdk.cli", "main", "cli", None),
    ("bdk.cli", "parse_polynomial", "cli", None),
]

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SPANS))
COUNTS = tuple(dict.fromkeys(name for *_, counts in SPANS for name in (counts or {})))

#: Span id of the time spent reading counts; it belongs to no layer.
_COUNTING = len(LAYERS)


class Recorder:
    """Spans of one process, kept in memory until `summary`."""

    def __init__(self):
        self.layer = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, fn, layer_id: int, counts):
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        totals = self.counts

        def span(*args, **kwargs):
            i = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counts:
                j = len(layer)
                layer.append(_COUNTING)
                parent.append(stack[-1])
                end.append(0.0)
                start.append(clock())
                for name, count in counts.items():
                    value = count(result)
                    totals[name] = max(totals[name], value) if name.endswith("_max") \
                        else totals[name] + value
                end[j] = clock()
            return result

        return span

    def summary(self) -> dict:
        """Calls and self time per layer; children always follow their parent."""
        n = len(self.layer)
        child = array("d", bytes(8 * n))
        calls = [0] * (len(LAYERS) + 1)
        self_s = [0.0] * (len(LAYERS) + 1)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            lid = layer[i]
            calls[lid] += 1
            self_s[lid] += dur - child[i]
            if parent[i] >= 0:
                child[parent[i]] += dur
        return {"layers": {name: [calls[i], self_s[i]] for i, name in enumerate(LAYERS)},
                "counts": dict(self.counts), "spans": n}


def install() -> Recorder:
    """Rebind every listed function and method of the imported bdk modules."""
    rec = Recorder()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "bdk" or name.startswith("bdk."))]
    for module_name, attr, layer, counts in SPANS:
        owner_name, _, method = attr.partition(".")
        if method:
            owner = getattr(sys.modules[module_name], owner_name)
            setattr(owner, method, rec.wrap(owner.__dict__[method], LAYERS.index(layer), counts))
            continue
        original = getattr(sys.modules[module_name], attr)
        wrapped = rec.wrap(original, LAYERS.index(layer), counts)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    return rec


def write(rec: Recorder, path: str, **extra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(rec.summary(), **extra), fh, sort_keys=True)
