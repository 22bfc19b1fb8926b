"""The benchmark's request streams, drawn from a seed.

A seed draws only rational points, polynomial coefficients and exponents
within each class's fixed size, and the order of the requests.  The class
list and sizes are fixed, so every seed asks for the same work.  Points
and coefficients all have the denominator 97, the largest the identity
suite draws: the cost of exact arithmetic grows with the size of the
numbers, so a seed that drew small denominators would ask for less work.
The `bdk verify` request takes no input from the seed, for that reason.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from oracle import grid_points

__all__ = ["Op", "WORKLOADS", "NOMINAL_PASS_S", "build_stream", "passes_for"]


@dataclass(frozen=True)
class Op:
    """One `bdk` request and what its output is checked against."""

    cls: str                 # request class; the same set for every seed
    kind: str                # which oracle check applies
    argv: Tuple[str, ...]    # the arguments after `bdk`
    spec: dict               # inputs the oracle needs
    dump: bool = False       # also pass --dump-kernel <file> and check that file
    timeout_s: float = 30.0  # past this the request is killed and counts as failed


#: Seconds one pass of each stream took on the 2-CPU machine the benchmark
#: was defined on.  A run repeats its stream max(2, round(seconds / this))
#: times, so the work per run is fixed by --seconds alone and is the same
#: for every version of the program.
NOMINAL_PASS_S = {"verify_default": 6.0, "cli_kernels": 8.0, "cli_apply": 2.0}

WORKLOADS = tuple(NOMINAL_PASS_S)


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


DENOMINATOR = 97


def _point(rng: random.Random, d: int) -> Tuple[Fraction, ...]:
    """A point inside the simplex: all d+1 barycentric coordinates are k/97, k > 0."""
    cuts = sorted(rng.sample(range(1, DENOMINATOR), d))
    return tuple(Fraction(b - a, DENOMINATOR) for a, b in zip(cuts, cuts[1:] + [DENOMINATOR]))


def _fmt_point(pt) -> str:
    return ",".join(str(c) for c in pt)


def _eval_op(rng, cls, form, d, m, n, dump=False) -> Op:
    x, y = _point(rng, d), _point(rng, d)
    argv = ("eval", "--d", str(d), "--m", str(m), "--n", str(n),
            "--x", _fmt_point(x), "--y", _fmt_point(y), "--form", form)
    return Op(cls, "eval", argv, {"d": d, "m": m, "n": n, "x": x, "y": y}, dump=dump)


def _table_op(rng, cls, d, m, n, grid) -> Op:
    cells = len(grid_points(d, grid)) ** 2
    rows = sorted({0, cells - 1, *rng.sample(range(cells), 24)})
    argv = ("table", "--d", str(d), "--m", str(m), "--n", str(n), "--grid", str(grid))
    return Op(cls, "table", argv, {"d": d, "m": m, "n": n, "grid": grid, "rows": rows})


def _polynomial(rng, d: int, degree: int, n_terms: int) -> Dict[Tuple[int, ...], Fraction]:
    """n_terms distinct monomials of total degree <= degree, one of them exactly degree."""
    def exps(total):
        cuts = sorted(rng.randint(0, total) for _ in range(d))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        return tuple(parts[1:])  # drop the slack slot: cartesian exponents

    terms: Dict[Tuple[int, ...], Fraction] = {}
    while len(terms) < n_terms:
        e = exps(degree) if not terms else exps(rng.randint(0, degree))
        if (len(terms) == 0 and sum(e) != degree) or e in terms:
            continue
        terms[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, DENOMINATOR - 1), DENOMINATOR)
    return terms


def _poly_text(terms) -> str:
    out = []
    for e, c in terms.items():
        factors = [str(abs(c))] + [f"x{i + 1}^{k}" for i, k in enumerate(e) if k]
        out.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(out).lstrip("+ ")


def _apply_op(rng, cls, d, degrees, poly_degree) -> Op:
    terms = _polynomial(rng, d, poly_degree, 5)
    argv = ("apply", "--d", str(d), "--degrees", ",".join(map(str, degrees)),
            "--poly", _poly_text(terms))
    return Op(cls, "apply", argv, {"d": d, "degrees": degrees, "terms": terms})


def build_stream(workload: str, seed: int) -> List[Op]:
    """One pass of `workload`: every request class once, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify_default":
        # bdk's own seed picks the lemma checks' points, whose denominators
        # (1 to 97) set their cost: seeds differ by up to 25 % in work.  So
        # every seed runs `bdk verify` as the paper's reproduction does, at
        # bdk's default seed.
        return [Op("verify", "verify", ("verify",), {}, timeout_s=120.0)]
    if workload == "cli_kernels":
        ops = [_eval_op(rng, f"eval_{form}_d{d}", form, d, mn, mn)
               for form in ("closed", "definition") for d, mn in ((1, 20), (2, 8), (3, 6))]
        ops += [_eval_op(rng, "eval_univariate_d1", "univariate", 1, 20, 20),
                _eval_op(rng, "eval_legendre_d1", "legendre", 1, 12, 12),
                _eval_op(rng, "eval_dump_d2", "closed", 2, 8, 8, dump=True),
                _table_op(rng, "table_d1", 1, 8, 8, 21),
                _table_op(rng, "table_d2", 2, 3, 3, 9)]
    elif workload == "cli_apply":
        ops = [_apply_op(rng, "apply_d1_40_30_20", 1, (40, 30, 20), 9),
               _apply_op(rng, "apply_d2_10", 2, (10,), 5),
               _apply_op(rng, "apply_d2_8_6", 2, (8, 6), 5),
               _apply_op(rng, "apply_d2_10_8_6", 2, (10, 8, 6), 5),
               _apply_op(rng, "apply_d3_8", 3, (8,), 4),
               _apply_op(rng, "apply_d3_6_5", 3, (6, 5), 4),
               Op("coeffs_d3", "coeffs", ("coeffs", "--d", "3", "--m", "20", "--n", "20"),
                  {"d": 3, "m": 20, "n": 20})]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
