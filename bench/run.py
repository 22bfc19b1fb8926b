#!/usr/bin/env python3
"""The bdk benchmark: `bdk verify` and cold CLI request streams.

    python3 bench/run.py                      every workload, untraced then traced
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every request runs as a user runs it: a fresh interpreter per request,
`bdk` imported from this checkout's `src`, one request in flight at a
time (a closed loop with one client).  Each output is checked outside the
timed region by the stdlib-only reference in oracle.py; a wrong answer,
a non-zero exit or a timeout counts as a failed operation.  With
--trace 1 the requests run under the span recorder of tracer.py and the
per-layer metrics are printed instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when every output was right and deterministic, 1 when
not, and 2 when the checkout holds no bdk to measure.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import oracle
import speed
import tracer
from workloads import WORKLOADS, Op, build_stream, passes_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11       # set-up is timed this many times per run; the median is reported
TRACED_PASSES = 2       # traced passes per traced run; their exact counts must agree
RUN_DEADLINE_S = 150.0  # requests not started by then count as failed
NPROC = len(os.sched_getaffinity(0))  # before main() pins the benchmark to one CPU

END_TO_END = {"wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in tracer.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "polynomials.basis.hit_ratio": "1",
    **{name: "bit" if name.endswith("bits_max") else "count" for name in tracer.COUNTS},
    "cli.startup_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot be measured at all; no result is printed."""


@dataclass
class Outcome:
    """One finished (or killed) request process."""

    start: float      # CLOCK_MONOTONIC at spawn
    latency_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: Optional[int]  # None when the request was killed at its timeout
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Timing:
    """The times of one request, as measured."""

    start: float
    wall_s: float
    cpu_s: float
    op_ms: List[float]  # latency of each operation the request stands for


@dataclass
class Pass:
    """One pass over a workload's stream."""

    attempted: int = 0
    failed: int = 0
    timings: List[Timing] = field(default_factory=list)
    digests: List[Optional[str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    maxrss_kb: int = 0
    layers: Dict[str, list] = field(default_factory=dict)  # layer -> [calls, self_s]
    counts: Dict[str, int] = field(default_factory=dict)
    startup_s: float = 0.0

    @property
    def raw_wall_s(self) -> float:
        return sum(t.wall_s for t in self.timings)

    def scaled(self, meter: speed.Speedometer):
        """(wall_s, cpu_s, operation latencies in ms) in nominal seconds."""
        wall = cpu = 0.0
        latencies = []
        for t in self.timings:
            k = meter.scale(t.start, t.wall_s)
            wall += t.wall_s * k
            cpu += t.cpu_s * k
            latencies += [x * k for x in t.op_ms]
        return wall, cpu, latencies

    def exact(self):
        """Everything a traced pass counts exactly."""
        return {k: v[0] for k, v in self.layers.items()}, self.counts


def child_env() -> Dict[str, str]:
    """Everything a request process sees: no inherited Python or bdk settings."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0"}


def spawn(argv: List[str], timeout_s: float) -> Outcome:
    """Run one process to completion, timed from spawn to exit, with its rusage."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), *argv], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = start + timeout_s - time.monotonic()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    latency = time.monotonic() - start
    return Outcome(start, latency, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   None if killed else proc.returncode,
                   b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]))


def operations(op: Op) -> int:
    """Operations one request stands for: each identity check of `bdk verify`."""
    return oracle.VERIFY_CHECKS if op.kind == "verify" else 1


@dataclass
class Verdict:
    """What the oracle made of one request."""

    attempted: int
    failed: int
    error: Optional[str]
    digest: Optional[str]  # of the checked output; None when it was wrong
    latencies_ms: List[float]
    bytes_out: int         # stdout plus files written, less any timing fields


def judge(op: Op, out: Outcome, dump: Optional[bytes]) -> Verdict:
    if out.exit_code is None:
        return Verdict(operations(op), operations(op), f"{op.cls}: killed at its timeout",
                       None, [], 0)
    if op.kind == "verify":
        failed, error, latencies, body = oracle.check_verify(out.stdout, out.exit_code)
        if body is None:
            return Verdict(oracle.VERIFY_CHECKS, failed, f"verify: {error}", None, [], 0)
        text = json.dumps(body, sort_keys=True, indent=2).encode()
        return Verdict(oracle.VERIFY_CHECKS, failed, error and f"verify: {error}",
                       None if error else hashlib.sha256(text).hexdigest(), latencies,
                       len(text) + 1)
    if out.exit_code != 0:
        error = f"exit {out.exit_code}: {out.stderr.decode(errors='replace').strip()[-200:]}"
    else:
        error = {"eval": oracle.check_eval, "table": oracle.check_table,
                 "apply": oracle.check_apply, "coeffs": oracle.check_coeffs}[op.kind](
                     op.spec, out.stdout)
        if error is None and op.dump:
            error = oracle.check_dump(op.spec, dump or b"")
    digest = hashlib.sha256(out.stdout + b"\0" + (dump or b"")).hexdigest()
    return Verdict(1, int(error is not None), error and f"{op.cls}: {error}",
                   None if error else digest, [out.latency_s * 1000.0],
                   len(out.stdout) + len(dump or b""))


def run_pass(stream: List[Op], work: Path, deadline: float, trace: bool) -> Pass:
    result = Pass()
    dump_path = work / "kernel.json"
    trace_path = work / "trace.json"
    for op in stream:
        argv = list(op.argv)
        if op.dump:
            argv += ["--dump-kernel", str(dump_path)]
        left = deadline - time.monotonic()
        if left <= 0:
            result.attempted += operations(op)
            result.failed += operations(op)
            result.digests.append(None)
            result.errors.append(f"{op.cls}: not started, run deadline reached")
            continue
        if trace:
            out = spawn(["trace", repr(time.monotonic()), str(trace_path), *argv],
                        min(op.timeout_s, left))
        else:
            out = spawn(["run", *argv], min(op.timeout_s, left))
        dump = dump_path.read_bytes() if op.dump and dump_path.exists() else None
        dump_path.unlink(missing_ok=True)
        verdict = judge(op, out, dump)
        result.attempted += verdict.attempted
        result.failed += verdict.failed
        result.digests.append(verdict.digest)
        result.timings.append(Timing(out.start, out.latency_s, out.cpu_s, verdict.latencies_ms))
        if verdict.error:
            result.errors.append(verdict.error)
        result.maxrss_kb = max(result.maxrss_kb, out.maxrss_kb)
        if trace:
            _add_trace(result, trace_path, verdict.bytes_out, op)
    return result


def _add_trace(result: Pass, path: Path, bytes_out: int, op: Op) -> None:
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
    except (OSError, ValueError) as exc:
        result.errors.append(f"{op.cls}: no trace summary ({exc})")
        return
    for layer, (calls, self_s) in summary["layers"].items():
        acc = result.layers.setdefault(layer, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
    counts = result.counts
    for name, value in summary["counts"].items():
        counts[name] = max(counts.get(name, 0), value) if name.endswith("_max") \
            else counts.get(name, 0) + value
    for name, value in (("basis_hits", summary["basis_hits"]),
                        ("basis_misses", summary["basis_misses"]), ("cli.bytes_out", bytes_out)):
        counts[name] = counts.get(name, 0) + value
    result.startup_s += summary["startup_s"]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max(50, min(99, math.floor(100 - 1000 / n))) if n > 10 else 50


def percentile(values: List[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure_setup(deadline: float) -> List[Outcome]:
    """Time from spawn until a fresh interpreter has imported bdk, SETUP_PROBES times."""
    probes = []
    for probe in range(SETUP_PROBES + 1):
        out = spawn(["setup"], min(10.0, deadline - time.monotonic()))
        if out.exit_code != 0:
            raise SetupError("cannot import bdk from " + str(SRC) + ": "
                             + out.stderr.decode(errors="replace").strip()[-300:])
        if probe:  # the first probe also writes the bytecode cache
            probes.append(out)
    return probes


def environment() -> str:
    return (f"python {platform.python_version()}, nproc {NPROC}, "
            f"git {_git_sha() or 'none'}, tree {_tree_digest()}, "
            f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bdk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """One run; returns (result line dict, stream output digests, report lines)."""
    lines = [f"# {name}: seed {seed}, seconds {seconds:g}, trace {int(trace)}",
             f"# env: {environment()}"]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    stream = build_stream(name, seed)
    errors = []
    classes = Counter(op.cls for op in stream)
    if classes != Counter(op.cls for op in build_stream(name, seed + 1)):
        errors.append("another seed gives a different count of request classes")

    with speed.Speedometer(work) as meter:
        setup = measure_setup(deadline)  # also warms the bytecode and page caches
        if trace:
            passes = [run_pass(stream, work, deadline, False)]
            passes += [run_pass(stream, work, deadline, True) for _ in range(TRACED_PASSES)]
        else:
            passes = [run_pass(stream, work, deadline, False)
                      for _ in range(passes_for(name, seconds))]
    for p in passes:
        errors += p.errors
    if any(p.digests != passes[0].digests for p in passes[1:]):
        errors.append("outputs differ between passes of one seed")
    if trace:
        for p in passes[2:]:
            differ = sorted(k for a, b in zip(passes[1].exact(), p.exact())
                            for k in set(a) | set(b) if a.get(k) != b.get(k))
            if differ:
                errors.append("exact counts differ between traced passes of one seed: "
                              + ", ".join(differ))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines.append(f"# {len(passes)} passes of {len(stream)} requests ({', '.join(sorted(classes))})"
                 f"; {time.monotonic() - start:.1f}s in all")
    lines.append("# pass wall_s as measured: " + " ".join(f"{p.raw_wall_s:.3f}" for p in passes))
    if trace:
        metrics = _layer_metrics(passes[0], passes[1:])
        notes = {k: "(per pass)" for k in metrics if k.endswith("_s")}
        notes["trace.overhead_s"] = "(traced minus untraced pass wall time)"
    else:
        scaled = [p.scaled(meter) for p in passes]
        lines.append("# pass wall_s in nominal seconds: "
                     + " ".join(f"{wall:.3f}" for wall, _, _ in scaled))
        latencies = [x for _, _, lat in scaled for x in lat] or [0.0]
        tail = tail_percentile(len(latencies))
        metrics = {
            "wall_s": statistics.median(wall for wall, _, _ in scaled),
            "cpu_s": statistics.median(cpu for _, cpu, _ in scaled),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": percentile(latencies, tail),
            "setup_s": statistics.median(out.latency_s * meter.scale(out.start, out.latency_s)
                                         for out in setup),
            "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024.0,
        }
        notes = {"wall_s": "(median pass)", "cpu_s": "(median pass)",
                 "op_p50_ms": f"(n={len(latencies)})",
                 "op_tail_ms": f"(p{tail}, n={len(latencies)})",
                 "setup_s": f"(median of {SETUP_PROBES})"}
    units = PER_LAYER if trace else END_TO_END
    for key, value in metrics.items():
        lines.append(f"{name} {key} = {value:.6g} {units[key]} {notes.get(key, '')}".rstrip())
    lines.append(f"{name} failed_ratio = {failed}/{attempted} = "
                 f"{failed / attempted if attempted else 1:.6g} (1)")
    lines += [f"# FAILED {e}" for e in errors[:20]]
    result = {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, passes[0].digests, lines


def _layer_metrics(plain: Pass, traced: List[Pass]) -> Dict[str, float]:
    def med(get):
        return statistics.median(get(p) for p in traced)

    first = traced[0]
    out: Dict[str, float] = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.calls"] = first.layers.get(layer, [0, 0.0])[0]
        out[f"{layer}.self_s"] = med(lambda p: p.layers.get(layer, [0, 0.0])[1])
    lookups = first.counts.get("basis_hits", 0) + first.counts.get("basis_misses", 0)
    out["polynomials.basis.hit_ratio"] = first.counts.get("basis_hits", 0) / lookups \
        if lookups else 0.0
    for name in tracer.COUNTS:
        out[name] = first.counts.get(name, 0)
    out["cli.startup_s"] = med(lambda p: p.startup_s)
    out["cli.bytes_out"] = first.counts.get("cli.bytes_out", 0)
    out["trace.overhead_s"] = med(lambda p: p.raw_wall_s) - plain.raw_wall_s
    return {k: out[k] for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOADS, default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="sets how many passes of the stream a run makes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="report per-layer metrics from a traced run (single workload)")
    args = parser.parse_args(argv)
    if not (SRC / "bdk" / "__init__.py").is_file():
        print(f"bench: no bdk package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    # One CPU for the client, its requests and the speed sampler, so that the
    # sampler sees the load the requests see (speed.py).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "all":
            result, _, lines = run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace), work)
        else:
            result, lines = run_all(args.seed, args.seconds, work)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, work: Path):
    """Every workload untraced, then traced; one result line for all of them."""
    lines, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        plain, digests, plain_lines = run_workload(name, seed, seconds, False, work)
        traced, traced_digests, traced_lines = run_workload(name, seed, seconds, True, work)
        lines += plain_lines + traced_lines
        if digests != traced_digests:
            lines.append(f"# FAILED {name}: the two runs of seed {seed} gave different outputs")
            total["correct"] = False
        for res in (plain, traced):
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return total, lines


if __name__ == "__main__":
    sys.exit(main())
