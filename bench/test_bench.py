"""Tests of the benchmark itself: its oracle must reject wrong answers.

    python3 -m pytest -q bench/test_bench.py

Requests run for real, through the same spawn and judge code the
benchmark uses, against this checkout's `src`.
"""
import dataclasses
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracle
import run
import speed
import workloads
from workloads import Op


def _request(op: Op):
    return run.spawn(["run", *op.argv], op.timeout_s)


def test_oracle_kernel_value_matches_the_readme_example():
    assert oracle.twofold_kernel_value(1, 1, 1, (Fraction(0),), (Fraction(0),)) == Fraction(4, 3)


def test_tampered_eval_value_is_a_failed_op():
    op = workloads._eval_op(random.Random(3), "t", "definition", 2, 3, 3)
    out = _request(op)
    assert run.judge(op, out, None).failed == 0
    value = oracle.parse_exact(out.stdout.decode().splitlines()[0])
    tampered = dataclasses.replace(out, stdout=f"{value + Fraction(1, 10**9)}\n".encode())
    verdict = run.judge(op, tampered, None)
    assert (verdict.failed, verdict.digest) == (1, None)


def test_apply_image_with_a_wrong_integral_is_a_failed_op():
    op = workloads._apply_op(random.Random(4), "t", 2, (4, 3), 3)
    out = _request(op)
    assert run.judge(op, out, None).failed == 0
    image = json.loads(out.stdout)
    image["terms"][0]["coef"] = str(oracle.parse_exact(image["terms"][0]["coef"]) + 1)
    tampered = dataclasses.replace(out, stdout=json.dumps(image).encode())
    verdict = run.judge(op, tampered, None)
    assert verdict.failed == 1 and "integrates" in verdict.error


def test_corrupted_verify_run_fails_its_checks(tmp_path):
    op = Op("verify", "verify", ("verify", "--self-test-corrupt"), {}, timeout_s=120.0)
    result = run.run_pass([op], tmp_path, time.monotonic() + 150.0, trace=False)
    assert result.attempted == oracle.VERIFY_CHECKS
    assert 0 < result.failed <= oracle.VERIFY_CHECKS
    assert result.digests == [None]


def test_request_past_its_timeout_is_killed_and_fails(tmp_path):
    op = Op("verify", "verify", ("verify",), {}, timeout_s=0.5)
    start = time.monotonic()
    result = run.run_pass([op], tmp_path, start + 150.0, trace=False)
    assert time.monotonic() - start < 10.0
    assert result.failed == result.attempted == oracle.VERIFY_CHECKS
    assert "killed" in result.errors[0]


def test_tampered_dump_is_a_failed_op(tmp_path):
    op = workloads._eval_op(random.Random(5), "t", "closed", 2, 2, 2, dump=True)
    result = run.run_pass([op], tmp_path, time.monotonic() + 60.0, trace=False)
    assert result.failed == 0
    out = _request(dataclasses.replace(op, argv=op.argv + ("--dump-kernel", "-")))
    dump = json.loads(out.stdout.decode().splitlines()[1])
    dump["terms"][-1]["coef"] = str(oracle.parse_exact(dump["terms"][-1]["coef"]) * 2)
    assert oracle.check_dump(op.spec, json.dumps(dump).encode()) is not None


def test_checkout_without_bdk_cannot_be_measured(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(run.SetupError):
        run.measure_setup(time.monotonic() + 60.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_gives_the_same_request_classes(name):
    first = workloads.build_stream(name, 1)
    assert workloads.build_stream(name, 1) == first
    for seed in (2, 3, 977):
        assert Counter(op.cls for op in workloads.build_stream(name, seed)) == \
            Counter(op.cls for op in first)


def test_traced_counts_repeat_exactly(tmp_path):
    op = workloads._eval_op(random.Random(6), "t", "definition", 2, 3, 3)
    passes = [run.run_pass([op], tmp_path, time.monotonic() + 60.0, trace=True)
              for _ in range(2)]
    assert not passes[0].errors and passes[0].failed == 0
    assert passes[0].exact() == passes[1].exact()
    assert passes[0].layers["kernels.definition"][0] == 1
    assert passes[0].counts["kernels.definition.terms"] > 0


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(oracle.VERIFY_CHECKS) == 99
    for n in (20, 22, 56, 100, 4854):
        p = run.tail_percentile(n)
        assert n - (p * n + 99) // 100 >= 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_speedometer_scales_by_the_probes_beside_a_request(tmp_path):
    with speed.Speedometer(tmp_path) as meter:
        start = time.monotonic()
        time.sleep(0.3)
    k = meter.scale(start, 0.3)
    assert 0.1 < k < 10.0
    assert not list(tmp_path.iterdir())
    with pytest.raises(RuntimeError):
        meter.scale(start + 60.0, 1.0)
