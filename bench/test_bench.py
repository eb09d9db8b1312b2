"""The benchmark's own tests: tiny rounds of every workload, its checks and its tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import workloads  # noqa: I001  (first: it puts numrad's sources on the path)
import checks
import run
import tracing
from numrad import bounds, harness, linalg, radius

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_round_is_correct(name):
    wl = workloads.build(name, seed=3, tiny=True)
    res = run.measure(wl, seconds=1e-9)
    assert res["rounds"] == 1
    assert res["failed"] == 0
    assert res["problems"] == []


def test_checks_catch_a_wrong_radius():
    wl = workloads.build("radius-scan", seed=3, tiny=True)
    outputs = [op() for op in wl.ops]
    outputs[-1].value *= 1.01
    assert wl.check(outputs, None)


def test_checks_catch_a_wrong_verdict():
    wl = workloads.build("bounds-large", seed=3, tiny=True)
    records = [op() for op in wl.ops]
    records[0].status = "consistent"
    records[1].refinement_upper = -1.0
    problems = checks.check_records(records, harness.ALL_THEOREMS)
    assert any("status consistent" in p for p in problems)
    assert any("refinement_upper" in p for p in problems)
    problems = checks.check_records(records[1:], harness.ALL_THEOREMS)
    assert any(f"rule {records[0].theorem} has no completed trial" in p for p in problems)


def test_traced_round_covers_every_layer_and_uninstalls():
    before = (bounds.minimize_over_sphere, linalg.PsdMatrix.__dict__["from_matrix"], radius.numerical_radius)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = run.measure(workloads.build("verify-small", seed=3, tiny=True), 1e-9, tracer)
    finally:
        tracer.uninstall()
    after = (bounds.minimize_over_sphere, linalg.PsdMatrix.__dict__["from_matrix"], radius.numerical_radius)
    assert after == before
    layers = res["layers"]
    assert set(layers) == set(tracing.PER_LAYER)
    for name in ("radius.sphere_calls", "radius.pair_calls", "radius.nr_calls", "linalg.quad_calls",
                 "linalg.spectral_calls", "refine.bracket_calls", "harness.gen_calls",
                 "cli.report_bytes", "bounds.self_s", "harness.trial_self_s"):
        assert layers[name] > 0, name
    for rule in harness.ALL_THEOREMS:
        assert layers[f"bounds.rule_s.{rule}"] > 0, rule
    assert layers["radius.sphere_self_s"] < layers["radius.sphere_s"]
    assert tracer.first_round and all(span is not None for span in tracer.first_round)


_CSV = """
import sys, workloads
wl = workloads.build("verify-small", seed=int(sys.argv[1]), tiny=True)
sys.stdout.write(wl.finish([op() for op in wl.ops])[1])
"""


def _csv(seed: int) -> str:
    return subprocess.run([sys.executable, "-c", _CSV, str(seed)], cwd=HERE, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def test_same_seed_renders_identical_csv():
    first = _csv(5)
    assert first.startswith("theorem,trial,dim,")
    assert _csv(5) == first
    assert _csv(6) != first
