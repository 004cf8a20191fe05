"""Self-tests of the benchmark; they are not part of the package's suite.

    python3 -m pytest bench/test_bench.py -q

They run real ops (about a minute on a 2-core machine): a traced op of
every workload twice, one op at another seed, and ops whose outputs the
test corrupts to show that the gate catches it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import WORKERS  # noqa: E402
from splinemart import bspline, projection  # noqa: E402
from splinemart.construction import driver  # noqa: E402
from splinemart.harness import estimators  # noqa: E402

LAYERS = tracing.load_layers()
REFERENCES = workloads.load_references()
SEED = workloads.DEFAULT_SEED
OP = 1  # an op id with a recorded reference


def traced_op(workload: str, seed: int = SEED, op: int = OP):
    tracer = tracing.Tracer(workload, LAYERS)
    tracer.begin_op(op)
    tracer.install()
    try:
        result = workloads.run_op(workload, seed, op, REFERENCES)
    finally:
        tracer.uninstall()
    stats = workloads.construction_stats(result.seq) if result.seq is not None else {}
    counts = {name: m["calls"] for name, m in tracer.op_metrics(op).items()}
    return result, counts, stats


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def twice(request):
    return request.param, traced_op(request.param), traced_op(request.param)


def test_same_seed_repeats_counters_and_digests(twice):
    _workload, (first, counts1, stats1), (second, counts2, stats2) = twice
    assert first.ok and second.ok, first.problems + second.problems
    assert first.digest == second.digest
    assert counts1 == counts2
    assert stats1 == stats2


def test_traced_processes_repeat_counters_and_digests():
    def traced_process():
        cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", "deep",
               "--seed", "3", "--slot", "0", "--seconds", "0", "--trace", "1"]
        out = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                        timeout=120).stdout.splitlines()[-1])
        counts = {op: {n: m["calls"] for n, m in metrics.items()}
                  for op, metrics in out["trace"]["per_op"].items()}
        return counts, out["trace"]["stats"], [o["digest"] for o in out["ops"]]

    assert traced_process() == traced_process()


def test_wrapped_functions_are_called_where_the_map_says(twice):
    workload, (_result, counts, _stats), _ = twice
    for entry in LAYERS["targets"]:
        if workload in entry["workloads"]:
            assert counts.get(entry["name"], 0) > 0, entry["name"]


def test_wrappers_rebind_every_importing_namespace():
    originals = {
        (driver, "lemma_moments"): driver.lemma_moments,
        (driver, "bush_decompose"): driver.bush_decompose,
        (projection, "eval_basis"): projection.eval_basis,
        (estimators, "eval_basis"): estimators.eval_basis,
        (estimators, "refine_coeffs"): estimators.refine_coeffs,
        (bspline, "eval_basis"): bspline.eval_basis,
    }
    tracer = tracing.Tracer("census", LAYERS)
    tracer.install()
    try:
        for (module, name), original in originals.items():
            wrapped = getattr(module, name)
            assert wrapped is not original and wrapped.__wrapped__ is original, (module, name)
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original


def test_other_seed_changes_inputs_and_passes_the_gate():
    assert workloads.exact_inputs("deep", SEED, OP) != workloads.exact_inputs("deep", SEED + 7, OP)
    assert workloads.float_inputs("float", SEED, OP) != workloads.float_inputs("float", SEED + 7, OP)
    for workload in ("deep", "float"):
        result = workloads.run_op(workload, SEED + 7, OP, REFERENCES)
        assert result.ok, result.problems


def test_inputs_are_fresh_per_op():
    etas = [workloads.exact_inputs("census", SEED, op)["eta"] for op in range(WORKERS * workloads.OPS_PER_SLOT)]
    assert len(set(etas)) == len(etas)
    assert all(Fraction(2, 5) <= eta <= Fraction(3, 5) for eta in etas)


def test_references_cover_every_reachable_op():
    reachable = {str(op) for op in range(WORKERS * workloads.OPS_PER_SLOT)}
    for workload in workloads.WORKLOADS:
        assert reachable <= set(REFERENCES[workload]), workload


def test_gate_fails_an_op_without_a_reference():
    references = {**REFERENCES, "deep": {}}
    result = workloads.run_op("deep", SEED, OP, references)
    assert f"no reference for op id {OP}" in result.problems


def test_gate_catches_a_corrupted_exact_output(monkeypatch):
    e_measure = driver.SequenceResult.e_measure
    monkeypatch.setattr(
        driver.SequenceResult, "e_measure", lambda self, n: e_measure(self, n) + Fraction(1, 10**12)
    )
    result = workloads.run_op("deep", SEED, OP, REFERENCES)
    assert "digest differs from the reference" in result.problems


def test_gate_catches_a_failed_verify_check(monkeypatch):
    monkeypatch.setattr(driver.SequenceResult, "sup_diff_at", lambda self, t, n: Fraction(0))
    result = workloads.run_op("deep", SEED + 7, OP, REFERENCES)
    assert any(p.startswith("verify:") for p in result.problems)


def test_gate_catches_corrupted_float_outputs(monkeypatch):
    l1_norm = projection.ProjectionContext.l1_norm
    monkeypatch.setattr(
        projection.ProjectionContext, "l1_norm", lambda self, level: l1_norm(self, level) * (1 + 1e-7)
    )
    evaluate = projection.VectorSpline.eval
    monkeypatch.setattr(
        projection.VectorSpline, "eval",
        lambda self, t: {c: v + 1e-6 for c, v in evaluate(self, t).items()},
    )
    result = workloads.run_op("float", SEED, OP, REFERENCES)
    assert "shadrin_profile differs from the reference" in result.problems
    assert any("point queries differ from scipy" in p for p in result.problems)
