"""Workloads of the splinemart benchmark: seeded inputs, ops and the correctness gate.

An op is one user-level computation on fresh inputs derived from the
workload seed and the op id. ``census`` and ``deep`` build a divergent
sequence, verify it, emit its full JSON trace and answer point queries;
``float`` runs the binary64 layer only (L1 norm profile,
unconditionality ratio, maximal-function ratios and point queries).

Every op passes through the gate: an exact op needs
``verify_sequence(...).all_passed`` and, for the default seed, a digest of
its JSON blob, exact measures and exact query values equal to the recorded
reference. A float op must match its references at 1e-9 relative, and its
point queries must match ``scipy.interpolate.BSpline`` at every seed.
At the default seed every op id a worker can reach has a reference, and a
missing one fails the op.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from splinemart import construction, harness, projection
from splinemart.bspline import ScalarSpline
from splinemart.filtration import parse_filtration_spec
from splinemart.witness import bush_decompose

REFERENCES_FILE = Path(__file__).with_name("references.json")
DEFAULT_SEED = 0
# a worker process runs at most this many ops (warm-up included); those of
# slot c have op ids c * OPS_PER_SLOT + 0, 1, ..., and references.json holds
# the default-seed reference of each of them
OPS_PER_SLOT = 64
REL_TOL = 1e-9  # the acceptance suite's float tolerance

WORKLOADS = {
    "census": {
        "engine": "exact", "filtration": "dyadic", "k": 2, "steps": 5, "queries": 100,
    },
    "deep": {
        "engine": "exact", "filtration": "padic:3", "k": 4, "steps": 3, "queries": 100,
    },
    "float": {
        "engine": "float", "filtration": "dyadic",
        "profile_k": 3, "profile_levels": 8,
        "uncond_k": 2, "uncond_depth": 8, "uncond_p": 1.5, "uncond_trials": 200,
        "mart_k": 3, "mart_depth": 5, "mart_coords": 2, "doob_p": 2.0,
        "queries": 100,
    },
}

# eta of an exact op: a distinct rational of [2/5, 3/5] per op id of one run,
# all with denominator 10**4 so that ops do comparable big-rational work
ETA_GRID = [Fraction(a, 10**4) for a in range(4000, 6001) if math.gcd(a, 10) == 1]


@dataclass
class OpResult:
    op: int
    op_s: float             # sum of the phase times
    phases: dict            # phase name -> seconds, in order
    query_s: list           # seconds per point query
    problems: list          # gate failures; empty when the op is correct
    digest: str             # exact: sha256 of the outputs; float: the values
    values: dict = field(default_factory=dict)     # float ops: the outputs
    seq: object = field(default=None, repr=False)  # exact ops: the built sequence
    probe_s: list = field(default_factory=list)    # host probe before/between/after phases

    @property
    def ok(self) -> bool:
        return not self.problems


class PhaseClock:
    """Times the consecutive phases of an op. With a probe it runs the probe
    before the first phase and after every phase, outside the phase times,
    so that each phase is bracketed by two measurements of host speed."""

    def __init__(self, probe=None):
        self.probe = probe
        self.phases: dict = {}
        self.probes: list = [probe()] if probe else []
        self._t = time.perf_counter()

    def lap(self, name: str) -> None:
        self.phases[name] = time.perf_counter() - self._t
        if self.probe:
            self.probes.append(self.probe())
        self._t = time.perf_counter()

    def result(self, op, query_s, problems, digest, **extra) -> OpResult:
        return OpResult(op, sum(self.phases.values()), self.phases, query_s, problems, digest,
                        probe_s=self.probes, **extra)


def load_references() -> dict:
    with open(REFERENCES_FILE) as fh:
        return json.load(fh)


def op_rng(workload: str, seed: int, op: int, purpose: str) -> random.Random:
    # string seeds hash through sha512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{op}/{purpose}")


def exact_inputs(workload: str, seed: int, op: int) -> dict:
    params = WORKLOADS[workload]
    order = list(range(len(ETA_GRID)))
    random.Random(f"{workload}/{seed}/eta").shuffle(order)
    if op >= len(order):
        raise ValueError(f"op id {op} has no distinct eta")
    rng = op_rng(workload, seed, op, "queries")
    return {
        "eta": ETA_GRID[order[op]],
        "verify_seed": op_rng(workload, seed, op, "verify").randrange(1 << 30),
        "json_seed": op_rng(workload, seed, op, "json").randrange(1 << 30),
        "points": [Fraction(rng.randrange(10**6), 10**6) for _ in range(params["queries"])],
    }


def float_inputs(workload: str, seed: int, op: int) -> dict:
    params = WORKLOADS[workload]
    rng = op_rng(workload, seed, op, "float")
    return {
        "coeff_seed": rng.randrange(1 << 30),
        "uncond_seed": rng.randrange(1 << 30),
        "mart_seed": rng.randrange(1 << 30),
        "points": [rng.random() for _ in range(params["queries"])],
    }


def run_op(workload: str, seed: int, op: int, references: dict, probe=None) -> OpResult:
    """Run one op of `workload` and gate its outputs; `probe` measures host speed."""
    params = WORKLOADS[workload]
    gated = seed == references.get("seed")
    ref = references.get(workload, {}).get(str(op)) if gated else None
    if params["engine"] == "exact":
        inp = exact_inputs(workload, seed, op)
        result = _exact_op(params, op, inp, ref, PhaseClock(probe))
    else:
        inp = float_inputs(workload, seed, op)
        shadrin_ref = references.get(workload, {}).get("shadrin_profile")
        result = _float_op(params, op, inp, ref, shadrin_ref, PhaseClock(probe))
    if gated and ref is None:
        result.problems.append(f"no reference for op id {op}")
    return result


def _exact_op(params: dict, op: int, inp: dict, ref, clock: PhaseClock) -> OpResult:
    filt = parse_filtration_spec(params["filtration"])
    n = params["steps"]
    seq = construction.build_sequence(filt, params["k"], inp["eta"], n)
    clock.lap("build_s")
    report = harness.verify_sequence(seq, seed=inp["verify_seed"])
    clock.lap("verify_s")
    blob = seq.to_json(trace="full", seed=inp["json_seed"])
    clock.lap("to_json_s")
    values, query_s = [], []
    for t in inp["points"]:
        q0 = time.perf_counter()
        values.append(seq.value_at(t, n))
        query_s.append(time.perf_counter() - q0)
    clock.lap("queries_s")

    payload = {
        "blob": blob,
        "E": [str(seq.e_measure(j)) for j in range(1, n + 1)],
        "C": [str(seq.c_measure(j)) for j in range(n + 1)],
        "queries": [
            [str(t), [[c, str(v)] for c, v in sorted(x.items())]]
            for t, x in zip(inp["points"], values)
        ],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    problems = [f"verify: {e.name}" for e in report.failed()]
    if ref is not None and digest != ref["digest"]:
        problems.append("digest differs from the reference")
    return clock.result(op, query_s, problems, digest, seq=seq)


def _float_op(params: dict, op: int, inp: dict, ref, shadrin_ref, clock: PhaseClock) -> OpResult:
    filt = parse_filtration_spec(params["filtration"])
    profile = harness.shadrin_profile(filt, params["profile_k"], params["profile_levels"])
    clock.lap("constants_s")
    ctx = projection.ProjectionContext(filt, params["uncond_k"])
    kv = ctx.knot_vector(params["uncond_depth"])
    coeffs = np.random.default_rng(inp["coeff_seed"]).uniform(-1.0, 1.0, kv.dim)
    uncond = harness.unconditionality_ratio(
        ctx, ScalarSpline(kv, coeffs), params["uncond_p"], params["uncond_trials"],
        seed=inp["uncond_seed"],
    )
    clock.lap("uncond_s")
    mart = harness.random_martingale(
        filt, params["mart_k"], params["mart_depth"],
        np.random.default_rng(inp["mart_seed"]), coords=params["mart_coords"],
    )
    doob = harness.doob_ratio(mart, params["doob_p"])
    weak = harness.weak_type_ratio(mart)
    clock.lap("maximal_s")
    # a query is the martingale's path at t: f_n(t) for every level n, the
    # float counterpart of value_at, which walks every step of the sequence
    values, query_s = [], []
    for t in inp["points"]:
        q0 = time.perf_counter()
        values.append([f.eval(t) for f in mart])
        query_s.append(time.perf_counter() - q0)
    clock.lap("queries_s")

    outputs = {"uncond": uncond, "doob": doob, "weak": weak}
    problems = []
    if shadrin_ref is not None:
        got = [[lvl, dim, norm] for lvl, dim, norm in profile]
        if [r[:2] for r in got] != [r[:2] for r in shadrin_ref] or not all(
            _close(g[2], r[2]) for g, r in zip(got, shadrin_ref)
        ):
            problems.append("shadrin_profile differs from the reference")
    if ref is not None:
        problems += [f"{key} differs from the reference" for key in outputs if not _close(outputs[key], ref[key])]
    if not all(math.isfinite(v) and v > 0 for v in outputs.values()):
        problems.append("non-finite or non-positive ratio")
    if doob < 1 - 1e-12:
        problems.append("doob ratio below 1")
    for level, f in enumerate(mart):
        problems += _check_queries(f, inp["points"], [path[level] for path in values])
    digest = json.dumps({k: repr(v) for k, v in outputs.items()}, sort_keys=True)
    outputs["shadrin_profile"] = [list(row) for row in profile]
    return clock.result(op, query_s, problems, digest, values=outputs)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _check_queries(spline, points, values) -> list:
    """Point values against scipy's independent B-spline evaluation."""
    # imported here: splinemart never loads scipy.interpolate, so the exact
    # workloads' set-up and memory must not include it
    from scipy.interpolate import BSpline

    kv = spline.kv
    knots = np.array([float(t) for t in kv.knots])
    bad = 0
    for coord, coeffs in spline.components.items():
        oracle = BSpline(knots, coeffs, kv.k - 1, extrapolate=False)(np.array(points))
        bad += sum(not _close(v[coord], o) for v, o in zip(values, oracle))
    return [f"{bad} point queries differ from scipy"] if bad else []


def construction_stats(seq) -> dict:
    """Census counters of a built sequence (run with wrappers removed)."""
    rows = seq.final_rows
    signatures = set()
    for r in rows:
        profile = pert = None
        if r.kind == "const":
            profile = tuple(w for w, _ in bush_decompose(r.rep_value, 1, target_count=2))
            pert = r.rep_value.pert.sup_norm
        signatures.add((r.kind, r.cell_kind, profile, r.in_c, r.in_e, r.norm_bound, r.chain_sup, pert))
    return {
        "construction.rows": len(rows),
        "construction.signatures": len(signatures),
        "construction.rows_per_signature": len(rows) / len(signatures),
        "construction.patterns": sum(len(sd.patterns) for sd in seq.steps),
        "construction.max_level": seq.m_levels[-1],
        "construction.max_den_bits": max(r.total_length.denominator.bit_length() for r in rows),
    }
