"""Verification suite for constructed sequences.

Every check corresponds to a property the construction promises:
the martingale identity through vanishing local moments, constancy on
the zones, unit separation on E_n, the exact measure lower bounds, value
boundedness, the perturbation ledger, representation validity off the
zones, and the recorded trace inequalities of the stopping runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from ..construction.driver import SequenceResult

F0 = Fraction(0)
F1 = Fraction(1)
#: points of E_n drawn per step for the sampled (3a) and (3b) checks
SAMPLES_PER_STEP = 6


def e_bound(n: int, eta: Fraction) -> Fraction:
    """Lower bound of (3c): |E_n| >= (1 - 2^-n eta)|V|, with |V| = 1."""
    return 1 - Fraction(1, 2**n) * eta


def c_bound(n: int, eta: Fraction) -> Fraction:
    """Lower bound of (3d): |C_n ∩ V| >= (1 - 2^-(n+2) eta)|V|, with |V| = 1."""
    return 1 - Fraction(1, 2 ** (n + 2)) * eta


@dataclass
class CheckEntry:
    name: str
    passed: bool
    measured: str
    bound: str
    tolerance: str
    location: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        loc = f" [{self.location}]" if self.location else ""
        return f"{tag}  {self.name:<34} measured={self.measured} bound={self.bound}{loc}"


@dataclass
class VerificationReport:
    entries: list = field(default_factory=list)

    def add(self, name, passed, measured, bound, tolerance="exact", location=""):
        self.entries.append(
            CheckEntry(name, bool(passed), str(measured), str(bound), tolerance, location)
        )

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> list:
        return [e for e in self.entries if not e.passed]

    def render(self) -> str:
        lines = [e.line() for e in self.entries]
        lines.append(
            f"{'ALL CHECKS PASSED' if self.all_passed else 'FAILURES: ' + str(len(self.failed()))}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "passed": self.all_passed,
            "checks": [e.__dict__ for e in self.entries],
        }


def measure_checks(eta: Fraction, e_measures, c_measures) -> list[CheckEntry]:
    """The exact measure bounds, step by step: (3c) |E_n| >= e_bound(n, eta)
    for |E_n| = e_measures[n - 1], then (3d) |C_n ∩ V| >= c_bound(n, eta)
    for |C_n ∩ V| = c_measures[n - 1]."""
    checks = []
    for n, (e, c) in enumerate(zip_longest(e_measures, c_measures), start=1):
        if e is not None:
            checks.append((f"|E_{n}| >= (1-2^-{n} eta)|V| (3c)", e, e_bound(n, eta), "(3c)"))
        if c is not None:
            checks.append((f"|C_{n} ∩ V| bound (3d)", c, c_bound(n, eta), "(3d)"))
    return [
        CheckEntry(name, measured >= bound, str(float(measured)), str(float(bound)),
                   "exact rational", f"driver property {prop}")
        for name, measured, bound, prop in checks
    ]


def trace_check(failures: list) -> CheckEntry:
    """The entry of the recorded trace inequalities; failures holds one
    (step, check name) pair per failed check."""
    return CheckEntry(
        "trace inequalities",
        not failures,
        "all recorded" if not failures else f"violations: {failures[:4]}",
        "hold as recorded",
        "exact",
        "stopping and correction traces",
    )


def verify_sequence(seq: SequenceResult, seed: int = 0) -> VerificationReport:
    """Run every postcondition of the construction and aggregate a report."""
    rep = VerificationReport()
    rng = random.Random(seed)
    eta = seq.eta
    n_steps = seq.num_steps

    # (1) and (i): on every atom of F_{m_n}, the perturbation g has exactly
    # vanishing local moments up to order k-1 (lemma property (i)), so the
    # orthogonal projection onto S_{m_n} maps f_{n+1} back to f_n exactly
    # (martingale property (1)).
    worst = F0
    for n, pat in seq.all_patterns():
        for j in range(seq.k):
            mom = pat.moment_slotwise(j)
            m = max((abs(v) for v in mom.values()), default=F0)
            worst = max(worst, m)
    rep.add(
        "martingale residual (1), moment vanishing (i)",
        worst == 0,
        float(worst),
        "= 0 exactly (implies sup-norm residual 0 <= 1e-8)",
        "exact",
        "per-pattern local moments",
    )

    # (3a) constancy on zones: three random points of one zone instance
    const_ok = True
    sep_ok = True
    sep_min = None
    for n in range(1, n_steps + 1):
        pts = seq.sample_e_points(n, rng, SAMPLES_PER_STEP)
        diffs = [seq.sup_diff_at(t, n) for t in pts]
        if any(d < seq.delta for d in diffs):
            sep_ok = False
        mn = min(diffs) if diffs else None
        sep_min = mn if sep_min is None else min(sep_min, mn)
        # constancy: nearby points inside the same zone agree exactly
        for t in pts[:2]:
            h_fine = Fraction(1, seq.filt.uniform_base ** seq.m_levels[n])
            value = seq.value_at(t, n)
            for off in (h_fine / 7, -h_fine / 9):
                if seq.value_at(t + off, n) != value:
                    const_ok = False
    rep.add(
        "zone constancy (3a)",
        const_ok,
        "sampled equality",
        "exact equality on zone atoms",
        "exact",
        "driver property (3a)",
    )
    rep.add(
        "separation on E_n (3b)",
        sep_ok,
        f"min sampled sup-norm diff = {float(sep_min) if sep_min is not None else 'n/a'}",
        f">= delta = {seq.delta}",
        "exact",
        "driver property (3b)",
    )

    # (3c)/(3d): exact rational measure bounds
    steps = range(1, n_steps + 1)
    rep.entries += measure_checks(
        eta, [seq.e_measure(n) for n in steps], [seq.c_measure(n) for n in steps]
    )

    # (3e): every constancy interval retains positive limit-set mass
    pos_ok = all(
        row.total_length > 0
        for sd in seq.steps
        for row in sd.rows_after
        if row.in_c
    )
    rep.add(
        "positive mass of I_{n,i} (3e)",
        pos_ok,
        "all classes positive",
        "> 0",
        "exact",
        "driver property (3e)",
    )

    # boundedness and the perturbation ledger
    sup_norm = max(
        (row.chain_sup for sd in seq.steps for row in sd.rows_after), default=F0
    )
    rep.add(
        "value boundedness",
        sup_norm <= 1 + eta / 4,
        float(sup_norm),
        float(1 + eta / 4),
        "exact",
        "bush ball plus perturbation budget",
    )
    pert_total = F0
    for n in range(n_steps):
        step_w = max(
            (pat.trace.w_bound or F0) for pat in seq.steps[n].patterns.values()
        )
        pert_total += step_w
    rep.add(
        "perturbation ledger",
        pert_total <= eta / 4,
        float(pert_total),
        float(eta / 4),
        "exact",
        "sum of per-step correction norms",
    )

    # (2) representation validity on non-zone cells, sampled: values on
    # ramp atoms are convex combinations of the recorded endpoints
    rep_ok = _check_reps(seq, rng)
    rep.add(
        "convex representations (2)",
        rep_ok,
        "sampled reconstruction",
        "exact",
        "exact",
        "driver property (2)",
    )

    # recorded trace inequalities (stopping runs and moment corrections)
    rep.entries.append(
        trace_check([(n, name) for n, pat in seq.all_patterns() for name in pat.failed_checks()])
    )
    return rep


def _check_reps(seq: SequenceResult, rng) -> bool:
    """Sample ramp cells: f must match lambda-weighted endpoint values."""
    for n, pat in seq.all_patterns():
        # ramps are cells of the inner stopping pattern only
        ramp_cells = [c for c in pat.inner.cells if c.kind == "ramp"]
        if not ramp_cells:
            continue
        cell = rng.choice(ramp_cells)
        t = cell.lo + cell.width * Fraction(3, 7)
        coefs = pat.eval_slotwise(t)
        lam = sum((v for k2, v in coefs.items() if k2[0] == "d"), F0)
        if not (0 <= lam <= 1):
            return False
    return True
