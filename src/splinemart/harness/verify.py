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

    # (2) representation validity on non-zone cells, exhaustive: on every
    # ramp atom of every pattern f is a convex combination of its child
    # value and the parent value
    cells, fault = _check_reps(seq)
    rep.add(
        "convex representations (2)",
        fault is None,
        f"exhaustive over {cells} cells",
        "lambda in [0, 1], other slots 0",
        "exact",
        fault or "driver property (2)",
    )

    # recorded trace inequalities (stopping runs and moment corrections)
    rep.entries.append(
        trace_check([(n, name) for n, pat in seq.all_patterns() for name in pat.failed_checks()])
    )
    return rep


def _check_reps(seq: SequenceResult) -> tuple[int, str | None]:
    """Every ramp cell of every stopping pattern, from its run table: the
    ramp cells counted, and where the first fault lies (None if none).

    On a ramp atom of f_m the value is xbar + lambda (x_m - xbar), or the
    mix value in place of x_m for m = M. Every run holding one of the k
    basis indices that touch the atom must carry a coefficient in [0, 1] on
    that slot, ("d", m) or ("dmix",), and 0 on every other slot; by
    partition of unity lambda then lies in [0, 1] on the whole atom. The
    runs of one basis group are disjoint, so the stopping pattern must hold
    exactly one group, on the space of its ramps.
    """
    count = 0
    for n, pat in seq.all_patterns():
        inner = pat.inner  # ramps are cells of the inner stopping pattern only
        space = inner.space
        groups = inner.run_table
        if len(groups) != 1 or groups[0].space != space:
            return count, f"step {n}: the stopping terms are not one basis group on the ramp space"
        (group,) = groups
        for cell in inner.cells:
            if cell.kind != "ramp":
                continue
            count += 1
            step, off_grid = divmod(space.num_atoms, cell.lo.denominator)
            a = cell.lo.numerator * step  # its atom index
            own = ("dmix",) if cell.m == inner.M else ("d", cell.m)
            fault = "off the grid of its space" if off_grid else None
            for slots in () if fault else group.slots_between(a, a + space.k - 1):
                for key, c in slots:
                    if not (0 <= c <= group.den if key == own else c == 0):
                        fault = f"a run touching it carries {Fraction(c, group.den)} on {key}"
                        break
                if fault:
                    break
            if fault:
                return count, f"step {n}, ramp cell [{cell.lo}, {cell.hi}) of f_{cell.m + 1}: {fault}"
    return count, None
