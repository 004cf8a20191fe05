"""Verification suite for constructed sequences.

Every check corresponds to a property the construction promises:
the martingale identity through vanishing local moments, constancy on
the zones, unit separation on E_n, the exact measure lower bounds, value
boundedness, the perturbation ledger, representation validity off the
zones, and the recorded trace inequalities of the stopping runs.

Check (1) reads each pattern's run table, the merged runs that point
evaluation reads, and takes every slot's moments from a closed form that
shares no code with the build's moment arithmetic (`power_sum`,
`moment_weights`, `cardinal_moment`, the spline `moment` methods). With
S(v) = Σ_{i>=0} B_k(v - i), the run j0..j1 sums to S(u - α) - S(u - β) in
grid units u = t / h, where α = j0 - k + 1 and β = j1 - k + 2. S is 1 past
k - 1, so D = 1[v >= 0] - S lives on [0, k - 1], and its moments d_q come
from the truncated-power form of B_k, not from the span polynomials. A
run's moment about a grid origin s is then h**(r+1) (P(β - s) - P(α - s))
with P(x) = x**(r+1)/(r+1) + Σ_q C(r, q) d_q x**(r-q). A periodic group
sums its instances through the Taylor coefficients of P and the power sums
Σ_{ℓ<n} ℓ**i = Σ_j S2(i, j) j! C(n, j + 1), with S2 the Stirling numbers of
the second kind. Every slot sums integer numerators over one known
denominator; the zero test needs no gcd.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, lcm, prod

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
    # (martingale property (1)); exhaustive, from the run tables
    patterns, fault = _check_moments(seq)
    rep.add(
        "martingale residual (1), moment vanishing (i)",
        fault is None,
        f"exhaustive over {patterns} patterns, orders 0..{seq.k - 1}",
        "every slot moment = 0 exactly",
        "exact",
        fault or "per-pattern local moments",
    )

    # (3a) constancy on zones: SAMPLES_PER_STEP points of E_n per step; at
    # the first two, points a fraction of a fine atom away read the same value
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
    pert_total = sum((max(p.trace.w_bound for p in sd.patterns.values()) for sd in seq.steps), F0)
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
            a = cell.lo  # its atom index: a Step-1 cell counts atoms of its space
            own = ("dmix",) if cell.m == inner.M else ("d", cell.m)
            fault = None
            for slots in group.slots_between(a, a + space.k - 1):
                for key, c in slots:
                    if not (0 <= c <= group.den if key == own else c == 0):
                        fault = f"a run touching it carries {Fraction(c, group.den)} on {key}"
                        break
                if fault:
                    break
            if fault:
                lo, hi = (Fraction(x, space.num_atoms) for x in (cell.lo, cell.hi))
                return count, f"step {n}, ramp cell [{lo}, {hi}) of f_{cell.m + 1}: {fault}"
    return count, None


def _check_moments(seq: SequenceResult) -> tuple[int, str | None]:
    """Check (1) on every pattern: the patterns checked, and where the first
    non-zero moment lies (None if none): its step, slot and order."""
    count = 0
    for n, pat in seq.all_patterns():
        count += 1
        for r in range(seq.k):
            nums, den = run_table_moments(pat.run_table, pat.interval.lo, r)
            for key, num in nums.items():
                if num:
                    moment = _short(Fraction(num, den))
                    return count, f"step {n}, slot {key}, order {r}: moment {moment}"
    return count, None


def _short(v: Fraction) -> str:
    """v in a few digits, or as a power of two where a float cannot hold it."""
    e = abs(v.numerator).bit_length() - v.denominator.bit_length()
    return f"{float(v):.6g}" if -1000 < e < 1000 else f"{'-' if v < 0 else ''}~2^{e}"


def run_table_moments(groups, origin: Fraction, r: int) -> tuple[dict, int]:
    """∫ (t - origin)**r g(t) dt per slot for the terms of a run table, as
    integer numerators over one denominator; origin must sit on the grid
    of every group.

    Group g gives numerators over den_g L_r p**(K_g (r+1)) (`_group_moments`);
    they go over L_r p**(K (r+1)) Π den_g, with K the deepest level, by
    integer multiplications alone.
    """
    deepest = max(g.space.level for g in groups)
    dens = prod(g.den for g in groups)
    out: dict = {}
    for g in groups:
        sp = g.space
        s, rem = divmod(origin.numerator * sp.num_atoms, origin.denominator)
        if rem:
            raise ValueError(f"moment origin {origin} is off the level-{sp.level} grid")
        scale = sp.p ** ((deepest - sp.level) * (r + 1)) * (dens // g.den)
        for key, n in _group_moments(g, r, s).items():
            out[key] = out.get(key, 0) + n * scale
    k, p = groups[0].space.k, groups[0].space.p
    return out, _antiderivative(k, r)[1] * p ** (deepest * (r + 1)) * dens


def _group_moments(group, r: int, s: int) -> dict:
    """Per slot, the numerator N of ∫ (t - s h)**r (the group's terms) dt =
    N / (den L_r p**(K (r+1))), summed over the group's instances.

    In grid units x = u - s, run j0..j1 of instance ℓ spans α + ℓσ .. β + ℓσ
    with σ the index shift, and contributes P(β + ℓσ) - P(α + ℓσ). With
    P(x + y) = Σ_m P_m(x) y**m for the Taylor coefficients P_m of P, the
    instances sum to Σ_m T_m σ**m (P_m(β) - P_m(α)), T_m = Σ_{ℓ<n} ℓ**m.
    """
    k = group.space.k
    taylor, _ = _antiderivative(k, r)
    # T_m σ**m with P_m; a single instance has T = 1, 0, 0, ...
    sums = _instance_sums(group.count, r + 1)
    terms = [(t * group.shift**m, poly) for m, (t, poly) in enumerate(zip(sums, taylor)) if t]
    alpha = group.origin - k + 1 - s
    out: dict = {}
    for j0, j1, slots in group.entries:
        a, b = alpha + j0, alpha + j1 + 1
        total = 0
        for w, poly in terms:
            hi = lo = 0
            for c in poly:  # Horner at b and at a
                hi, lo = hi * b + c, lo * a + c
            total += w * (hi - lo)
        if total:
            for key, c in slots:
                out[key] = out.get(key, 0) + c * total
    return out


@lru_cache(maxsize=64)
def _antiderivative(k: int, r: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The Taylor coefficients P_m, m = 0 .. r+1, of L_r P for
    P(x) = x**(r+1)/(r+1) + Σ_q C(r, q) d_q x**(r-q), as integer polynomials
    (highest power first), and L_r, the lcm of P's denominators."""
    coeffs = [comb(r, r - i) * _ramp_moment(k, r - i) for i in range(r + 1)]
    coeffs.append(Fraction(1, r + 1))  # ascending powers of x
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    taylor = tuple(
        tuple(comb(i, m) * ints[i] for i in range(r + 1, m - 1, -1)) for m in range(r + 2)
    )
    return taylor, den


@lru_cache(maxsize=64)
def _ramp_moment(k: int, q: int) -> Fraction:
    """d_q = ∫ v**q D(v) dv, with D = 1[v >= 0] - Σ_{i>=0} B_k(v - i).

    From the truncated-power form B_k(x) = Σ_i (-1)**i C(k, i)
    (x - i)_+**(k-1) / (k-1)!, the alternating binomial sums give
    Σ_{i>=0} B_k(v - i) = Σ_{c<=v} (-1)**c C(k-1, c) (v - c)**(k-1) / (k-1)!,
    which is 1 for v >= k - 1. So d_q = (k-1)**(q+1)/(q+1) minus, per c,
    the integral of v**q (v - c)**(k-1) over [c, k - 1]; with w = v - c that
    is Σ_e C(q, e) c**(q-e) (k-1-c)**(e+k) / (e+k).
    """
    total = Fraction((k - 1) ** (q + 1), q + 1)
    for c in range(k - 1):
        part = sum(
            Fraction(comb(q, e) * c ** (q - e) * (k - 1 - c) ** (e + k), e + k)
            for e in range(q + 1)
        )
        total -= (-1) ** c * comb(k - 1, c) * part / factorial(k - 1)
    return total


def _instance_sums(n: int, top: int) -> list[int]:
    """T_m = Σ_{ℓ<n} ℓ**m for m = 0 .. top, as Σ_j S2(m, j) j! C(n, j+1)."""
    binoms = [n]  # C(n, j + 1) for j = 0 .. top
    for j in range(1, top + 1):
        binoms.append(binoms[-1] * (n - j) // (j + 1))
    return [
        sum(s2 * factorial(j) * binoms[j] for j, s2 in enumerate(_stirling2(m)))
        for m in range(top + 1)
    ]


@lru_cache(maxsize=64)
def _stirling2(m: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S2(m, j), j = 0 .. m."""
    row = [1]  # m = 0
    for i in range(1, m + 1):
        row = [(j * row[j] if j < len(row) else 0) + (row[j - 1] if j else 0)
               for j in range(i + 1)]
    return tuple(row)
