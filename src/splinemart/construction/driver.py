"""Inductive driver: the bounded, everywhere-separated martingale spline
sequence.

Starting from f_0 = bush root on [0, 1], each step applies the
vanishing-moment perturbation on every positive-mass atom whose current
value is constant, replacing it by a child value on zones that carry all
but an eps_n fraction of the atom's mass. Atoms whose value is not
constant (B-spline ramps and correction bumps, a set whose total measure
is kept below an explicit budget) are carried along unchanged.

Atoms are never enumerated. A census row is one congruence class of the
atoms of a step: atoms whose values agree up to relabelling the bush below
a common node prefix (`BushRep.shape`) and that share kind, cell kind,
membership of C_n and E_n, norm bound and norm history. The row keeps one
representative value and the summed length of its atoms. Congruent atoms
decompose alike, share one lemma pattern per decomposition profile and
spawn congruent children, so every count and measure is a product of exact
per-pattern data with the class lengths, and the census grows with the
number of classes, not of atoms.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from ..errors import ConstructionPreconditionError, DomainError, PreconditionError
from ..intervals import Interval, frac, long_decimals
from ..witness import BushRep, XVec, bush_decompose, mix_reps
from .core import BoundPattern, ConstructionContext, F0, F1, require_checks, slot_vectors
from .lemma import LemmaPattern, PeriodicFamily, lemma_moments

DELTA = F1  # bush separation
DEPTH_CAP = 12  # most steps build_sequence accepts


@dataclass
class ClassRow:
    """One congruence class of atoms at one step.

    The class holds every atom whose row fields agree with `key`: kind,
    cell kind, `in_c`, `in_e`, `norm_bound`, `chain_sup` and the shape of
    its value under bush relabelling. `rep_value` is the value of one of
    them and `total_length` the summed length of all. Zombie classes carry
    no value and key on shape None.
    """

    kind: str                      # 'const' | 'zombie'
    cell_kind: str                 # cell kind that created the class
    rep_value: Optional[BushRep]   # representative value (const classes)
    total_length: Fraction
    in_c: bool                     # class is part of C_step
    in_e: bool                     # part of C_step ∩ C_{step-1}
    norm_bound: Fraction = F0
    chain_sup: Fraction = F0       # max value norm along the class history

    @property
    def key(self) -> tuple:
        shape = None if self.rep_value is None else self.rep_value.shape()
        return (
            self.kind, self.cell_kind, self.in_c, self.in_e,
            self.norm_bound, self.chain_sup, shape,
        )


@dataclass
class StepData:
    """Step n: level m_n, eps_n, one lemma pattern per decomposition profile, and
    the exact masses of C_{n+1}, E_{n+1} and f_{n+1}'s constant classes (the rest is zombie)."""

    n: int
    m_level: int
    eps: Fraction
    patterns: dict                 # decomposition profile -> LemmaPattern
    c_mass: Fraction
    e_mass: Fraction
    const_mass: Fraction
    rows_after: list               # class census of f_{n+1}


class SequenceResult:
    """The constructed k-martingale spline sequence with audit access."""

    def __init__(self, filt, order, eta, steps, m_levels, rows):
        self.filt = filt
        self.k = order
        self.eta = frac(eta)
        self.delta = DELTA
        self.steps: list[StepData] = steps
        self.m_levels: list[int] = m_levels
        self.final_rows: list[ClassRow] = rows
        # (step, binding) -> (pattern, parts, bound pattern); queries walk
        # few distinct bindings per step, so this stays small
        self._bound: dict = {}

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    # -- measures -------------------------------------------------------------

    def c_measure(self, n: int) -> Fraction:
        """|C_n ∩ V| (|V| = 1 for uniform generators)."""
        if n == 0:
            return F1
        return self.steps[n - 1].c_mass

    def e_measure(self, n: int) -> Fraction:
        """|E_n| = |C_n ∩ C_{n-1} ∩ V| for n >= 1."""
        if n < 1:
            raise ValueError("E_n is defined for n >= 1")
        return self.steps[n - 1].e_mass

    # -- evaluation -------------------------------------------------------------

    def value_at(self, t, n: int) -> XVec:
        """f_n(t) as an exact witness vector (half-open atom convention)."""
        return self.step_values(t, n)[1]

    def sup_diff_at(self, t, n: int) -> Fraction:
        """||f_n(t) - f_{n-1}(t)|| in the sup norm, exact."""
        before, after = self.step_values(t, n)
        if n < 1:
            raise ValueError("n out of range")
        return after.sub(before).sup_norm

    def step_values(self, t, n: int) -> tuple[XVec, XVec]:
        """(f_{n-1}(t), f_n(t)) from one walk over the steps: f_{n-1}(t) is
        the partial sum one step before the end (f_0(t) twice at n = 0)."""
        t = frac(t)
        if not 0 <= t <= 1:
            raise DomainError(f"evaluation point {t} outside [0, 1]")
        if not 0 <= n <= self.num_steps:
            raise ValueError("n out of range")
        acc = before = XVec.zero()  # f_0 is the bush root = 0
        binding: Optional[BushRep] = BushRep.point("")
        for j in range(n):
            before = acc
            if binding is None:
                break  # zombie region: later perturbations vanish here
            pattern, parts, bound = self._bind(j, binding)
            scale = self.filt.uniform_base ** self.steps[j].m_level
            atom_lo = Fraction(t.numerator * scale // t.denominator, scale)
            tau = t - atom_lo + pattern.interval.lo
            acc = acc.add(bound.g_eval(tau))
            cell, _shift = pattern.locate(tau)
            binding = _child_value(binding, parts, pattern.inner.trace.betas, (cell.kind, cell.m))
        return before, acc

    def _bind(self, j: int, binding: BushRep):
        """Pattern, decomposed parts and bound pattern of `binding` at step j."""
        key = (j, binding)
        hit = self._bound.get(key)
        if hit is None:
            parts = bush_decompose(binding, DELTA, target_count=2)
            pattern = self.steps[j].patterns[tuple(w for w, _ in parts)]
            bound = BoundPattern(pattern, _bush_slots(binding, parts, pattern))
            hit = self._bound[key] = (pattern, parts, bound)
        return hit

    # -- sampling ---------------------------------------------------------------

    def sample_e_points(self, n: int, rng, count: int = 8) -> list[Fraction]:
        """Random interior points of E_n = C_n ∩ C_{n-1} ∩ V (n >= 1)."""
        if not 1 <= n <= self.num_steps:
            raise ValueError("need 1 <= n <= steps")
        return [self._descend_random(rng, n) for _ in range(count)]

    def _descend_random(self, rng, n: int) -> Fraction:
        lo, hi = self._descend_random_cell(rng, n)
        return lo + (hi - lo) * Fraction(2 * rng.randint(1, 511) + 1, 1 << 10)

    def _descend_random_cell(self, rng, n: int) -> tuple[Fraction, Fraction]:
        lo, hi = F0, F1
        binding = BushRep.point("")
        for j in range(n):
            sd = self.steps[j]
            h = Fraction(1, self.filt.uniform_base ** sd.m_level)
            first = math.ceil(lo / h)
            last = math.floor(hi / h) - 1
            atom_lo = rng.randint(first, last) * h
            pattern, parts, _bound = self._bind(j, binding)
            force_zone = j >= n - 2
            cell, shift = self._random_cell(rng, pattern, force_zone)
            base = atom_lo - pattern.interval.lo
            lo, hi = base + shift + cell.lo, base + shift + cell.hi
            binding = _child_value(binding, parts, pattern.inner.trace.betas, (cell.kind, cell.m))
            if binding is None:
                raise AssertionError("sampler entered a non-constant cell")
        return lo, hi

    def sample_e_intervals(self, n: int, rng, count: int = 4):
        """A few representative subintervals of E_n (zone-cell instances)."""
        return [self._descend_random_cell(rng, n) for _ in range(count)]

    @staticmethod
    def _random_cell(rng, pattern: LemmaPattern, force_zone: bool):
        entries = []
        for entry in pattern.cells:
            if isinstance(entry, PeriodicFamily):
                for c in entry.cells:
                    if c.kind == "zone" or (not force_zone and c.is_constant):
                        entries.append((c, entry))
            elif entry.kind == "zone" or (not force_zone and entry.is_constant):
                entries.append((entry, None))
        cell, fam = rng.choice(entries)
        if fam is None:
            return cell, F0
        return cell, rng.randrange(fam.count) * fam.period

    # -- trace access -------------------------------------------------------------

    def all_patterns(self):
        for sd in self.steps:
            for pat in sd.patterns.values():
                yield sd.n, pat

    def to_json(self, trace: str = "summary", seed: int = 0) -> dict:
        """The result record; measures are exact decimal "p/q" strings of any
        length. Its integer fields (the stopping indices `j_indices`) pass
        CPython's int/str digit limit at deep levels, so write the record
        with `dumps`, which converts and encodes under one lift."""
        with long_decimals():
            return self._record(trace, random.Random(seed))

    def dumps(self, trace: str = "summary", seed: int = 0, indent: int | None = None) -> str:
        """`to_json` encoded as JSON text, at any depth."""
        with long_decimals():
            return json.dumps(self._record(trace, random.Random(seed)), indent=indent)

    def _record(self, trace: str, rng) -> dict:
        if trace not in ("summary", "full"):
            raise ValueError(f"trace must be 'summary' or 'full', not {trace!r}")
        out = {
            "k": self.k,
            "eta": str(self.eta),
            "delta": str(self.delta),
            "levels": self.m_levels,
            "E": [
                {
                    "measure": str(self.e_measure(n)),
                    "intervals_sample": [
                        [str(a), str(b)]
                        for a, b in self.sample_e_intervals(n, rng, 3)
                    ],
                }
                for n in range(1, self.num_steps + 1)
            ],
            "C": [str(self.c_measure(n)) for n in range(self.num_steps + 1)],
            # coefficient arrays at the working levels are not materializable
            # (dimensions ~ p**level); emit per-step term summaries instead
            "splines": [
                {
                    "level": self.m_levels[n + 1],
                    "patterns": len(sd.patterns),
                    "constant_mass": str(sd.const_mass),
                }
                for n, sd in enumerate(self.steps)
            ],
        }
        rows = []
        for n, pat in self.all_patterns():
            tr = pat.trace
            entry = {
                "step": n,
                "eps": str(tr.eps),
                "eps_tilde": str(tr.eps_tilde2),
                "n_outer": tr.n_outer,
                "K": pat.K,
                "zone_mass_rel": str(tr.zone_mass / pat.interval.length),
                "w_bound": None if tr.w_bound is None else str(tr.w_bound),
                "failed": pat.failed_checks(),
            }
            if trace == "full":
                entry["ainv_norm"] = str(tr.ainv_norm)
                entry["eps1_outer"] = str(tr.eps1_outer)
                it = pat.inner.trace
                entry["inner"] = {
                    "betas": [str(b) for b in it.betas],
                    "j_indices": list(it.j_indices),
                    "n_pieces": it.n_pieces,
                }
            rows.append(entry)
        out["trace_summary"] = rows
        return out


def build_sequence(
    filt,
    order: int,
    eta,
    steps: int,
) -> SequenceResult:
    """Construct the divergent k-martingale spline sequence.

    Requires |V| > 0: over a filtration whose endpoints accumulate only on
    a null set every bounded martingale spline sequence converges, so the
    construction refuses to start (the characterization dichotomy).
    """
    eta = frac(eta)
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie in (0, 1)")
    if not 1 <= steps <= DEPTH_CAP:
        raise PreconditionError(f"steps must lie in 1..{DEPTH_CAP}")
    if filt.limit_set.measure == 0:
        raise ConstructionPreconditionError(
            "the limit set V has measure zero; no divergent bounded sequence exists"
        )
    ctx = ConstructionContext(filt, order)
    ctx.require_uniform()
    p = ctx.p

    rows = [
        ClassRow(
            kind="const",
            cell_kind="zone",
            rep_value=BushRep.point(""),
            total_length=F1,
            in_c=True,
            in_e=True,
        )
    ]
    m_levels = [0]
    step_data: list[StepData] = []

    for n in range(steps):
        m_n = m_levels[-1]
        eps_n = eta * Fraction(1, 2 ** (n + 4))  # half of the paper's eta_n budget
        zombie_budget = eta * Fraction(1, 2 ** (n + steps + 5))
        h_n = Fraction(1, p**m_n)
        rep_interval = Interval(0, 1) if m_n == 0 else Interval(h_n, 2 * h_n)

        patterns: dict = {}
        census: dict = {}  # ClassRow.key -> class of f_{n+1}
        new_m = m_n + 1
        for row in rows:
            if row.kind != "const":
                _add_class(census, replace(row))  # _add_class grows lengths in place
                continue
            parts = bush_decompose(row.rep_value, DELTA, target_count=2)
            profile = tuple(w for w, _ in parts)
            if profile not in patterns:
                pat = lemma_moments(
                    ctx,
                    rep_interval,
                    eps_n,
                    m_n,
                    const_alphas=profile,
                    max_zombie_length=zombie_budget * rep_interval.length,
                )
                _bind_representative(pat, row.rep_value, parts)
                patterns[profile] = pat
            pat = patterns[profile]
            new_m = max(new_m, pat.K)
            atom_count = row.total_length / h_n
            if atom_count.denominator != 1:
                raise AssertionError("class length not atom-aligned")
            _spawn_children(row, pat, parts, int(atom_count), census)

        new_rows = list(census.values())
        total = sum((r.total_length for r in new_rows), F0)
        if total != 1:
            raise AssertionError(f"class lengths sum to {total}, not 1")
        c_mass = sum((r.total_length for r in new_rows if r.in_c), F0)
        e_mass = sum((r.total_length for r in new_rows if r.in_e), F0)
        const_mass = sum((r.total_length for r in new_rows if r.kind == "const"), F0)
        step_data.append(
            StepData(
                n=n,
                m_level=m_n,
                eps=eps_n,
                patterns=patterns,
                c_mass=c_mass,
                e_mass=e_mass,
                const_mass=const_mass,
                rows_after=new_rows,
            )
        )
        rows = new_rows
        m_levels.append(new_m)

    return SequenceResult(filt, order, eta, step_data, m_levels, rows)


def _mix_value(parts, betas) -> BushRep:
    """xbar + sum beta_m (x_m - xbar) expressed over the decomposed parts.

    With weights w_m of the parts, the node-level coefficients are
    (1 - sum beta) w_m + beta_m, which stay non-negative because the
    stopping overshoots (hence the betas) are far below the part weights.
    """
    total = sum(betas, F0)
    return mix_reps(
        [((1 - total) * w + betas[m], rep) for m, (w, rep) in enumerate(parts)]
    )


def _bush_slots(binding: BushRep, parts, pattern: LemmaPattern) -> tuple[dict, int]:
    """Slot vectors of an atom valued `binding` with decomposition `parts`."""
    points = [rep.value() for _, rep in parts]
    return slot_vectors(binding.value(), points, pattern.inner.trace.betas)


def _child_value(binding: BushRep, parts, betas, cell_key: tuple):
    """The value, on the cells of `cell_key` = (kind, m), of an atom valued
    `binding` with decomposition `parts`; None off the constant cells. It
    reads no witness vectors (see `_bind_representative`)."""
    kind, m = cell_key
    if kind == "zone":
        return parts[m][1]
    if kind == "keep":
        return binding
    if kind == "mix":
        return _mix_value(parts, betas)
    return None  # ramp / rbump: the class goes non-constant


def _add_class(census: dict, row: ClassRow):
    hit = census.setdefault(row.key, row)  # one hash of the key
    if hit is not row:
        hit.total_length += row.total_length


def _bind_representative(pat: LemmaPattern, rep_value: BushRep, parts):
    """Bind the new pattern to the slot vectors of its first class: record
    ||w|| on its trace and re-run the trace checks, eq:esty now among them.
    At order 1 w must be zero (the stopping betas make ∫ g = 0), as the
    bump atoms are keep cells; an explicit raise holds under python -O."""
    bound = BoundPattern(pat, _bush_slots(rep_value, parts, pat))
    if pat.inner.space.k == 1 and any(bound.w_vectors):
        raise AssertionError("order-1 moment correction is not zero")
    pat.trace.w_bound = max((w.sup_norm for w in bound.w_vectors), default=F0)
    pat.trace.run_checks()
    require_checks(pat.trace, "bound pattern")


def _spawn_children(row: ClassRow, pat: LemmaPattern, parts, atom_count: int, census):
    """Add the children of every atom of `row` to the census: one class per
    ledger entry, since the cells of one (kind, m) give one child value.
    Besides the ledger it reads only the betas and `w_bound`: it binds no
    witness vectors. For a constant class `row.norm_bound` is the sup norm
    of its value.
    """
    part_norms = [rep.value().sup_norm for _, rep in parts]
    # a ramp value is a convex combination of a child and the parent value
    ramp_norm = max(row.norm_bound, *part_norms)
    for (kind, m), width in pat.ledger:
        rep_value = _child_value(row.rep_value, parts, pat.inner.trace.betas, (kind, m))
        if kind == "zone":
            norm = part_norms[m]
        elif kind == "keep":
            norm = row.norm_bound
        elif rep_value is not None:  # mix
            norm = rep_value.value().sup_norm
        elif kind == "rbump":
            norm = row.norm_bound + (pat.trace.w_bound or F0)
        else:  # ramp
            norm = ramp_norm
        _add_class(
            census,
            ClassRow(
                kind="const" if rep_value is not None else "zombie",
                cell_kind=kind,
                rep_value=rep_value,
                total_length=width * atom_count,
                in_c=kind == "zone",
                in_e=kind == "zone" and row.in_c,
                norm_bound=norm,
                chain_sup=max(row.chain_sup, norm),
            ),
        )
