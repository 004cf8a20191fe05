"""Inductive driver: the bounded, everywhere-separated martingale spline
sequence.

Starting from f_0 = bush root on [0, 1], each step applies the
vanishing-moment perturbation on every positive-mass atom whose current
value is constant, replacing it by a child value on zones that carry all
but an eps_n fraction of the atom's mass. Atoms whose value is not
constant (B-spline ramps and correction bumps, a set whose total measure
is kept below an explicit budget) are carried along unchanged.

Atoms are never enumerated. A census row is one congruence class of the
atoms of a step: atoms whose values are bush nodes of one shape (root or
not, and one expansion depth: `BushRep.shape`) and that share kind, cell
kind, membership of C_n and E_n, norm bound and norm history. The row
keeps one representative value and the summed length of its atoms. Congruent atoms
decompose alike, share one lemma pattern per decomposition profile and
spawn congruent children, so every count and measure is a product of exact
per-pattern data with the class lengths, and the census grows with the
number of classes, not of atoms.

The census works in integer units, with one Fraction per recorded result.
A class length is a count of grid units of the step's new level. The spawn
sums the pattern ledger per child before it builds any row, and adds
lengths as integers. Once the step is done, each row's `total_length` and
each of the step's masses is one Fraction.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from ..cardinal import add_numerators
from ..errors import ConstructionPreconditionError, DomainError, PreconditionError
from ..intervals import Interval, frac, long_decimals
from ..witness import BushRep, XVec, bush_decompose, mix_reps
from .core import (
    BoundPattern, ConstructionContext, F0, F1, grid_units, require_checks,
)
from .lemma import LemmaPattern, correction_frame, lemma_moments

DELTA = F1  # bush separation
DEPTH_CAP = 12  # most steps build_sequence accepts


@dataclass
class ClassRow:
    """One congruence class of atoms at one step.

    The class holds every atom whose row fields agree with `key`: kind,
    cell kind, `in_c`, `in_e`, `norm_bound`, `chain_sup` and the shape of
    its value (`BushRep.shape`). `rep_value` is the value of one of
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
        # p**m_n per level: the walk and the sampler work in grid units
        self._scales = [filt.uniform_base**m for m in m_levels]
        # (step, binding) -> (pattern, parts, mix child, bound pattern,
        # interval start in step units, p**(K - m_j)); queries walk few
        # distinct bindings per step, so this stays small
        self._bound: dict = {}

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def _check_step(self, n: int, what: str, first: int = 1):
        """Raise ValueError unless n is a non-bool int in first..num_steps (for -O)."""
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n must be an int: {what} needs {first}..{self.num_steps}, not {n!r}")
        if not first <= n <= self.num_steps:
            raise ValueError(f"n out of range: {what} needs {first}..{self.num_steps}, not {n}")

    # -- measures -------------------------------------------------------------

    def c_measure(self, n: int) -> Fraction:
        """|C_n ∩ V| (|V| = 1 for uniform generators), 0 <= n <= num_steps."""
        self._check_step(n, "C_n", 0)
        return self.steps[n - 1].c_mass if n else F1

    def e_measure(self, n: int) -> Fraction:
        """|E_n| = |C_n ∩ C_{n-1} ∩ V| for 1 <= n <= num_steps."""
        self._check_step(n, "E_n")
        return self.steps[n - 1].e_mass

    # -- evaluation -------------------------------------------------------------

    def value_at(self, t, n: int) -> XVec:
        """f_n(t) as an exact witness vector (half-open atom convention)."""
        return XVec.over(*self._walk(t, n)[1])

    def sup_diff_at(self, t, n: int) -> Fraction:
        """||f_n(t) - f_{n-1}(t)|| in the sup norm, exact."""
        self._check_step(n, "f_n - f_{n-1}")
        before, after = self.step_values(t, n)
        return after.sub(before).sup_norm

    def step_values(self, t, n: int) -> tuple[XVec, XVec]:
        """(f_{n-1}(t), f_n(t)) from one walk over the steps: f_{n-1}(t) is
        the partial sum one step before the end (f_0(t) twice at n = 0)."""
        before, after = self._walk(t, n)
        return XVec.over(*before), XVec.over(*after)

    def _walk(self, t, n: int) -> tuple[tuple[dict, int], tuple[dict, int]]:
        """f_{n-1}(t) and f_n(t) as ({coordinate: integer numerator}, den).

        The walk is integer: with t = tn / td and S = p**m_j, step j moves
        t's level-m_j atom onto its pattern's interval, tau = T / (S td)
        with T = (tn S mod td) + (interval start in step units) td, and the
        pattern reads g there as integer numerators over one denominator.
        The partial sums share one running denominator: `add_numerators`
        adds each step's g; the callers build one Fraction per coordinate of
        each result they return. A bool, a non-finite float, a string that
        is no rational (such as "1/0") or a value of another type (such as
        None or a Decimal) is refused before the walk: none is a point of
        [0, 1].
        """
        if isinstance(t, bool) or (isinstance(t, float) and not math.isfinite(t)):
            raise DomainError(f"evaluation point {t!r} is not a finite rational")
        try:
            t = frac(t)
        except (TypeError, ValueError, ZeroDivisionError):  # None, Decimal, "1/0", "x"
            raise DomainError(
                f"evaluation point {t!r} is not a rational: a point is an int, a Fraction, "
                "a finite float or a 'p/q' string"
            ) from None
        if not 0 <= t <= 1:
            raise DomainError(f"evaluation point {t} outside [0, 1]")
        self._check_step(n, "f_n", 0)
        tn, td = t.numerator, t.denominator
        acc: dict = {}  # f_0 is the bush root = 0
        den = 1
        before = acc, den
        binding: Optional[BushRep] = BushRep("")
        for j in range(n):
            before = acc, den
            if binding is None:
                break  # zombie region: later perturbations vanish here
            pattern, parts, mix, bound, start, units = self._bind(j, binding)
            T = tn * self._scales[j] % td + start * td
            acc, den = add_numerators((acc, den), bound.g_numerators(T, td, self.m_levels[j]))
            cell, _shift = pattern.locate(T * units // td)
            binding = _child_value(binding, parts, mix, (cell.kind, cell.m))
        return before, (acc, den)

    def _bind(self, j: int, binding: BushRep):
        """Pattern, decomposed parts, mix child, bound pattern, the pattern
        interval's start in level-m_j grid units and p**(K - m_j), the
        pattern's grid units per step unit, of `binding` at step j: the walk
        and the sampler take every child value from here."""
        key = (j, binding)
        hit = self._bound.get(key)
        if hit is None:
            parts = bush_decompose(binding, DELTA, target_count=2)
            pattern = self.steps[j].patterns[tuple(w for w, _ in parts)]
            bound = BoundPattern(pattern, _bush_slots(binding, parts))
            start = grid_units(pattern.interval.lo, self._scales[j])
            units = self.filt.uniform_base ** (pattern.K - self.m_levels[j])
            hit = self._bound[key] = (pattern, parts, mix_reps(parts), bound, start, units)
        return hit

    # -- sampling ---------------------------------------------------------------

    def sample_e_points(self, n: int, rng, count: int = 8) -> list[Fraction]:
        """Random interior points of E_n = C_n ∩ C_{n-1} ∩ V (n >= 1)."""
        self._check_step(n, "E_n")
        return [self._descend_random(rng, n) for _ in range(count)]

    def _descend_random(self, rng, n: int) -> Fraction:
        lo, hi = self._descend_random_units(rng, n)
        odd = 2 * rng.randint(1, 511) + 1
        # lo + (hi - lo) odd / 2**10, in level-m_n units
        return Fraction((lo << 10) + (hi - lo) * odd, self._scales[n] << 10)

    def _descend_random_cell(self, rng, n: int) -> tuple[Fraction, Fraction]:
        lo, hi = self._descend_random_units(rng, n)
        return Fraction(lo, self._scales[n]), Fraction(hi, self._scales[n])

    def _descend_random_units(self, rng, n: int) -> tuple[int, int]:
        """A random zone cell of the descent to step n, as its ends in
        level-m_n grid units.

        Step j draws an atom of the current cell in level-m_j units, then a
        constant cell of the atom's pattern (a zone cell at the last two
        steps) from `LemmaPattern.draws`, and an instance if the cell lies
        in a periodic family: the cell in pattern units p**K, then in
        level-m_{j+1} units.
        """
        p = self.filt.uniform_base
        lo, hi = 0, 1  # [0, 1] at level m_0 = 0
        binding = BushRep("")
        for j in range(n):
            atom = rng.randint(lo, hi - 1)
            pattern, parts, mix, _bound, start, _units = self._bind(j, binding)
            cell, fam = rng.choice(pattern.draws[j >= n - 2])
            shift = 0 if fam is None else rng.randrange(fam.count) * fam.period
            down, up = pattern.K - self.m_levels[j], self.m_levels[j + 1] - pattern.K
            if down < 0 or up < 0:
                raise AssertionError(f"step {j}: pattern level {pattern.K} outside its step's levels")
            base = (atom - start) * p**down + shift
            lo, hi = (base + cell.lo) * p**up, (base + cell.hi) * p**up
            binding = _child_value(binding, parts, mix, (cell.kind, cell.m))
            if binding is None:
                raise AssertionError("sampler entered a non-constant cell")
        return lo, hi

    def sample_e_intervals(self, n: int, rng, count: int = 4):
        """A few representative subintervals of E_n (zone-cell instances)."""
        self._check_step(n, "E_n")
        return [self._descend_random_cell(rng, n) for _ in range(count)]

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
                "w_bound": str(tr.w_bound),
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
    `order` and `steps` must be ints, not bools: explicit raises, which
    hold under python -O.
    """
    for name, value in (("order", order), ("steps", steps)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise PreconditionError(f"{name} must be an int, not {value!r}")
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
            rep_value=BushRep(""),
            total_length=F1,
            in_c=True,
            in_e=True,
        )
    ]
    atoms = [1]  # each row's length in atoms of the current level m_n
    m_levels = [0]
    step_data: list[StepData] = []

    for n in range(steps):
        m_n = m_levels[-1]
        eps_n = eta * Fraction(1, 2 ** (n + 4))  # half of the paper's eta_n budget
        zombie_budget = eta * Fraction(1, 2 ** (n + steps + 5))
        h_n = Fraction(1, p**m_n)
        rep_interval = Interval(0, 1) if m_n == 0 else Interval(h_n, 2 * h_n)
        frame = correction_frame(
            ctx, rep_interval, eps_n, m_n, max_zombie_length=zombie_budget * rep_interval.length
        )

        # one pattern per decomposition profile, in row order, all on the
        # step's one correction frame; f_{n+1} lives on the finest of their
        # levels
        built: dict = {}  # decomposition profile -> (pattern, its `_child_groups`)
        decomposed: list = []  # per row: (parts, pattern, its groups), None if zombie
        new_m = m_n + 1
        for row in rows:
            if row.kind != "const":
                decomposed.append(None)
                continue
            parts = bush_decompose(row.rep_value, DELTA, target_count=2)
            profile = tuple(w for w, _ in parts)
            hit = built.get(profile)
            if hit is None:
                pat = lemma_moments(frame, const_alphas=profile)
                _bind_representative(pat, row.rep_value, parts)
                hit = built[profile] = (pat, _child_groups(pat))
                new_m = max(new_m, pat.K)
            decomposed.append((parts, *hit))

        # the census of f_{n+1}, class lengths in level-new_m grid units
        census: dict = {}  # class key -> [ClassRow, length in grid units]
        for row, count, dec in zip(rows, atoms, decomposed):
            if dec is None:
                _add_class(census, replace(row), count * p ** (new_m - m_n))
                continue
            parts, pat, grouped = dec
            _spawn_children(row, pat, parts, count * p ** (new_m - pat.K), grouped, census)

        scale = p**new_m
        new_rows = []
        atoms = []
        for row, units in census.values():
            row.total_length = Fraction(units, scale)
            new_rows.append(row)
            atoms.append(units)
        if sum(atoms) != scale:
            raise AssertionError(f"class lengths sum to {Fraction(sum(atoms), scale)}, not 1")
        step_data.append(
            StepData(
                n=n,
                m_level=m_n,
                eps=eps_n,
                patterns={profile: pat for profile, (pat, _) in built.items()},
                c_mass=_mass(new_rows, atoms, scale, lambda r: r.in_c),
                e_mass=_mass(new_rows, atoms, scale, lambda r: r.in_e),
                const_mass=_mass(new_rows, atoms, scale, lambda r: r.kind == "const"),
                rows_after=new_rows,
            )
        )
        rows = new_rows
        m_levels.append(new_m)

    return SequenceResult(filt, order, eta, step_data, m_levels, rows)


def _bush_slots(binding: BushRep, parts) -> dict:
    """The integer slot vectors of an atom valued x_s, s = `binding.path`,
    whose `parts` are the 2^j descendants x_{su}. ("d", m) is x_m - x_s:
    part m's ±1 entries on the prefixes of length >= |s|, whose heap
    coordinates a(q) = 2^|q| + int(q, 2) are those >= 2^|s| (the shorter
    ones cancel). ("dmix",) is Σ beta_m (x_m - x_s) = beta (Σ x_m - 2^j x_s)
    = 0, as the betas are equal (`_bind_representative` raises otherwise)."""
    cut = 1 << len(binding.path)
    slots = {("d", m): {c: n for c, n in rep.numerators().items() if c >= cut}
             for m, (_, rep) in enumerate(parts)}
    slots[("dmix",)] = {}
    return slots


def _child_value(binding: BushRep, parts, mix: BushRep, cell_key: tuple):
    """The value, on the cells of `cell_key` = (kind, m), of an atom valued
    `binding` with decomposition `parts` and mix child `mix` =
    `mix_reps(parts)`; None off the constant cells. It reads no witness
    vectors (see `_bind_representative`).

    A zone child is its part, the point x_{s u} for a descendant s u of the
    binding's node s, and a keep child is the binding itself. The mix value
    xbar + Σ beta_m (x_m - xbar) has node coefficients (1 - Σ beta) w_m +
    beta_m over the parts. A decomposition has equal shares w_m = 1/M (a
    `BushRep` holds no other), and equal alphas give equal stopping
    offsets, hence equal betas: then each coefficient is (1 - M beta) / M +
    beta = w_m, and the mix value is the parts recombined, BushRep(s, j),
    whose value is x_s again. `_bind_representative` raises unless the
    betas are equal.
    """
    kind, m = cell_key
    if kind == "zone":
        return parts[m][1]
    if kind == "keep":
        return binding
    if kind == "mix":
        return mix
    return None  # ramp / rbump: the class goes non-constant


def _add_class(census: dict, row: ClassRow, units: int):
    """Add `units` grid units to the class of `row`, which it founds if the
    census has not seen its key: one hash of the key, no Fraction."""
    census.setdefault(row.key, [row, 0])[1] += units


def _mass(rows, atoms, scale: int, member) -> Fraction:
    """The summed length of the member rows: one Fraction of integer units."""
    return Fraction(sum(u for r, u in zip(rows, atoms) if member(r)), scale)


def _child_groups(pat: LemmaPattern) -> tuple:
    """The pattern's ledger summed per cell kind, as (kind, grid units)
    pairs in order of first appearance: every cell of one kind gives one
    child value and norm whatever its m, as the zone parts are points of
    one shape (see `_spawn_children`). So a pattern gives 5 groups at most."""
    units: dict = {}
    for (kind, _), u in pat.ledger_units:
        units[kind] = units.get(kind, 0) + u
    return tuple(units.items())


def _bind_representative(pat: LemmaPattern, rep_value: BushRep, parts):
    """Bind the new pattern to the slot vectors of its first class: record
    ||w|| on its trace and re-run the trace checks, eq:esty now among them.
    At order 1 w must be zero (the stopping betas make ∫ g = 0), as the
    bump atoms are keep cells; the mix cells take the parts recombined,
    which needs equal betas (see `_child_value`; the parts' shares are
    equal by construction). Explicit raises hold under python -O."""
    if len(set(pat.inner.trace.betas)) != 1:
        raise AssertionError("stopping betas are not all equal")
    pat.trace.w_bound = BoundPattern(pat, _bush_slots(rep_value, parts)).w_norm()
    if pat.inner.space.k == 1 and pat.trace.w_bound:
        raise AssertionError("order-1 moment correction is not zero")
    pat.trace.run_checks()
    require_checks(pat.trace, "bound pattern")


def _spawn_children(row: ClassRow, pat: LemmaPattern, parts, up: int, groups, census: dict):
    """Add the children of every atom of `row` to the census: one class per
    cell kind of `groups` (`_child_groups`), whose pattern grid units count
    `up` census grid units each over all the atoms.

    The zone parts are points, all at one depth below the row's node, so
    they share one shape (`BushRep.shape`) and one sup norm: they give
    one child, whose class keeps `parts[0]` as its representative. So each
    distinct child of the row is built, and its key hashed, once, with its
    lengths summed as integers first; `build_sequence` sets its
    `total_length` once the step is done. Besides the ledger it reads only
    `w_bound`: it binds no witness vectors. For a constant class
    `row.norm_bound` is the sup norm of its value, and a mix child has its
    parent's value (`_child_value`).
    """
    mix = mix_reps(parts)
    zone_norm = parts[0][1].value().sup_norm
    # a ramp value is a convex combination of a child and the parent value
    ramp_norm = max(row.norm_bound, zone_norm)
    for kind, units in groups:
        rep_value = _child_value(row.rep_value, parts, mix, (kind, 0))
        if kind == "zone":
            norm = zone_norm
        elif rep_value is not None:  # keep / mix
            norm = row.norm_bound
        elif kind == "rbump":
            norm = row.norm_bound + pat.trace.w_bound
        else:  # ramp
            norm = ramp_norm
        _add_class(census, ClassRow(
            kind="const" if rep_value is not None else "zombie",
            cell_kind=kind,
            rep_value=rep_value,
            total_length=F0,  # set once the step is done
            in_c=kind == "zone",
            in_e=kind == "zone" and row.in_c,
            norm_bound=norm,
            chain_sup=max(row.chain_sup, norm),
        ), units * up)
