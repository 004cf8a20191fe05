"""Moment correction: upgrade mean-zero perturbations to k vanishing moments.

The interval splits into a left part L (tiled by pieces, each carrying a
Step-1 construction) and a right sliver R holding k disjoint B-spline
bumps. Solving the k x k moment system exactly in rationals yields bump
coefficients w with ∫ tau^j (g_L + g_R) = 0 for j < k in interval-local
coordinates tau, hence raw-moment vanishing for every translate too.

The weights are constant, so all pieces are congruent and one Step-1
pattern, which step2_correct builds on the second piece, serves every piece
(closed-form sums over astronomically many translates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from ..errors import PreconditionError
from ..intervals import Interval, frac
from ..cardinal import over_common_denominator
from ..rle import PeriodicSpline, RleSpline, UniformSpace
from .core import (
    CellGrid,
    CellSpec,
    ConstructionContext,
    F0,
    PeriodicFamily,
    SlotwisePattern,
    Step1Pattern,
    atom_cell,
    first_level,
    grid_units,
    level_aligning,
    p_power_at_least,
    require_checks,
    step1_stopping,
    tile,
)

#: pieces are kept this factor below the eps1 formula bound; it buys the
#: margin that makes the recorded ||w|| <= eps-tilde check provable with
#: witness vectors of sup-norm up to 4
PIECE_MARGIN = 4


def cube_root_under(eps: Fraction, p: int) -> Fraction:
    """Largest positive x on a p-adic grid with (1 - x)**3 >= 1 - eps.

    The exact root 1 - (1-eps)^(1/3) is irrational; a grid value just
    below it keeps every measure identity checkable in rationals while
    the final (1 - eps) retention bound still holds (with slack).

    The grid is the first of the steps p**-a, a = 8, 12, 16, ..., that
    holds such an x (coarse grids keep alignment levels shallow). In
    integers, with P = p**a and eps = num/den, x = (P - r)/P for the
    smallest r with r**3 * den >= (den - num) * P**3, found by bisection.
    x > 0 needs 1/P <= eps, so a grid with P * num < den is passed over
    without a search. No float enters, so any eps in (0, 1) works, however
    small.
    """
    eps = frac(eps)
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    num, den = eps.numerator, eps.denominator
    a = 8
    while True:
        big = p**a
        if big * num >= den:
            need = (den - num) * big**3
            lo, hi = 1, big  # r = big always holds
            while lo < hi:
                mid = (lo + hi) // 2
                if mid**3 * den >= need:
                    hi = mid
                else:
                    lo = mid + 1
            if lo < big:
                return Fraction(big - lo, big)
        a += 4


def invert_exact(a: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """A^{-1} for a non-singular rational A (tiny systems, k <= 4), as
    integer numerators over one positive common denominator.

    Each row of A goes over the lcm of its denominators, A = diag(1/d_i) M,
    and one fraction-free Gauss-Jordan pass takes [M | I] to [p I | R] in
    integers: every update (pivot * x - f * y) // (previous pivot) divides
    exactly (Bareiss), and R / p = M^{-1}, so A^{-1} = R diag(d_j) / p.
    """
    n = len(a)
    rows = [over_common_denominator(row) for row in a]
    m = [nums + [int(i == j) for j in range(n)] for i, (nums, _) in enumerate(rows)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise PreconditionError("moment matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        pivot_row = m[col]
        d = pivot_row[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(d * x - f * y) // prev for x, y in zip(m[r], pivot_row)]
        prev = d
    sign = 1 if prev > 0 else -1
    nums = [[sign * v * dj for v, (_, dj) in zip(row[n:], rows)] for row in m]
    g = math.gcd(prev, *(v for row in nums for v in row))
    return [[v // g for v in row] for row in nums], abs(prev) // g


@dataclass
class LemmaTrace:
    eps: Fraction
    eps_tilde2: Fraction
    eps1_outer: Fraction
    ainv_norm: Fraction
    n_outer: int
    interval: Interval
    L_mass: Fraction
    zone_mass: Fraction
    w_bound: Optional[Fraction] = None  # ||w||, set when the driver binds the pattern
    checks: list = field(default_factory=list)

    def run_checks(self):
        iv_mass = self.interval.length  # uniform-full limit set
        out = [
            ("chain_L", self.zone_mass >= (1 - self.eps_tilde2) ** 2 * self.L_mass),
            ("chain_I", self.zone_mass >= (1 - self.eps_tilde2) ** 3 * iv_mass),
            ("chain_eps", self.zone_mass >= (1 - self.eps) * iv_mass),
        ]
        if self.w_bound is not None:
            out.append(("eq:esty", self.w_bound <= self.eps_tilde2))
        self.checks = out
        return out


@dataclass
class LemmaPattern(SlotwisePattern):
    """Full vanishing-moment construction on a representative interval.

    terms: (scalar, slot key) pairs of the inner pattern, repeated over the
    pieces; r_terms: the correction bumps, whose ("w", i) vectors expand
    through w_data into the same slot keys.
    """

    interval: Interval
    K: int
    terms: list
    inner: Step1Pattern
    piece_count: int
    r_terms: list
    w_data: list
    cells: list
    trace: LemmaTrace

    @cached_property
    def _grid(self) -> tuple[int, CellGrid, dict]:
        """p**K, the cells in level-K grid units, and per periodic family (by
        cell index) its cells and integer period in the same units; every
        cell end is a level-K grid point."""
        scale = self.inner.space.p**self.K
        families = {
            i: (CellGrid(e.cells, scale), grid_units(e.period, scale))
            for i, e in enumerate(self.cells)
            if isinstance(e, PeriodicFamily)
        }
        return scale, CellGrid(self.cells, scale), families

    def locate(self, t: Fraction):
        """(cell, instance shift) containing t; half-open convention."""
        scale, grid, families = self._grid
        u = t.numerator * scale // t.denominator
        i = grid.find(u)
        if i is None:
            raise KeyError(f"{t} not covered by pattern cells")
        entry = self.cells[i]
        if i not in families:
            return entry, F0
        cells, period = families[i]
        idx = (u - cells.starts[0]) // period
        return entry.cells[cells.find(u - idx * period)], idx * entry.period

    def failed_checks(self) -> list[str]:
        """Names of the failed recorded checks: the lemma trace's, then the
        inner stopping trace's, prefixed "stopping "."""
        return [name for name, ok in self.trace.checks if not ok] + [
            f"stopping {name}" for name, ok in self.inner.trace.checks if not ok
        ]


def step2_correct(
    ctx: ConstructionContext,
    interval: Interval,
    eps: Fraction,
    base_level: int,
    alphas: Sequence[Fraction],
    *,
    max_zombie_length: Fraction,
) -> LemmaPattern:
    """Assemble the vanishing-moment construction for constant weights alphas.

    The Step-1 pattern built on the second piece of L is reused for every
    piece (valid for constant weights over uniform limit sets). The
    non-constant cells total at most `max_zombie_length`.

    One normalisation per result: A^{-1} comes out of `invert_exact` as
    integers over one denominator, and each slot's moment row z goes over
    the lcm of its denominators, so w = -A^{-1} z and the exact check
    z + A w = 0 run in integers; only the k entries of w become Fractions.
    """
    ctx.require_uniform()
    p, k = ctx.p, ctx.k
    eps = frac(eps)
    a, b = interval.lo, interval.hi
    width = interval.length
    et = cube_root_under(eps, p)

    # right sliver R with |R ∩ V| exactly et |I ∩ V|
    c = b - et * width
    lmass = c - a

    # bump level: room for k disjoint interior supports plus margins; for
    # k >= 2 the bump atoms are non-constant cells, so their total length
    # k*k*h must also fit inside the zombie budget
    need_atoms = k * (k + 1) + 3

    def room(space: UniformSpace):
        # index of the first atom strictly right of c
        first = math.floor(c * space.num_atoms) + 1
        last = math.ceil(b * space.num_atoms) - 2  # last atom strictly left of b
        if last - first + 1 < need_atoms:
            return None
        if k > 1 and k * k * space.h > max_zombie_length / 2:
            return None
        return first

    space_r, first = first_level(ctx, max(base_level + 1, level_aligning(p, a, c)), room)
    picks = [first + 1 + i * (k + 1) + k - 1 for i in range(k)]

    bumps = [RleSpline.from_index_range(space_r, m, m) for m in picks]
    amat = [[bumps[j].moment(i, a) for j in range(k)] for i in range(k)]
    ainv, aden = invert_exact(amat)
    ainv_norm = Fraction(max(sum(abs(v) for v in row) for row in ainv), aden)

    eps1_outer = et / (k * (1 + et) * ainv_norm * lmass)
    s = max(
        p_power_at_least(p, 2 / et),
        p_power_at_least(p, PIECE_MARGIN * lmass / eps1_outer),
    )
    n_outer = p**s
    d = lmass / n_outer
    piece_count = n_outer - 2

    # pieces are [a + (ell - 1) d, a + ell d] for ell = 1..n_outer; the
    # representative is the second (its level aligns every translate: see
    # step1_stopping), with its share of the zombie budget
    inner = step1_stopping(
        ctx,
        Interval(a + d, a + 2 * d),
        alphas,
        et,
        base_level,
        max_zombie_length=max_zombie_length * d / width / 2,
    )
    K = max(inner.K, space_r.level)
    terms = [(PeriodicSpline(scal, d, piece_count), key) for scal, key in inner.terms]

    # exact z per slot over all pieces, then w = -A^{-1} z slotwise; with
    # A^{-1} = ainv / aden, row j of A = M_j / d_j and z = zn / zd, w is
    # wn / (aden zd) and z + A w = 0 reads zn_j d_j aden + M_j . wn = 0
    slot_moments: dict = {}
    for scal, key in terms:
        row = slot_moments.setdefault(key, [F0] * k)
        for j in range(k):
            row[j] += scal.moment(j, a)
    arows = [over_common_denominator(row) for row in amat]
    w_data: list = [[] for _ in range(k)]
    for key, zrow in sorted(slot_moments.items(), key=lambda kv: repr(kv[0])):
        zn, zd = over_common_denominator(zrow)
        wn = [-sum(x * z for x, z in zip(arow, zn)) for arow in ainv]
        # moment vanishing must be exact, slot by slot
        if any(zn[j] * dj * aden + sum(x * w for x, w in zip(mrow, wn))
               for j, (mrow, dj) in enumerate(arows)):
            raise AssertionError("moment correction failed to cancel exactly")
        wden = aden * zd
        for i in range(k):
            if wn[i]:
                w_data[i].append((Fraction(wn[i], wden), key))
    r_terms = [(bumps[i], ("w", i)) for i in range(k)]

    blocks: list = [[
        CellSpec(a, a + d, "keep"),
        PeriodicFamily(tuple(inner.cells), d, piece_count),
        CellSpec(a + (n_outer - 1) * d, c, "keep"),
    ]]
    for i, m in enumerate(picks):
        if k == 1:  # the order-1 correction is zero: see CellSpec
            blocks.append([atom_cell(space_r, m, "keep", i)])
        else:
            blocks.append([atom_cell(space_r, m - k + 1 + r, "rbump", i) for r in range(k)])
    cells = tile(interval, blocks)

    trace = LemmaTrace(
        eps=eps,
        eps_tilde2=et,
        eps1_outer=eps1_outer,
        ainv_norm=ainv_norm,
        n_outer=n_outer,
        interval=interval,
        L_mass=lmass,
        zone_mass=F0,
    )
    pattern = LemmaPattern(
        interval=interval,
        K=K,
        terms=terms,
        inner=inner,
        piece_count=piece_count,
        r_terms=r_terms,
        w_data=w_data,
        cells=cells,
        trace=trace,
    )
    trace.zone_mass = pattern.zone_mass()
    trace.run_checks()
    require_checks(trace, "lemma construction")
    if pattern.zombie_length() > max_zombie_length:
        raise AssertionError("zombie budget exceeded")
    return pattern


# ---------------------------------------------------------------------------
# entry point


def lemma_moments(
    ctx: ConstructionContext,
    interval: Interval,
    eps: Fraction,
    base_level: int,
    *,
    const_alphas: Sequence[Fraction],
    max_zombie_length: Fraction,
) -> LemmaPattern:
    """The full vanishing-moment lemma for one convex decomposition.

    step2_correct builds the stopping-time construction for the constant
    weights on the pieces and corrects its moments.
    """
    return step2_correct(
        ctx, interval, eps, base_level, const_alphas, max_zombie_length=max_zombie_length
    )
