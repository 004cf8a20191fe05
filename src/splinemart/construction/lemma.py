"""Moment correction: upgrade mean-zero perturbations to k vanishing moments.

The interval splits into a left part L (tiled by pieces, each carrying a
Step-1 construction) and a right sliver R holding k disjoint B-spline
bumps. Solving the k x k moment system exactly in rationals yields bump
coefficients w with ∫ tau^j (g_L + g_R) = 0 for j < k in interval-local
coordinates tau, hence raw-moment vanishing for every translate too.

The weights are constant, so all pieces are congruent and one Step-1
pattern, which step2_correct builds on the second piece, serves every piece
(closed-form sums over astronomically many translates).

Two more congruences save moment work. Everything before the Step-1 call
depends on no weight: the sliver, the bumps, their moment matrix and its
one exact inverse, and the outer pieces. That is one `CorrectionFrame`
per interval, and the driver builds one per step for all its
decomposition profiles. With equal weights the M stopping terms are
translates of one another by one index shift, so the slot moments take
one `PeriodicSpline.moment` row per translate class and shift it to the
other members by the binomial sum, in integers (`slot_moment_columns`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Optional, Sequence

from ..errors import PreconditionError
from ..intervals import Interval, frac
from ..cardinal import over_common_denominator
from ..rle import PeriodicSpline, RleSpline, UniformSpace
from .core import (
    CellSpec,
    ConstructionContext,
    F0,
    PeriodicFamily,
    SlotwisePattern,
    Step1Pattern,
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


def solve_moments(
    mrows: list[list[int]],
    dens: list[int],
    inverse: tuple[list[list[int]], int],
    zcols: list[tuple[list[int], int]],
) -> tuple[list[list[int]], int]:
    """w = -A^{-1} z for every slot, in per-order units, as (numerators w_s
    per slot s, one positive denominator W) with gcd(W, every numerator) = 1.

    A = diag(1/d_j) M is the moment matrix: mrows are the integer rows of M,
    dens the d_j and inverse is M^{-1} as (integer numerators R, den r) from
    `invert_exact`. zcols[j] is order j's column, (numerators per slot, zd_j):
    z_j = zn_j / zd_j. So A^{-1} = M^{-1} diag(d_j) and w = -R (d_j z_j) / r.
    With g_j = gcd(d_j, zd_j), q_j = zd_j / g_j and Q = lcm(q_j), d_j z_j is
    zn_j u_j / Q with the per-order factor u_j = (d_j / g_j)(Q / q_j): the
    powers of p that d_j and zd_j share cancel before any product. A slot
    then costs k products v_j = zn_j u_j and k**2 products R v, and w is
    -R v / (r Q). Moment vanishing is checked exactly, slot by slot:
    z + A w = 0 reads v_j r + M_j . wn = 0. One gcd over r Q and every
    numerator reduces the result.
    """
    minv, mden = inverse
    gs = [math.gcd(dj, zd) for dj, (_, zd) in zip(dens, zcols)]
    shares, big_q = over_common_denominator([(1, zd // g) for (_, zd), g in zip(zcols, gs)])
    ups = [dj // g * share for dj, g, share in zip(dens, gs, shares)]  # Q / q_j scaled by d_j / g_j
    solved = []
    for zn in zip(*(col for col, _ in zcols)):
        v = [z * u for z, u in zip(zn, ups)]
        wn = [-sum(x * y for x, y in zip(row, v)) for row in minv]
        if any(vj * mden + sum(x * w for x, w in zip(mrow, wn)) for vj, mrow in zip(v, mrows)):
            raise AssertionError("moment correction failed to cancel exactly")
        solved.append(wn)
    g = math.gcd(mden * big_q, *(n for wn in solved for n in wn))
    return [[n // g for n in wn] for wn in solved], mden * big_q // g


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
    through w_data ((numerator, key) pairs over w_den) into the slot keys.
    """

    interval: Interval
    K: int
    terms: list
    inner: Step1Pattern
    piece_count: int
    r_terms: list
    w_data: list
    w_den: int
    cells: list
    trace: LemmaTrace

    @property
    def scale(self) -> int:
        return self.inner.scale

    @cached_property
    def _starts(self) -> tuple[list, dict]:
        """Cell starts for bisection: the cells', and per periodic family
        (by cell index) its own cells'."""
        families = {
            i: [c.lo for c in e.cells]
            for i, e in enumerate(self.cells)
            if isinstance(e, PeriodicFamily)
        }
        return [e.lo for e in self.cells], families

    def locate(self, u: int):
        """(cell, instance shift in level-K grid units) of the cell holding
        the level-K atom u, that is every t with floor(t p**K) = u;
        half-open convention."""
        starts, families = self._starts
        if not starts[0] <= u < self.cells[-1].hi:
            raise KeyError(f"level-{self.K} atom {u} not covered by pattern cells")
        i = bisect.bisect_right(starts, u) - 1
        entry = self.cells[i]
        if i not in families:
            return entry, 0
        shift = (u - entry.lo) // entry.period * entry.period
        return entry.cells[bisect.bisect_right(families[i], u - shift) - 1], shift

    @cached_property
    def draws(self) -> dict:
        """The cells the E_n sampler draws from, keyed by `zones_only`: zone
        cells alone, or every constant cell, each as (cell, family) with
        family its PeriodicFamily, None outside one. Listed in cell order,
        so a seeded draw picks the same cell as a scan of the cells."""
        out: dict = {True: [], False: []}
        for entry in self.cells:
            fam = entry if isinstance(entry, PeriodicFamily) else None
            for c in entry.cells if fam else (entry,):
                if c.kind == "zone":
                    out[True].append((c, fam))
                if c.is_constant:
                    out[False].append((c, fam))
        return out

    def failed_checks(self) -> list[str]:
        """Names of the failed recorded checks: the lemma trace's, then the
        inner stopping trace's, prefixed "stopping "."""
        return [name for name, ok in self.trace.checks if not ok] + [
            f"stopping {name}" for name, ok in self.inner.trace.checks if not ok
        ]


@dataclass(frozen=True)
class CorrectionFrame:
    """The half of Step 2 that depends on no weight, for one interval: the
    right sliver R = [c, b], the bumps on it and their moment matrix
    A = diag(1/d_j) M with M's one exact inverse, ||A^{-1}||, and the outer
    pieces (n_outer of width d). Every decomposition profile of a driver
    step shares the interval, eps and zombie budget, so one frame, built
    by `correction_frame`, serves every `step2_correct` of the step, and
    their patterns share its bump splines."""

    ctx: ConstructionContext
    interval: Interval
    eps: Fraction
    base_level: int
    max_zombie_length: Fraction
    et: Fraction
    c: Fraction
    space_r: UniformSpace
    picks: tuple
    bumps: tuple
    mrows: list
    dens: list
    inverse: tuple
    ainv_norm: Fraction
    eps1_outer: Fraction
    n_outer: int
    d: Fraction


def correction_frame(
    ctx: ConstructionContext,
    interval: Interval,
    eps: Fraction,
    base_level: int,
    *,
    max_zombie_length: Fraction,
) -> CorrectionFrame:
    """The correction frame of `interval`: the bump level, the k bumps,
    the integer moment matrix M with its one `invert_exact`, ||A^{-1}||,
    eps1_outer and the outer pieces.

    The bump level is the smallest level above base_level that puts a, b
    and c on its grid, holds k (k + 1) + 3 atoms strictly between c and b
    and, for k >= 2, fits the k**2 bump atoms into half the zombie budget.
    On the grid, (b - c) p**K - 2 atoms lie strictly between c and b, so
    the level is the largest of these lower bounds.
    """
    ctx.require_uniform()
    p, k = ctx.p, ctx.k
    eps = frac(eps)
    a, b = interval.lo, interval.hi
    et = cube_root_under(eps, p)

    # right sliver R with |R ∩ V| exactly et |I ∩ V|
    c = b - et * interval.length
    lmass = c - a

    # the bump level (see above); the room, from the first atom strictly
    # right of c, and the zombie budget checked at it
    need_atoms = k * (k + 1) + 3
    space_r = ctx.space(max(
        base_level + 1,
        level_aligning(p, a, b, c),
        p_power_at_least(p, (need_atoms + 2) / (b - c)),
        p_power_at_least(p, 2 * k * k / max_zombie_length) if k > 1 else 0,
    ))
    first = grid_units(c, space_r.num_atoms) + 1
    if grid_units(b, space_r.num_atoms) - 1 - first < need_atoms:
        raise AssertionError(f"bump level {space_r.level} holds fewer than {need_atoms} atoms in R")
    if k > 1 and k * k * space_r.h > max_zombie_length / 2:
        raise AssertionError(f"bump level {space_r.level} overruns the zombie budget")
    picks = tuple(first + 1 + i * (k + 1) + k - 1 for i in range(k))

    # A = diag(1/d_j) M, row j the order-j moments of the bumps; A^{-1} =
    # M^{-1} diag(d_j), so ||A^{-1}|| comes from the one integer inverse of M
    bumps = tuple(RleSpline.from_index_range(space_r, m, m) for m in picks)
    arows = [over_common_denominator([bump.moment(j, a) for bump in bumps]) for j in range(k)]
    mrows, dens = [nums for nums, _ in arows], [dj for _, dj in arows]
    inverse = invert_exact(mrows)
    minv, mden = inverse
    ainv_norm = Fraction(max(sum(abs(v) * dj for v, dj in zip(row, dens)) for row in minv), mden)

    eps1_outer = et / (k * (1 + et) * ainv_norm * lmass)
    s = max(
        p_power_at_least(p, 2 / et),
        p_power_at_least(p, PIECE_MARGIN * lmass / eps1_outer),
    )
    n_outer = p**s
    return CorrectionFrame(
        ctx, interval, eps, base_level, max_zombie_length, et, c, space_r, picks, bumps,
        mrows, dens, inverse, ainv_norm, eps1_outer, n_outer, lmass / n_outer,
    )


def translate_classes(terms) -> list[list[tuple[int, int]]]:
    """The periodic `terms` ((PeriodicSpline, slot key) pairs) grouped into
    translate classes: one space, index shift and count, and the same runs
    relative to the first index. Each class lists (term position, delta),
    delta the term's first index less that of the class's first term.

    With equal weights the M stopping terms are translates (the stopping
    scan gives each the same block count), so a pattern has two classes,
    the parts and the mix term; unequal weights give one class per term.
    """
    classes: dict = {}
    for i, (scal, _) in enumerate(terms):
        runs = scal.base.runs
        first = runs[0][0]
        shape = tuple((j0 - first, j1 - first, c) for j0, j1, c in runs)
        classes.setdefault((scal.space, scal.index_shift, scal.count, shape), []).append((i, first))
    return [[(i, first - members[0][1]) for i, first in members] for members in classes.values()]


def slot_moment_columns(terms, keys, k: int, origin: Fraction) -> list[tuple[list[int], int]]:
    """Order j's moments about `origin` of the `terms`, summed per slot key
    in the order of `keys`, for j < k: (numerators per key, zd_j) per order.

    A translate class (`translate_classes`) takes its first term's moments
    mu_0 .. mu_{k-1} from `PeriodicSpline.moment`. A member delta grid
    steps on is the first moved by delta h, so its order-r moment is
    Σ_q C(r,q) delta**q mu_{r-q} / p**(Kq). Per class and order the
    mu_{r-q} / p**(Kq) go over one denominator (`over_common_denominator`),
    so a member costs r + 1 integer products and builds no Fraction; each
    order's column then puts the classes' denominators over one.
    """
    index = {key: i for i, key in enumerate(keys)}
    entries: list = [[] for _ in range(k)]  # per order: (term position, numerator, den)
    for members in translate_classes(terms):
        lead = terms[members[0][0]][0]
        mus = [lead.moment(e, origin) for e in range(k)]
        big = lead.space.num_atoms
        for r in range(k):
            nus, den = over_common_denominator(
                [(mu.numerator, mu.denominator * big ** (r - e)) for e, mu in enumerate(mus[: r + 1])]
            )
            for i, delta in members:
                top = sum(comb(r, q) * delta**q * nus[r - q] for q in range(r + 1))
                entries[r].append((i, top, den))
    zcols = []
    for order in entries:
        nums, zd = over_common_denominator([(top, den) for _, top, den in order])
        col = [0] * len(keys)
        for (i, _, _), n in zip(order, nums):
            col[index[terms[i][1]]] += n
        zcols.append((col, zd))
    return zcols


def step2_correct(frame: CorrectionFrame, alphas: Sequence[Fraction]) -> LemmaPattern:
    """Assemble the vanishing-moment construction for constant weights
    alphas on the frame's interval.

    The Step-1 pattern built on the second outer piece is reused for every
    piece (valid for constant weights over uniform limit sets). The
    non-constant cells total at most the frame's `max_zombie_length`.

    No Fraction per coefficient, and no product with the powers of p that
    cancel in w: the frame holds M's one inverse, and each order j's slot
    moments go over their own denominator zd_j, so `solve_moments` runs
    w = -A^{-1} z and the check z + A w = 0 in per-order integer units,
    and w_data keeps w as numerators over one denominator w_den per
    pattern. The slot moments take one `PeriodicSpline.moment` row per
    translate class and shift it to the class's other terms in integers
    (`slot_moment_columns`). w comes out the same over any denominators z
    arrives in, as `solve_moments` reduces it by one final gcd.

    The pattern's level K is the inner pattern's, so the family shares
    `inner.cells` as they are. The bump level is no finer when |I| = p**-m
    (an atom, as the driver passes): both exceed base_level, and inner.K
    aligns a + d and d, so a and c = a + p**s d (and b, or the tiling
    below raises). The other bounds hold at inner.K: the inner ball puts
    k + 1 atoms of width h on each side of its midpoint within
    eps3 <= et**3 d / 2592, and d <= et |I| / 2, so R holds k (k + 1) + 3
    of them for k < 5182; the inner ramps take 2 (M + 1) (k - 1) h
    <= Z d / (2 |I|) of the zombie budget Z, so k**2 h <= Z / 2 for k <= 6.
    On the 480 patterns of dyadic, padic:3 and padic:5, k = 1..4, four
    etas and N = 4, inner.K passes the bump level by at least 19. A bump
    level past inner.K raises.
    """
    ctx, interval, d = frame.ctx, frame.interval, frame.d
    p, k = ctx.p, ctx.k
    a, b = interval.lo, interval.hi
    n_outer = frame.n_outer
    piece_count = n_outer - 2

    # pieces are [a + (ell - 1) d, a + ell d] for ell = 1..n_outer; the
    # representative is the second (its level aligns every translate: see
    # step1_stopping), with its share of the zombie budget
    inner = step1_stopping(
        ctx,
        Interval(a + d, a + 2 * d),
        alphas,
        frame.et,
        frame.base_level,
        max_zombie_length=frame.max_zombie_length * d / interval.length / 2,
    )
    K, space_r = inner.K, frame.space_r
    if space_r.level > K:
        raise AssertionError(f"bump level {space_r.level} is finer than the pattern level {K}")
    terms = [(PeriodicSpline(scal, d, piece_count), key) for scal, key in inner.terms]

    # exact z per slot over all pieces, in per-order units; then
    # w = -A^{-1} z slot by slot in the sorted slot order
    keys = sorted({key for _, key in terms}, key=repr)
    zcols = slot_moment_columns(terms, keys, k, a)
    wnums, w_den = solve_moments(frame.mrows, frame.dens, frame.inverse, zcols)
    w_data = [[(wn[i], key) for key, wn in zip(keys, wnums) if wn[i]] for i in range(k)]
    r_terms = [(bump, ("w", i)) for i, bump in enumerate(frame.bumps)]

    # cells in level-K units; a bump atom spans `up` of them
    A, D, up = grid_units(a, inner.scale), grid_units(d, inner.scale), p ** (K - space_r.level)
    blocks: list = [[
        CellSpec(A, A + D, "keep"),
        PeriodicFamily(tuple(inner.cells), D, piece_count),
        CellSpec(A + (n_outer - 1) * D, grid_units(frame.c, inner.scale), "keep"),
    ]]
    kind = "keep" if k == 1 else "rbump"  # the order-1 correction is zero: see CellSpec
    for i, m in enumerate(frame.picks):
        blocks.append([CellSpec(j * up, (j + 1) * up, kind, i) for j in range(m - k + 1, m + 1)])
    cells = tile(A, grid_units(b, inner.scale), blocks)

    trace = LemmaTrace(
        eps=frame.eps,
        eps_tilde2=frame.et,
        eps1_outer=frame.eps1_outer,
        ainv_norm=frame.ainv_norm,
        n_outer=n_outer,
        interval=interval,
        L_mass=frame.c - a,
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
        w_den=w_den,
        cells=cells,
        trace=trace,
    )
    trace.zone_mass = pattern.zone_mass()
    trace.run_checks()
    require_checks(trace, "lemma construction")
    if pattern.zombie_length() > frame.max_zombie_length:
        raise AssertionError("zombie budget exceeded")
    return pattern


# ---------------------------------------------------------------------------
# entry point


def lemma_moments(frame: CorrectionFrame, *, const_alphas: Sequence[Fraction]) -> LemmaPattern:
    """The full vanishing-moment lemma for one convex decomposition.

    step2_correct builds the stopping-time construction for the constant
    weights on the pieces of the frame's interval and corrects its moments.
    """
    return step2_correct(frame, const_alphas)
