"""Mean-zero spline perturbations: the stopping-time build, and the
slot-wise pattern protocol shared with the moment correction.

The construction takes constant convex weights of the current value on an
interval I and produces g with ∫ g = 0 supported inside int I, together
with a tiling of I into cells: zones where the perturbed function is
exactly constant (the mass carriers), and leftover cells that keep valid
convex representations. Everything is exact rational arithmetic over a
uniform p-ary grid; piece counts may be astronomically large, so all
per-piece structure is kept as closed-form arithmetic plus one
representative pattern (all pieces are congruent translates).

A pattern stores g slot-wise, as scalar splines paired with slot keys that
name witness vectors; `slot_vectors` builds those vectors, in integers
over one denominator, and `BoundPattern` evaluates g with them. Point
evaluation reads one run table per pattern (`SlotwisePattern.run_table`):
per basis group (space, index shift, count), the disjoint runs (j0, j1,
slot coefficients) of all its terms, with the correction bumps already
expanded into slot keys.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from ..errors import CapacityError, InfeasibleStoppingError, PreconditionError
from ..intervals import Interval, frac
from ..cardinal import over_common_denominator, span_numerators
from ..rle import PeriodicSpline, RleSpline, UniformSpace
from ..witness import XVec, common_numerators

F0 = Fraction(0)
F1 = Fraction(1)

#: deepest grid level any construction may use
LEVEL_CAP = 1 << 20

# slot keys name the witness-space vectors a scalar term multiplies:
#   ("d", m)    -> x_m - xbar
#   ("dmix",)   -> sum_j beta_j (x_j - xbar)
#   ("w", i)    -> i-th moment-correction vector (expanded via w_data)
SlotKey = tuple


def slot_vectors(xbar: XVec, points: Sequence[XVec], betas: Sequence[Fraction]) -> tuple[dict, int]:
    """The witness vectors of the ("d", m) and ("dmix",) slots, as
    ({slot key: {coordinate: integer numerator}}, den): x_m - xbar and
    sum_j beta_j (x_j - xbar) are integer sums over one lcm, and no
    Fraction is built."""
    (nbar, *nums), den = common_numerators([xbar, *points])
    bden = math.lcm(*(b.denominator for b in betas))
    minus_bar = {c: -n for c, n in nbar.items()}
    diffs = []
    for x in nums:
        d = dict(minus_bar)
        for c, n in x.items():
            d[c] = d.get(c, 0) + n
        diffs.append({c: n for c, n in d.items() if n})
    slots = {("d", m): {c: n * bden for c, n in d.items()} for m, d in enumerate(diffs)}
    mix: dict = {}
    for b, d in zip(betas, diffs):
        a = b.numerator * (bden // b.denominator)
        for c, n in d.items():
            mix[c] = mix.get(c, 0) + a * n
    slots[("dmix",)] = {c: n for c, n in mix.items() if n}
    return slots, den * bden


class ConstructionContext:
    """Ambient data for the constructions: filtration + spline order.

    The exact lazy machinery relies on translation congruence of uniform
    refinements with full limit set; other generators are rejected with a
    capacity error (a file-defined filtration has finitely many levels and
    genuinely cannot supply the refinement depth the construction needs).
    """

    def __init__(self, filt, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.filt = filt
        self.k = order

    def require_uniform(self):
        if not self.filt.is_uniform_full():
            raise CapacityError(
                "the construction needs unbounded congruent refinement; "
                f"generator {self.filt.kind!r} cannot supply it"
            )

    @property
    def p(self) -> int:
        return self.filt.uniform_base

    def space(self, level: int) -> UniformSpace:
        if level > LEVEL_CAP:
            raise CapacityError(f"level {level} beyond construction cap {LEVEL_CAP}")
        return UniformSpace(self.p, level, self.k)


# ---------------------------------------------------------------------------
# grid arithmetic helpers


def p_power_at_least(p: int, x: Fraction) -> int:
    """Smallest s >= 0 with p**s >= x, in O(1) big-int steps.

    With x = n / d in lowest terms and b(.) the bit length, x lies in
    (2**(b(n) - b(d) - 1), 2**(b(n) - b(d) + 1)). So e = (b(n) - b(d) - 1)
    / log2(p) is below log_p(x) <= s and within 2 / log2(p) + 1 of s:
    starting from floor(e), exact comparisons of p**s * d with n reach s in
    at most three steps.
    """
    n, d = x.numerator, x.denominator
    if n <= d:
        return 0
    s = max(0, int((n.bit_length() - d.bit_length() - 1) / math.log2(p)))
    v = p**s * d
    while v < n:
        v *= p
        s += 1
    return s


def p_adic_valuation(p: int, d: int) -> int:
    """Largest s with p**s dividing d != 0, in O(log s) big-int operations.

    Strips p, p**2, p**4, ... while they divide, then the same powers in
    reverse, each at most once: the exponents removed are the binary digits
    of s.
    """
    powers = []
    q = p
    while d % q == 0:
        d //= q
        powers.append(q)
        q *= q
    s = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        if d % powers[i] == 0:
            d //= powers[i]
            s += 1 << i
    return s


def level_aligning(p: int, *values: Fraction) -> int:
    """Smallest K so every value is a multiple of p**-K."""
    need = 0
    for v in values:
        d = frac(v).denominator
        s = p_adic_valuation(p, d)
        if d != p**s:
            raise PreconditionError(f"{v} is not on any {p}-ary grid")
        need = max(need, s)
    return need


def first_level(ctx: ConstructionContext, start: int, fit) -> tuple[UniformSpace, object]:
    """The space of the first level K >= start whose fit(space) is not None,
    with that value; past LEVEL_CAP, ctx.space raises CapacityError."""
    for K in itertools.count(start):
        space = ctx.space(K)
        found = fit(space)
        if found is not None:
            return space, found


# ---------------------------------------------------------------------------
# cells

#: cell kinds on which the perturbed function is constant
CONSTANT_KINDS = ("zone", "mix", "keep")


@dataclass(frozen=True)
class CellSpec:
    """One tile of the construction pattern, in representative coordinates.

    kind:
      zone   - perturbed function constant, value = child m (the mass carrier)
      mix    - constant, value = xbar + sum beta_j (x_j - xbar)
      keep   - constant, value = xbar (no perturbation here)
      ramp   - B-spline ramp of f_m (single atom; convex rep, not constant)
      rbump  - moment-correction bump atom (convex rep, not constant)

    At order 1 a correction bump is one atom, tiled as a keep cell (m = its
    bump index): the Step-1 mean already vanishes, so w = 0, as the driver
    checks on binding. It stays a cell of its own, so the cell list that
    the E_n sampler draws from does not change.
    """

    lo: Fraction
    hi: Fraction
    kind: str
    m: int = -1

    @property
    def is_constant(self) -> bool:
        return self.kind in CONSTANT_KINDS


def grid_units(x: Fraction, scale: int) -> int:
    """x * scale, which must be an integer (x on the grid of step 1/scale)."""
    u = x * scale
    if u.denominator != 1:
        raise AssertionError(f"{x} is off the grid of step 1/{scale}")
    return u.numerator


class CellGrid:
    """Starts of consecutive tiles in integer grid units, for bisection.

    With every tile end on the grid of step 1/scale, lo <= t < hi holds
    exactly when lo*scale <= floor(t*scale) < hi*scale, so tiles are found
    by integer comparisons of u = floor(t*scale).
    """

    def __init__(self, entries: Sequence, scale: int):
        self.starts = [grid_units(e.lo, scale) for e in entries]
        self.end = grid_units(entries[-1].hi, scale)

    def find(self, u: int) -> int | None:
        if not self.starts[0] <= u < self.end:
            return None
        return bisect.bisect_right(self.starts, u) - 1


@dataclass(frozen=True)
class PeriodicFamily:
    """The inner-pattern cells repeated across congruent pieces; the cells
    tile one period."""

    cells: tuple[CellSpec, ...]
    period: Fraction
    count: int

    @property
    def lo(self) -> Fraction:
        return self.cells[0].lo

    @property
    def hi(self) -> Fraction:
        return self.cells[-1].hi + (self.count - 1) * self.period


def check_tiling(entries: Sequence, iv: Interval):
    """Raise unless the cells and periodic families tile iv in order."""
    pos = iv.lo
    for e in entries:
        if e.lo != pos or e.hi <= e.lo:
            raise AssertionError(f"cell tiling broken at {e}")
        if isinstance(e, PeriodicFamily):
            check_tiling(e.cells, Interval(e.lo, e.lo + e.period))
        pos = e.hi
    if pos != iv.hi:
        raise AssertionError("cells do not cover the interval")


def atom_cell(space: UniformSpace, i: int, kind: str, m: int) -> CellSpec:
    """The cell [i h, (i + 1) h) of atom i of space."""
    return CellSpec(i * space.h, (i + 1) * space.h, kind, m)


def tile(iv: Interval, blocks: Sequence[Sequence]) -> list:
    """Lay the blocks (runs of consecutive cells) left to right across iv,
    with keep cells in the gaps; raise unless the result tiles iv."""
    cells: list = []
    pos = iv.lo
    for block in blocks:
        if block[0].lo > pos:
            cells.append(CellSpec(pos, block[0].lo, "keep"))
        cells.extend(block)
        pos = block[-1].hi
    if pos < iv.hi:
        cells.append(CellSpec(pos, iv.hi, "keep"))
    check_tiling(cells, iv)
    return cells


def require_checks(trace, what: str):
    """Raise unless every check recorded on trace passed."""
    failed = [name for name, ok in trace.checks if not ok]
    if failed:
        raise AssertionError(f"{what} violated {failed}")


class RunGroup:
    """The merged runs of the terms that share one basis group: a space,
    an index shift and an instance count.

    `entries` are (j0, j1, ((slot key, coefficient numerator), ...)) with
    the index range [j0, j1] counted from `origin`, the group's first
    index, sorted and disjoint; every coefficient is its numerator over the
    group denominator `den`. A periodic group stores its base instance, and
    its runs span fewer indices than its shift, so index j lies in instance
    ell at entry index q for (ell, q) = divmod(j - origin, shift). A group
    of plain terms is one instance whose shift is its span.

    One normalisation per result: at a point, the basis values are integer
    numerators over one denominator (`cardinal.span_numerators`), so each
    slot sums integers over the group and takes one Fraction per group.
    """

    __slots__ = ("space", "shift", "count", "origin", "starts", "entries", "den")

    def __init__(self, space: UniformSpace, shift: Optional[int], count: int, entries: list):
        entries = sorted(entries, key=lambda e: e[0])
        for (_, hi, _), (lo, _, _) in zip(entries, entries[1:]):
            if lo <= hi:
                raise AssertionError(f"runs of a basis group overlap at index {lo}")
        origin = entries[0][0]
        span = entries[-1][1] - origin + 1
        if shift is None:
            shift = span
        elif span >= shift:
            raise AssertionError(
                f"periodic runs span {span} indices, not fewer than their shift {shift}"
            )
        self.space, self.shift, self.count, self.origin = space, shift, count, origin
        coeffs, self.den = over_common_denominator([c for *_, slots in entries for _, c in slots])
        nums = iter(coeffs)
        self.entries = [
            (j0 - origin, j1 - origin, tuple((key, next(nums)) for key, _ in slots))
            for j0, j1, slots in entries
        ]
        self.starts = [e[0] for e in self.entries]

    def slots_between(self, j0: int, j1: int):
        """The ((slot key, coefficient numerator over den), ...) tuples of the
        runs, in every instance, that hold an index in j0 .. j1."""
        first = max(0, (j0 - self.origin) // self.shift)
        last = min(self.count - 1, (j1 - self.origin) // self.shift)
        for ell in range(first, last + 1):
            lo = j0 - self.origin - ell * self.shift
            hi = lo + j1 - j0
            e = max(0, bisect.bisect_right(self.starts, lo) - 1)
            while e < len(self.entries) and self.entries[e][0] <= hi:
                if self.entries[e][1] >= lo:
                    yield self.entries[e][2]
                e += 1

    def accumulate(self, window: list, out: dict):
        """Add to out, per slot, the terms' values at the point of window
        [a, x, spans]: atom index a, fractional part x, and the space's span
        numerators at x, taken on the first window index that hits a run
        and kept in the window for the other groups of the space."""
        a, x, spans = window
        k = self.space.k
        ell, q = divmod(a - self.origin, self.shift)
        sums: dict = {}
        for i in range(k):
            if 0 <= ell < self.count:
                e = bisect.bisect_right(self.starts, q) - 1
                if e >= 0 and q <= self.entries[e][1]:
                    if spans is None:
                        spans = window[2] = span_numerators(k, x)
                    v = spans[0][k - 1 - i]
                    if v:
                        for key, c in self.entries[e][2]:
                            sums[key] = sums.get(key, 0) + c * v
            q += 1
            if q == self.shift:
                ell, q = ell + 1, 0
        if sums:
            den = self.den * spans[1]
            for key, n in sums.items():
                v = Fraction(n, den)
                out[key] = out[key] + v if key in out else v


def basis_group(scal) -> tuple[tuple, tuple]:
    """The group key (space, index shift or None, count) of an RleSpline or
    PeriodicSpline, and the runs of its base instance."""
    if isinstance(scal, PeriodicSpline):
        if scal.count > 1:
            return (scal.space, scal.index_shift, scal.count), scal.base.runs
        scal = scal.base
    return (scal.space, None, 1), scal.runs


class SlotwisePattern:
    """g = sum of scalar splines times slot vectors, evaluated slot by slot.

    Subclasses provide `interval`, `cells`, `terms` ((scalar, slot key)
    pairs), `r_terms` ((scalar, ("w", i)) pairs) and `w_data` (the
    (coefficient, slot key) expansion of each correction vector i).

    Point evaluation reads `run_table`: the runs of every term, merged per
    basis group (space, index shift, count) into one sorted table whose
    entries carry their slot coefficients, with each ("w", i) bump expanded
    through w_data once, at build. At t, a group takes the atom index from
    one divmod (and one more onto the base instance if it is periodic),
    looks up each of the k window indices with one bisection and takes the
    space's span numerators only once an index hits a run. The table holds no
    witness vectors, so every binding of the pattern shares it. Check (1)
    of the verification suite takes the moments from the same table.
    """

    @cached_property
    def run_table(self) -> tuple[RunGroup, ...]:
        """The terms' runs as one RunGroup per basis group."""
        groups: dict = {}
        terms = [(scal, ((key, F1),)) for scal, key in self.terms]
        terms += [(scal, tuple((key, coef) for coef, key in self.w_data[i]))
                  for scal, (_, i) in self.r_terms]
        for scal, slots in terms:
            gkey, runs = basis_group(scal)
            if slots and runs:
                groups.setdefault(gkey, []).extend(
                    (j0, j1, tuple((key, c * coef) for key, coef in slots)) for j0, j1, c in runs
                )
        return tuple(RunGroup(*gkey, entries) for gkey, entries in groups.items())

    def eval_slotwise(self, t: Fraction) -> dict:
        """g(t) per slot, from the run table; the atom of t and its basis
        values are taken once per space."""
        out: dict = {}
        windows: dict = {}
        for group in self.run_table:
            window = windows.get(group.space)
            if window is None:
                window = windows[group.space] = [*group.space.atom_at(t), None]
            group.accumulate(window, out)
        return out

    @cached_property
    def ledger(self) -> tuple:
        """((kind, m), summed width of those cells over every instance) pairs,
        in order of first appearance; cells sharing (kind, m) give an atom
        the same child value.

        Widths sum as integer grid units over one scale, the lcm of the
        cell-end denominators: one Fraction per entry.
        """
        tiles = []
        for e in self.cells:
            if isinstance(e, PeriodicFamily):
                tiles += [(c, e.count) for c in e.cells]
            else:
                tiles.append((e, 1))
        scale = math.lcm(*(x.denominator for c, _ in tiles for x in (c.lo, c.hi)))
        units: dict = {}
        for c, count in tiles:
            lo, hi = c.lo, c.hi
            u = hi.numerator * (scale // hi.denominator) - lo.numerator * (scale // lo.denominator)
            units[(c.kind, c.m)] = units.get((c.kind, c.m), 0) + u * count
        return tuple((key, Fraction(u, scale)) for key, u in units.items())

    def zone_mass(self) -> Fraction:
        return sum((w for (kind, _), w in self.ledger if kind == "zone"), F0)

    def zombie_length(self) -> Fraction:
        return sum((w for (kind, _), w in self.ledger if kind not in CONSTANT_KINDS), F0)


class BoundPattern:
    """A pattern bound to the (numerators, den) slot vectors of
    `slot_vectors`: g(t) and the correction vectors."""

    def __init__(self, pattern: SlotwisePattern, slots: tuple[dict, int]):
        self.pattern = pattern
        self.slots = slots

    @cached_property
    def w_vectors(self) -> list[XVec]:
        """The moment-correction vectors; built on first use, since their
        big-rational coefficients are costly and most readers never need them."""
        return [self._combine((key, coef) for coef, key in wd) for wd in self.pattern.w_data]

    def _combine(self, coefs) -> XVec:
        """sum of coef * slot vector over (slot key, coef) pairs: integer
        sums per coordinate over one lcm, one Fraction per coordinate."""
        nums, den = self.slots
        coefs = [(nums[key], c) for key, c in coefs]
        cden = math.lcm(*(c.denominator for _, c in coefs))
        sums: dict = {}
        for vec, c in coefs:
            a = c.numerator * (cden // c.denominator)
            for coord, n in vec.items():
                sums[coord] = sums.get(coord, 0) + a * n
        return XVec.over(sums, den * cden)

    def g_eval(self, t) -> XVec:
        return self._combine(self.pattern.eval_slotwise(frac(t)).items())


# ---------------------------------------------------------------------------
# trace records


@dataclass
class StoppingTrace:
    """Everything the stopping-time construction promises, as recorded."""

    eps: Fraction
    eps_tilde: Fraction
    eps1: Fraction
    eps2: Fraction
    eps3: Fraction
    n_pieces: int
    blocks: int
    M: int
    alphas: tuple
    C: Fraction
    union_blocks: Fraction
    union_upto_jM: Fraction
    int_f: tuple
    betas: tuple
    j_indices: tuple
    per_m_block_mass: tuple
    per_m_p_mass: tuple
    zone_mass: Fraction
    vmass: Fraction
    checks: list = field(default_factory=list)

    def run_checks(self):
        out = []

        def chk(name, ok):
            out.append((name, bool(ok)))

        chk("eq:applemma", Fraction(self.n_pieces - 2, self.n_pieces) * self.vmass
            >= (1 - self.eps / 3) * self.vmass)
        chk("eq:cons_est", 72 * self.eps1 * self.M <= self.eps * self.eps_tilde * self.union_blocks)
        for m in range(self.M):
            chk(f"stopping[{m}]", self.int_f[m] > self.C * self.alphas[m])
            chk(f"eq:alpha_upper[{m}]", self.int_f[m] <= self.C * self.alphas[m] + 3 * self.eps1)
            lo_mass, hi_mass = self.per_m_block_mass[m], self.per_m_p_mass[m]
            chk(f"eq:unionintegral[{m}]",
                lo_mass <= self.int_f[m] <= hi_mass
                and hi_mass <= lo_mass + 2 * self.n_pieces * self.eps3)
        chk("eq:B_ell_lower", (1 - self.eps_tilde) * self.union_blocks <= self.union_upto_jM)
        chk("eq:B_ell_upper", self.union_upto_jM <= (1 - self.eps_tilde / 6) * self.union_blocks)
        chk("eq:intfM", self.int_f[self.M] >= self.eps_tilde / 12 * self.union_blocks)
        chk("sum_beta", sum(abs(b) for b in self.betas) < self.eps / 2)
        chk("mass_A1", self.zone_mass >= (1 - self.eps) * self.vmass)
        self.checks = out
        return out


# ---------------------------------------------------------------------------
# Step 1, stopping-time variant (constant convex weights)


@dataclass
class Step1Pattern(SlotwisePattern):
    """Output of the Step-1 construction on a representative interval."""

    interval: Interval
    K: int
    space: UniformSpace
    terms: list  # (RleSpline, SlotKey)
    cells: list  # CellSpec tiles of `interval`
    M: int
    trace: StoppingTrace
    r_terms: tuple = ()
    w_data: tuple = ()


def step1_stopping(
    ctx: ConstructionContext,
    interval: Interval,
    alphas: Sequence[Fraction],
    eps: Fraction,
    base_level: int,
    *,
    max_zombie_length: Fraction,
) -> Step1Pattern:
    """Stopping-time construction for constant convex weights.

    Builds f_1 .. f_{M+1} in S_K so that g = sum_m f_m ⊗ (x_m - xbar)
    + f_{M+1} ⊗ sum beta_j (x_j - xbar) has exact mean zero, is supported
    inside int I, agrees with a child value on zones carrying at least
    (1 - eps) of |I ∩ V|, and admits convex representations elsewhere; for
    k >= 2 its ramp atoms, where it is not constant, total at most
    `max_zombie_length`.

    The level K puts a = inf I and the piece width d = |I| / p**s on its
    grid. The caller, `step2_correct`, passes I = [a' + d', a' + 2d'] for
    its pieces [a' + (l - 1) d', a' + l d']; that grid also holds
    d' = p**s d and a' = a - d', so it aligns every piece as it stands.
    """
    ctx.require_uniform()
    p, k = ctx.p, ctx.k
    alphas = tuple(frac(a) for a in alphas)
    M = len(alphas)
    if M < 1 or sum(alphas, F0) != 1 or any(a <= 0 for a in alphas):
        raise PreconditionError("weights must be positive and sum to one")
    eps = frac(eps)
    if not 0 < eps < 1:
        raise PreconditionError("eps must lie in (0, 1)")
    a = interval.lo
    width = interval.length
    vmass = width  # uniform generators have full limit set

    eps_tilde = eps * vmass / (3 * width)
    eps1 = eps * eps_tilde * (1 - eps / 3) * vmass / (72 * M)
    eps2 = eps / 3
    s = max(p_power_at_least(p, 2 / eps2), p_power_at_least(p, width / eps1))
    n = p**s
    d = width / n
    eps3 = eps1 / (2 * n)

    # level search: k+1 atoms inside the ball around each piece midpoint p1
    # on either side of p1, and the zombie (ramp) length budget; the level
    # puts a, d and every translation offset on the grid (see above)
    p1 = a + d / 2
    lo_edge, hi_edge = max(a, p1 - eps3), min(a + d, p1 + eps3)
    ramp_atoms = 2 * (M + 1) * (k - 1)

    def ball(space: UniformSpace):
        # grid units of the first grid point right of lo_edge (u1), of the
        # last one left of hi_edge (v1) and of the piece width d
        units = space.num_atoms
        U1, V1 = math.floor(lo_edge * units) + 1, math.ceil(hi_edge * units) - 1
        if math.floor(p1 * units) - U1 < k + 1 or V1 - math.ceil(p1 * units) < k + 1:
            return None
        if k > 1 and ramp_atoms * space.h > max_zombie_length:
            return None
        return U1, V1, grid_units(d, units)

    start = max(base_level + 1, level_aligning(p, a, d))
    space, (U1, V1, D) = first_level(ctx, start, ball)
    K, h = space.level, space.h

    # pieces are 1-based and congruent: piece ell has ball points
    # u_ell = u1 + (ell - 1) d and v_ell = v1 + (ell - 1) d. Block i <->
    # piece i+1 (i = 1..L); blocks r..s_ cover (v_r, u_{s_+2}), and the
    # interior indices touching it form a range affine in r and s_
    L = n - 2

    def lam_range(r: int, s_: int) -> tuple[int, int]:
        return V1 + (r - 1) * D, U1 + (s_ + 1) * D + k - 2

    def int_range(r: int, s_: int) -> Fraction:
        jlo, jhi = lam_range(r, s_)
        return (jhi - jlo + 1) * h

    def union_length(r: int, s_: int) -> Fraction:
        return (U1 - V1 + (s_ + 2 - r) * D) * h

    union_blocks = union_length(1, L)
    C = (1 - eps_tilde / 3) * union_blocks
    if 72 * eps1 * M > eps * eps_tilde * union_blocks:
        raise AssertionError("eq:cons_est failed; parameter bug")

    # stopping scan
    j_prev = -1
    j_indices: list[int] = []
    f_ranges: list[tuple[int, int]] = []
    int_f: list[Fraction] = []
    per_m_block_mass: list[Fraction] = []
    per_m_p_mass: list[Fraction] = []
    for m in range(M):
        r = j_prev + 2
        if r > L:
            raise InfeasibleStoppingError(f"no blocks left for f_{m + 1}")
        target = C * alphas[m]
        if int_range(r, L) <= target:
            raise InfeasibleStoppingError(
                f"stopping scan exhausted blocks with ∫f_{m + 1} <= C alpha"
            )
        # smallest s_ >= r with int_range(r, s_) > target, where
        # int_range(r, s_) / h = base + s_ * D
        base = U1 - V1 + (2 - r) * D + k - 1
        units = target * space.num_atoms
        jm = max(r, (units.numerator - base * units.denominator) // (D * units.denominator) + 1)
        j_indices.append(jm)
        f_ranges.append(lam_range(r, jm))
        int_f.append(int_range(r, jm))
        per_m_block_mass.append(union_length(r, jm))
        # p-point hull: (p_{l(r)-1}, p_{l(jm)+1}) = (p_r, p_{jm+2})
        per_m_p_mass.append((jm + 2 - r) * d)
        j_prev = jm
    # final function f_{M+1}
    r = j_prev + 2
    if r > L:
        raise InfeasibleStoppingError("no blocks left for the remainder term")
    f_ranges.append(lam_range(r, L))
    int_f.append(int_range(r, L))
    union_upto_jM = union_length(1, j_indices[-1])

    betas = tuple((C * alphas[m] - int_f[m]) / int_f[M] for m in range(M))

    # supports must be pairwise disjoint with the paper's gap argument
    for (l1, h1), (l2, h2) in zip(f_ranges, f_ranges[1:]):
        if h1 >= l2:
            raise AssertionError("stopping ranges collided")

    terms: list = []
    for m in range(M):
        terms.append((RleSpline.from_index_range(space, *f_ranges[m]), ("d", m)))
    terms.append((RleSpline.from_index_range(space, *f_ranges[M]), ("dmix",)))

    cells = _stopping_cells(interval, space, f_ranges, M)
    trace = StoppingTrace(
        eps=eps,
        eps_tilde=eps_tilde,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        n_pieces=n,
        blocks=L,
        M=M,
        alphas=alphas,
        C=C,
        union_blocks=union_blocks,
        union_upto_jM=union_upto_jM,
        int_f=tuple(int_f),
        betas=betas,
        j_indices=tuple(j_indices),
        per_m_block_mass=tuple(per_m_block_mass),
        per_m_p_mass=tuple(per_m_p_mass),
        zone_mass=F0,
        vmass=vmass,
    )
    pattern = Step1Pattern(interval, K, space, terms, cells, M, trace)
    trace.zone_mass = pattern.zone_mass()
    trace.run_checks()
    require_checks(trace, "stopping construction")
    return pattern


def _stopping_cells(interval, space, f_ranges, M) -> list[CellSpec]:
    """Tile the interval: zones where some f_m is identically one, ramp
    atoms at the range edges, keep cells elsewhere."""
    k = space.k
    blocks = []
    for m, (jlo, jhi) in enumerate(f_ranges):
        if jhi - jlo + 1 < 2 * k - 1:
            raise AssertionError("stopping range too narrow for a zone")
        zone_hi = jhi - k + 2
        blocks.append(
            [atom_cell(space, jlo - k + 1 + r, "ramp", m) for r in range(k - 1)]
            + [CellSpec(jlo * space.h, zone_hi * space.h, "zone" if m < M else "mix", m)]
            + [atom_cell(space, zone_hi + r, "ramp", m) for r in range(k - 1)]
        )
    return tile(interval, blocks)
