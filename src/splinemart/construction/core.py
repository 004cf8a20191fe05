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

Cells are integers: every cell end and family period is a count of grid
units p**-K of the owning pattern's level K, from birth. Tiling, lookup,
the ledger and the E_n sampler compare and add these integers.

A pattern stores g slot-wise, as scalar splines paired with slot keys that
name witness vectors, and `BoundPattern` evaluates g with one integer
vector per key, which the driver writes from node paths. Each pattern has
one run table (`SlotwisePattern.run_table`): per basis group (space, index
shift, count), the disjoint runs (j0, j1, slot coefficients) of all its
terms, with the correction bumps already expanded into slot keys. A bound
pattern multiplies those coefficients into its slot vectors once, on its
first read at a point level, and keeps the result as its coordinate table
(`BoundPattern.coordinate_table`): each run then carries one tuple of
coordinate numerators.

Points are integers too: a point arrives as u / (d p**level), each space
of the pattern takes its atom index and fractional part from one divmod,
and g comes back as integer numerators over one denominator per
coordinate (`BoundPattern.g_numerators`). Where one run holds the whole
window of k indices that meet the point, B_k's translates sum to one there
and g is that run's coordinates as they stand; only a window cut by a run
edge, an instance boundary or a group's end takes B_k's span values. The
caller builds the Fractions of its result once, however many steps it
sums. Every common denominator comes from `cardinal`'s number kernel
(`over_common_denominator`, `add_numerators`).

Step 1 works in integer units, with one Fraction per recorded result. The
stopping scan counts ∫f_m, the block masses and the union lengths in grid
units h = p**-K and the hull masses in pieces d, puts each target
C alpha_m over one denominator and takes j_m from one floor division;
`StoppingTrace.run_checks` cross-multiplies those integers, and each beta
is one Fraction of integers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from ..errors import CapacityError, InfeasibleStoppingError, PreconditionError
from ..intervals import Interval, frac
from ..cardinal import add_numerators, over_common_denominator, span_numerators
from ..rle import PeriodicSpline, RleSpline, UniformSpace

F0 = Fraction(0)
F1 = Fraction(1)

#: deepest grid level any construction may use
LEVEL_CAP = 1 << 20

# slot keys name the witness-space vectors a scalar term multiplies:
#   ("d", m)    -> x_m - xbar
#   ("dmix",)   -> sum_j beta_j (x_j - xbar)
#   ("w", i)    -> i-th moment-correction vector (expanded via w_data / w_den)
SlotKey = tuple


def combine_numerators(terms) -> dict:
    """Σ a v over (integer a, numerator map v) terms: its non-zero entries."""
    out: dict = {}
    for a, vec in terms:
        for c, n in vec.items():
            out[c] = out.get(c, 0) + a * n
    return {c: n for c, n in out.items() if n}


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


def level_aligning(p: int, *values: Fraction) -> int:
    """Smallest K so every value is a multiple of p**-K, for any base p.

    A reduced denominator d divides p**K from some K on, if ever, and then
    at K = d.bit_length(), since no prime's exponent in d reaches that: so
    K is found by bisection, and a d that fails there is off every grid.
    """
    need = 0
    for v in values:
        d = frac(v).denominator
        lo, hi = need, d.bit_length()
        if pow(p, hi, d):
            raise PreconditionError(f"{v} is not on any {p}-ary grid")
        while lo < hi:
            mid = (lo + hi) // 2
            if pow(p, mid, d):
                lo = mid + 1
            else:
                hi = mid
        need = lo
    return need


# ---------------------------------------------------------------------------
# cells

#: cell kinds on which the perturbed function is constant
CONSTANT_KINDS = ("zone", "mix", "keep")


@dataclass(frozen=True)
class CellSpec:
    """One tile of the construction pattern, in representative coordinates:
    the cell [lo, hi) in integer grid units of the owning pattern's level K,
    that is [lo p**-K, hi p**-K). A unit of a Step-1 pattern is one atom of
    its space, so its ramp cell [a, a + 1) is atom a; a lemma pattern shares
    its inner pattern's level (see `step2_correct`).

    kind:
      zone   - perturbed function constant, value = child m (the mass carrier)
      mix    - constant, value = xbar + sum beta_j (x_j - xbar), which is
               xbar: the driver binds only equal part weights and equal
               betas, and takes the parts recombined as its rep
      keep   - constant, value = xbar (no perturbation here)
      ramp   - B-spline ramp of f_m (single atom; convex rep, not constant)
      rbump  - moment-correction bump atom (convex rep, not constant)

    At order 1 a correction bump is one atom, tiled as a keep cell (m = its
    bump index): the Step-1 mean already vanishes, so w = 0, as the driver
    checks on binding. It stays a cell of its own, so the cell list that
    the E_n sampler draws from does not change.
    """

    lo: int
    hi: int
    kind: str
    m: int = -1

    @property
    def is_constant(self) -> bool:
        return self.kind in CONSTANT_KINDS


def grid_units(x: Fraction, scale: int) -> int:
    """x * scale, which must be an integer (x on the grid of step 1/scale)."""
    q, off = divmod(scale, x.denominator)
    if off:
        raise AssertionError(f"{x} is off the grid of step 1/{scale}")
    return x.numerator * q


@dataclass(frozen=True)
class PeriodicFamily:
    """The inner-pattern cells repeated across congruent pieces; the cells
    tile one period. Ends and period are grid units, as in `CellSpec`."""

    cells: tuple[CellSpec, ...]
    period: int
    count: int

    @property
    def lo(self) -> int:
        return self.cells[0].lo

    @property
    def hi(self) -> int:
        return self.cells[-1].hi + (self.count - 1) * self.period


def check_tiling(entries: Sequence, lo: int, hi: int):
    """Raise unless the cells and periodic families tile [lo, hi) in order."""
    pos = lo
    for e in entries:
        if e.lo != pos or e.hi <= e.lo:
            raise AssertionError(f"cell tiling broken at {e}")
        if isinstance(e, PeriodicFamily):
            check_tiling(e.cells, e.lo, e.lo + e.period)
        pos = e.hi
    if pos != hi:
        raise AssertionError("cells do not cover the interval")


def tile(lo: int, hi: int, blocks: Sequence[Sequence]) -> list:
    """Lay the blocks (runs of consecutive cells) left to right across
    [lo, hi), with keep cells in the gaps; raise unless the result tiles it."""
    cells: list = []
    pos = lo
    for block in blocks:
        if block[0].lo > pos:
            cells.append(CellSpec(pos, block[0].lo, "keep"))
        cells.extend(block)
        pos = block[-1].hi
    if pos < hi:
        cells.append(CellSpec(pos, hi, "keep"))
    check_tiling(cells, lo, hi)
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
    group denominator `den`, the lcm of the integer (numerator, denominator)
    pairs the runs come in. A periodic group stores its base instance, and
    its runs span fewer indices than its shift, so index j lies in instance
    ell at entry index q for (ell, q) = divmod(j - origin, shift). A group
    of plain terms is one instance whose shift is its span.
    """

    __slots__ = ("space", "shift", "count", "origin", "extent", "starts", "entries", "den")

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
        self.extent = count * shift  # indices origin .. origin + extent - 1
        nums, self.den = over_common_denominator([c for *_, slots in entries for _, c in slots])
        nums = iter(nums)
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

    Subclasses provide `interval`, `cells`, `scale` (p**K, the cells' grid
    units per unit length), `terms` ((scalar, slot key) pairs), `r_terms`
    ((scalar, ("w", i)) pairs), `w_data` (the (integer numerator, slot key)
    expansion of each correction vector i) and `w_den`, their denominator.

    `run_table` holds the runs of every term, merged per basis group
    (space, index shift, count) into one sorted table whose entries carry
    their slot coefficients, with each ("w", i) bump expanded through
    w_data once, at build: run coefficient c and numerator n give the pair
    (c.numerator n, c.denominator w_den). The table holds no witness
    vectors, so every binding of the pattern shares it: point evaluation
    reads it through a binding's coordinate table (`BoundPattern`), and
    check (1) of the verification suite reads it too.
    """

    @cached_property
    def run_table(self) -> tuple[RunGroup, ...]:
        """The terms' runs as one RunGroup per basis group."""
        groups: dict = {}
        terms = [(scal, ((1, key),), 1) for scal, key in self.terms]
        terms += [(scal, self.w_data[i], self.w_den) for scal, (_, i) in self.r_terms]
        for scal, slots, den in terms:
            gkey, runs = basis_group(scal)
            if slots and runs:
                entries = groups.setdefault(gkey, [])
                for j0, j1, c in runs:
                    cn, cd = c.numerator, c.denominator * den
                    entries.append((j0, j1, tuple((key, (cn * n, cd)) for n, key in slots)))
        return tuple(RunGroup(*gkey, entries) for gkey, entries in groups.items())

    @cached_property
    def ledger_units(self) -> tuple:
        """((kind, m), summed width of those cells over every instance, in
        integer grid units) pairs, in order of first appearance; cells
        sharing (kind, m) give an atom the same child value."""
        units: dict = {}
        for e in self.cells:
            count, cells = (e.count, e.cells) if isinstance(e, PeriodicFamily) else (1, (e,))
            for c in cells:
                units[(c.kind, c.m)] = units.get((c.kind, c.m), 0) + (c.hi - c.lo) * count
        return tuple(units.items())

    def zone_mass(self) -> Fraction:
        return Fraction(sum(u for (kind, _), u in self.ledger_units if kind == "zone"), self.scale)

    def zombie_length(self) -> Fraction:
        return Fraction(
            sum(u for (kind, _), u in self.ledger_units if kind not in CONSTANT_KINDS), self.scale
        )


class BoundPattern:
    """A pattern bound to integer slot vectors, {slot key: {coordinate:
    integer}}: g(t) and the sup norm of the correction vectors. g is read
    from one coordinate table per point level, built on the first read and
    kept; the build takes only `w_norm` and builds no table. A caller with
    rational slot vectors scales them to integers first."""

    def __init__(self, pattern: SlotwisePattern, slots: dict):
        self.pattern = pattern
        self.slots = slots
        self._tables: dict = {}  # point level -> coordinate table

    def w_norm(self) -> Fraction:
        """max_i ||w_i||: each coordinate of w_i is an integer sum over
        w_den, so one Fraction of the largest |sum|."""
        ws = [combine_numerators((n, self.slots[k]) for n, k in wd) for wd in self.pattern.w_data]
        top = max((abs(n) for w in ws for n in w.values()), default=0)
        return Fraction(top, self.pattern.w_den)

    def coordinate_table(self, level: int) -> tuple:
        """The run table for points of `level`, each run's slot coefficients
        multiplied into the integer slot vectors: per space level L,
        (p**(L - level), k, groups), and per group (origin, shift, count,
        extent, starts, ends, coordinates, den), coordinates[e] being the
        (coordinate, numerator) pairs of entry e over den, the group
        denominator. A space coarser than `level` cannot read such a point,
        and is refused here."""
        spaces: dict = {}
        for group in self.pattern.run_table:
            sp = group.space
            if sp.level < level:
                raise PreconditionError(
                    f"a level-{sp.level} space cannot read a point of level {level}"
                )
            coords = [
                tuple(combine_numerators((c, self.slots[key]) for key, c in slots).items())
                for *_, slots in group.entries
            ]
            ends = [e[1] for e in group.entries]
            # the spaces of one pattern share p and k, so the level names one
            _, _, groups = spaces.setdefault(sp.level, (sp.p ** (sp.level - level), sp.k, []))
            groups.append((group.origin, group.shift, group.count, group.extent,
                           group.starts, ends, coords, group.den))
        return tuple(spaces.values())

    def g_numerators(self, u: int, d: int, level: int) -> tuple[dict, int]:
        """g at the point u / (d p**level) as ({coordinate: integer
        numerator}, den), from the coordinate table of `level`.

        Per space level, one divmod of u p**(L - level) by d gives the atom
        index a and the fractional part rem / d. Per group, one divmod puts
        a onto its instance (ell, q) and one bisection finds the run holding
        q. When that run, in the same instance, also holds q + k - 1, the
        k translates of B_k that meet the point sum to one, so g is the
        run's coordinates over the group denominator as they stand. A window
        cut by a run edge, an instance boundary or the group's ends looks up
        each index a .. a+k-1 with a bisection, and B_k's span numerators
        are taken once per space level, when such an index first hits a
        run. The groups that hit are added over their lcm (`add_numerators`);
        a group that misses adds nothing, not even its denominator (the
        bumps' has thousands of bits at depth).
        """
        table = self._tables.get(level)
        if table is None:
            table = self._tables[level] = self.coordinate_table(level)
        out: dict = {}
        den = 1
        for up, k, groups in table:
            a, rem = divmod(u * up, d)
            spans = None
            for origin, shift, count, extent, starts, ends, coords, gden in groups:
                rel = a - origin
                if rel + k <= 0 or rel >= extent:
                    continue  # the window a .. a+k-1 misses every instance
                ell, q = divmod(rel, shift)
                if 0 <= ell < count and q + k <= shift:
                    e = bisect.bisect_right(starts, q) - 1
                    if e >= 0 and q + k - 1 <= ends[e]:  # one run holds the window
                        if coords[e]:
                            out, den = add_numerators((out, den), (dict(coords[e]), gden))
                        continue
                sums: dict = {}
                for i in range(k - 1, -1, -1):
                    if 0 <= ell < count:
                        e = bisect.bisect_right(starts, q) - 1
                        if e >= 0 and q <= ends[e]:
                            if spans is None:
                                g = math.gcd(rem, d)
                                spans = span_numerators(k, rem // g, d // g)
                            v = spans[0][i]
                            if v:
                                for c, n in coords[e]:
                                    sums[c] = sums.get(c, 0) + n * v
                    q += 1
                    if q == shift:
                        ell, q = ell + 1, 0
                if sums:
                    out, den = add_numerators((out, den), (sums, gden * spans[1]))
        return out, den


# ---------------------------------------------------------------------------
# trace records


@dataclass
class StoppingTrace:
    """Everything the stopping-time construction promises, as recorded.

    The per-part quantities are integers with their units: ∫f_m (`f_units`,
    m = 0..M) and the block masses (`block_units`) count grid units
    h = 1 / scale of the pattern's level, the p-point hull masses
    (`hull_pieces`) count pieces d = piece_units h, and `targets` holds
    C alpha_m / h as one (numerator, denominator) pair per part. The
    per-part checks cross-multiply these integers.
    """

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
    scale: int
    piece_units: int
    targets: tuple
    f_units: tuple
    block_units: tuple
    hull_pieces: tuple
    betas: tuple
    j_indices: tuple
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
        # per part in integers: 3 eps1 / h = en / ed and 2 n eps3 / h = sn / sd
        e = 3 * self.eps1 * self.scale
        en, ed = e.numerator, e.denominator
        s = 2 * self.n_pieces * self.eps3 * self.scale
        sn, sd = s.numerator, s.denominator
        for m in range(self.M):
            f, (tn, td) = self.f_units[m], self.targets[m]
            lo, hi = self.block_units[m], self.hull_pieces[m] * self.piece_units
            chk(f"stopping[{m}]", f * td > tn)
            chk(f"eq:alpha_upper[{m}]", f * td * ed <= tn * ed + en * td)
            chk(f"eq:unionintegral[{m}]", lo <= f <= hi and hi * sd <= lo * sd + sn)
        chk("eq:B_ell_lower", (1 - self.eps_tilde) * self.union_blocks <= self.union_upto_jM)
        chk("eq:B_ell_upper", self.union_upto_jM <= (1 - self.eps_tilde / 6) * self.union_blocks)
        chk("eq:intfM", self.f_units[self.M] >= self.eps_tilde / 12 * self.union_blocks * self.scale)
        nums, den = over_common_denominator(self.betas)
        chk("sum_beta", 2 * sum(map(abs, nums)) * self.eps.denominator < self.eps.numerator * den)
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

    @property
    def scale(self) -> int:
        return self.space.num_atoms


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

    K is the smallest such level that holds k + 1 grid points strictly
    inside the ball (p1 - eps3, p1 + eps3) on either side of each piece
    midpoint p1, and, for k >= 2, fits the 2 (M + 1) (k - 1) ramp atoms
    into `max_zombie_length`. The ball lies inside its piece, as
    eps3 / d = eps**2 (1 - eps / 3) / (432 M) < 1/2. With a and d on the
    grid, p1 is a grid point when D = d p**K is even and an atom midpoint
    when D is odd, so the ball holds its points iff eps3 p**K > k + 1 +
    (D mod 2) / 2. So K is the largest of the lower bounds, with
    eps3 p**K >= k + 1 among them, plus one level where the strict bound
    fails there: one level deeper, eps3 p**K >= 2 (k + 1) meets it.
    """
    ctx.require_uniform()
    p, k = ctx.p, ctx.k
    alphas = tuple(frac(a) for a in alphas)
    M = len(alphas)
    nums, den = over_common_denominator(alphas)
    if M < 1 or sum(nums) != den or min(nums) <= 0:
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

    # the level (see above)
    p1 = a + d / 2
    ramp_atoms = 2 * (M + 1) * (k - 1)
    K = max(
        base_level + 1,
        level_aligning(p, a, d),
        p_power_at_least(p, (k + 1) / eps3),
        p_power_at_least(p, ramp_atoms / max_zombie_length) if k > 1 else 0,
    )
    if eps3 * p**K <= k + 1 + Fraction(grid_units(d, p**K) % 2, 2):
        K += 1
    space = ctx.space(K)
    h, scale = space.h, space.num_atoms
    # grid units of the first grid point right of p1 - eps3 (u1), of the
    # last one left of p1 + eps3 (v1) and of the piece width d; then the
    # ball and the zombie budget, checked at K
    U1, V1 = math.floor((p1 - eps3) * scale) + 1, math.ceil((p1 + eps3) * scale) - 1
    D = grid_units(d, scale)
    if math.floor(p1 * scale) - U1 < k + 1 or V1 - math.ceil(p1 * scale) < k + 1:
        raise AssertionError(f"level {K} puts fewer than {k + 1} grid points in a half ball")
    if k > 1 and ramp_atoms * h > max_zombie_length:
        raise AssertionError(f"level {K} overruns the zombie budget")

    # pieces are 1-based and congruent: piece ell has ball points
    # u_ell = u1 + (ell - 1) d and v_ell = v1 + (ell - 1) d. Block i <->
    # piece i+1 (i = 1..L); blocks r..s_ cover (v_r, u_{s_+2}), and the
    # interior indices touching it form a range affine in r and s_. In grid
    # units, the blocks r..s_ span U1 - V1 + (s_ + 2 - r) D and the range
    # k - 1 more
    L = n - 2

    def lam_range(r: int, s_: int) -> tuple[int, int]:
        return V1 + (r - 1) * D, U1 + (s_ + 1) * D + k - 2

    union_blocks = Fraction(U1 - V1 + (L + 1) * D, scale)
    C = (1 - eps_tilde / 3) * union_blocks
    if 72 * eps1 * M > eps * eps_tilde * union_blocks:
        raise AssertionError("eq:cons_est failed; parameter bug")

    # stopping scan, in grid units: C alpha_m / h = tn / td over one
    # denominator per part, and j_m is the smallest s_ >= r with
    # base + s_ D > tn / td, where base + s_ D is ∫ over the range r..s_
    cu = C * scale
    j_prev = -1
    j_indices: list[int] = []
    f_ranges: list[tuple[int, int]] = []
    targets: list[tuple[int, int]] = []
    f_units: list[int] = []
    block_units: list[int] = []
    hull_pieces: list[int] = []
    for m, alpha in enumerate(alphas):
        r = j_prev + 2
        if r > L:
            raise InfeasibleStoppingError(f"no blocks left for f_{m + 1}")
        tn, td = cu.numerator * alpha.numerator, cu.denominator * alpha.denominator
        base = U1 - V1 + (2 - r) * D + k - 1
        if (base + L * D) * td <= tn:
            raise InfeasibleStoppingError(
                f"stopping scan exhausted blocks with ∫f_{m + 1} <= C alpha"
            )
        jm = max(r, (tn - base * td) // (D * td) + 1)
        j_indices.append(jm)
        f_ranges.append(lam_range(r, jm))
        targets.append((tn, td))
        f_units.append(base + jm * D)
        block_units.append(base - k + 1 + jm * D)
        # p-point hull: (p_{l(r)-1}, p_{l(jm)+1}) = (p_r, p_{jm+2}), in pieces
        hull_pieces.append(jm + 2 - r)
        j_prev = jm
    # final function f_{M+1}
    r = j_prev + 2
    if r > L:
        raise InfeasibleStoppingError("no blocks left for the remainder term")
    f_ranges.append(lam_range(r, L))
    f_units.append(U1 - V1 + (L + 2 - r) * D + k - 1)
    union_upto_jM = Fraction(U1 - V1 + (j_indices[-1] + 1) * D, scale)

    # beta_m = (C alpha_m - ∫f_m) / ∫f_{M+1}, one Fraction of integers each
    betas = tuple(
        Fraction(tn - f * td, td * f_units[M]) for (tn, td), f in zip(targets, f_units)
    )

    # supports must be pairwise disjoint with the paper's gap argument
    for (l1, h1), (l2, h2) in zip(f_ranges, f_ranges[1:]):
        if h1 >= l2:
            raise AssertionError("stopping ranges collided")

    terms: list = []
    for m in range(M):
        terms.append((RleSpline.from_index_range(space, *f_ranges[m]), ("d", m)))
    terms.append((RleSpline.from_index_range(space, *f_ranges[M]), ("dmix",)))

    A = grid_units(a, scale)
    cells = _stopping_cells(A, A + n * D, k, f_ranges, M)
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
        scale=scale,
        piece_units=D,
        targets=tuple(targets),
        f_units=tuple(f_units),
        block_units=tuple(block_units),
        hull_pieces=tuple(hull_pieces),
        betas=betas,
        j_indices=tuple(j_indices),
        zone_mass=F0,
        vmass=vmass,
    )
    pattern = Step1Pattern(interval, K, space, terms, cells, M, trace)
    trace.zone_mass = pattern.zone_mass()
    trace.run_checks()
    require_checks(trace, "stopping construction")
    return pattern


def _stopping_cells(lo: int, hi: int, k: int, f_ranges, M) -> list[CellSpec]:
    """Tile the atoms lo .. hi - 1: zones where some f_m is identically one,
    ramp atoms at the range edges, keep cells elsewhere."""
    blocks = []
    for m, (jlo, jhi) in enumerate(f_ranges):
        if jhi - jlo + 1 < 2 * k - 1:
            raise AssertionError("stopping range too narrow for a zone")
        zone_hi = jhi - k + 2
        blocks.append(
            [CellSpec(i, i + 1, "ramp", m) for i in range(jlo - k + 1, jlo)]
            + [CellSpec(jlo, zone_hi, "zone" if m < M else "mix", m)]
            + [CellSpec(i, i + 1, "ramp", m) for i in range(zone_hi, zone_hi + k - 1)]
        )
    return tile(lo, hi, blocks)
