"""Exact Fraction oracles for the uniform-grid spline kernels, one Fraction
operation per term.

Bound patterns evaluate through their coordinate table, the run table
with each run's slot coefficients multiplied into the slot vectors, which
sums integer coordinate numerators over one denominator per basis group
(`cardinal.span_numerators`, from the integer span table that
`cardinal._local_spans` builds by the order recurrence). `unit_slots`
binds a pattern to one unit coordinate per slot key, so that table reads
g slot by slot. The functions here take B_k from its truncated-power
form instead (`truncated_power`, `span_polynomial`) and read nothing of
`cardinal`'s spans, so a fault in the table or the kernel shows up as a
disagreement. They also hold the single-spline helpers that only tests
use: cardinal values, periodic instances and support bounds.

`moment_slotwise` takes a pattern's slot moments term by term, through
the build's own `RleSpline.moment` and `PeriodicSpline.moment`; the
verification suite's check (1) reads the run table instead and shares no
moment code with it, so each checks the other.

`reference_w_data` is the Fraction path that the integer correction of
`step2_correct` replaced: per slot, w = -A^{-1} z with one reduced
Fraction(wn, aden zd) per coefficient, A^{-1} the inverse of the rational
moment matrix A itself. `reference_ainv_norm` takes ||A^{-1}|| from that
inverse, where the build inverts A's integer rows instead. `w_fractions`
reads a pattern's integer coefficients as Fractions, `combine` sums Fraction
coefficients times slot vectors with one Fraction per coordinate, and
`w_vectors` and `w_sup_norm` build the correction vectors and their largest
sup norm from them, the reference for `BoundPattern.w_norm`.

`node_vector` materialises one bush node x_s; summing w_s * x_s with
`XVec.add` and `XVec.scale` (`node_sum`) is the reference for
`BushRep.value`, which reads ±1 off the node's path instead.

`GeneralRep` is the general bush value that `BushRep` replaced: any convex
combination of nodes, as a tuple of Fraction weights checked to sum to
one, with its value summed as integers up the path trie and its shape
relabelled below the nodes' longest common prefix. `general_mix_reps` is
its affine combination and `general_decompose` its expansion to the
descendants at a common depth, one Fraction share per descendant.
`as_general` reads a `BushRep` as the general value it stands for (equal
weights on the 2^depth descendants of its node), so the compact forms can
be checked against these wherever they apply. `general_slot_vectors` is
the general binding that the driver's node-path slots replaced: x_m - xbar
and Σ beta_m (x_m - xbar) for any xbar, points and betas, over the lcm of
their denominators; `xvec_numerators` turns an XVec into the
({coordinate: integer numerator}, den) pair it takes, `RationalBound`
binds a pattern to its result by dividing g and ||w|| by the denominator,
and `slot_xvecs` reads integer slot vectors over a denominator as one XVec
per slot.

`step_values` and `descend_random_cell` are the Fraction point walk and
E_n sampler that the integer ones of `SequenceResult` replaced: every step
builds t's atom, the pattern coordinate tau and each group's slot values
as Fractions from the run table (`eval_slotwise`, the slot-wise
evaluation that the coordinate table replaced, and `g_eval`), finds the
cell by bisection over Fraction cell starts that the oracle takes itself
(`fraction_starts`, `reference_locate`) and adds witness vectors with
`XVec.add`; `partial_sums` keeps every f_n(t) of one walk, and
`fraction_steps` yields what each step reads. Cells hold their ends as
integer grid units of the pattern's level K; the oracles read them as
Fractions (`cell_ends`), and `cell_points` and `bump_ends` pick points on
each cell and at each correction bump's support ends.

`step1_level_search` and `bump_level_search` are the level searches that
the closed-form levels of `step1_stopping` and `step2_correct` replaced:
`first_level` walks up from the alignment level, builds each space and
tests the Step-1 ball or the Step-2 room by floors and ceilings of the
values at that level. `aligning_level` takes the alignment level from the
prime exponents of the base and the denominators, not by bisection.

`fraction_stopping` and `fraction_census` are the Fraction Step-1 scan
and the per-ledger-entry census spawn that the integer ones replaced: the
scan keeps ∫f_m, the block and hull masses and the targets C alpha_m as
Fractions and checks them over Fractions; the spawn adds one child per
ledger entry with a Fraction length and grows the census rows in place.
`stopping_masses` and `ledger` read a build's integer trace units and
ledger widths as Fractions.
"""

import bisect
import itertools
import math
import os.path
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor

from splinemart.cardinal import over_common_denominator, span_numerators
from splinemart.construction.core import BoundPattern, PeriodicFamily, combine_numerators
from splinemart.construction.driver import DELTA, ClassRow, _child_value
from splinemart.construction.lemma import invert_exact
from splinemart.errors import UnachievableSeparationError
from splinemart.intervals import frac
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace
from splinemart.witness import BushRep, XVec, bush_decompose, mix_reps


def node_coordinate(path: str) -> int:
    """Fresh coordinate a(s) allocated by node s: heap numbering, root = 1."""
    return (1 << len(path)) + (int(path, 2) if path else 0)


def node_vector(path: str) -> XVec:
    """Bush node x_s: root is 0; child s0 = x_s + e_a(s), child s1 = x_s - e_a(s)."""
    entries: dict[int, Fraction] = {}
    for depth, bit in enumerate(path):
        coord = node_coordinate(path[:depth])
        entries[coord] = Fraction(1) if bit == "0" else Fraction(-1)
    return XVec(entries)


def node_sum(rep) -> XVec:
    """A bush value's sum of w_s * x_s, node vector by node vector."""
    acc = XVec.zero()
    for path, w in as_general(rep).weights:
        acc = acc.add(node_vector(path).scale(w))
    return acc


@dataclass(frozen=True)
class GeneralRep:
    """Convex combination of bush nodes: the value sum(w_s * x_s) with
    non-negative rational weights summing to one."""

    weights: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        weights = []
        for path, w in self.weights:
            w = frac(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} on node {path!r}")
            weights.append(w)
        nums, den = over_common_denominator(weights)
        if sum(nums) != den:
            raise ValueError(f"weights sum to {Fraction(sum(nums), den)}, not 1")

    @classmethod
    def point(cls, path: str) -> "GeneralRep":
        return cls(((path, Fraction(1)),))

    def numerators(self) -> tuple[dict, int]:
        """sum(w_s * x_s) as ({coordinate: non-zero numerator}, den) over the
        weights' common denominator, in one pass up the path trie: coordinate
        c takes (weight at or below 2c) - (weight at or below 2c + 1)."""
        wnums, den = over_common_denominator([w for _, w in self.weights])
        below: list[dict] = [{} for _ in range(self.max_node_depth() + 1)]
        for (path, _), n in zip(self.weights, wnums):
            level = below[len(path)]
            node = node_coordinate(path)
            level[node] = level.get(node, 0) + n
        sums: dict = {}
        for depth in range(len(below) - 1, 0, -1):
            up = below[depth - 1]
            for node, n in below[depth].items():
                c = node >> 1
                up[c] = up.get(c, 0) + n
                sums[c] = sums.get(c, 0) + (-n if node & 1 else n)
        return {c: n for c, n in sums.items() if n}, den

    def value(self) -> XVec:
        return XVec.over(*self.numerators())

    def max_node_depth(self) -> int:
        return max((len(p) for p, _ in self.weights), default=0)

    def shape(self) -> tuple:
        """(prefix is empty, node weights with paths relative to the longest
        common prefix of all of them)."""
        cut = len(os.path.commonprefix([p for p, _ in self.weights]))
        if len(self.weights) == 1:  # a node is its own prefix
            cut = len(self.weights[0][0])
        return (cut == 0, tuple((p[cut:], w) for p, w in self.weights))


def as_general(rep) -> GeneralRep:
    """A BushRep as the GeneralRep it stands for: weight 2^-depth on each
    descendant of its node at relative depth `depth`, in path order. A
    GeneralRep is returned as it is."""
    if isinstance(rep, GeneralRep):
        return rep
    share = Fraction(1, 1 << rep.depth)
    return GeneralRep(tuple(
        (rep.path + "".join(bits), share) for bits in itertools.product("01", repeat=rep.depth)
    ))


def general_mix_reps(parts) -> GeneralRep:
    """Affine combination of bush values whose coefficients sum to one;
    the node weights of the result must come out non-negative. Each node
    weight sums integer numerators over the product of the coefficients'
    and the weights' common denominators: one Fraction per node."""
    parts = [(c, as_general(rep)) for c, rep in parts]
    cnums, cden = over_common_denominator([c for c, _ in parts])
    if sum(cnums) != cden:
        raise ValueError(f"coefficients sum to {Fraction(sum(cnums), cden)}, not 1")
    wnums, wden = over_common_denominator([w for _, rep in parts for _, w in rep.weights])
    weights = iter(wnums)
    acc: dict[str, int] = {}
    for cn, (_, rep) in zip(cnums, parts):
        for path, _ in rep.weights:
            acc[path] = acc.get(path, 0) + cn * next(weights)
    den = cden * wden
    return GeneralRep(tuple((p, Fraction(n, den)) for p, n in sorted(acc.items()) if n))


def general_decompose(rep, delta, target_count: int = 2) -> list:
    """Every node of a bush value expanded to its descendants at a common
    depth D past every node depth, with dyadically split weights: one
    Fraction share per descendant, as (share, GeneralRep point) pairs."""
    rep = as_general(rep)
    if frac(delta) > 1:
        raise UnachievableSeparationError(f"bush separation is 1, requested {delta}")
    d = rep.max_node_depth() + 1
    while sum(1 << (d - len(p)) for p, _ in rep.weights) < target_count:
        d += 1
    acc: dict[str, Fraction] = {}
    for path, w in rep.weights:
        share = w / (1 << (d - len(path)))
        for suffix in range(1 << (d - len(path))):
            desc = path + format(suffix, f"0{d - len(path)}b")
            acc[desc] = acc.get(desc, Fraction(0)) + share
    return [(acc[desc], GeneralRep.point(desc)) for desc in sorted(acc)]


def general_key(row) -> tuple:
    """A census row's class key with the shape of its value read as a
    GeneralRep's: the key the general form gives."""
    shape = None if row.rep_value is None else as_general(row.rep_value).shape()
    return (*row.key[:-1], shape)


def xvec_numerators(x: XVec) -> tuple[dict, int]:
    """An XVec as ({coordinate: integer numerator}, den), den the lcm of its
    entries' denominators: the form `general_slot_vectors` takes its vectors in."""
    den = math.lcm(*(v.denominator for _, v in x.items()))
    return {c: v.numerator * (den // v.denominator) for c, v in x.items()}, den


def general_slot_vectors(xbar: tuple, points, betas) -> tuple[dict, int]:
    """The ("d", m) and ("dmix",) slot vectors x_m - xbar and sum_j beta_j
    (x_j - xbar) as ({slot key: numerator map}, den), from xbar and the points
    x_m as ({coordinate: integer numerator}, den) pairs: no Fraction is built."""
    # the numerators of 1 / d over the common denominator D are the factors D / d
    (bar_up, *ups), den = over_common_denominator([(1, d) for _, d in (xbar, *points)])
    bnums, bden = over_common_denominator(betas)
    diffs = [combine_numerators(((up, x), (-bar_up, xbar[0]))) for (x, _), up in zip(points, ups)]
    slots = {("d", m): {c: n * bden for c, n in d.items()} for m, d in enumerate(diffs)}
    slots[("dmix",)] = combine_numerators(zip(bnums, diffs))
    return slots, den * bden


class RationalBound(BoundPattern):
    """A pattern bound to rational slot vectors, the ({slot key: numerator
    map}, den) pair of `general_slot_vectors`: `BoundPattern` takes the
    integer numerators, which scales g and ||w|| by den, and this divides
    them by den again."""

    def __init__(self, pattern, slots: tuple[dict, int]):
        super().__init__(pattern, slots[0])
        self.den = slots[1]

    def w_norm(self) -> Fraction:
        return super().w_norm() / self.den

    def g_numerators(self, u: int, d: int, level: int) -> tuple[dict, int]:
        nums, den = super().g_numerators(u, d, level)
        return nums, den * self.den


def slot_xvecs(slots: dict, den: int = 1) -> dict:
    """{slot key: {coordinate: numerator}} slot vectors over den as
    {slot key: XVec}."""
    return {key: XVec({c: Fraction(n, den) for c, n in vec.items()}) for key, vec in slots.items()}


def reference_w_data(pat) -> list:
    """The correction coefficients of a lemma pattern as (Fraction, slot key)
    pairs per bump, by the Fraction path: the slots' moment rows z summed
    term by term, w = -A^{-1} z slot by slot in the sorted slot order, and
    each non-zero coefficient one reduced Fraction(wn, aden zd)."""
    a, k = pat.interval.lo, len(pat.r_terms)
    amat = [[bump.moment(i, a) for bump, _ in pat.r_terms] for i in range(k)]
    ainv, aden = invert_exact(amat)
    slot_moments: dict = {}
    for scal, key in pat.terms:
        row = slot_moments.setdefault(key, [Fraction(0)] * k)
        for j in range(k):
            row[j] += scal.moment(j, a)
    out: list = [[] for _ in range(k)]
    for key, zrow in sorted(slot_moments.items(), key=lambda kv: repr(kv[0])):
        zn, zd = over_common_denominator(zrow)
        for i, arow in enumerate(ainv):
            wn = -sum(x * z for x, z in zip(arow, zn))
            if wn:
                out[i].append((Fraction(wn, aden * zd), key))
    return out


def reference_ainv_norm(pat) -> Fraction:
    """||A^{-1}||, the largest absolute row sum, of a lemma pattern's moment
    matrix A, from the inverse of A's Fraction entries."""
    a, k = pat.interval.lo, len(pat.r_terms)
    amat = [[bump.moment(i, a) for bump, _ in pat.r_terms] for i in range(k)]
    ainv, aden = invert_exact(amat)
    return Fraction(max(sum(abs(v) for v in row) for row in ainv), aden)


def w_fractions(pat) -> list:
    """A pattern's w_data as (Fraction, slot key) pairs: numerator / w_den."""
    return [[(Fraction(n, pat.w_den), key) for n, key in wd] for wd in pat.w_data]


def combine(slots: dict, coefs, den: int = 1) -> XVec:
    """sum of coef * slot vector over (slot key, Fraction coef) pairs, with
    {slot key: {coordinate: numerator}} slots over den: integer sums per
    coordinate over one lcm, one Fraction per coordinate."""
    coefs = [(slots[key], c) for key, c in coefs]
    cden = math.lcm(*(c.denominator for _, c in coefs))
    sums: dict = {}
    for vec, c in coefs:
        a = c.numerator * (cden // c.denominator)
        for coord, n in vec.items():
            sums[coord] = sums.get(coord, 0) + a * n
    return XVec.over(sums, den * cden)


def w_vectors(w_data, slots: dict, den: int = 1) -> list[XVec]:
    """The moment-correction vectors of (Fraction, slot key) coefficients,
    with slot vectors over den."""
    return [combine(slots, ((key, coef) for coef, key in wd), den) for wd in w_data]


def w_sup_norm(w_data, slots: dict, den: int = 1) -> Fraction:
    """The largest sup norm of the correction vectors: ||w|| as bound."""
    return max((w.sup_norm for w in w_vectors(w_data, slots, den)), default=Fraction(0))


def truncated_power(k: int, u: Fraction) -> Fraction:
    """B_k(u) = Σ_{j <= u} (-1)**j C(k, j) (u - j)**(k-1) / (k-1)! on [0, k),
    zero outside."""
    if u < 0 or u >= k:
        return Fraction(0)
    total = sum((-1) ** j * comb(k, j) * (u - j) ** (k - 1) for j in range(floor(u) + 1))
    return Fraction(total) / factorial(k - 1)


@lru_cache(maxsize=None)
def span_polynomial(k: int, i: int) -> tuple[Fraction, ...]:
    """Span i of B_k in its local coordinate, x -> B_k(i + x) on [0, 1), as
    coefficients in ascending powers of x: the truncated-power sum over
    j <= i with each (x + i - j)**(k-1) expanded binomially."""
    out = [Fraction(0)] * k
    for j in range(i + 1):
        for e in range(k):
            out[e] += (-1) ** j * comb(k, j) * comb(k - 1, e) * (i - j) ** (k - 1 - e)
    return tuple(c / factorial(k - 1) for c in out)


def span_value(k: int, i: int, x: Fraction) -> Fraction:
    """B_k(i + x) for an integer i and 0 <= x < 1: span i of B_k, a
    polynomial in the local coordinate x."""
    if not 0 <= i < k:
        return Fraction(0)
    return sum((c * x**e for e, c in enumerate(span_polynomial(k, i))), Fraction(0))


def eval_cardinal(k: int, u: Fraction) -> Fraction:
    """B_k(u) exactly; zero outside [0, k)."""
    if u < 0 or u >= k:
        return Fraction(0)
    i = floor(u)
    return span_value(k, i, u - i)


def instance(per: PeriodicSpline, ell: int) -> RleSpline:
    """Instance ell of a periodic spline: its base moved by ell periods."""
    d = ell * per.index_shift
    return RleSpline(per.space, [(j0 + d, j1 + d, c) for j0, j1, c in per.base.runs])


def support_bounds(scal) -> tuple[Fraction, Fraction] | None:
    """[lo, hi] covering the supports of an RleSpline's or a
    PeriodicSpline's basis functions; None for the zero spline. N_j is
    supported on [(j - k + 1) h, (j + 1) h]."""
    base = scal.base if isinstance(scal, PeriodicSpline) else scal
    b = base.index_bounds()
    if b is None:
        return None
    sp = scal.space
    lo, hi = (b[0] - sp.k + 1) * sp.h, (b[1] + 1) * sp.h
    if isinstance(scal, PeriodicSpline):
        hi += (scal.count - 1) * scal.shift
    return lo, hi


def basis_at(space: UniformSpace, t: Fraction) -> tuple[int, tuple[Fraction, ...]]:
    """Atom index a and the values N_a(t) .. N_{a+k-1}(t).

    With U = t / h and a = floor(U), N_{a+i}(t) = B_k(U - a + k - 1 - i),
    so only the fractional part of U meets the span polynomials; no other
    translate is non-zero at t. a is not clamped to the atoms of [0, 1]: a
    periodic instance may reach past the last interior index, and its
    translates there must read as they do at the shifted point.
    """
    a, x = atom_at(space, t)
    return a, tuple(span_value(space.k, space.k - 1 - i, x) for i in range(space.k))


def rle_combine(f: RleSpline, a: int, values) -> Fraction:
    """Σ_i c_{a+i} values[i]: the value at t from basis_at(space, t)."""
    total = Fraction(0)
    for j, v in enumerate(values, a):
        if v:
            c = f.coeff(j)
            if c:
                total += c * v
    return total


def periodic_combine(per: PeriodicSpline, a: int, values) -> Fraction:
    """Σ_i c_{a+i} values[i] over all instances, from basis_at(space, t).

    Index j lies in instance ell at base index b0 + q, where
    (ell, q) = divmod(j - b0, index_shift); one division places a and the
    rest of the window steps on from there.
    """
    if per.count == 1:
        return rle_combine(per.base, a, values)
    b = per.base.index_bounds()
    if b is None:
        return Fraction(0)
    ell, q = divmod(a - b[0], per.index_shift)
    total = Fraction(0)
    for v in values:
        if v and 0 <= ell < per.count:
            c = per.base.coeff(b[0] + q)
            if c:
                total += c * v
        q += 1
        if q == per.index_shift:
            ell, q = ell + 1, 0
    return total


def evaluate(scal, t: Fraction) -> Fraction:
    """The value at t of an RleSpline or a PeriodicSpline."""
    at = periodic_combine if isinstance(scal, PeriodicSpline) else rle_combine
    return at(scal, *basis_at(scal.space, t))


def moment_slotwise(pat, r: int, origin: Fraction | None = None) -> dict:
    """∫ (t - origin)**r g(t) dt per slot of a pattern, term by term; origin
    defaults to the interval start and must sit on the grid of every term.

    Each slot collects its terms' moments (times their w_data coefficients,
    numerators over w_den) as unreduced numerator, denominator pairs and
    sums them over the lcm of the denominators: one Fraction per slot.
    """
    origin = pat.interval.lo if origin is None else origin
    parts: dict = {}
    for scal, key in pat.terms:
        v = scal.moment(r, origin)
        if v:
            parts.setdefault(key, []).append((v.numerator, v.denominator))
    for scal, (_, i) in pat.r_terms:
        v = scal.moment(r, origin)
        if v:
            for n, key in pat.w_data[i]:
                parts.setdefault(key, []).append((v.numerator * n, v.denominator * pat.w_den))
    out: dict = {}
    for key, pairs in parts.items():
        den = math.lcm(*(d for _, d in pairs))
        out[key] = Fraction(sum(n * (den // d) for n, d in pairs), den)
    return out


def atom_at(space: UniformSpace, t: Fraction) -> tuple[int, Fraction]:
    """The atom index a = floor(t / h) and the fractional part t / h - a."""
    a, rem = divmod(t.numerator * space.num_atoms, t.denominator)
    return a, Fraction(rem, t.denominator)


def accumulate(group, window: list, out: dict):
    """Add to out, per slot, a run-table group's values at the point of
    window [a, x, spans]: atom index a, fractional part x, and the span
    numerators at x, taken on the first window index that hits a run; each
    slot of the group becomes one Fraction."""
    a, x, span_nums = window
    k = group.space.k
    ell, q = divmod(a - group.origin, group.shift)
    sums: dict = {}
    for i in range(k):
        if 0 <= ell < group.count:
            e = bisect.bisect_right(group.starts, q) - 1
            if e >= 0 and q <= group.entries[e][1]:
                if span_nums is None:
                    span_nums = window[2] = span_numerators(k, x.numerator, x.denominator)
                v = span_nums[0][k - 1 - i]
                if v:
                    for key, c in group.entries[e][2]:
                        sums[key] = sums.get(key, 0) + c * v
        q += 1
        if q == group.shift:
            ell, q = ell + 1, 0
    if sums:
        den = group.den * span_nums[1]
        for key, n in sums.items():
            v = Fraction(n, den)
            out[key] = out[key] + v if key in out else v


def eval_slotwise(pat, t: Fraction) -> dict:
    """g(t) per slot as Fractions, from the run table; the atom of t and its
    basis values are taken once per space."""
    out: dict = {}
    windows: dict = {}
    for group in pat.run_table:
        window = windows.get(group.space)
        if window is None:
            window = windows[group.space] = [*atom_at(group.space, t), None]
        accumulate(group, window, out)
    return out


def g_eval(bound, t) -> XVec:
    """g(t) of a bound pattern from the Fraction slot values."""
    return combine(bound.slots, eval_slotwise(bound.pattern, frac(t)).items())


def grid_unit(pattern) -> Fraction:
    """p**-K: the length of one grid unit of a pattern's cell ends."""
    space = pattern.inner.space if hasattr(pattern, "inner") else pattern.space
    return Fraction(1, space.p**pattern.K)


def cell_ends(pattern, entry) -> tuple[Fraction, Fraction]:
    """A cell's or periodic family's ends as Fractions."""
    h = grid_unit(pattern)
    return entry.lo * h, entry.hi * h


def cell_points(pat):
    """lo, an interior point and the last level-K grid point of every cell,
    in the first, second and last instance of a periodic family."""
    h = grid_unit(pat)
    for entry in pat.cells:
        if isinstance(entry, PeriodicFamily):
            shifts = sorted({0, min(1, entry.count - 1), entry.count - 1})
            cells = [(c, s * entry.period * h) for c in entry.cells for s in shifts]
        else:
            cells = [(entry, Fraction(0))]
        for cell, shift in cells:
            lo, hi = (shift + x for x in cell_ends(pat, cell))
            yield from (lo, lo + (hi - lo) * Fraction(3, 7), hi - h)


def bump_ends(pat):
    """Both ends of the support of every correction bump, in its first and
    last instance."""
    for scal, _ in pat.r_terms:
        bounds = support_bounds(scal.base if isinstance(scal, PeriodicSpline) else scal)
        if bounds is not None:
            last = (scal.count - 1) * scal.shift if isinstance(scal, PeriodicSpline) else 0
            yield from (x + s for x in bounds for s in sorted({0, last}))


def unit_slots(pat) -> tuple[dict, list]:
    """Slot vectors with one unit coordinate per slot key of a pattern's
    run table, and the keys in coordinate order: bound to them, g's
    coordinate i + 1 is its slot value at key i, so equal coordinates
    mean equal slots."""
    keys = list(dict.fromkeys(
        key for group in pat.run_table for *_, slots in group.entries for key, _ in slots
    ))
    return {key: {i + 1: 1} for i, key in enumerate(keys)}, keys


_STARTS: dict = {}  # id(pattern) -> its `fraction_starts`, dropped with the pattern


def fraction_starts(pattern) -> tuple[list, dict, Fraction]:
    """A pattern's cell starts as Fractions, for bisection: the entries',
    per periodic family (by entry index) its own cells', and the end of the
    last entry. Taken once per pattern object and kept until it is freed."""
    hit = _STARTS.get(id(pattern))
    if hit is None:
        h = grid_unit(pattern)
        families = {
            i: [c.lo * h for c in e.cells]
            for i, e in enumerate(pattern.cells) if isinstance(e, PeriodicFamily)
        }
        hit = _STARTS[id(pattern)] = (
            [e.lo * h for e in pattern.cells], families, pattern.cells[-1].hi * h
        )
        weakref.finalize(pattern, _STARTS.pop, id(pattern), None)
    return hit


def reference_locate(pattern, t):
    """(cell, instance shift) of the cell holding t, by bisection over the
    Fraction cell starts of `fraction_starts`; None off the pattern."""
    starts, families, end = fraction_starts(pattern)
    if not starts[0] <= t < end:
        return None
    i = bisect.bisect_right(starts, t) - 1
    entry = pattern.cells[i]
    if i not in families:
        return entry, Fraction(0)
    period = entry.period * grid_unit(pattern)
    idx = min((t - starts[i]) // period, entry.count - 1)
    j = bisect.bisect_right(families[i], t - idx * period) - 1
    return entry.cells[j], idx * period


def step_values(seq, t, n: int) -> tuple[XVec, XVec]:
    """(f_{n-1}(t), f_n(t)) of a built sequence, walking the steps in
    Fractions (f_0(t) twice at n = 0)."""
    sums = partial_sums(seq, t, n)
    return sums[max(n - 1, 0)], sums[n]


def partial_sums(seq, t, n: int) -> list[XVec]:
    """[f_0(t), ..., f_n(t)] of a built sequence from one Fraction walk."""
    acc = XVec.zero()
    sums = [acc]
    for bound, tau in fraction_steps(seq, t, n):
        acc = acc.add(g_eval(bound, tau))
        sums.append(acc)
    return sums + [acc] * (n + 1 - len(sums))  # zombie region: later g vanish here


def fraction_steps(seq, t, n: int):
    """(bound pattern, pattern coordinate tau) of each step j < n that t
    reaches in Fractions, up to where t leaves the constant cells."""
    t = frac(t)
    binding = BushRep("")
    for j in range(n):
        if binding is None:
            return
        pattern, parts, mix, bound, _start, _units = seq._bind(j, binding)
        scale = seq.filt.uniform_base ** seq.steps[j].m_level
        atom_lo = Fraction(t.numerator * scale // t.denominator, scale)
        tau = t - atom_lo + pattern.interval.lo
        yield bound, tau
        cell, _shift = reference_locate(pattern, tau)
        binding = _child_value(binding, parts, mix, (cell.kind, cell.m))


def random_cell(rng, pattern, force_zone: bool):
    """A random constant cell of a pattern (a zone cell if force_zone) and
    its instance shift, drawn from a scan of the cells."""
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
        return cell, Fraction(0)
    return cell, rng.randrange(fam.count) * fam.period * grid_unit(pattern)


def descend_random_cell(seq, rng, n: int) -> tuple[Fraction, Fraction]:
    """A random zone cell of E_n's descent, in Fraction arithmetic."""
    lo, hi = Fraction(0), Fraction(1)
    binding = BushRep("")
    for j in range(n):
        h = Fraction(1, seq.filt.uniform_base ** seq.steps[j].m_level)
        first = math.ceil(lo / h)
        last = math.floor(hi / h) - 1
        atom_lo = rng.randint(first, last) * h
        pattern, parts, mix, _bound, _start, _units = seq._bind(j, binding)
        cell, shift = random_cell(rng, pattern, j >= n - 2)
        base = atom_lo - pattern.interval.lo
        c_lo, c_hi = cell_ends(pattern, cell)
        lo, hi = base + shift + c_lo, base + shift + c_hi
        binding = _child_value(binding, parts, mix, (cell.kind, cell.m))
        if binding is None:
            raise AssertionError("sampler entered a non-constant cell")
    return lo, hi


def descend_random(seq, rng, n: int) -> Fraction:
    """A random point of E_n, as the sampler of `sample_e_points` draws it."""
    lo, hi = descend_random_cell(seq, rng, n)
    return lo + (hi - lo) * Fraction(2 * rng.randint(1, 511) + 1, 1 << 10)


def aligning_level(p: int, *values) -> int | None:
    """Smallest K with every value a multiple of p**-K, or None when there
    is none: for each prime q of p, ceil(e_q(d) / e_q(p)) over the reduced
    denominators d, with the exponents e_q counted one division at a time;
    None when some d keeps a prime that p lacks."""
    exponents: dict = {}
    rest, q = p, 2
    while rest > 1:
        while rest % q == 0:
            exponents[q] = exponents.get(q, 0) + 1
            rest //= q
        q += 1
    level = 0
    for v in values:
        d = frac(v).denominator
        for q, e in exponents.items():
            n = 0
            while d % q == 0:
                d //= q
                n += 1
            level = max(level, -(-n // e))
        if d != 1:
            return None
    return level


def first_level(ctx, start: int, fit) -> tuple[UniformSpace, object]:
    """The space of the first level K >= start whose fit(space) is not None,
    with that value; past LEVEL_CAP, ctx.space raises CapacityError."""
    for K in itertools.count(start):
        space = ctx.space(K)
        found = fit(space)
        if found is not None:
            return space, found


def step1_level_search(ctx, pattern, base_level: int, max_zombie_length) -> int:
    """The level of a Step-1 pattern by search: the first level from the
    one aligning a and d whose ball around the piece midpoint p1 holds
    k + 1 grid points strictly on either side of p1, and, for k >= 2, whose
    ramp atoms fit the zombie budget."""
    k = ctx.k
    a = pattern.interval.lo
    d = pattern.interval.length / pattern.trace.n_pieces
    eps3 = pattern.trace.eps3
    p1 = a + d / 2
    lo_edge, hi_edge = max(a, p1 - eps3), min(a + d, p1 + eps3)
    ramp_atoms = 2 * (pattern.M + 1) * (k - 1)

    def ball(space):
        units = space.num_atoms
        U1, V1 = math.floor(lo_edge * units) + 1, math.ceil(hi_edge * units) - 1
        if math.floor(p1 * units) - U1 < k + 1 or V1 - math.ceil(p1 * units) < k + 1:
            return None
        if k > 1 and ramp_atoms * space.h > max_zombie_length:
            return None
        return U1

    start = max(base_level + 1, aligning_level(ctx.p, a, d))
    return first_level(ctx, start, ball)[0].level


def bump_level_search(ctx, pattern, base_level: int, max_zombie_length) -> int:
    """The bump level of a lemma pattern by search: the first level from
    the one aligning a and c whose atoms strictly between c and b number
    at least k (k + 1) + 3, and, for k >= 2, whose k**2 bump atoms fit
    half the zombie budget."""
    k = ctx.k
    a, b = pattern.interval.lo, pattern.interval.hi
    c = b - pattern.trace.eps_tilde2 * pattern.interval.length
    need_atoms = k * (k + 1) + 3

    def room(space):
        first = math.floor(c * space.num_atoms) + 1  # first atom strictly right of c
        last = math.ceil(b * space.num_atoms) - 2  # last atom strictly left of b
        if last - first + 1 < need_atoms:
            return None
        if k > 1 and k * k * space.h > max_zombie_length / 2:
            return None
        return first

    start = max(base_level + 1, aligning_level(ctx.p, a, c))
    return first_level(ctx, start, room)[0].level


def ledger(pattern) -> tuple:
    """A pattern's ledger as lengths: ((kind, m), Fraction width) pairs,
    one Fraction per entry of `ledger_units`."""
    return tuple((key, Fraction(u, pattern.scale)) for key, u in pattern.ledger_units)


def stopping_masses(tr) -> dict:
    """The integer units of a stopping trace as Fractions: ∫f_m (int_f),
    the block masses (per_m_block_mass) and the p-point hull masses
    (per_m_p_mass)."""
    return {
        "int_f": tuple(Fraction(u, tr.scale) for u in tr.f_units),
        "per_m_block_mass": tuple(Fraction(u, tr.scale) for u in tr.block_units),
        "per_m_p_mass": tuple(Fraction(q * tr.piece_units, tr.scale) for q in tr.hull_pieces),
    }


def fraction_stopping(pattern) -> dict:
    """The Fraction Step-1 scan that the integer one of `step1_stopping`
    replaced, at the level of the Step-1 `pattern`: ∫f_m, the block and
    hull masses as Fractions, the target C alpha_m as a Fraction, one
    Fraction division per beta, and every recorded check over Fractions.
    The piece count comes from a linear search of p**s, not from
    `p_power_at_least`. Returns the j_indices, int_f, block and hull
    masses, betas and the (name, verdict) checks."""
    tr, space = pattern.trace, pattern.space
    p, k, h, scale = space.p, space.k, space.h, space.num_atoms
    alphas, eps, M = tr.alphas, tr.eps, len(tr.alphas)
    a, width = pattern.interval.lo, pattern.interval.length
    vmass = width
    eps_tilde = eps * vmass / (3 * width)
    eps1 = eps * eps_tilde * (1 - eps / 3) * vmass / (72 * M)
    need = max(2 / (eps / 3), width / eps1)
    n = 1
    while n < need:
        n *= p
    d = width / n
    eps3 = eps1 / (2 * n)
    p1 = a + d / 2
    U1, V1 = math.floor((p1 - eps3) * scale) + 1, math.ceil((p1 + eps3) * scale) - 1
    D = d * scale
    if D.denominator != 1:
        raise AssertionError("piece width D is not on the level grid")
    D = int(D)
    L = n - 2

    def lam_range(r, s_):
        return V1 + (r - 1) * D, U1 + (s_ + 1) * D + k - 2

    def int_range(r, s_):
        jlo, jhi = lam_range(r, s_)
        return (jhi - jlo + 1) * h

    def union_length(r, s_):
        return (U1 - V1 + (s_ + 2 - r) * D) * h

    union_blocks = union_length(1, L)
    C = (1 - eps_tilde / 3) * union_blocks
    j_prev = -1
    j_indices, int_f, block, hull = [], [], [], []
    for m in range(M):
        r = j_prev + 2
        target = C * alphas[m]
        if not (r <= L and int_range(r, L) > target):
            raise AssertionError(f"no stopping index for part {m}")
        base = U1 - V1 + (2 - r) * D + k - 1
        units = target * scale
        jm = max(r, (units.numerator - base * units.denominator) // (D * units.denominator) + 1)
        j_indices.append(jm)
        int_f.append(int_range(r, jm))
        block.append(union_length(r, jm))
        hull.append((jm + 2 - r) * d)
        j_prev = jm
    int_f.append(int_range(j_prev + 2, L))
    union_upto = union_length(1, j_indices[-1])
    betas = tuple((C * alphas[m] - int_f[m]) / int_f[M] for m in range(M))

    checks = [
        ("eq:applemma", Fraction(n - 2, n) * vmass >= (1 - eps / 3) * vmass),
        ("eq:cons_est", 72 * eps1 * M <= eps * eps_tilde * union_blocks),
    ]
    for m in range(M):
        checks += [
            (f"stopping[{m}]", int_f[m] > C * alphas[m]),
            (f"eq:alpha_upper[{m}]", int_f[m] <= C * alphas[m] + 3 * eps1),
            (f"eq:unionintegral[{m}]",
             block[m] <= int_f[m] <= hull[m] and hull[m] <= block[m] + 2 * n * eps3),
        ]
    checks += [
        ("eq:B_ell_lower", (1 - eps_tilde) * union_blocks <= union_upto),
        ("eq:B_ell_upper", union_upto <= (1 - eps_tilde / 6) * union_blocks),
        ("eq:intfM", int_f[M] >= eps_tilde / 12 * union_blocks),
        ("sum_beta", sum(abs(b) for b in betas) < eps / 2),
        ("mass_A1", tr.zone_mass >= (1 - eps) * vmass),
    ]
    return {
        "j_indices": tuple(j_indices),
        "int_f": tuple(int_f),
        "per_m_block_mass": tuple(block),
        "per_m_p_mass": tuple(hull),
        "betas": betas,
        "checks": [(name, bool(ok)) for name, ok in checks],
    }


def fraction_census(rows, sd, p: int) -> list:
    """The census of f_{n+1} from the classes `rows` of f_n, by the spawn
    that the integer one of `build_sequence` replaced: one child row per
    ledger entry of the pattern, a sup norm per decomposed part, Fraction
    lengths width * atom count, and a census that grows the first row of
    each key in place."""
    census: dict = {}

    def add(row):
        hit = census.setdefault(row.key, row)
        if hit is not row:
            hit.total_length += row.total_length

    h_n = Fraction(1, p**sd.m_level)
    for row in rows:
        if row.kind != "const":
            add(replace(row))
            continue
        parts = bush_decompose(row.rep_value, DELTA, target_count=2)
        pat = sd.patterns[tuple(w for w, _ in parts)]
        atom_count = row.total_length / h_n
        if atom_count.denominator != 1:
            raise AssertionError("class length not atom-aligned")
        part_norms = [rep.value().sup_norm for _, rep in parts]
        ramp_norm = max(row.norm_bound, *part_norms)
        mix = mix_reps(parts)
        for (kind, m), width in ledger(pat):
            rep_value = _child_value(row.rep_value, parts, mix, (kind, m))
            if kind == "zone":
                norm = part_norms[m]
            elif rep_value is not None:
                norm = row.norm_bound
            elif kind == "rbump":
                norm = row.norm_bound + pat.trace.w_bound
            else:
                norm = ramp_norm
            add(ClassRow(
                kind="const" if rep_value is not None else "zombie",
                cell_kind=kind,
                rep_value=rep_value,
                total_length=width * atom_count,
                in_c=kind == "zone",
                in_e=kind == "zone" and row.in_c,
                norm_bound=norm,
                chain_sup=max(row.chain_sup, norm),
            ))
    return list(census.values())
