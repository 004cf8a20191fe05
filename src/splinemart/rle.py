"""Run-length-encoded splines on uniform p-ary grids.

The divergent-sequence construction needs spline spaces at depths far
beyond anything materializable (grid counts like 2**1000). All of its
scalar spline data is piecewise constant in the B-spline coefficient
index, so a spline is stored as a few (start, end, coefficient) runs over
the uniform level-K basis.

Evaluation works in integer grid units. With U = t / h = t * p**K, the
atom index a = floor(U) and the fractional part U - a come from one
divmod of integers, and the k basis values that can be non-zero at t are
span polynomials of B_k at that fraction: N_{a+i}(t) = B_k(U - a + k - 1
- i), and no other translate is non-zero at t. A spline reads its
coefficients at the k integer indices a .. a+k-1. Patterns do this through
their run table (`construction.core.RunGroup`), with the span values as
integer numerators over one denominator (`cardinal.span_numerators`), so
a point costs no Fraction before its result.

Moments are taken about a grid-aligned origin s h (the construction uses
its pattern's interval start), so they reduce to Faulhaber power sums over
index ranges shifted by s, with no re-centring afterwards. The order-e
moment of a spline is B_e / (D p**(K(e+1))) for integers B_e over one D
(`RleSpline.grid_moments`); n translates σ steps apart have moment r =
Σ_q C(r,q) T_q B_{r-q} / (D p**(K(r+1))) with T_q = σ**q Σ_{ℓ<n} ℓ**q.
Both spline kinds keep their orders 0 .. k-1 per origin in one table,
made on the first moment asked about that origin. Step 2 asks for few
moments: one row per bump of its step's correction frame, and one
periodic row per translate class of stopping terms, shifted to the
class's other members in integers (`construction.lemma`).

One normalisation per result: the moments sum integer numerators over
one common denominator, put there by the number kernel of `cardinal`
(`over_common_denominator`), and build one `Fraction` per result.

Only interior basis functions (exact translates of the cardinal B-spline)
ever appear; the construction keeps its supports away from 0 and 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .cardinal import moment_weights, over_common_denominator, power_sum, refinement_mask
from .intervals import frac

Run = tuple[int, int, Fraction]  # inclusive index range [j0, j1] with coefficient c


@dataclass(frozen=True)
class UniformSpace:
    """Level-`level` spline space of order k on the uniform p-ary grid."""

    p: int
    level: int
    k: int

    @cached_property
    def h(self) -> Fraction:
        return Fraction(1, self.num_atoms)

    @cached_property
    def num_atoms(self) -> int:
        return self.p**self.level

    @property
    def dim(self) -> int:
        return self.num_atoms + self.k - 1

    def interior_range(self) -> tuple[int, int]:
        """Indices whose basis function is a cardinal translate."""
        return self.k - 1, self.dim - self.k

    def refined(self) -> "UniformSpace":
        """The space one level finer."""
        return UniformSpace(self.p, self.level + 1, self.k)


def _normalize(runs: list[Run]) -> tuple[Run, ...]:
    runs = sorted((r for r in runs if r[2] != 0), key=lambda r: r[0])
    out: list[Run] = []
    for j0, j1, c in runs:
        if j0 > j1:
            continue
        if out and out[-1][1] >= j0:
            raise ValueError("overlapping runs")
        if out and out[-1][1] + 1 == j0 and out[-1][2] == c:
            out[-1] = (out[-1][0], j1, c)
        else:
            out.append((j0, j1, c))
    return tuple(out)


class RleSpline:
    """Scalar spline with run-length-encoded B-spline coefficients."""

    __slots__ = ("space", "runs", "_starts", "_tables")

    def __init__(self, space: UniformSpace, runs: list[Run] | tuple[Run, ...]):
        self.space = space
        self.runs = _normalize(list(runs))
        self._starts = tuple(r[0] for r in self.runs)
        self._tables: dict[int, tuple[list[int], int]] = {}
        lo, hi = space.interior_range()
        if self.runs and (self.runs[0][0] < lo or self.runs[-1][1] > hi):
            raise ValueError("runs leave the interior index range")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: UniformSpace) -> "RleSpline":
        return cls(space, [])

    @classmethod
    def from_index_range(cls, space: UniformSpace, j0: int, j1: int) -> "RleSpline":
        """The spline with coefficient 1 at indices j0 .. j1."""
        return cls(space, [(j0, j1, Fraction(1))])

    # -- coefficient access --------------------------------------------------

    def coeff(self, j: int) -> Fraction:
        i = bisect.bisect_right(self._starts, j) - 1
        if i >= 0:
            j0, j1, c = self.runs[i]
            if j0 <= j <= j1:
                return c
        return Fraction(0)

    def index_bounds(self) -> tuple[int, int] | None:
        if not self.runs:
            return None
        return self.runs[0][0], self.runs[-1][1]

    # -- algebra --------------------------------------------------------------

    def plus(self, other: "RleSpline") -> "RleSpline":
        if self.space != other.space:
            raise ValueError("splines live in different spaces")
        cuts = sorted({e for j0, j1, _ in self.runs + other.runs for e in (j0, j1 + 1)})
        out: list[Run] = []
        for a, b in zip(cuts, cuts[1:]):
            v = self.coeff(a) + other.coeff(a)
            if v != 0:
                out.append((a, b - 1, v))
        return RleSpline(self.space, out)

    # -- analysis --------------------------------------------------------------

    def moment(self, r: int, origin: Fraction = Fraction(0)) -> Fraction:
        """∫ (t - origin)**r f(t) dt, exact; origin must sit on the grid.

        Callers ask for r = 0 .. k-1 about one origin in turn (the bump
        moment matrix), so the `grid_moments` of orders up to max(k-1, r)
        are built once per origin and kept, as in `PeriodicSpline.moment`.
        """
        s = _moment_origin(self.space, r, origin)
        table = self._tables.get(s)
        if table is None or len(table[0]) <= r:
            table = self._tables[s] = self.grid_moments(s, range(max(self.space.k, r + 1)))
        nums, den = table
        return Fraction(nums[r], den * self.space.num_atoms ** (r + 1))

    def grid_moments(self, s: int, orders) -> tuple[list[int], int]:
        """∫ (t - s h)**e f(t) dt = B_e / (D p**(K(e+1))) for e in orders:
        the integers B_e and their shared denominator D.

        ∫ (t - s h)**e N_j = h**(e+1) Σ_q C(e,q) mu_q (j - k + 1 - s)**(e-q)
        for the cardinal moments mu_q, so a run costs one power sum per power
        up to the highest order. The weights C(e,q) mu_q of each order are
        integers over their own denominator d_e, and the run coefficients
        over one common denominator; D is that times the lcm of the d_e.
        """
        weights = [moment_weights(self.space.k, e) for e in orders]
        ups, wden = over_common_denominator([(1, d) for _, d in weights])  # D / d_e
        coeffs, den = over_common_denominator([c for _, _, c in self.runs])
        off = self.space.k - 1 + s
        out = [0] * len(weights)
        for (j0, j1, _), c in zip(self.runs, coeffs):
            sums = [power_sum(j0 - off, j1 - off, m) for m in range(max(orders) + 1)]
            for i, (w, _) in enumerate(weights):
                out[i] += c * sum(x * sums[len(w) - 1 - q] for q, x in enumerate(w))
        return [b * up for b, up in zip(out, ups)], den * wden

    def refine_once(self) -> "RleSpline":
        sp = self.space
        fine = sp.refined()
        p, k = sp.p, sp.k
        off = (k - 1) * (p - 1)
        mask = refinement_mask(k, p)
        width = k * (p - 1)

        edge: dict[int, Fraction] = {}
        interior: list[Run] = []
        for j0, j1, c in self.runs:
            img_lo, img_hi = p * j0 - off, p * j1 + width - off
            full_lo, full_hi = p * j0 + width - off, p * j1 - off
            edges = range(img_lo, img_hi + 1)
            if full_lo <= full_hi:
                edges = [*range(img_lo, full_lo), *range(full_hi + 1, img_hi + 1)]
                interior.append((full_lo, full_hi, c))
            for jp in edges:
                v = _partial_mask_sum(mask, p, jp + off, j0, j1)
                if v:
                    edge[jp] = edge.get(jp, Fraction(0)) + c * v
        # fold edge coefficients and interior runs together
        result = RleSpline(fine, interior) if interior else RleSpline.zero(fine)
        if edge:
            result = result.plus(RleSpline(fine, [(j, j, v) for j, v in edge.items()]))
        return result


def _partial_mask_sum(mask, p: int, m: int, j0: int, j1: int) -> Fraction:
    """Σ mask_i over i = m - p*j for j in [j0, j1] with 0 <= i < len(mask)."""
    lo = max(j0, math.ceil(Fraction(m - len(mask) + 1, p)))
    hi = min(j1, math.floor(Fraction(m, p)))
    total = Fraction(0)
    for j in range(lo, hi + 1):
        total += mask[m - p * j]
    return total


class PeriodicSpline:
    """`count` translates of a base RLE spline at spacing `shift`.

    Instances must not overlap (the construction's per-piece bumps are
    interior to disjoint pieces). shift must sit on the base grid.
    """

    __slots__ = ("base", "shift", "count", "index_shift", "_tables")

    def __init__(self, base: RleSpline, shift: Fraction, count: int):
        if count < 1:
            raise ValueError("count must be positive")
        q = shift / base.space.h
        if q.denominator != 1:
            raise ValueError("shift must be a multiple of the grid step")
        self.base = base
        self.shift = shift
        self.count = count
        self.index_shift = int(q)
        self._tables: dict[int, tuple[list[int], list[int], int]] = {}
        b = base.index_bounds()
        if b is not None and count > 1 and b[1] - b[0] + 1 > self.index_shift:
            raise ValueError("periodic instances would overlap")

    @property
    def space(self) -> UniformSpace:
        return self.base.space

    def moment(self, r: int, origin: Fraction = Fraction(0)) -> Fraction:
        """∫ (t - origin)**r f(t) dt, exact; origin must sit on the grid.

        Instance ℓ is the base moved ℓσ grid steps (σ = index_shift), so over
        the base's `grid_moments` B_e / D the moment is Σ_q C(r,q) T_q B_{r-q}
        / (D p**(K(r+1))) with T_q = σ**q Σ_{ℓ<n} ℓ**q: one integer sum, one
        Fraction. Callers ask for r = 0 .. k-1 about one origin in turn, so B
        and T are built once per origin, up to order max(k-1, r), and kept.
        """
        s = _moment_origin(self.space, r, origin)
        table = self._tables.get(s)
        if table is None or len(table[0]) <= r:
            orders = range(max(self.space.k, r + 1))
            base, den = self.base.grid_moments(s, orders)
            sums = [self.index_shift**q * power_sum(0, self.count - 1, q) for q in orders]
            table = self._tables[s] = (base, sums, den)
        base, sums, den = table
        total = sum(comb(r, q) * sums[q] * base[r - q] for q in range(r + 1))
        return Fraction(total, den * self.space.num_atoms ** (r + 1))


def _moment_origin(space: UniformSpace, r: int, origin) -> int:
    """The origin (any finite `frac` rational) in grid steps, for an order
    r >= 0 that is an int and not a bool."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise ValueError(f"moment order {r!r} is not a non-negative int")
    try:
        origin = frac(origin)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"moment origin {origin!r} is not a finite rational") from None
    s, rem = divmod(origin.numerator * space.num_atoms, origin.denominator)
    if rem:
        raise ValueError(f"moment origin {origin} is off the level-{space.level} grid")
    return s
