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

Moments are taken about a grid-aligned origin (the construction uses its
pattern's interval start), so they reduce to Faulhaber power sums over
index ranges shifted by the origin, with no re-centring afterwards.

One normalisation per result: a `Fraction` reduces by a gcd after every
operation, and at the denominators of deep levels (thousands of bits)
those gcds cost more than the spline algebra. So the exact kernels carry
integer numerators over one common denominator through their sums and
build one `Fraction` per result; the value is the same rational, so the
outputs stay bit-identical.

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

    __slots__ = ("space", "runs", "_starts")

    def __init__(self, space: UniformSpace, runs: list[Run] | tuple[Run, ...]):
        self.space = space
        self.runs = _normalize(list(runs))
        self._starts = tuple(r[0] for r in self.runs)
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
        events: list[int] = []
        for r in self.runs + other.runs:
            events.append(r[0])
            events.append(r[1] + 1)
        if not events:
            return RleSpline.zero(self.space)
        cuts = sorted(set(events))
        out: list[Run] = []
        for a, b in zip(cuts, cuts[1:]):
            v = self.coeff(a) + other.coeff(a)
            if v != 0:
                out.append((a, b - 1, v))
        return RleSpline(self.space, out)

    # -- analysis --------------------------------------------------------------

    def moment(self, r: int, origin: Fraction = Fraction(0)) -> Fraction:
        """∫ (t - origin)**r f(t) dt, exact; origin must sit on the grid.

        With x_j = j-k+1 the left end of supp N_j in grid steps and s the
        origin in grid steps, ∫ (t - origin)**r N_j = h**(r+1) Σ_q C(r,q)
        mu_q (x_j - s)**(r-q) with mu_q the cardinal moments, so each run
        costs one power sum per q over indices shifted by s. The weights
        C(r,q) mu_q are integers over one cached denominator and the run
        coefficients are put over the lcm of theirs, so the sum is one
        integer and the result one Fraction.
        """
        sp = self.space
        s, rem = divmod(origin.numerator * sp.num_atoms, origin.denominator)
        if rem:
            raise ValueError(f"moment origin {origin} is off the level-{sp.level} grid")
        off = sp.k - 1 + s
        weights, wden = moment_weights(sp.k, r)
        coeffs, den = over_common_denominator([c for _, _, c in self.runs])
        total = 0
        for (j0, j1, _), c in zip(self.runs, coeffs):
            total += c * sum(
                w * power_sum(j0 - off, j1 - off, r - q) for q, w in enumerate(weights)
            )
        return Fraction(total, den * wden * sp.num_atoms ** (r + 1))

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
            if full_lo > full_hi:
                for jp in range(img_lo, img_hi + 1):
                    v = _partial_mask_sum(mask, p, jp + off, j0, j1)
                    if v:
                        edge[jp] = edge.get(jp, Fraction(0)) + c * v
                continue
            for jp in range(img_lo, full_lo):
                v = _partial_mask_sum(mask, p, jp + off, j0, j1)
                if v:
                    edge[jp] = edge.get(jp, Fraction(0)) + c * v
            for jp in range(full_hi + 1, img_hi + 1):
                v = _partial_mask_sum(mask, p, jp + off, j0, j1)
                if v:
                    edge[jp] = edge.get(jp, Fraction(0)) + c * v
            interior.append((full_lo, full_hi, c))
        # fold edge coefficients and interior runs together
        result = RleSpline(fine, interior) if interior else RleSpline.zero(fine)
        if edge:
            singles = [(j, j, v) for j, v in edge.items()]
            result = result.plus(RleSpline(fine, _merge_singles(singles)))
        return result


def _partial_mask_sum(mask, p: int, m: int, j0: int, j1: int) -> Fraction:
    """Σ mask_i over i = m - p*j for j in [j0, j1] with 0 <= i < len(mask)."""
    lo = max(j0, math.ceil(Fraction(m - len(mask) + 1, p)))
    hi = min(j1, math.floor(Fraction(m, p)))
    total = Fraction(0)
    for j in range(lo, hi + 1):
        total += mask[m - p * j]
    return total


def _merge_singles(singles: list[Run]) -> list[Run]:
    singles.sort()
    out: list[Run] = []
    for j0, j1, c in singles:
        if out and out[-1][1] == j0 and out[-1][2] == c:
            out[-1] = (out[-1][0], j1, c)
        else:
            out.append((j0, j1, c))
    return out


class PeriodicSpline:
    """`count` translates of a base RLE spline at spacing `shift`.

    Instances must not overlap (the construction's per-piece bumps are
    interior to disjoint pieces). shift must sit on the base grid.
    """

    __slots__ = ("base", "shift", "count", "index_shift", "_base_moments")

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
        self._base_moments: dict[tuple[int, Fraction], Fraction] = {}
        b = base.index_bounds()
        if b is not None and count > 1 and b[1] - b[0] + 1 > self.index_shift:
            raise ValueError("periodic instances would overlap")

    @property
    def space(self) -> UniformSpace:
        return self.base.space

    def moment(self, r: int, origin: Fraction = Fraction(0)) -> Fraction:
        """∫ (t - origin)**r f(t) dt, exact; origin must sit on the grid.

        Expands (t - origin)**r = Σ_q C(r,q) (ell*shift)**q (u - origin)**(r-q)
        on instance ell, t = u + ell*shift: base moments about the same origin.
        Callers ask for r = 0 .. k-1 in turn, so each base moment is taken
        once per origin and kept. With shift = sn/sd, the terms are integers
        over sd**r times the lcm of the base moments' denominators.
        """
        base, bden = over_common_denominator([self._base_moment(q, origin) for q in range(r + 1)])
        sn, sd = self.shift.numerator, self.shift.denominator
        total = sum(
            comb(r, q) * sn**q * sd ** (r - q) * power_sum(0, self.count - 1, q) * base[r - q]
            for q in range(r + 1)
        )
        return Fraction(total, sd**r * bden)

    def _base_moment(self, q: int, origin: Fraction) -> Fraction:
        key = (q, origin)
        if key not in self._base_moments:
            self._base_moments[key] = self.base.moment(q, origin)
        return self._base_moments[key]
