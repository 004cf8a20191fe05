"""B-spline bases of order k over filtration levels.

Knots and breakpoints are exact rationals (so measure logic stays exact);
coefficients and quadrature are binary64. Smoothness is fixed at C^{k-2}
by simple interior knots with k-fold boundary knots; multiple interior
knots are rejected at construction, and so are distinct breakpoints that
round to the same binary64 value (CapacityError), so every float span
has positive width.

Basis values come from one de Boor recurrence, _de_boor, behind two
front-ends: eval_basis for one point (Python floats, bisect) and
basis_values for an array of points (numpy, searchsorted). Both clamp the
span the same way and run the same operations, so their values agree bit
for bit.

numpy loads with this module; scipy.linalg loads at the first banded
factorization or solve (_linalg), so basis evaluation and the exact engine
never pay for it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConditioningError,
    DomainError,
    NestingError,
    PreconditionError,
)
from .intervals import Interval, frac

#: largest relative residual a Gram solve may leave after its refinement step
SOLVE_RTOL = 1e-8

__all__ = [
    "KnotVector",
    "ScalarSpline",
    "eval_basis",
    "basis_values",
    "spline_values",
    "aligned_values",
    "gauss_nodes",
    "moment",
    "gram",
    "GramOperator",
    "refine_coeffs",
    "PiecewiseConstant",
    "composition_det",
    "moment_matrix",
    "interpolate",
]


def _linalg():
    """scipy.linalg, imported on first use: only the banded solves need it."""
    import scipy.linalg

    return scipy.linalg


@lru_cache(maxsize=64)
def _gauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


class KnotVector:
    """Order-k spline space over a breakpoint sequence of [0, 1]."""

    def __init__(self, order: int, breakpoints: Sequence):
        if order < 1:
            raise ValueError("order must be >= 1")
        bps = [frac(b) for b in breakpoints]
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("interior knots must be strictly increasing")
        self.k = order
        self.breakpoints: tuple[Fraction, ...] = tuple(bps)
        full = [bps[0]] * order + bps[1:-1] + [bps[-1]] * order
        self.knots: tuple[Fraction, ...] = tuple(full)
        self._knots_f = np.array([float(t) for t in full])
        #: the breakpoints as binary64, a view into the float knots
        self.breakpoints_f = bps_f = self._knots_f[order - 1 : len(full) - order + 1]
        tied = np.flatnonzero(bps_f[:-1] == bps_f[1:])
        if len(tied):
            i = tied[0]
            raise CapacityError(
                f"breakpoints {bps[i]} and {bps[i + 1]} are equal in binary64; "
                f"the float layer cannot resolve this level"
            )
        # set here, not on first use, so every knot vector has one attribute layout
        self._knots_t = tuple(self._knots_f.tolist())  # Python floats, for eval_basis
        self._breakpoint_set: frozenset[Fraction] | None = None

    @classmethod
    def from_filtration(cls, filt, level: int, order: int) -> "KnotVector":
        return cls(order, filt.breakpoints(level))

    @property
    def num_atoms(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def dim(self) -> int:
        return self.num_atoms + self.k - 1

    @property
    def breakpoint_set(self) -> frozenset[Fraction]:
        """The breakpoints as a set, hashed on first use only, for nesting
        checks."""
        if self._breakpoint_set is None:
            self._breakpoint_set = frozenset(self.breakpoints)
        return self._breakpoint_set

    def support(self, i: int) -> Interval:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return Interval(self.knots[i], self.knots[i + self.k])

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.k == other.k
            and self.breakpoints == other.breakpoints
        )

    def __hash__(self):
        return hash((self.k, self.breakpoints))

    def __repr__(self):
        return f"KnotVector(k={self.k}, atoms={self.num_atoms})"


def _de_boor(kn, m, t, k: int) -> list:
    """de Boor's recurrence: the k B-splines of order k that may be nonzero
    at t in span m, N_{m-k+1}(t), ..., N_m(t), as a list of k values.

    One body serves a single point (Python floats, int span, knot tuple)
    and many points (float arrays, int array spans, knot array). Every span
    must have positive float width, which KnotVector guarantees, so no
    division is guarded.
    """
    vals = [1.0]
    for d in range(1, k):
        saved = 0.0
        for r in range(d):
            lo = kn[m - d + 1 + r]
            hi = kn[m + 1 + r]
            term = vals[r] / (hi - lo)
            vals[r] = saved + term * (hi - t)
            saved = term * (t - lo)
        vals.append(saved)
    return vals


def eval_basis(kv: KnotVector, t: float) -> list[tuple[int, float]]:
    """Nonzero B-spline values at t: k pairs (index, value >= 0) summing
    to one."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"evaluation point {t} outside [0, 1]")
    k = kv.k
    kn = kv._knots_t
    # knots[m] <= t < knots[m + 1], clamped at the right end
    m = min(max(bisect_right(kn, t) - 1, k - 1), kv.dim - 1)
    return list(enumerate(_de_boor(kn, m, t, k), start=m - k + 1))


def basis_values(kv: KnotVector, ts) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero B-spline values at every point of the 1-D array ts.

    Returns (first, vals) with vals[p, r] = N_{first[p] + r}(ts[p]). The
    span clamp and the kernel are those of eval_basis, so every value is
    bit-identical to the single-point path.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all((ts >= 0.0) & (ts <= 1.0)):  # NaN fails both comparisons
        raise DomainError("evaluation points outside [0, 1]")
    k = kv.k
    kn = kv._knots_f
    m = np.clip(np.searchsorted(kn, ts, side="right") - 1, k - 1, kv.dim - 1)
    vals = np.empty((len(ts), k))
    for r, col in enumerate(_de_boor(kn, m, ts, k)):
        vals[:, r] = col
    return m - k + 1, vals


def spline_values(coeffs: np.ndarray, first: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """sum_r coeffs[..., first + r] * vals[:, r], accumulated in order of r
    like ScalarSpline.eval; coeffs may stack several splines along axis 0.
    The table is C-ordered with shape (..., points), so a row per spline
    is contiguous."""
    out = np.take(coeffs, first, axis=-1)
    out *= vals[:, 0]
    for r in range(1, vals.shape[1]):
        term = np.take(coeffs, first + r, axis=-1)
        term *= vals[:, r]
        out += term
    return out


def _frozen_row(coeffs, dim: int) -> tuple[np.ndarray, list[float]]:
    """A read-only copy of a length-dim coefficient row and its entries as
    Python floats, which point evaluation reads."""
    row = np.array(coeffs, dtype=float)
    if row.shape != (dim,):
        raise ValueError(f"need {dim} coefficients, got {row.shape}")
    row.flags.writeable = False
    return row, row.tolist()


class ScalarSpline:
    """A spline as a coefficient sequence over a knot vector."""

    def __init__(self, kv: KnotVector, coeffs):
        self.kv = kv
        self.coeffs, self._row = _frozen_row(coeffs, kv.dim)

    def eval(self, t: float) -> float:
        row = self._row
        return sum(row[i] * v for i, v in eval_basis(self.kv, t))

    def eval_many(self, ts) -> np.ndarray:
        return spline_values(self.coeffs, *basis_values(self.kv, ts))


def moment(kv: KnotVector, i: int, j: int) -> float:
    """∫ t**j N_i(t) dt by per-span Gauss-Legendre of exact degree."""
    cap = kv.k + 4
    if j > cap:
        raise ValueError(f"moment order {j} above cap {cap}")
    sup = kv.support(i)
    nodes = (kv.k + j + 1) // 2 + 1
    ts, wts = gauss_nodes([b for b in kv.breakpoints if sup.lo <= b <= sup.hi], nodes)
    first, vals = basis_values(kv, ts)
    val = aligned_values(first, vals, np.full(len(ts), i))[:, 0]
    return float((wts * ts**j) @ val)


def aligned_values(first: np.ndarray, vals: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Re-index basis_values so that column r holds N_{base[p] + r}(ts[p]),
    zero where that basis function vanishes at ts[p]."""
    k = vals.shape[1]
    cols = np.arange(k) + (base - first)[:, None]
    inside = (cols >= 0) & (cols < k)
    return np.where(inside, np.take_along_axis(vals, np.clip(cols, 0, k - 1), axis=1), 0.0)


def gauss_nodes(breakpoints: Sequence, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights of every cell of a breakpoint
    sequence, cell by cell: two arrays of length cells * nodes. The
    breakpoints may be floats (KnotVector.breakpoints_f) or rationals,
    which are rounded to the nearest binary64 first.

    A cell too narrow for its nodes to lie strictly inside it in binary64
    is refused (CapacityError): a node rounded onto a breakpoint is
    evaluated in the neighbouring span."""
    x, w = _gauss(nodes)
    bps = np.asarray(breakpoints, dtype=float)
    lo, hi = bps[:-1, None], bps[1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pts = mid + half * x
    outside = ~((lo < pts) & (pts < hi)).all(axis=1)
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise CapacityError(
            f"{nodes} Gauss nodes do not fit strictly inside the cell "
            f"[{float(bps[i])!r}, {float(bps[i + 1])!r}] in binary64; "
            f"the float layer cannot resolve this level"
        )
    return pts.ravel(), (half * w).ravel()


class GramOperator:
    """Banded SPD Gram matrix with a cached Cholesky factorization.

    Solves run banded Cholesky plus one step of iterative refinement; the
    refined residual is monitored and failure above 1e-8 aborts, as does a
    failed factorization (both raise ConditioningError).
    """

    def __init__(self, kv: KnotVector):
        self.kv = kv
        k, dim = kv.k, kv.dim
        self.bandwidth = k - 1
        ts, wts = gauss_nodes(kv.breakpoints_f, k)  # exact for degree 2k-2
        first, vals = basis_values(kv, ts)
        # lower band form ab[r2 - r1, j] = G[j + r2 - r1, j] with j = first + r1;
        # bincount adds in point order, the order of a running sum
        r1, r2 = np.triu_indices(k)
        terms = vals.take(r1, axis=1)  # one C-order buffer, so ravel() is a view
        terms *= wts[:, None]
        terms *= vals[:, r2]
        slots = first[:, None] + r1
        slots += (r2 - r1) * dim
        ab = np.bincount(slots.ravel(), weights=terms.ravel(), minlength=k * dim)
        self.ab_lower = ab.reshape(k, dim)
        try:
            self._chol = _linalg().cholesky_banded(self.ab_lower, lower=True)
        except np.linalg.LinAlgError as exc:  # indefinite after rounding, at high orders
            raise ConditioningError(f"banded Cholesky at order {k} failed: {exc}") from exc

    @property
    def dim(self) -> int:
        return self.kv.dim

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.ab_lower[0] * v
        for r in range(1, self.bandwidth + 1):
            out[r:] += self.ab_lower[r, :-r] * v[:-r]
            out[:-r] += self.ab_lower[r, :-r] * v[r:]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        cho_solve_banded = _linalg().cho_solve_banded
        x = cho_solve_banded((self._chol, True), rhs)
        r = rhs - self.matvec(x)
        x = x + cho_solve_banded((self._chol, True), r)
        r2 = rhs - self.matvec(x)
        scale = np.linalg.norm(rhs) + 1e-300
        if np.linalg.norm(r2) / scale > SOLVE_RTOL:
            raise ConditioningError(
                f"Gram solve residual {np.linalg.norm(r2)/scale:.3e} above {SOLVE_RTOL}"
            )
        return x


def gram(kv: KnotVector) -> GramOperator:
    return GramOperator(kv)


def refine_coeffs(coarse: ScalarSpline, fine_kv: KnotVector) -> ScalarSpline:
    """Re-express a spline on a nested finer knot vector (Boehm insertion).

    Every output coefficient is a convex combination of input coefficients.
    The missing breakpoints are inserted in increasing order, one knot at a
    time, while the span index walks forward. Knots are kept as
    (numerator, denominator) int pairs, and each weight
    (u - t_i) / (t_{i+k-1} - t_i) is one true division of two unnormalised
    ints, which Python rounds correctly: the float of the same rational
    that float(Fraction(...)) gives.
    """
    if fine_kv.k != coarse.kv.k:
        raise NestingError("orders differ")
    k = coarse.kv.k
    # Fractions are normalised, so equal breakpoints give equal pairs
    kept = {(b.numerator, b.denominator) for b in coarse.kv.breakpoints}
    fine = [(b.numerator, b.denominator) for b in fine_kv.breakpoints]
    if not kept <= set(fine):
        raise NestingError("coarse breakpoints are not a subset of fine breakpoints")
    knots = [(t.numerator, t.denominator) for t in coarse.kv.knots]
    coeffs = coarse.coeffs.tolist()
    m = k - 1  # span of the knot u being inserted: knots[m] <= u < knots[m + 1]
    for u in fine:
        if u in kept:
            continue
        un, ud = u
        # u is interior and above every knot inserted before it
        while knots[m + 1][0] * ud <= un * knots[m + 1][1]:
            m += 1
        if k == 1:  # u splits a constant piece: coefficient m repeats
            coeffs.insert(m, coeffs[m])
        else:
            # coefficients m - k + 2 .. m mix with their left neighbour
            mixed = []
            for i in range(m - k + 2, m + 1):
                (an, ad), (bn, bd) = knots[i], knots[i + k - 1]
                w = (un * ad - an * ud) * bd / ((bn * ad - an * bd) * ud)
                mixed.append(w * coeffs[i] + (1.0 - w) * coeffs[i - 1])
            coeffs[m - k + 2 : m] = mixed
        knots.insert(m + 1, u)
    return ScalarSpline(fine_kv, np.array(coeffs))


class PiecewiseConstant:
    """Piecewise-constant function on a rational partition of [0, 1]."""

    def __init__(self, breaks: Sequence, values: Sequence[float]):
        self.breaks = tuple(frac(b) for b in breaks)
        if self.breaks[0] != 0 or self.breaks[-1] != 1:
            raise ValueError("partition must span [0, 1]")
        if len(values) != len(self.breaks) - 1:
            raise ValueError("need one value per cell")
        self.values = tuple(float(v) for v in values)

    def on(self, breaks: Sequence[Fraction]) -> list[float]:
        out = []
        for a, b in zip(breaks, breaks[1:]):
            mid = (a + b) / 2
            idx = max(i for i in range(len(self.breaks) - 1) if self.breaks[i] <= mid)
            out.append(self.values[idx])
        return out


def composition_det(
    fs: Sequence[PiecewiseConstant], gs: Sequence[PiecewiseConstant]
) -> tuple[float, float]:
    """Both sides of the determinant composition identity.

    lhs = det(∫ f_i g_j); rhs integrates det(f_i(t_l)) det(g_j(t_l)) over
    the ordered simplex, which for piecewise constants collapses to a sum
    over strictly increasing cell tuples weighted by cell volumes.
    """
    n = len(fs)
    if len(gs) != n or n == 0:
        raise ValueError("fs and gs must have equal positive length")
    if n > 4:
        raise PreconditionError("composition_det supports size <= 4")
    breaks = sorted(set(itertools.chain(*[f.breaks for f in list(fs) + list(gs)])))
    vols = np.array([float(b - a) for a, b in zip(breaks, breaks[1:])])
    F = np.array([f.on(breaks) for f in fs])  # n x cells
    G = np.array([g.on(breaks) for g in gs])
    lhs = float(np.linalg.det((F * vols) @ G.T))
    rhs = 0.0
    cells = range(len(vols))
    for combo in itertools.combinations(cells, n):
        sub = list(combo)
        detf = float(np.linalg.det(F[:, sub]))
        if detf == 0.0:
            continue
        detg = float(np.linalg.det(G[:, sub]))
        rhs += detf * detg * float(np.prod(vols[sub]))
    return lhs, rhs


def moment_matrix(
    kv: KnotVector, region: Interval, picks: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Matrix A = (∫_R t^i N_{picks[j]}), its inverse, and ||A^{-1}||_inf.

    The picked basis functions must have supports inside int(region),
    pairwise without interior overlap, ordered left to right.
    """
    k = kv.k
    if len(picks) != k:
        raise PreconditionError(f"need exactly k={k} picked indices")
    sups = [kv.support(p) for p in picks]
    for s in sups:
        if not (region.lo <= s.lo and s.hi <= region.hi):
            raise PreconditionError(f"support {s} escapes {region}")
    for s1, s2 in zip(sups, sups[1:]):
        if s2.lo < s1.hi:
            raise PreconditionError("picked supports overlap or are unordered")
    a = np.array([[moment(kv, p, i) for p in picks] for i in range(k)])
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(f"moment matrix condition {cond:.3e} above 1e12")
    ainv = np.linalg.inv(a)
    norm_inf = float(np.max(np.sum(np.abs(ainv), axis=1)))
    return a, ainv, norm_inf


def greville(kv: KnotVector) -> list[Fraction]:
    """Greville abscissae; collocation at these points is well posed."""
    k = kv.k
    if k == 1:
        return [(a + b) / 2 for a, b in zip(kv.breakpoints, kv.breakpoints[1:])]
    return [
        sum(kv.knots[i + 1 : i + k], Fraction(0)) / (k - 1) for i in range(kv.dim)
    ]


def interpolate(kv: KnotVector, f) -> ScalarSpline:
    """Spline interpolating f at the Greville points.

    The Greville point xi_p lies in [knots[p + 1], knots[p + k - 1]], so
    row p of the collocation matrix B[p, i] = N_i(xi_p) is zero outside
    |i - p| <= k - 1; the system is solved in that band storage.
    """
    pts = [float(t) for t in greville(kv)]
    rhs = np.array([f(t) for t in pts])
    first, vals = basis_values(kv, pts)
    # Schoenberg-Whitney: N_p(xi_p) > 0, else the matrix is singular
    on_diagonal = aligned_values(first, vals, np.arange(kv.dim))[:, 0]
    if not on_diagonal.all():
        p = int(np.flatnonzero(on_diagonal == 0)[0])
        raise CapacityError(
            f"Greville point {pts[p]!r} falls outside the support of basis "
            f"function {p} in binary64; the float layer cannot resolve this level"
        )
    u = kv.k - 1
    cols = first[:, None] + np.arange(kv.k)
    ab = np.zeros((2 * u + 1, kv.dim))  # ab[u + p - i, i] = B[p, i]
    ab[u + np.arange(kv.dim)[:, None] - cols, cols] = vals
    return ScalarSpline(kv, _linalg().solve_banded((u, u), ab, rhs))
