"""Empirical estimators: maximal-function ratios, unconditionality,
uniform integrability, and the scalar convergence contrast.

Pointwise suprema of piecewise polynomials are handled per atom by dense
Chebyshev-style sampling (NODES = 64 points per atom keeps the sup error
far below the property-test tolerances for orders <= 4); integrals use
per-atom Gauss quadrature on the same grids. All randomness flows through
explicitly seeded generators, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from ..bspline import ScalarSpline, basis_values, gauss_nodes, refine_coeffs, spline_values
from ..bspline import eval_basis  # noqa: F401  unused; bench/test_bench.py traces it here
from ..projection import ProjectionContext, VectorSpline

#: Gauss nodes per atom of the maximal and unconditionality estimators
NODES = 64
#: Gauss nodes per atom of the uniform-integrability profile
UI_NODES = 32
#: the weak-type ratio's levels, as fractions of the largest sup value
WEAK_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)
#: increments below this count as converged in scalar_convergence_demo
CONVERGENCE_TOL = 1e-3


def random_martingale(filt, order: int, depth: int, rng, coords: int = 1) -> list[VectorSpline]:
    """A bounded martingale spline sequence: a top level with coefficients
    uniform in [-1, 1), projected down."""
    ctx = ProjectionContext(filt, order)
    kv = ctx.knot_vector(depth)
    comps = {c: 2.0 * rng.random(kv.dim) - 1.0 for c in range(1, coords + 1)}
    top = VectorSpline(kv, comps)
    seq = [top]
    for level in range(depth - 1, -1, -1):
        seq.append(ctx.project_vector(seq[-1], level))
    seq.reverse()
    return seq


# ---------------------------------------------------------------------------
# maximal-function ratios, over NODES Gauss points per atom of the finest level


def _sup_process(seq: list[VectorSpline]):
    """The point weights, ||f_n(t)|| per level n and their pointwise sup."""
    pts, wts = gauss_nodes(seq[-1].kv.breakpoints, NODES)
    norms = [_max_norm(f, pts) for f in seq]
    return wts, norms, np.max(norms, axis=0)


def _max_norm(f: VectorSpline, pts: np.ndarray) -> np.ndarray:
    """||f(t)||_inf at every point, zero where f has no coordinates."""
    coeffs = np.array(list(f.components.values())).reshape(-1, f.kv.dim)
    vals = spline_values(coeffs, *basis_values(f.kv, pts))
    return np.abs(vals).max(axis=0, initial=0.0)


def weak_type_ratio(seq: list[VectorSpline]) -> float:
    """max over lambda of lambda |{sup_n ||f_n|| > lambda}| / sup_n ||f_n||_L1,
    for lambda at the WEAK_QUANTILES of the largest sup value."""
    wts, norms, sup = _sup_process(seq)
    denom = max(float(vals @ wts) for vals in norms)
    if denom == 0:
        return 0.0
    top = sup.max()
    levels = [top * q for q in WEAK_QUANTILES]
    return max([0.0] + [lam * float(wts[sup > lam].sum()) / denom for lam in levels])


def doob_ratio(seq: list[VectorSpline], p: float) -> float:
    """|| sup_n ||f_n|| ||_p / sup_n ||f_n||_p."""
    if not 1 < p < float("inf"):
        raise ValueError("p must lie in (1, inf)")
    wts, norms, sup = _sup_process(seq)
    num = float((sup**p) @ wts) ** (1.0 / p)
    denom = max(float((vals**p) @ wts) ** (1.0 / p) for vals in norms)
    return num / denom if denom else 0.0


# ---------------------------------------------------------------------------
# unconditionality of spline difference expansions


def unconditionality_ratio(
    ctx: ProjectionContext,
    f: ScalarSpline,
    p: float,
    trials: int,
    seed: int = 0,
) -> float:
    """max over random sign patterns of ||sum_n ± (P_n - P_{n-1}) f||_p / ||f||_p.

    The n = 0 block is P_0 f itself, so the all-plus pattern telescopes to
    f and for order 1, p = 2 orthogonality makes every ratio exactly one.
    """
    if not 1 < p < float("inf"):
        raise ValueError("p must lie in (1, inf)")
    depth = _level_of(ctx, f)
    projections = [ctx.project_scalar(f, n) for n in range(depth)] + [f]
    fine_kv = f.kv
    diffs = []
    prev = np.zeros(fine_kv.dim)
    for g in projections:
        fine = refine_coeffs(g, fine_kv) if g.kv != fine_kv else g
        diffs.append(fine.coeffs - prev)
        prev = fine.coeffs
    pts, wts = gauss_nodes(fine_kv.breakpoints, NODES)
    dvals = spline_values(np.array(diffs), *basis_values(fine_kv, pts))  # (N+1) x pts
    fnorm = float((np.abs(dvals.sum(axis=0)) ** p) @ wts) ** (1.0 / p)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        signs = rng.choice([-1.0, 1.0], size=len(diffs))
        vals = signs @ dvals
        ratio = float((np.abs(vals) ** p) @ wts) ** (1.0 / p) / fnorm
        best = max(best, ratio)
    return best


def _level_of(ctx: ProjectionContext, f: ScalarSpline) -> int:
    level = 0
    while True:
        kv = ctx.knot_vector(level)
        if kv == f.kv:
            return level
        if kv.num_atoms > f.kv.num_atoms:
            raise ValueError("spline level not found in the filtration")
        level += 1


# ---------------------------------------------------------------------------
# uniform integrability and the convergence contrast


def uniform_integrability_profile(seq: list[VectorSpline], deltas) -> list[tuple[float, float]]:
    """(delta, sup_n ∫_A ||f_n||) over greedy worst sets A with |A| <= delta."""
    kv = seq[-1].kv
    pts, wts = gauss_nodes(kv.breakpoints, UI_NODES)
    wts = wts.reshape(-1, UI_NODES)
    # per atom: (length, sup_n ∫_atom ||f_n||), one evaluation per level
    masses = [(_max_norm(f, pts).reshape(-1, UI_NODES) * wts).sum(axis=1) for f in seq]
    bps = [float(b) for b in kv.breakpoints]
    lengths = [b - a for a, b in zip(bps, bps[1:])]
    atom_mass = list(zip(lengths, np.max(masses, axis=0).tolist()))
    atom_mass.sort(key=lambda t: t[1] / t[0], reverse=True)
    out = []
    for delta in deltas:
        room, total = float(delta), 0.0
        for length, mass in atom_mass:
            if room <= 0:
                break
            take = min(1.0, room / length)
            total += take * mass
            room -= length
        out.append((float(delta), total))
    return out


def scalar_convergence_demo(filt, order: int, depth: int, seed: int = 0) -> dict:
    """Real-valued contrast: a fixed smooth bounded function's projections
    form a martingale spline sequence whose increments die out.

    Returns the fraction of mass where the final increment is below
    CONVERGENCE_TOL
    and the per-level increment sups.
    """
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-1.0, 1.0, size=6)
    # Lipschitz constant about 2 pi sum |a_j| / j <= 4, so the final
    # increments at depth 12 sit near 4 * 2^-12 < 1e-3
    def f(t):
        return sum(a * np.sin(2 * np.pi * (j + 1) * t) / (3 * (j + 1) ** 2) for j, a in enumerate(amps))

    ctx = ProjectionContext(filt, order)
    from ..bspline import interpolate

    top = interpolate(ctx.knot_vector(depth), f)
    projections = [ctx.project_scalar(top, n) for n in range(depth)] + [top]
    sups, small_fraction = [], 0.0
    pts = np.linspace(0.0, 1.0, 4097)[:-1] + 0.5 / 4096
    prev = None
    for g in projections:
        vals = g.eval_many(pts)
        if prev is not None:
            inc = np.abs(vals - prev)
            sups.append(float(inc.max()))
            small_fraction = float((inc < CONVERGENCE_TOL).mean())
        prev = vals
    return {
        "depth": depth,
        "increment_sups": sups,
        "final_small_mass_fraction": small_fraction,
        "tolerance": CONVERGENCE_TOL,
    }
