"""Orthogonal projections onto spline spaces and the L1 operator norm.

project_scalar realizes the L2-orthogonal projection P_n restricted to
spline inputs at a finer nested level (general integrable inputs are
pre-approximated by interpolation at a fine level, justified by density).
The L1 -> L1 norm equals the Linf -> Linf norm of the self-adjoint
projection, estimated as the maximum over a collocation grid of the
kernel row integrals ∫ |K_n(t, s)| ds.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_solve_banded

from .bspline import (
    GramOperator,
    KnotVector,
    ScalarSpline,
    aligned_values,
    basis_values,
    design_matrix,
    eval_basis,
    gauss_nodes,
    gram,
)
from .errors import LevelError
from .witness import XVec

__all__ = ["VectorSpline", "ProjectionContext"]


class VectorSpline:
    """Spline with witness-space coefficients, stored per coordinate."""

    def __init__(self, kv: KnotVector, components: dict[int, np.ndarray]):
        self.kv = kv
        self.components = {
            int(c): np.asarray(v, dtype=float) for c, v in components.items()
        }
        for v in self.components.values():
            if v.shape != (kv.dim,):
                raise ValueError("component length mismatch")

    @classmethod
    def tensor(cls, f: ScalarSpline, x: XVec) -> "VectorSpline":
        return cls(f.kv, {c: f.coeffs * float(v) for c, v in x.items()})

    def plus(self, other: "VectorSpline") -> "VectorSpline":
        assert self.kv == other.kv
        out = {c: v.copy() for c, v in self.components.items()}
        for c, v in other.components.items():
            out[c] = out.get(c, np.zeros(self.kv.dim)) + v
        return VectorSpline(self.kv, out)

    def active_coords(self) -> list[int]:
        return sorted(self.components)

    def scalar_component(self, coord: int) -> ScalarSpline:
        v = self.components.get(coord)
        if v is None:
            v = np.zeros(self.kv.dim)
        return ScalarSpline(self.kv, v)

    def eval(self, t: float) -> dict[int, float]:
        basis = eval_basis(self.kv, t)
        return {
            c: sum(v[i] * b for i, b in basis) for c, v in self.components.items()
        }

    def sup_norm_at(self, t: float) -> float:
        vals = self.eval(t)
        return max((abs(v) for v in vals.values()), default=0.0)


class ProjectionContext:
    """Per-level cache of spline spaces and Gram factorizations."""

    def __init__(self, filt, order: int):
        self.filt = filt
        self.k = order
        self._spaces: dict[int, tuple[KnotVector, GramOperator]] = {}

    def space(self, level: int) -> tuple[KnotVector, GramOperator]:
        if level not in self._spaces:
            kv = KnotVector.from_filtration(self.filt, level, self.k)
            self._spaces[level] = (kv, gram(kv))
        return self._spaces[level]

    def knot_vector(self, level: int) -> KnotVector:
        return self.space(level)[0]

    # -- scalar / vector projection -----------------------------------------

    def _rhs(self, f: ScalarSpline, target_kv: KnotVector) -> np.ndarray:
        """rhs_i = ∫ f N_i for the target basis, exact Gauss quadrature."""
        ts, wts = gauss_nodes(f.kv.breakpoints, self.k + 1)
        first, vals = basis_values(target_kv, ts)
        terms = (wts * f.eval_many(ts))[:, None] * vals
        slots = first[:, None] + np.arange(self.k)
        # bincount adds in point order, the order of a running sum
        return np.bincount(slots.ravel(), weights=terms.ravel(), minlength=target_kv.dim)

    def project_scalar(self, f: ScalarSpline, level: int) -> ScalarSpline:
        kv, g = self.space(level)
        if not set(kv.breakpoints) <= set(f.kv.breakpoints):
            raise LevelError("projection target must be a coarser nested level")
        if kv == f.kv:
            return f
        return ScalarSpline(kv, g.solve(self._rhs(f, kv)))

    def project_vector(self, fvec: VectorSpline, level: int) -> VectorSpline:
        out = {}
        for c in fvec.active_coords():
            out[c] = self.project_scalar(fvec.scalar_component(c), level).coeffs
        return VectorSpline(self.knot_vector(level), out)

    # -- L1 operator norm ------------------------------------------------------

    def l1_norm(
        self,
        level: int,
        t_per_atom: int = 32,
        s_nodes: int = 64,
        window: int | None = None,
    ) -> float:
        """Lower estimate of ||P_level||_{L1->L1}, grid-resolution tight.

        Self-adjointness turns the L1 norm into the Linf norm, which is the
        supremum over t of ∫ |K(t, s)| ds with K the projection kernel
        sum_ij N_i(t) (G^{-1})_{ij} N_j(s).
        """
        if self.k == 1:
            return 1.0  # averaging operator: kernel rows are probability densities
        kv, g = self.space(level)
        natoms = kv.num_atoms
        w = window if window is not None else 48 + 16 * self.k
        bps = [float(b) for b in kv.breakpoints]

        # quadrature data of the s-atoms, atom-major: node p of atom b has
        # weight s_wts[b * s_nodes + p] and s_vals[b, p, r] = N_{b+r} there
        pts, s_wts = gauss_nodes(kv.breakpoints, s_nodes)
        first, vals = basis_values(kv, pts)
        atom = np.repeat(np.arange(natoms), s_nodes)
        s_vals = aligned_values(first, vals, atom).reshape(natoms, s_nodes, self.k)

        # t-atoms to scan: everything when feasible, else boundary bands plus
        # centre (uniform levels repeat interior atom environments)
        if natoms <= 3 * w or not self.filt.is_uniform():
            t_atoms = range(natoms)
        else:
            t_atoms = sorted(
                set(range(w + 4))
                | set(range(natoms - w - 4, natoms))
                | {natoms // 2, natoms // 2 + 1}
            )

        best = 0.0
        for a in t_atoms:
            ts = np.linspace(bps[a], bps[a + 1], t_per_atom)
            basis = design_matrix(kv, ts)
            # coef = G^{-1} basis^T (dim x T); basis is zero outside the k or
            # so columns cols, so solve for those columns of G^{-1} only
            cols = np.flatnonzero(basis.any(axis=0))
            unit = np.zeros((kv.dim, len(cols)))
            unit[cols, np.arange(len(cols))] = 1.0
            coef = cho_solve_banded((g._chol, True), unit) @ basis[:, cols].T
            # kernel on the s-atoms b of the window, one (s_nodes x T) block per b:
            # K[b, p, t] = sum_r s_vals[b, p, r] coef[b + r, t]
            lo, hi = max(0, a - w), min(natoms, a + w + 1)
            win = sliding_window_view(coef, self.k, axis=0)[lo:hi].transpose(0, 2, 1)
            kvals = np.abs(s_vals[lo:hi] @ win).reshape(-1, len(ts))
            totals = s_wts[lo * s_nodes : hi * s_nodes] @ kvals
            best = max(best, float(totals.max()))
        return best
