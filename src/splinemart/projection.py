"""Orthogonal projections onto spline spaces and the L1 operator norm.

project_scalar realizes the L2-orthogonal projection P_n restricted to
spline inputs at a finer nested level (general integrable inputs are
pre-approximated by interpolation at a fine level, justified by density).
The L1 -> L1 norm equals the Linf -> Linf norm of the self-adjoint
projection, estimated as the maximum over a collocation grid of the
kernel row integrals ∫ |K_n(t, s)| ds.

The kernel decays away from the diagonal as the columns of the inverse
Gram matrix do, so each row integral runs over a window of atoms read
from those columns: a column's reach is where its entries, each weighted
by the integral of its row's basis function, fall below 2^-60 of its
largest, and the window adds k atoms to the reach of the columns in
play. The columns are solved once, in chunks of bounded size, never as a
dim x dim inverse. The mass the windows drop is bounded from
the same columns and kept per level in ProjectionContext.l1_tail. On a
uniform level the interior repeats one kernel environment, so when the
window is short against the level only the boundary bands and the centre
are scanned. A level whose breakpoints are symmetric about 1/2 has
K(1 - t, 1 - s) = K(t, s), so an atom and its mirror image have the same
row integrals and only one of the two is scanned. The s-side quadrature
is computed and held only for the atoms the scanned windows cover, one
chunk's windows at a time. The kernel values of each scanned atom are
written into one buffer per call, sized by the widest window scanned so
far, never by the level.

Like bspline, this module loads numpy at import and scipy.linalg only at
the first banded solve, through bspline._linalg.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bspline import (
    GramOperator,
    KnotVector,
    ScalarSpline,
    _frozen_row,
    _linalg,
    aligned_values,
    basis_values,
    eval_basis,
    gauss_nodes,
    gram,
)
from .errors import LevelError

__all__ = ["VectorSpline", "ProjectionContext"]

#: a G^{-1} entry |G^{-1}[i, j]| ∫N_i below this fraction of its column's
#: largest lies outside the column's reach, and so may fall outside the
#: kernel window
REACH_RTOL = 2.0**-60
#: most entries one chunk of solved G^{-1} columns holds (k + 1 columns
#: at the least)
CHUNK_ENTRIES = 2**18
#: equispaced points of every scanned t-atom at which l1_norm evaluates
#: the kernel row integral
T_PER_ATOM = 32
#: Gauss points per s-atom of each kernel row integral
S_NODES = 64


class VectorSpline:
    """Spline with witness-space coefficients, stored per coordinate."""

    def __init__(self, kv: KnotVector, components: dict[int, np.ndarray]):
        self.kv = kv
        frozen = {int(c): _frozen_row(v, kv.dim) for c, v in components.items()}
        self.components = {c: v for c, (v, _) in frozen.items()}
        self._rows = [(c, row) for c, (_, row) in frozen.items()]

    def active_coords(self) -> list[int]:
        return sorted(self.components)

    def scalar_component(self, coord: int) -> ScalarSpline:
        v = self.components.get(coord)
        if v is None:
            v = np.zeros(self.kv.dim)
        return ScalarSpline(self.kv, v)

    def eval(self, t: float) -> dict[int, float]:
        basis = eval_basis(self.kv, t)
        return {c: sum(row[i] * b for i, b in basis) for c, row in self._rows}


class ProjectionContext:
    """Per-level cache of spline spaces and Gram factorizations."""

    def __init__(self, filt, order: int):
        self.filt = filt
        self.k = order
        self._kvs: dict[int, KnotVector] = {}
        self._grams: dict[int, GramOperator] = {}
        #: per level, the bound on the kernel mass l1_norm's windows drop
        self.l1_tail: dict[int, float] = {}

    def space(self, level: int) -> tuple[KnotVector, GramOperator]:
        """The level's knot vector and its factored Gram matrix, built on
        the first solve or l1_norm at that level."""
        kv = self.knot_vector(level)
        if level not in self._grams:
            self._grams[level] = gram(kv)
        return kv, self._grams[level]

    def knot_vector(self, level: int) -> KnotVector:
        if level not in self._kvs:
            self._kvs[level] = KnotVector.from_filtration(self.filt, level, self.k)
        return self._kvs[level]

    # -- scalar / vector projection -----------------------------------------

    def _rhs(self, f: ScalarSpline, target_kv: KnotVector) -> np.ndarray:
        """rhs_i = ∫ f N_i for the target basis, exact Gauss quadrature."""
        ts, wts = gauss_nodes(f.kv.breakpoints_f, self.k + 1)
        first, vals = basis_values(target_kv, ts)
        terms = (wts * f.eval_many(ts))[:, None] * vals
        slots = first[:, None] + np.arange(self.k)
        # bincount adds in point order, the order of a running sum
        return np.bincount(slots.ravel(), weights=terms.ravel(), minlength=target_kv.dim)

    def project_scalar(self, f: ScalarSpline, level: int) -> ScalarSpline:
        kv, g = self.space(level)
        if not kv.breakpoint_set <= f.kv.breakpoint_set:
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

    def l1_norm(self, level: int) -> float:
        """Lower estimate of ||P_level||_{L1->L1}, grid-resolution tight.

        Self-adjointness turns the L1 norm into the Linf norm, which is the
        supremum over t of ∫ |K(t, s)| ds with K the projection kernel
        sum_ij N_i(t) (G^{-1})_{ij} N_j(s). The supremum runs over
        T_PER_ATOM equispaced points of every scanned t-atom; each integral
        runs over the s-atoms of that t-atom's window, S_NODES Gauss points
        per atom.

        Window. On a t-atom the kernel combines the G^{-1} columns c_r of
        the basis functions that are non-zero there. The atom's window
        holds every atom within the largest reach of those columns plus k
        (see _columns), so every row i it drops has |G^{-1}[i, c_r]| ∫ N_i
        below REACH_RTOL of that column's largest. A column whose reach
        hits an end of the space has a reach at least the distance to that
        end, so the window runs to that end; on a short space (dyadic k=3 level 4,
        dim 18) every window is the whole level.

        Tail. self.l1_tail[level] bounds the kernel mass the windows drop:
        the sum over rows i whose support meets a dropped atom of
        max_r |G^{-1}[i, c_r]| ∫ N_i, maximised over the scanned atoms. At
        every scanned t the windowed integral is within that bound of the
        integral over the whole level. It is below 2^-52 on uniform levels
        for k <= 4, and 0 where every window is the whole level.

        Scan. A non-uniform level scans every atom. A uniform level repeats
        one interior kernel environment up to the pull of the boundary, so
        when w, the wider window of the first atom and of the centre atom,
        has 3w < num_atoms, only the w + 4 atoms at either end and the
        centre pair are scanned, else every atom. A column that reaches an
        end of the space makes 3w >= num_atoms. Mirror rule: when the
        breakpoints are symmetric about 1/2, every atom a of that set is
        replaced by min(a, num_atoms - 1 - a), and repeats are scanned once,
        because K(1 - t, 1 - s) = K(t, s) gives an atom and its mirror image
        the same row integrals and the same tail. So a uniform band scan
        drops its right band, and its centre pair becomes its mirror image.
        Symmetry is decided exactly on the rational breakpoints; a uniform
        p-ary level is symmetric by construction and is not checked. The
        G^{-1} columns of the scanned atoms are solved once, in chunks of at
        most max(k + 1, CHUNK_ENTRIES // dim) contiguous columns, and the
        t-grids of all scanned atoms are evaluated in one basis_values call.

        Setup per chunk. A chunk's atoms get their design matrices, the
        columns non-zero on their t-grids and their windows in one pass.
        The s-side quadrature (Gauss weights and basis values) is computed
        for the span of the chunk's windows only, so it is sized by a window
        plus a chunk, never by the level; an atom that two chunks' windows
        cover is computed for each, to the same bits, as its nodes depend on
        that atom alone. Per atom there remains the kernel arithmetic: the
        coefficient block of its columns, a window view of it (one
        as_strided), the kernel product, its absolute value, the weighted
        sums, and the tail sums, which read |G^{-1}| on the dropped rows
        only. Each atom's kernel block, S_NODES x T_PER_ATOM values per
        window atom, is written and made absolute in place in a leading
        slice of one buffer per call. The buffer holds
        the widest window of the chunks so far and grows only when a chunk's
        widest window needs more, freeing the narrower one first; so at most
        one block of the widest window is live, never one sized by the level.
        """
        # built at k = 1 too: its quadrature refuses a level too fine for binary64
        kv, g = self.space(level)
        if self.k == 1:
            self.l1_tail[level] = 0.0
            return 1.0  # averaging operator: kernel rows are probability densities
        k, natoms = self.k, kv.num_atoms
        t_per_atom, s_nodes = T_PER_ATOM, S_NODES
        mass = (kv._knots_f[k:] - kv._knots_f[:-k]) / k  # ∫ N_i
        bps = kv.breakpoints_f
        t_atoms = np.arange(natoms)
        if self.filt.is_uniform():
            ends = np.r_[0:k, natoms // 2 : natoms // 2 + k]
            w = int(self._columns(g, ends, mass)[1].max()) + k
            if natoms > 3 * w:
                t_atoms = np.array(sorted(
                    set(range(w + 4))
                    | set(range(natoms - w - 4, natoms))
                    | {natoms // 2, natoms // 2 + 1}
                ))
        if _mirror_symmetric(self.filt, kv):
            t_atoms = np.unique(np.minimum(t_atoms, natoms - 1 - t_atoms))

        # t-grids of all scanned atoms in one evaluation; row j is atom t_atoms[j]
        ts = np.linspace(bps[t_atoms], bps[t_atoms + 1], t_per_atom, axis=1)
        first, vals = basis_values(kv, ts.ravel())
        first = first.reshape(len(t_atoms), t_per_atom)
        vals = vals.reshape(len(t_atoms), t_per_atom, k)
        col_lo, col_hi = first.min(axis=1), first.max(axis=1) + k

        best = tail = 0.0
        buf = np.empty(0)  # the kernel blocks, grown to the widest window so far
        cap = max(k + 1, CHUNK_ENTRIES // kv.dim)
        for start, stop in _chunks(col_lo, col_hi, cap):
            c0 = col_lo[start]
            inv, reach = self._columns(g, np.arange(c0, col_hi[stop - 1]), mass)
            # the design matrices of the chunk's atoms on their columns:
            # local[j, t, c] = N_{col_lo[j] + c} at point t of atom j, and
            # keep[j] marks the columns not zero on the whole t-grid
            lows = col_lo[start:stop]
            width = int((col_hi[start:stop] - lows).max())
            local = np.zeros((stop - start, t_per_atom, width))
            slots = first[start:stop, :, None] + np.arange(k) - lows[:, None, None]
            np.put_along_axis(local, slots, vals[start:stop], axis=2)
            keep = local.any(axis=1)
            offsets = lows[:, None] - c0 + np.arange(width)
            half = np.where(keep, reach[np.minimum(offsets, len(reach) - 1)], 0).max(axis=1) + k
            atoms = t_atoms[start:stop]
            win_lo, win_hi = np.maximum(0, atoms - half), np.minimum(natoms, atoms + half + 1)
            # s-side quadrature of the atoms [s_lo, s_hi) the chunk's windows
            # cover, atom-major: node p of atom s_lo + b has weight
            # s_wts[b * s_nodes + p] and s_vals[b, p, r] = N_{s_lo+b+r} there
            s_lo, s_hi = int(win_lo.min()), int(win_hi.max())
            pts, s_wts = gauss_nodes(bps[s_lo : s_hi + 1], s_nodes)
            s_first, s_basis = basis_values(kv, pts)
            s_vals = aligned_values(
                s_first, s_basis, np.repeat(np.arange(s_lo, s_hi), s_nodes)
            ).reshape(-1, s_nodes, k)
            widest = int((win_hi - win_lo).max())
            if len(buf) < widest:
                buf = kvals = None  # free the narrower buffer before the wider one is made
                buf = np.empty((widest, s_nodes, t_per_atom))
            for j, (lo, hi) in enumerate(zip(win_lo.tolist(), win_hi.tolist())):
                cols = offsets[j, keep[j]]
                # kernel on the s-atoms b of the window, one (s_nodes x T) block per b:
                # K[b, p, t] = sum_r s_vals[b, p, r] coef[b + r, t]
                coef = inv[lo : hi + k - 1, cols] @ local[j][:, keep[j]].T
                step, item = coef.strides
                win = as_strided(coef, (hi - lo, k, t_per_atom), (step, step, item))
                kvals = np.matmul(s_vals[lo - s_lo : hi - s_lo], win, out=buf[: hi - lo])
                np.abs(kvals, out=kvals)
                totals = (
                    s_wts[(lo - s_lo) * s_nodes : (hi - s_lo) * s_nodes]
                    @ kvals.reshape(-1, t_per_atom)
                )
                best = max(best, float(totals.max()))
                # rows below lo + k - 1 or from hi on meet a dropped atom
                left = _dropped(inv[: lo + k - 1, cols], mass[: lo + k - 1]) if lo > 0 else 0.0
                right = _dropped(inv[hi:, cols], mass[hi:]) if hi < natoms else 0.0
                tail = max(tail, float(left + right))
        self.l1_tail[level] = tail
        return best

    @staticmethod
    def _columns(
        g: GramOperator, cols: np.ndarray, mass: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columns cols of G^{-1} and the reach of each: the largest
        distance from the column's index j to a row i with |G^{-1}[i, j]|
        mass[i] at least REACH_RTOL times the column's largest such
        product; mass[i] = ∫ N_i weighs row i as the mass a window drops
        does. On uniform levels long enough to hold it an interior column
        reaches 31, 49 and 66 rows at k = 2, 3 and 4, an end column up to
        2 rows more."""
        unit = np.zeros((g.dim, len(cols)))
        unit[cols, np.arange(len(cols))] = 1.0
        inv = _linalg().cho_solve_banded((g._chol, True), unit)
        mag = np.abs(inv, out=unit)  # unit is spent once solved: its buffer holds |G^{-1}|
        mag *= mass[:, None]
        big = mag >= REACH_RTOL * mag.max(axis=0)
        first = big.argmax(axis=0)
        last = g.dim - 1 - big[::-1].argmax(axis=0)
        return inv, np.maximum(cols - first, last - cols)


def _mirror_symmetric(filt, kv: KnotVector) -> bool:
    """Whether the breakpoints b_0 < ... < b_n of kv satisfy
    b_i + b_{n-i} = 1, decided exactly; a uniform p-ary level does by
    construction and is not checked."""
    if filt.is_uniform():
        return True
    bps = kv.breakpoints
    return all(bps[i] + bps[-1 - i] == 1 for i in range(len(bps) // 2))


def _dropped(rows: np.ndarray, mass: np.ndarray):
    """sum_i max_r |rows[i, r]| mass[i]: the kernel mass bound of the rows
    a window drops, on the G^{-1} columns in play."""
    return (np.abs(rows).max(axis=1) * mass).sum()


def _chunks(col_lo: np.ndarray, col_hi: np.ndarray, cap: int):
    """Split atoms, given by their column ranges [col_lo, col_hi) in
    increasing order, into runs (start, stop) whose columns form one
    contiguous range of at most cap columns."""
    start, n = 0, len(col_lo)
    while start < n:
        stop = start + 1
        while (
            stop < n
            and col_lo[stop] <= col_hi[stop - 1]
            and col_hi[stop] - col_lo[start] <= cap
        ):
            stop += 1
        yield start, stop
        start = stop
