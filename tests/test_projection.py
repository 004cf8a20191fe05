import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_solve_banded

import splinemart.projection as projection
from splinemart.bspline import (
    ScalarSpline,
    aligned_values,
    basis_values,
    eval_basis,
    gauss_nodes,
    interpolate,
)
from splinemart.errors import LevelError
from splinemart.filtration import FileFiltration, UniformFiltration, dyadic
from splinemart.intervals import MeasurableUnion
from splinemart.projection import ProjectionContext, VectorSpline
from splinemart.witness import XVec

from float_helpers import design_matrix, dense_gram

F = Fraction


@pytest.fixture(scope="module")
def ctx2():
    return ProjectionContext(dyadic(), 2)


def random_spline(ctx, level, rng):
    kv = ctx.knot_vector(level)
    return ScalarSpline(kv, np.array([rng.uniform(-1, 1) for _ in range(kv.dim)]))


def l2_inner(f, g):
    # exact for piecewise polynomials over the union of both breakpoint sets
    breaks = sorted(set(f.kv.breakpoints) | set(g.kv.breakpoints))
    x, w = np.polynomial.legendre.leggauss(6)
    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
        af, bf = float(a), float(b)
        mid, half = 0.5 * (af + bf), 0.5 * (bf - af)
        for t, wt in zip(mid + half * x, w):
            total += half * wt * f.eval(t) * g.eval(t)
    return total


def test_idempotence(ctx2):
    rng = random.Random(0)
    f = random_spline(ctx2, 4, rng)
    p1 = ctx2.project_scalar(f, 2)
    p2 = ctx2.project_scalar(p1, 2)
    assert np.max(np.abs(p1.coeffs - p2.coeffs)) < 1e-10


def test_projection_of_own_level_is_identity(ctx2):
    rng = random.Random(1)
    f = random_spline(ctx2, 3, rng)
    assert ctx2.project_scalar(f, 3) is f


def test_level_error(ctx2):
    rng = random.Random(2)
    f = random_spline(ctx2, 2, rng)
    with pytest.raises(LevelError):
        ctx2.project_scalar(f, 3)
    # a file level that no dyadic level refines: 1/3 is no dyadic breakpoint
    ctx = ProjectionContext(FileFiltration(MeasurableUnion.full(), [[F(1, 3)]]), 2)
    with pytest.raises(LevelError):
        ctx.project_scalar(random_spline(ctx2, 3, rng), 0)
    assert ctx.knot_vector(0).breakpoint_set == {0, F(1, 3), 1}


def test_polynomial_reproduction():
    ctx = ProjectionContext(dyadic(), 3)
    kv_fine = ctx.knot_vector(5)
    f = interpolate(kv_fine, lambda t: (t - 0.3) ** 2)
    p = ctx.project_scalar(f, 2)
    for t in np.linspace(0, 1, 37):
        assert abs(p.eval(t) - (t - 0.3) ** 2) < 1e-9


def test_k1_projection_is_atom_averaging():
    ctx = ProjectionContext(dyadic(), 1)
    kv = ctx.knot_vector(4)
    f = interpolate(kv, lambda t: t)  # piecewise-constant approximation of t
    p = ctx.project_scalar(f, 1)
    # atoms [0,1/2], [1/2,1]: averages of the level-4 midpoint values
    atoms0 = f.coeffs[:8].mean()
    atoms1 = f.coeffs[8:].mean()
    assert abs(p.coeffs[0] - atoms0) < 1e-12
    assert abs(p.coeffs[1] - atoms1) < 1e-12
    # spec example: projecting t itself gives atom averages 1/4, 3/4
    assert abs(p.coeffs[0] - 0.25) < 1e-12
    assert abs(p.coeffs[1] - 0.75) < 1e-12


def test_orthogonality_residual(ctx2):
    rng = random.Random(3)
    f = random_spline(ctx2, 5, rng)
    p = ctx2.project_scalar(f, 2)
    kv2 = ctx2.knot_vector(2)
    # residual against a basis sweep of the target space
    diff = lambda t: f.eval(t) - p.eval(t)
    x, w = np.polynomial.legendre.leggauss(6)
    for i in range(kv2.dim):
        total = 0.0
        for a, b in zip(ctx2.knot_vector(5).breakpoints, ctx2.knot_vector(5).breakpoints[1:]):
            af, bf = float(a), float(b)
            mid, half = 0.5 * (af + bf), 0.5 * (bf - af)
            for t, wt in zip(mid + half * x, w):
                basis = dict(eval_basis(kv2, t))
                total += half * wt * diff(t) * basis.get(i, 0.0)
        assert abs(total) < 1e-9


def test_self_adjointness(ctx2):
    rng = random.Random(4)
    f = random_spline(ctx2, 4, rng)
    g = random_spline(ctx2, 4, rng)
    pf = ctx2.project_scalar(f, 2)
    pg = ctx2.project_scalar(g, 2)
    assert abs(l2_inner(pf, g) - l2_inner(f, pg)) < 1e-9


def test_tower_property(ctx2):
    rng = random.Random(5)
    f = random_spline(ctx2, 5, rng)
    via = ctx2.project_scalar(ctx2.project_scalar(f, 3), 1)
    direct = ctx2.project_scalar(f, 1)
    assert np.max(np.abs(via.coeffs - direct.coeffs)) < 1e-9


def test_project_vector_matches_coordinate_sweep(ctx2):
    rng = random.Random(6)
    kv = ctx2.knot_vector(4)
    comps = {
        2: np.array([rng.uniform(-1, 1) for _ in range(kv.dim)]),
        7: np.array([rng.uniform(-1, 1) for _ in range(kv.dim)]),
    }
    fvec = VectorSpline(kv, comps)
    p = ctx2.project_vector(fvec, 2)
    for c in fvec.active_coords():
        ps = ctx2.project_scalar(fvec.scalar_component(c), 2)
        assert np.max(np.abs(p.components[c] - ps.coeffs)) < 1e-10


def test_project_vector_tensor_identity(ctx2):
    rng = random.Random(7)
    f = random_spline(ctx2, 4, rng)
    x = XVec({1: F(1, 2), 4: F(-1)})
    fx = VectorSpline(f.kv, {c: f.coeffs * float(v) for c, v in x.items()})
    p = ctx2.project_vector(fx, 2)
    pf = ctx2.project_scalar(f, 2)
    expect = VectorSpline(pf.kv, {c: pf.coeffs * float(v) for c, v in x.items()})
    for c in expect.active_coords():
        assert np.max(np.abs(p.components[c] - expect.components[c])) < 1e-10


def test_vector_spline_copies_its_components_read_only():
    kv = ProjectionContext(dyadic(), 3).knot_vector(3)
    rng = np.random.default_rng(13)
    sources = {1: rng.uniform(-1, 1, kv.dim), 4: rng.uniform(-1, 1, kv.dim)}
    ts = np.linspace(0.0, 1.0, 41)
    f = VectorSpline(kv, sources)
    before = [f.eval(t) for t in ts]
    for v in sources.values():
        v[:] = 7.0
    assert [f.eval(t) for t in ts] == before
    for c in f.active_coords():
        with pytest.raises(ValueError):
            f.components[c][0] = 1.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_vector_spline_eval_bit_identical_to_numpy_scalar_sum(k):
    kv = ProjectionContext(dyadic(), k).knot_vector(4)
    rng = np.random.default_rng(k)
    comps = {c: rng.uniform(-1, 1, kv.dim) for c in (1, 2, 5)}
    f = VectorSpline(kv, comps)
    for t in [0.0, 1.0, *rng.random(100).tolist()]:
        basis = eval_basis(kv, t)
        want = {c: float(sum(v[i] * b for i, b in basis)).hex() for c, v in comps.items()}
        assert {c: x.hex() for c, x in f.eval(t).items()} == want, t


def test_atom_supported_moment_free_bump_projects_to_zero():
    # the construction's key orthogonality step, cross-checked on the
    # float path: a perturbation supported in one coarse atom with
    # vanishing local moments up to order k-1 projects to zero
    for k in (1, 2):
        ctx = ProjectionContext(dyadic(), k)
        fine = ctx.knot_vector(5)
        coeffs = np.zeros(fine.dim)
        if k == 1:
            coeffs[2:4] = [1.0, -1.0]  # mean-zero inside atom [0, 1/2]
        else:
            # build a bump inside [0, 1/2] and correct mean and first moment
            coeffs[4] = 1.0
            g0 = ScalarSpline(fine, coeffs)
            # two correction bumps at indices 7, 10 solve the 2x2 system
            import numpy.linalg as la

            def mom(i, j):
                e = np.zeros(fine.dim)
                e[i] = 1.0
                s = ScalarSpline(fine, e)
                xs = np.linspace(0, 0.5, 2001)[1:-1]
                vals = s.eval_many(xs) * xs**j
                return vals.mean() * 0.5

            a = np.array([[mom(7, 0), mom(10, 0)], [mom(7, 1), mom(10, 1)]])
            b = -np.array([mom(4, 0), mom(4, 1)])
            w = la.solve(a, b)
            coeffs[7], coeffs[10] = w
            _ = g0
        g = ScalarSpline(fine, coeffs)
        pg = ctx.project_scalar(g, 1)
        tol = 1e-12 if k == 1 else 5e-4  # k=2 moments only quadrature-accurate
        assert np.max(np.abs(pg.coeffs)) < tol


def test_l1_norm_k1_exact():
    ctx = ProjectionContext(dyadic(), 1)
    assert ctx.l1_norm(3) == 1.0


def test_l1_norm_k2_range_and_grid_stability(monkeypatch):
    ctx = ProjectionContext(dyadic(), 2)
    v = ctx.l1_norm(3)
    assert 1.0 < v <= 3.5
    monkeypatch.setattr(projection, "T_PER_ATOM", 64)
    monkeypatch.setattr(projection, "S_NODES", 128)
    v2 = ctx.l1_norm(3)
    assert abs(v - v2) < 1e-3


def test_l1_norm_matches_dense_kernel_oracle(monkeypatch):
    # dense-grid oracle at a small level: invert the Gram matrix directly
    for k in (2, 3):
        ctx = ProjectionContext(dyadic(), k)
        kv, g = ctx.space(3)
        ginv = np.linalg.inv(dense_gram(g))
        best = 0.0
        for t in np.linspace(0, 1, 8 * kv.num_atoms + 1):
            row = np.zeros(kv.dim)
            for i, v in eval_basis(kv, float(t)):
                row[i] = v
            coef = ginv @ row
            total = 0.0
            for a, b in zip(kv.breakpoints, kv.breakpoints[1:]):
                x, w = np.polynomial.legendre.leggauss(64)
                af, bf = float(a), float(b)
                mid, half = 0.5 * (af + bf), 0.5 * (bf - af)
                for s, wt in zip(mid + half * x, w):
                    val = sum(coef[i] * v for i, v in eval_basis(kv, float(s)))
                    total += half * wt * abs(val)
            best = max(best, total)
        monkeypatch.setattr(projection, "T_PER_ATOM", 8)
        est = ctx.l1_norm(3)
        # t grids differ slightly; both are lower bounds of the same sup
        assert abs(est - best) < 5e-3


def test_l1_norm_profile_nondecreasing_then_plateau():
    ctx = ProjectionContext(dyadic(), 3)
    vals = [ctx.l1_norm(lv) for lv in range(1, 9)]
    assert all(v < 4.0 for v in vals)
    # plateau: last three levels agree within 1%
    tail = vals[-3:]
    assert (max(tail) - min(tail)) / max(tail) < 0.01


def fixed_window_l1_norm(ctx, level, t_per_atom=32, s_nodes=64, atoms=None):
    """The l1_norm scan before its window was read from G^{-1}: a guessed
    half-width of 48 + 16k atoms, and the k or k + 1 columns of G^{-1} of
    each scanned atom solved afresh for that atom. No mirror rule: every
    atom of the scan set is scanned, or only those of `atoms` when given."""
    if ctx.k == 1:
        return 1.0
    kv, g = ctx.space(level)
    natoms = kv.num_atoms
    w = 48 + 16 * ctx.k
    bps = [float(b) for b in kv.breakpoints]
    pts, s_wts = gauss_nodes(kv.breakpoints, s_nodes)
    first, vals = basis_values(kv, pts)
    atom = np.repeat(np.arange(natoms), s_nodes)
    s_vals = aligned_values(first, vals, atom).reshape(natoms, s_nodes, ctx.k)
    if natoms <= 3 * w or not ctx.filt.is_uniform():
        t_atoms = range(natoms)
    else:
        t_atoms = sorted(
            set(range(w + 4))
            | set(range(natoms - w - 4, natoms))
            | {natoms // 2, natoms // 2 + 1}
        )
    best = 0.0
    for a in t_atoms if atoms is None else atoms:
        ts = np.linspace(bps[a], bps[a + 1], t_per_atom)
        basis = design_matrix(kv, ts)
        cols = np.flatnonzero(basis.any(axis=0))
        unit = np.zeros((kv.dim, len(cols)))
        unit[cols, np.arange(len(cols))] = 1.0
        coef = cho_solve_banded((g._chol, True), unit) @ basis[:, cols].T
        lo, hi = max(0, a - w), min(natoms, a + w + 1)
        win = sliding_window_view(coef, ctx.k, axis=0)[lo:hi].transpose(0, 2, 1)
        kvals = np.abs(s_vals[lo:hi] @ win).reshape(-1, len(ts))
        totals = s_wts[lo * s_nodes : hi * s_nodes] @ kvals
        best = max(best, float(totals.max()))
    return best


def graded_filtration(levels=6):
    """A non-uniform file filtration: level n refines [0, 1/2] to step
    2^-(n+3) and [1/2, 1] to step 2^-(n+1), and grades towards 0 with the
    points 2^-j, j <= 3n, so neighbouring atoms differ by up to 2^9."""
    out = []
    for n in range(levels + 1):
        pts = {F(j, 2 ** (n + 3)) for j in range(2 ** (n + 2) + 1)}
        pts |= {F(1, 2) + F(j, 2 ** (n + 1)) for j in range(2**n + 1)}
        pts |= {F(1, 2**j) for j in range(1, 3 * n + 1)}
        out.append(sorted(pts))
    return FileFiltration(MeasurableUnion.full(), out)


#: (filtration, levels) the windowed scan is held to the fixed-window one on
ORACLE_CASES = [
    (dyadic, range(1, 11)),
    (lambda: UniformFiltration(3), range(1, 7)),
    (graded_filtration, [6]),
]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_l1_norm_matches_fixed_window_reference(k):
    # dyadic k=3 level 4 (dim 18) is the short space whose columns reach
    # both of its ends; the graded filtration scans every atom with
    # windows narrower than the level
    for make, levels in ORACLE_CASES:
        ctx = ProjectionContext(make(), k)
        for level in levels:
            got, want = ctx.l1_norm(level), fixed_window_l1_norm(ctx, level)
            assert abs(got - want) <= 1e-12 * want, (make, level, got, want)


def per_atom_l1_norm(ctx, level):
    """(l1_norm, l1_tail) by the scan with per-atom setup: each scanned
    atom's design matrix put together, its window cut by
    sliding_window_view and its tail read from |G^{-1}| over every row,
    and the s-side quadrature of every atom of the level. The scan set,
    windows, column chunks and kernel arithmetic are those of l1_norm."""
    if ctx.k == 1:
        return 1.0, 0.0
    kv, g = ctx.space(level)
    k, natoms = ctx.k, kv.num_atoms
    t_per_atom, s_nodes = projection.T_PER_ATOM, projection.S_NODES
    mass = (kv._knots_f[k:] - kv._knots_f[:-k]) / k
    bps = kv.breakpoints_f
    t_atoms = np.arange(natoms)
    if ctx.filt.is_uniform():
        ends = np.r_[0:k, natoms // 2 : natoms // 2 + k]
        w = int(ctx._columns(g, ends, mass)[1].max()) + k
        if natoms > 3 * w:
            t_atoms = np.array(sorted(
                set(range(w + 4))
                | set(range(natoms - w - 4, natoms))
                | {natoms // 2, natoms // 2 + 1}
            ))
    if projection._mirror_symmetric(ctx.filt, kv):
        t_atoms = np.unique(np.minimum(t_atoms, natoms - 1 - t_atoms))
    pts, s_wts = gauss_nodes(bps, s_nodes)
    s_first, s_basis = basis_values(kv, pts)
    atom = np.repeat(np.arange(natoms), s_nodes)
    s_vals = aligned_values(s_first, s_basis, atom).reshape(natoms, s_nodes, k)
    ts = np.linspace(bps[t_atoms], bps[t_atoms + 1], t_per_atom, axis=1)
    first, vals = basis_values(kv, ts.ravel())
    first = first.reshape(len(t_atoms), t_per_atom)
    vals = vals.reshape(len(t_atoms), t_per_atom, k)
    col_lo, col_hi = first.min(axis=1), first.max(axis=1) + k
    best = tail = 0.0
    cap = max(k + 1, projection.CHUNK_ENTRIES // kv.dim)
    for start, stop in projection._chunks(col_lo, col_hi, cap):
        c0 = col_lo[start]
        inv, reach = ctx._columns(g, np.arange(c0, col_hi[stop - 1]), mass)
        for j in range(start, stop):
            a = int(t_atoms[j])
            local = np.zeros((t_per_atom, col_hi[j] - col_lo[j]))
            slots = first[j][:, None] + np.arange(k) - col_lo[j]
            np.put_along_axis(local, slots, vals[j], axis=1)
            keep = local.any(axis=0)
            cols = col_lo[j] - c0 + np.flatnonzero(keep)
            w = int(reach[cols].max()) + k
            lo, hi = max(0, a - w), min(natoms, a + w + 1)
            coef = inv[lo : hi + k - 1, cols] @ local[:, keep].T
            win = sliding_window_view(coef, k, axis=0).transpose(0, 2, 1)
            kvals = np.abs(s_vals[lo:hi] @ win)
            totals = s_wts[lo * s_nodes : hi * s_nodes] @ kvals.reshape(-1, t_per_atom)
            best = max(best, float(totals.max()))
            drop = np.abs(inv[:, cols]).max(axis=1) * mass
            left = drop[: lo + k - 1].sum() if lo > 0 else 0.0
            right = drop[hi:].sum() if hi < natoms else 0.0
            tail = max(tail, float(left + right))
    return best, tail


@pytest.mark.parametrize("k", [2, 3, 4])
def test_l1_norm_and_tail_repr_identical_to_per_atom_setup(k):
    for make, levels in ORACLE_CASES:
        ctx = ProjectionContext(make(), k)
        for level in levels:
            got = ctx.l1_norm(level), ctx.l1_tail[level]
            want = per_atom_l1_norm(ctx, level)
            assert repr(got) == repr(want), (make, level)


def mirror_graded(moved=False):
    """A one-level file filtration symmetric about 1/2: the grid of step
    1/16 and the points 2^-j and 1 - 2^-j for j <= 12, graded to both
    ends. With moved, 1 - 2^-12 moves to 1 - 2^-13 and nothing else
    changes."""
    pts = {F(j, 16) for j in range(17)}
    pts |= {F(1, 2**j) for j in range(1, 13)} | {1 - F(1, 2**j) for j in range(1, 13)}
    if moved:
        pts = (pts - {1 - F(1, 2**12)}) | {1 - F(1, 2**13)}
    return FileFiltration(MeasurableUnion.full(), [sorted(pts)])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mirror_rule_only_on_an_exactly_symmetric_mesh(k):
    for moved in (False, True):
        filt = mirror_graded(moved)
        ctx = ProjectionContext(filt, k)
        assert projection._mirror_symmetric(filt, ctx.knot_vector(0)) is not moved
        want = fixed_window_l1_norm(ctx, 0)
        assert abs(ctx.l1_norm(0) - want) <= 1e-12 * want, (moved, k)
    # the moved mesh peaks on its right half, so a scan of the left half
    # alone, which the mirror rule makes on a symmetric mesh, reads low
    left = fixed_window_l1_norm(ctx, 0, atoms=range(ctx.knot_vector(0).num_atoms // 2 + 1))
    assert left < 0.96 * want


@pytest.mark.parametrize("k", [2, 3, 4])
def test_l1_tail_bound_below_machine_epsilon(k):
    # the graded filtration's atom lengths differ by up to 2^9, so a reach
    # taken on the bare G^{-1} entries leaves its tail above 2^-52
    for filt, levels in ((dyadic(), range(1, 13)), (UniformFiltration(3), range(1, 8)),
                         (graded_filtration(), [6])):
        ctx = ProjectionContext(filt, k)
        for level in levels:
            ctx.l1_norm(level)
            assert 0.0 <= ctx.l1_tail[level] <= 2.0**-52, (filt, level)


def test_l1_tail_zero_when_the_window_is_the_level():
    ctx = ProjectionContext(dyadic(), 3)
    ctx.l1_norm(4)  # dim 18: every column reaches both ends of the space
    assert ctx.l1_tail[4] == 0.0
    ctx1 = ProjectionContext(dyadic(), 1)
    ctx1.l1_norm(3)
    assert ctx1.l1_tail[3] == 0.0


def test_l1_norm_keeps_one_kernel_block_of_the_widest_window():
    # besides the s-side arrays (points, weights and the k basis values of
    # every node) the scan holds one kernel buffer of its widest window and
    # per-chunk arrays within slack: the chunk's solved G^{-1} columns
    # (about 0.5 MB at dim 1,026) and one window's s-side basis evaluation
    # (about 1 MB). Two live blocks, a temporary for the product and one
    # for its absolute value, exceed the bound, as does a buffer with a
    # block for every atom of the level
    ctx = ProjectionContext(dyadic(), 3)
    kv, g = ctx.space(10)
    k, natoms = 3, kv.num_atoms
    s_nodes, t_per_atom = projection.S_NODES, projection.T_PER_ATOM
    mass = (kv._knots_f[k:] - kv._knots_f[:-k]) / k
    reach = ProjectionContext._columns(g, np.arange(kv.dim), mass)[1]
    widest = min(natoms, 2 * (int(reach.max()) + k) + 1)  # the widest a window can be
    block = widest * s_nodes * t_per_atom * 8
    s_side = natoms * s_nodes * (k + 2) * 8
    slack = 3 * 2**19
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ctx.l1_norm(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base - s_side <= block + slack, (peak - base, s_side, block)
    assert block + slack < 2 * block < natoms * s_nodes * t_per_atom * 8


def test_l1_norm_s_side_only_on_the_covered_atoms():
    # dyadic k=4 level 14 is band-scanned: its windows cover about 3(w + 4)
    # of its 16,384 atoms. The bound allows one kernel block of the widest
    # window, six chunks of solved G^{-1} columns (the chunk held, and the
    # next one's unit matrix, solve and weighted magnitudes) and twice the
    # s-side quadrature of one chunk's window span, at most a widest window
    # plus a chunk's atoms (the span held and the arrays that build the
    # next); it has no room for the s-side quadrature of the whole level
    ctx = ProjectionContext(dyadic(), 4)
    kv, g = ctx.space(14)
    k, natoms = 4, kv.num_atoms
    s_nodes, t_per_atom = projection.S_NODES, projection.T_PER_ATOM
    mass = (kv._knots_f[k:] - kv._knots_f[:-k]) / k
    read = np.r_[0:100, natoms // 2 - 50 : natoms // 2 + 50]  # the columns the scan reads
    reach = ProjectionContext._columns(g, read, mass)[1]
    widest = 2 * (int(reach.max()) + k) + 1
    cap = max(k + 1, projection.CHUNK_ENTRIES // kv.dim)
    block = widest * s_nodes * t_per_atom * 8
    columns = kv.dim * cap * 8
    hulls = 2 * (widest + cap) * s_nodes * (k + 2) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ctx.l1_norm(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = block + 6 * columns + hulls
    assert peak - base <= bound, (peak - base, bound)
    assert bound < natoms * s_nodes * (k + 2) * 8 / 3


def test_columns_hold_the_solve_and_its_magnitudes_only():
    # one 15-column call at dyadic k=4 level 14: once the solve returns, the
    # weighted magnitudes are formed in place in the unit matrix's buffer,
    # so the solved columns and one array of their size are live at the
    # peak; a third such array (a temporary for |G^{-1}|) exceeds 2.5x
    ctx = ProjectionContext(dyadic(), 4)
    kv, g = ctx.space(14)
    mass = (kv._knots_f[4:] - kv._knots_f[:-4]) / 4
    cols = np.arange(kv.dim // 2, kv.dim // 2 + 15)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inv, _ = ProjectionContext._columns(g, cols, mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv.shape == (kv.dim, 15)
    assert peak - base <= 2.5 * inv.nbytes, (peak - base, inv.nbytes)
    unit = np.zeros((kv.dim, 15))
    unit[cols, np.arange(15)] = 1.0
    assert np.array_equal(inv, cho_solve_banded((g._chol, True), unit))


def test_l1_norm_independent_of_the_column_chunking(monkeypatch):
    # one chunk per atom (k + 1 columns) against the default chunks
    for filt, level in ((dyadic(), 9), (graded_filtration(4), 4)):
        ctx = ProjectionContext(filt, 3)
        want = ctx.l1_norm(level)
        tail = ctx.l1_tail[level]
        monkeypatch.setattr(projection, "CHUNK_ENTRIES", 1)
        assert ctx.l1_norm(level) == want
        assert ctx.l1_tail[level] == tail
        monkeypatch.undo()
