import ast
import bisect
import copy
import functools
import inspect
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinemart.cardinal as cardinal
import splinemart.construction.core as core
import splinemart.construction.driver as driver_module
import splinemart.construction.lemma as lemma_module
from splinemart.construction.core import (
    BoundPattern,
    CellSpec,
    ConstructionContext,
    PeriodicFamily,
    check_tiling,
    level_aligning,
    p_power_at_least,
    step1_stopping,
    tile,
)
from splinemart.construction.driver import _bind_representative, _bush_slots, build_sequence
from splinemart.construction.lemma import (
    correction_frame,
    cube_root_under,
    invert_exact,
    lemma_moments,
)
from splinemart.errors import (
    CapacityError,
    InfeasibleStoppingError,
    PreconditionError,
)
from splinemart.filtration import (
    AccumulatingFiltration,
    UniformFiltration,
    dyadic,
    parse_filtration_spec,
)
from splinemart.intervals import Interval
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace
from splinemart.witness import BushRep, XVec, bush_decompose

from fraction_oracle import (
    RationalBound,
    aligning_level,
    basis_at,
    bump_level_search,
    cell_ends,
    cell_points,
    combine_window,
    first_level,
    general_slot_vectors,
    grid_unit,
    moment_slotwise,
    reference_ainv_norm,
    reference_w_data,
    slot_xvecs,
    step1_level_search,
    stopping_masses,
    support_bounds,
    unit_slots,
    w_fractions,
    w_sup_norm,
    w_vectors,
    xvec_numerators,
)

F = Fraction
HALF = F(1, 2)


def g_at(bound, t):
    """g(t) from the integer kernel of a bound pattern."""
    t = F(t)
    return XVec.over(*bound.g_numerators(t.numerator, t.denominator, 0))


def bush_slots(betas):
    """The root's bush decomposition and its general slot vectors."""
    rep = BushRep("")
    parts = bush_decompose(rep, 1, target_count=2)
    points = [xvec_numerators(r.value()) for _, r in parts]
    return parts, general_slot_vectors(xvec_numerators(rep.value()), points, betas)


class TestStopping:
    def test_mean_zero_identity(self):
        ctx = ConstructionContext(dyadic(), 2)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
        tr = pat.trace
        # the defining identity: int f_m + beta_m int f_{M+1} = C alpha_m
        int_f = stopping_masses(tr)["int_f"]
        for m in range(2):
            assert int_f[m] + tr.betas[m] * int_f[2] == tr.C * tr.alphas[m]
        # so the slot-weighted mean vanishes for the bush decomposition
        _, vecs = bush_slots(tr.betas)
        mean = XVec.zero()
        vecs = slot_xvecs(*vecs)
        for key, v in moment_slotwise(pat, 0).items():
            mean = mean.add(vecs[key].scale(v))
        assert mean.sup_norm == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zone_values_and_separation(self, k):
        ctx = ConstructionContext(dyadic(), k)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
        parts, vecs = bush_slots(pat.trace.betas)
        bound = RationalBound(pat, vecs)
        xbar = XVec.zero()  # bush root
        for cell in pat.cells:
            if cell.kind != "zone":
                continue
            lo, hi = cell_ends(pat, cell)
            pts = [lo + (hi - lo) * F(i, 7) for i in (1, 3, 5)]
            vals = [xbar.add(g_at(bound, t)) for t in pts]
            child = parts[cell.m][1].value()
            for v in vals:
                assert v == child
                assert v.sub(xbar).sup_norm == 1

    def test_trace_inequalities_recorded(self):
        ctx = ConstructionContext(dyadic(), 2)
        for eps in (F(1, 4), F(1, 8), F(1, 16)):
            pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], eps, 0, max_zombie_length=F(1))
            assert all(ok for _, ok in pat.trace.checks)
            assert sum(abs(b) for b in pat.trace.betas) < eps / 2

    def test_mass_retention_exact(self):
        ctx = ConstructionContext(dyadic(), 2)
        eps = F(1, 8)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], eps, 0, max_zombie_length=F(1))
        assert pat.zone_mass() >= (1 - eps) * 1

    def test_support_inside_interior(self):
        ctx = ConstructionContext(dyadic(), 3)
        iv = Interval(F(1, 4), F(1, 2))
        pat = step1_stopping(ctx, iv, [HALF, HALF], F(1, 4), 2, max_zombie_length=iv.length)
        for scal, _ in pat.terms:
            lo, hi = support_bounds(scal)
            assert iv.lo < lo and hi < iv.hi

    def test_weights_must_be_convex(self):
        ctx = ConstructionContext(dyadic(), 1)
        with pytest.raises(PreconditionError):
            step1_stopping(
                ctx, Interval(0, 1), [HALF, HALF, HALF], F(1, 4), 0, max_zombie_length=F(1)
            )

    def test_unsupported_filtration(self):
        ctx = ConstructionContext(AccumulatingFiltration(F(1, 2)), 1)
        with pytest.raises(CapacityError):
            step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))


def is_cube_root_under(x, eps, p):
    """x is the largest grid point m/P with (1 - m/P)**3 >= 1 - eps, on the
    first grid P = p**a, a = 8, 12, 16, ..., that has one with m > 0."""
    a = 8
    while (1 - F(1, p**a)) ** 3 < 1 - eps:  # no m > 0 on this grid
        a += 4
    big = p**a
    m = x * big
    return (
        m.denominator == 1
        and m > 0
        and (1 - x) ** 3 >= 1 - eps
        and (1 - (m + 1) / big) ** 3 < 1 - eps
    )


#: every driver eps_n = eta / 2**(n+4) at five eta, and eps up to 999/1000
CUBE_ROOT_CASES = [
    *(
        (eta * F(1, 2 ** (n + 4)), p)
        for p in (2, 3, 5, 7)
        for eta in (F(2, 5), HALF, F(3, 5), F(1, 1000), F(999, 1000))
        for n in range(14)
    ),
    *((F(num, 1000), p) for p in (2, 3, 5, 7) for num in (1, 37, 500, 998, 999)),
]


class TestCubeRoot:
    # 10**-400 is below the binary64 range: float(eps) is 0.0
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 16), F(1, 100), F(9, 10), F(1, 10**400)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_under_approximation(self, eps, p):
        x = cube_root_under(eps, p)
        assert 0 < x < 1
        assert (1 - x) ** 3 >= 1 - eps
        # within a few grid steps of the true cube root
        true_root = 1.0 - (1.0 - float(eps)) ** (1.0 / 3.0)
        assert float(x) >= true_root - 1 / 32
        assert is_cube_root_under(x, eps, p)

    def test_largest_grid_point_on_the_first_grid(self):
        for eps, p in CUBE_ROOT_CASES:
            assert is_cube_root_under(cube_root_under(eps, p), eps, p), (eps, p)

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.fractions(min_value=0, max_value=1, max_denominator=10**12).filter(
            lambda e: 0 < e < 1
        ),
        p=st.sampled_from([2, 3, 5, 7]),
    )
    def test_largest_grid_point_at_random_eps(self, eps, p):
        assert is_cube_root_under(cube_root_under(eps, p), eps, p)

    def test_takes_no_float(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(cube_root_under)))
        for node in ast.walk(tree):
            # float(), a float literal or an int / int would each bring binary64 in
            assert not (isinstance(node, ast.Name) and node.id == "float")
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float))
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div))


class TestExactLinalg:
    def test_solve_and_invert(self):
        rng = random.Random(0)
        for n in (1, 2, 3, 4):
            a = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
            # make diagonally dominant to ensure invertibility
            for i in range(n):
                a[i][i] += 20
            rhs = [F(rng.randint(-5, 5)) for _ in range(n)]
            nums, den = invert_exact(a)
            inv = [[F(v, den) for v in row] for row in nums]
            x = [sum(v * b for v, b in zip(row, rhs)) for row in inv]
            for i in range(n):
                assert sum(a[i][j] * x[j] for j in range(n)) == rhs[i]
            for i in range(n):
                for j in range(n):
                    v = sum(a[i][q] * inv[q][j] for q in range(n))
                    assert v == (1 if i == j else 0)


class TestLemma:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vanishing_moments_exact(self, k):
        ctx = ConstructionContext(dyadic(), k)
        pat = lemma_moments(
            correction_frame(ctx, Interval(0, 1), F(1, 4), 0, max_zombie_length=F(1)),
            const_alphas=[HALF, HALF],
        )
        # every slot's moment vanishes, so g's does for any slot vectors
        for j in range(k):
            assert not any(moment_slotwise(pat, j).values())
        # raw moments also vanish: local and raw moments span the same space
        for j in range(k):
            assert not any(moment_slotwise(pat, j, origin=F(0)).values())

    def test_w_norm_within_eps_tilde(self):
        for k in (1, 2, 3):
            ctx = ConstructionContext(dyadic(), k)
            pat = lemma_moments(
                correction_frame(ctx, Interval(0, 1), F(1, 4), 0, max_zombie_length=F(1)),
                const_alphas=[HALF, HALF],
            )
            parts, _ = bush_slots(pat.inner.trace.betas)
            assert pat.trace.w_bound is None
            _bind_representative(pat, BushRep(""), parts)
            assert ("eq:esty", True) in pat.trace.checks
            assert pat.trace.w_bound is not None
            assert pat.trace.w_bound <= pat.trace.eps_tilde2
            if k == 1:
                assert pat.trace.w_bound == 0  # mean already vanishes on L

    def test_mass_chain_exact(self):
        ctx = ConstructionContext(dyadic(), 2)
        eps = F(1, 4)
        pat = lemma_moments(
            correction_frame(ctx, Interval(0, 1), eps, 0, max_zombie_length=F(1)),
            const_alphas=[HALF, HALF],
        )
        tr = pat.trace
        et = tr.eps_tilde2
        assert tr.zone_mass >= (1 - et) ** 2 * tr.L_mass
        assert tr.zone_mass >= (1 - et) ** 3 * 1
        assert tr.zone_mass >= (1 - eps) * 1

    def test_k1_scalar_solve(self):
        ctx = ConstructionContext(dyadic(), 1)
        pat = lemma_moments(
            correction_frame(ctx, Interval(0, 1), F(1, 4), 0, max_zombie_length=F(1)),
            const_alphas=[HALF, HALF],
        )
        # A is 1x1 and positive; the assembled correction vector vanishes
        # because the mean already cancels vectorially on L
        assert len(pat.r_terms) == 1
        _, vecs = bush_slots(pat.inner.trace.betas)
        assert w_vectors(w_fractions(pat), *vecs)[0].sup_norm == 0
        assert RationalBound(pat, vecs).w_norm() == 0

    def test_support_interior(self):
        ctx = ConstructionContext(dyadic(), 2)
        iv = Interval(F(1, 2), F(3, 4))
        pat = lemma_moments(
            correction_frame(ctx, iv, F(1, 4), 2, max_zombie_length=iv.length),
            const_alphas=[HALF, HALF],
        )
        _, vecs = bush_slots(pat.inner.trace.betas)
        bound = RationalBound(pat, vecs)
        # the first and last cells are keep cells hugging the boundary;
        # g vanishes there, so supp g stays inside int I
        first_lo, first_hi = cell_ends(pat, pat.cells[0])
        last_lo, last_hi = cell_ends(pat, pat.cells[-1])
        assert first_lo == iv.lo and last_hi == iv.hi
        for t in (first_lo + (first_hi - first_lo) / 3, (first_lo + first_hi) / 2):
            assert g_at(bound, t) == XVec.zero()
        for t in (last_lo + (last_hi - last_lo) / 3, last_lo + (last_hi - last_lo) * F(9, 10)):
            assert g_at(bound, t) == XVec.zero()
        for scal, _ in pat.r_terms:
            lo, hi = support_bounds(scal)
            assert iv.lo < lo and hi < iv.hi

    def test_bump_level_past_the_inner_level_raises(self, monkeypatch):
        # the pattern shares the inner cells at the inner level, so a bump
        # level past it would put the bump cells off that grid. Finer bumps
        # grow A^{-1} and with it the piece count, which deepens the inner
        # level too, so both are forced here: the bump level's alignment
        # bound lies 200 levels deeper, and the piece count drops to its
        # 2 / et floor
        aligning = lemma_module.level_aligning
        monkeypatch.setattr(
            lemma_module, "level_aligning", lambda p, *values: aligning(p, *values) + 200
        )
        monkeypatch.setattr(lemma_module, "PIECE_MARGIN", F(1, 2**1000))
        ctx = ConstructionContext(dyadic(), 2)
        with pytest.raises(AssertionError, match="finer than the pattern level"):
            lemma_moments(
                correction_frame(ctx, Interval(0, 1), F(1, 4), 0, max_zombie_length=F(1)),
                const_alphas=[HALF, HALF],
            )


class TestPAdic:
    def test_triadic_stopping(self):
        ctx = ConstructionContext(UniformFiltration(3), 2)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
        assert all(ok for _, ok in pat.trace.checks)
        assert pat.zone_mass() >= F(3, 4)


class TestTiling:
    """check_tiling over a list that mixes plain cells and a periodic family,
    in grid units of 1/16."""

    ZONE = CellSpec(2, 3, "zone", 0)
    FAMILY = PeriodicFamily((ZONE, CellSpec(3, 4, "keep")), 2, 4)

    def tiles(self, first_hi=2, last_lo=10):
        # the family's four periods cover [2, 10)
        return [CellSpec(0, first_hi, "keep"), self.FAMILY, CellSpec(last_lo, 16, "keep")]

    def test_mixed_cover_passes(self):
        check_tiling(self.tiles(), 0, 16)

    @pytest.mark.parametrize("fault", ["gap", "overlap", "empty", "short", "family_gap"])
    def test_broken_tilings_raise(self, fault):
        tiles = self.tiles()
        if fault == "gap":
            tiles = self.tiles(first_hi=1)
        elif fault == "overlap":
            tiles = self.tiles(last_lo=9)
        elif fault == "empty":
            tiles.insert(2, CellSpec(10, 10, "keep"))
        elif fault == "short":
            tiles.pop()
        else:  # the family's own cells leave a gap inside each period
            tiles[1] = PeriodicFamily((self.ZONE,), 2, 4)
            tiles[2] = CellSpec(9, 16, "keep")
        with pytest.raises(AssertionError):
            check_tiling(tiles, 0, 16)


class TestTile:
    """tile lays blocks left to right with keep cells in the gaps, in grid
    units of 1/8."""

    A = CellSpec(1, 2, "zone", 0)
    B = CellSpec(4, 5, "ramp", 1)

    @staticmethod
    def keep(lo, hi):
        return CellSpec(lo, hi, "keep")

    @pytest.mark.parametrize(
        "blocks,want",
        [
            ([[A], [B]], [keep(0, 1), A, keep(2, 4), B, keep(5, 8)]),
            (
                [[A, CellSpec(2, 4, "mix", 1)], [B]],
                [keep(0, 1), A, CellSpec(2, 4, "mix", 1), B, keep(5, 8)],
            ),
            (
                [[CellSpec(0, 1, "ramp", 0)], [A]],
                [CellSpec(0, 1, "ramp", 0), A, keep(2, 8)],
            ),
            (
                [[A], [CellSpec(7, 8, "rbump", 0)]],
                [keep(0, 1), A, keep(2, 7), CellSpec(7, 8, "rbump", 0)],
            ),
        ],
        ids=["gap", "adjacent", "flush-left", "flush-right"],
    )
    def test_cells(self, blocks, want):
        assert tile(0, 8, blocks) == want

    def test_overlapping_blocks_raise(self):
        with pytest.raises(AssertionError):
            tile(0, 8, [[self.B], [self.A]])


class TestLevelSearch:
    """The reference search of the level tests (`fraction_oracle.first_level`),
    and the level cap of the closed-form Step-1 level."""

    CTX = ConstructionContext(dyadic(), 2)

    @staticmethod
    def at_levels(*levels):
        return lambda space: space.num_atoms if space.level in levels else None

    @pytest.mark.parametrize("start,want", [(0, 5), (5, 5), (6, 9), (10, 12)])
    def test_smallest_qualifying_level(self, start, want):
        space, found = first_level(self.CTX, start, self.at_levels(5, 9, 12))
        assert (space.level, space.k, found) == (want, 2, 2**want)

    @pytest.mark.parametrize("base_level", [0, 4])
    def test_level_cap(self, base_level, monkeypatch):
        # the level the bounds give (base_level 0), or the first one past
        # the base level (base_level 4), lies past the cap
        monkeypatch.setattr(core, "LEVEL_CAP", 4)
        with pytest.raises(CapacityError, match="cap 4"):
            step1_stopping(
                self.CTX, Interval(0, 1), [HALF, HALF], F(1, 4), base_level, max_zombie_length=F(1)
            )


#: the primes up to 30, so every base 2..30 factors over them
PRIMES_TO_30 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def aligning_cases(draw):
    """A base p in 2..30, prime or composite, and one to three values:
    a numerator over a product of powers of p's primes, times a factor
    that p may lack."""
    p = draw(st.integers(2, 30))
    values = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from([1, 1, 1, 2, 3, 5, 6, 7, 29, 31]))
        for q in PRIMES_TO_30:
            if p % q == 0:
                d *= q ** draw(st.integers(0, 400))
        values.append(F(draw(st.integers(-(10**6), 10**6)), d))
    return p, values


class TestLevelAligning:
    @settings(max_examples=300, deadline=None)
    @given(case=aligning_cases())
    @example(case=(6, [F(1, 2), F(1, 27)]))
    @example(case=(12, [F(5, 2**7 * 3**2)]))
    @example(case=(8, [F(1, 2**10)]))
    @example(case=(10, [F(1, 3 * 2**5)]))
    @example(case=(2, [F(3)]))
    def test_matches_the_prime_exponents(self, case):
        p, values = case
        want = aligning_level(p, *values)
        if want is None:
            with pytest.raises(PreconditionError, match=f"not on any {p}-ary grid"):
                level_aligning(p, *values)
        else:
            assert level_aligning(p, *values) == want

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_deep_levels(self, p):
        assert level_aligning(p, F(1, p**20000), F(3, p**7)) == 20000

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5]),
        a=st.tuples(st.integers(0, 10**9), st.integers(0, 60)),
        d=st.tuples(st.integers(1, 10**9), st.integers(0, 60)),
        s=st.integers(0, 30),
    )
    def test_the_inner_piece_level_aligns_the_outer_pieces(self, p, a, d, s):
        # step2_correct builds its Step-1 pattern on [a + d, a + 2d], whose
        # piece width is d / p**s: the level aligning those two values
        # aligns a and d too, so step1_stopping needs no extra values
        a, d = F(a[0], p ** a[1]), F(d[0], p ** d[1])
        inner = (a + d, d / p**s)
        assert level_aligning(p, *inner) == level_aligning(p, *inner, a, d)

    def test_off_grid_value_raises(self):
        with pytest.raises(PreconditionError, match="not on any 2-ary grid"):
            level_aligning(2, F(1, 2), F(1, 3 * 2**5000))
        with pytest.raises(PreconditionError, match="not on any 3-ary grid"):
            level_aligning(3, F(1, 2 * 3**700))
        with pytest.raises(PreconditionError, match="not on any 6-ary grid"):
            level_aligning(6, F(1, 6**50 * 5))


#: filtrations, orders and etas of the level-equality test, with N = 4 for
#: k <= 2 and N = 3 for k >= 3
LEVEL_GRID = [
    (spec, k, eta)
    for spec in ("dyadic", "padic:3", "padic:5", "padic:7")
    for k in range(1, 5)
    for eta in (HALF, F(2, 5), F(4999, 10000), F(1, 1000))
]


def passes_the_step1_bounds_below(pat, base_level, max_zombie_length) -> bool:
    """Whether level K - 1 of a Step-1 pattern meets every lower bound of
    the closed form: above the base level, a and d on its grid,
    eps3 p**(K - 1) >= k + 1 and the ramp atoms inside the zombie budget.
    Where it does and K is the reference search's level, K - 1 failed the
    ball alone, so K came from the mid-atom increment."""
    sp, K = pat.space, pat.K - 1
    d = pat.interval.length / pat.trace.n_pieces
    return (
        K > base_level
        and (pat.interval.lo * sp.p**K).denominator == 1
        and (d * sp.p**K).denominator == 1
        and pat.trace.eps3 * sp.p**K >= sp.k + 1
        and (sp.k == 1 or 2 * (pat.M + 1) * (sp.k - 1) <= max_zombie_length * sp.p**K)
    )


def test_levels_match_the_reference_search(monkeypatch):
    # every Step-1 level and bump level the driver builds over the grid is
    # the one the old search finds, and the Step-1 rule takes its one-level
    # increment somewhere in the grid
    calls = []

    def recording(builder):
        signature = inspect.signature(builder)

        def run(*args, **kwargs):
            pat = builder(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            # step2_correct reads them from its correction frame
            frame = bound.get("frame")
            if frame is not None:
                bound = {name: getattr(frame, name)
                         for name in ("ctx", "base_level", "max_zombie_length")}
            calls.append((builder, bound["ctx"], pat, bound["base_level"],
                          bound["max_zombie_length"]))
            return pat

        return run

    step2_correct = lemma_module.step2_correct
    monkeypatch.setattr(lemma_module, "step1_stopping", recording(step1_stopping))
    monkeypatch.setattr(lemma_module, "step2_correct", recording(step2_correct))
    for spec, k, eta in LEVEL_GRID:
        build_sequence(parse_filtration_spec(spec), k, eta, 4 if k <= 2 else 3)
    increments = 0
    for builder, ctx, pat, base_level, budget in calls:
        if builder is step1_stopping:
            assert pat.K == step1_level_search(ctx, pat, base_level, budget)
            increments += passes_the_step1_bounds_below(pat, base_level, budget)
        else:
            bump_level = pat.r_terms[0][0].space.level
            assert bump_level == bump_level_search(ctx, pat, base_level, budget)
    assert {builder for builder, *_ in calls} == {step1_stopping, step2_correct}
    assert increments >= 1


CORRECTION_CASES = [
    (spec, k, eta, 2) for spec in ("dyadic", "padic:3", "padic:5") for k in (1, 2, 3, 4)
    for eta in ("1/2", "2/5")
]
# the bench's deep shape, and a depth where the slot moments carry
# denominators of thousands of bits
DEEP_CORRECTION_CASES = [("padic:3", 4, "1/2", 3), ("dyadic", 3, "1/2", 5)]


@pytest.mark.parametrize(
    "spec,k,eta,steps",
    CORRECTION_CASES + DEEP_CORRECTION_CASES,
    ids=[f"{s}-k{k}-eta{e.replace('/', '_')}" for s, k, e, _ in CORRECTION_CASES]
    + [f"{s}-k{k}-eta{e.replace('/', '_')}-N{n}" for s, k, e, n in DEEP_CORRECTION_CASES],
)
def test_integer_correction_matches_the_fraction_path(spec, k, eta, steps, monkeypatch):
    # every coefficient n / w_den equals the reduced Fraction(wn, aden zd) of
    # the Fraction path, in the same slot order; w_den is the lcm of their
    # denominators; ||A^{-1}|| equals the one from the inverse of A's
    # Fraction entries; the recorded ||w|| equals the largest sup norm of the
    # Fraction correction vectors at the slots the pattern was bound to
    bound = []
    bind = driver_module._bind_representative

    def recording(pat, rep_value, parts):
        bind(pat, rep_value, parts)
        bound.append((pat, _bush_slots(rep_value, parts)))

    monkeypatch.setattr(driver_module, "_bind_representative", recording)
    seq = build_sequence(parse_filtration_spec(spec), k, F(eta), steps)
    assert len(bound) == len(list(seq.all_patterns())) >= 2
    for pat, slots in bound:
        want = reference_w_data(pat)
        assert w_fractions(pat) == want
        assert pat.w_den == math.lcm(*(c.denominator for wd in want for c, _ in wd))
        assert pat.trace.ainv_norm == reference_ainv_norm(pat)
        assert pat.trace.w_bound == w_sup_norm(want, slots)
        for r in range(k):
            assert not any(moment_slotwise(pat, r).values())


def power_loop(p, x):
    """Smallest s >= 0 with p**s >= x by multiplying up from 1."""
    s, v = 0, F(1)
    while v < x:
        v *= p
        s += 1
    return s


@st.composite
def power_cases(draw):
    """p in {2, 3, 5} and x: at most 1, exactly p**s, p**s plus or minus a
    rational far smaller than 1, or any positive rational."""
    p = draw(st.sampled_from([2, 3, 5]))
    s = draw(st.integers(0, 2000))
    tiny = F(1, draw(st.integers(1, 10**40)))
    near = [F(p) ** s + d for d in (0, tiny, -tiny, F(p) ** s * tiny, -F(p) ** s * tiny)]
    x = draw(
        st.sampled_from(near)
        | st.fractions(max_value=1)
        | st.fractions(min_value=0, max_denominator=10**60)
    )
    return p, x


@settings(max_examples=300, deadline=None)
@given(case=power_cases())
@example(case=(2, F(1)))
@example(case=(3, F(0)))
@example(case=(5, F(-7, 3)))
@example(case=(2, F(2**700 + 1, 2**600)))
@example(case=(3, F(3**500 - 1)))
def test_p_power_at_least_matches_the_multiplication_loop(case):
    p, x = case
    assert p_power_at_least(p, x) == power_loop(p, x)


# ---------------------------------------------------------------------------
# point evaluation through the run table, against the term-by-term formula

RUN_TABLE_CASES = [("dyadic", k) for k in (1, 2, 3, 4)] + [("padic:3", 2), ("padic:3", 4)]


def term_by_term_slotwise(pat, t):
    """g(t) per slot, term by term: each term's value at t per slot, from
    the basis values of its space (`basis_at`, once per space), with each
    ("w", i) bump expanded through w_data, each numerator over w_den."""
    w = w_fractions(pat)
    terms = [(scal, ((F(1), key),)) for scal, key in pat.terms]
    terms += [(scal, w[i]) for scal, (_, i) in pat.r_terms]
    bases = {sp: basis_at(sp, t) for sp in {scal.space for scal, _ in terms}}
    out = {}
    for scal, coefs in terms:
        v = combine_window(scal, *bases[scal.space])
        for coef, key in coefs:
            out[key] = out.get(key, F(0)) + v * coef
    return {key: v for key, v in out.items() if v}


@functools.cache
def sequence_patterns(spec, k):
    """Every lemma pattern of a two-step sequence, each bound to the general
    slot vectors of one unit coordinate per part and the pattern's betas."""
    seq = build_sequence(parse_filtration_spec(spec), k, HALF, 2)
    out = []
    for _, pat in seq.all_patterns():
        betas = pat.inner.trace.betas
        points = [xvec_numerators(XVec({m + 1: F(1)})) for m in range(len(betas))]
        slots = general_slot_vectors(xvec_numerators(XVec.zero()), points, betas)
        out.append((pat, RationalBound(pat, slots)))
    return out


def slotwise_g(pat, t):
    """g(t) per slot from `BoundPattern.g_numerators`, bound to one unit
    coordinate per slot key (`unit_slots`), so its coordinates are the
    slot values."""
    slots, keys = unit_slots(pat)
    nums, den = BoundPattern(pat, slots).g_numerators(t.numerator, t.denominator, 0)
    return {keys[c - 1]: F(n, den) for c, n in nums.items() if n}


def matches_term_by_term(pat, bound, t):
    want = term_by_term_slotwise(pat, t)
    g = XVec.zero()
    slots = slot_xvecs(bound.slots, bound.den)
    for key, v in want.items():
        g = g.add(slots[key].scale(v))
    return slotwise_g(pat, t) == want and g_at(bound, t) == g


@pytest.mark.parametrize("spec,k", RUN_TABLE_CASES)
def test_run_table_matches_term_by_term_at_every_cell(spec, k):
    for pat, bound in sequence_patterns(spec, k):
        for t in cell_points(pat):
            assert matches_term_by_term(pat, bound, t), (pat.interval, t)


@st.composite
def pattern_points(draw, spec, k):
    """A pattern of the two-step sequence and a point of its interval: a
    random rational, or a level-K grid point plus a small fraction of a step."""
    pats = sequence_patterns(spec, k)
    pat, bound = pats[draw(st.integers(0, len(pats) - 1))]
    iv = pat.interval
    x = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(lambda x: x < 1))
    if draw(st.booleans()):
        return pat, bound, iv.lo + iv.length * x
    scale = pat.inner.space.p ** pat.K
    u = draw(st.integers(iv.lo * scale, iv.hi * scale - 1))
    return pat, bound, (u + x) / scale


@pytest.mark.parametrize("spec,k", RUN_TABLE_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_table_matches_term_by_term_at_random_points(spec, k, data):
    pat, bound, t = data.draw(pattern_points(spec, k))
    assert matches_term_by_term(pat, bound, t), (pat.interval, t)


def swapped_spans(k, local_spans=cardinal._local_spans):
    """cardinal's integer span table of B_k with spans 0 and k-1 traded."""
    coeffs, den = local_spans(k)
    rows = list(coeffs)
    rows[0], rows[-1] = rows[-1], rows[0]
    return tuple(rows), den


def test_swapped_span_polynomials_fail_the_comparison(monkeypatch):
    """The oracle takes B_k's spans from the truncated-power form and reads
    nothing of cardinal's table, so a fault in the integer span table that
    the run table reads shows up in the comparison: here spans 0 and k-1
    of B_3 trade places."""
    def all_match():
        return all(
            matches_term_by_term(pat, bound, t)
            for pat, bound in sequence_patterns("dyadic", 3)
            for t in cell_points(pat)
        )

    assert all_match()
    monkeypatch.setattr(cardinal, "_local_spans", swapped_spans)
    assert not all_match()


class TermPattern(core.SlotwisePattern):
    """A pattern of the given (scalar, slot key) terms and no correction
    bumps: only its run table is read."""

    def __init__(self, terms):
        self.terms, self.r_terms, self.w_data = terms, (), ()


@settings(max_examples=60, deadline=None)
@given(x=st.fractions(min_value=F(1, 4), max_value=F(3, 4), max_denominator=10**9))
def test_groups_that_hit_together_combine_over_their_lcm(x):
    # plain terms on two spaces whose supports overlap, so two run-table
    # groups hit at one point; built sequences never overlap their groups
    coarse, fine = UniformSpace(3, 3, 3), UniformSpace(3, 5, 3)
    pat = TermPattern([
        (RleSpline(coarse, [(4, 24, F(2, 7))]), ("d", 0)),
        (RleSpline(fine, [(10, 120, F(5, 11)), (121, 150, F(-1, 13))]), ("d", 0)),
        (RleSpline(fine, [(151, 230, F(3, 17))]), ("d", 1)),
    ])
    assert len(pat.run_table) == 2
    assert slotwise_g(pat, x) == term_by_term_slotwise(pat, x)


def test_changed_run_coefficient_fails_the_comparison():
    pat, bound = sequence_patterns("dyadic", 2)[0]
    group = pat.run_table[0]
    j0, j1, slots = group.entries[0]
    changed = copy.copy(group)
    changed.entries = [(j0, j1, tuple((key, 2 * c) for key, c in slots))] + group.entries[1:]
    sp = group.space
    # N_j is non-zero in the middle of its support [(j - k + 1) h, (j + 1) h)
    t = (group.origin + j0 - sp.k + 1) * sp.h + sp.k * sp.h / 2
    assert matches_term_by_term(pat, bound, t)
    mutant = copy.copy(pat)
    mutant.__dict__["run_table"] = (changed, *pat.run_table[1:])
    assert not matches_term_by_term(mutant, RationalBound(mutant, (bound.slots, bound.den)), t)


@st.composite
def window_groups(draw):
    """One basis group of up to three terms of one run each, plain or
    periodic, on a level-L space of order k: (k, pattern, every run of the
    group over all its instances as index pairs, the atoms a whose windows
    a .. a+k-1 are to be read). The first run is longer than k, and a gap
    of 0 puts the next term's run against the one before."""
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.sampled_from([1, 2, 4, 16]))
    lengths = [draw(st.integers(k + 1, 2 * k + 3))]
    lengths += draw(st.lists(st.integers(1, 2 * k + 3), max_size=2))
    origin = k - 1 + draw(st.integers(0, k))
    runs, j = [], origin
    for i, length in enumerate(lengths):
        j += draw(st.integers(0, k + 1)) if i else 0
        runs.append((j, j + length - 1))
        j += length
    periodic = draw(st.booleans())
    shift = j - origin + (draw(st.integers(1, k + 1)) if periodic else 0)
    count = draw(st.integers(2, 3)) if periodic else 1
    extent = count * shift
    level = 1
    while p**level <= origin + extent:
        level += 1
    space = UniformSpace(p, level, k)
    coeff = st.fractions(-3, 3, max_denominator=20).filter(bool)
    terms = []
    for i, (j0, j1) in enumerate(runs):
        scal = RleSpline(space, [(j0, j1, draw(coeff))])
        terms.append((PeriodicSpline(scal, shift * space.h, count) if periodic else scal, ("d", i)))
    every_run = [(j0 + ell * shift, j1 + ell * shift) for ell in range(count) for j0, j1 in runs]

    def pick(lo, hi):
        return draw(st.integers(lo, hi))

    ell = pick(0, count - 1)
    j0, j1 = every_run[ell * len(runs)]
    atoms = [j0, j1 - k + 1, pick(j0, j1 - k + 1)]  # inside one run
    atoms += [origin - k + 1, origin, origin + extent - k, origin + extent - 1]  # the group's ends
    atoms += [j1 + 1 for _, j1 in every_run]  # a gap after a run, when it is k or more wide
    if k > 1:
        j0, j1 = draw(st.sampled_from(every_run))
        atoms += [j0 - 1, j1 - k + 2, pick(j0 - k + 1, j0 - 1), pick(j1 - k + 2, j1)]  # a run edge
        if periodic:  # an instance boundary: q + k > shift
            atoms.append(origin + ell * shift + pick(shift - k + 1, shift - 1))
    return k, TermPattern(terms), every_run, atoms


@settings(max_examples=30, deadline=None)
@given(case=window_groups(), data=st.data())
def test_whole_windows_read_the_run_and_cut_windows_the_spans(case, data):
    """A window that one run holds reads the run's coefficients as they
    stand and takes no span value; a window cut by a run edge, an instance
    boundary or the group's ends takes B_k's spans once if an index hits a
    run, and a window that hits none reads nothing. A window inside one
    instance that one run holds, or that lies in a gap between runs, takes
    one bisection. Each window is read at its grid point (rem = 0) or at a
    point inside its atom, against the term-by-term formula; at k = 1 every
    hit is whole."""
    k, pat, every_run, atoms = case
    group = pat.run_table[0]
    scale = group.space.num_atoms
    calls, bisects = [], []

    def counted(*args):
        calls.append(args)
        return cardinal.span_numerators(*args)

    def counted_bisect(*args):
        bisects.append(args)
        return bisect.bisect_right(*args)

    for a in atoms:
        window = range(a, a + k)
        whole = any(j0 <= a and a + k - 1 <= j1 for j0, j1 in every_run)
        hit = any(j0 <= j <= j1 for j in window for j0, j1 in every_run)
        ell, q = divmod(a - group.origin, group.shift)
        inside = 0 <= ell < group.count and q + k <= group.shift
        x = data.draw(st.just(F(0)) | st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1))
        t = (a + x) / scale
        del calls[:], bisects[:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "span_numerators", counted)
            mp.setattr(core, "bisect", SimpleNamespace(bisect_right=counted_bisect))
            got = slotwise_g(pat, t)
        assert got == term_by_term_slotwise(pat, t), (a, x)
        assert len(calls) == (0 if whole or not hit else 1), (a, x, whole, hit)
        assert k > 1 or not calls
        if inside and (whole or not hit):
            assert len(bisects) == 1, (a, x, whole, hit)


@pytest.mark.parametrize("invariant", ["overlap", "periodic_span"])
def test_run_table_invariants_raise_under_python_O(invariant):
    code = textwrap.dedent(
        f"""
        import sys
        from fractions import Fraction
        from splinemart.construction.core import SlotwisePattern
        from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace

        assert False, "asserts are stripped under -O"

        class Terms(SlotwisePattern):
            def __init__(self, terms):
                self.terms, self.r_terms, self.w_data = terms, (), ()

        sp = UniformSpace(2, 6, 2)
        if {invariant!r} == "overlap":
            # index 9 lies in both runs
            terms = [(RleSpline.from_index_range(sp, 4, 9), ("d", 0)),
                     (RleSpline.from_index_range(sp, 9, 12), ("d", 1))]
        else:
            # each base fits its shift of 8 indices, but together they span 8
            shift = Fraction(8, 64)
            terms = [(PeriodicSpline(RleSpline.from_index_range(sp, 2, 3), shift, 3), ("d", 0)),
                     (PeriodicSpline(RleSpline.from_index_range(sp, 9, 9), shift, 3), ("d", 1))]
        try:
            Terms(terms).run_table
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("run table accepted")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert ("overlap" if invariant == "overlap" else "shift") in run.stdout


# ---------------------------------------------------------------------------
# the per-part stopping checks in integers: one moved unit fails one check

#: fault -> the check it must fail; each moves one stored unit of part m
STOPPING_FAULTS = {
    "target onto ∫f_m": "stopping",
    "target under ∫f_m - 3 eps1": "eq:alpha_upper",
    "block mass past ∫f_m": "eq:unionintegral",
    "hull one piece short": "eq:unionintegral",
    "∫f_m past the hull": "eq:unionintegral",
}


def _put(values: tuple, m: int, value) -> tuple:
    return (*values[:m], value, *values[m + 1:])


def move_stopping_unit(tr, fault: str, m: int):
    """Move one stored unit of part m of the stopping trace tr, in place:
    the target C alpha_m / h, the block mass or ∫f_m in grid units, or the
    hull mass in pieces."""
    f, (tn, td) = tr.f_units[m], tr.targets[m]
    if fault == "target onto ∫f_m":
        tr.targets = _put(tr.targets, m, (f * td, td))
    elif fault == "target under ∫f_m - 3 eps1":
        t = f - 3 * tr.eps1 * tr.scale - 1
        tr.targets = _put(tr.targets, m, (t.numerator, t.denominator))
    elif fault == "block mass past ∫f_m":
        tr.block_units = _put(tr.block_units, m, f + 1)
    elif fault == "hull one piece short":
        tr.hull_pieces = _put(tr.hull_pieces, m, tr.hull_pieces[m] - 1)
    else:
        tr.f_units = _put(tr.f_units, m, tr.hull_pieces[m] * tr.piece_units + 1)


@functools.cache
def stopping_patterns(spec: str, k: int) -> tuple:
    seq = build_sequence(parse_filtration_spec(spec), k, HALF, 3)
    return tuple(pat.inner for _, pat in seq.all_patterns())


@pytest.mark.parametrize("fault", list(STOPPING_FAULTS))
@pytest.mark.parametrize("spec,k", [("dyadic", 1), ("dyadic", 2), ("padic:3", 3), ("padic:5", 4)])
def test_a_moved_stopping_unit_fails_exactly_its_check(fault, spec, k):
    for inner in stopping_patterns(spec, k):
        assert all(ok for _, ok in inner.trace.checks)
        for m in {0, inner.M - 1}:
            tr = replace(inner.trace)
            move_stopping_unit(tr, fault, m)
            failed = [name for name, ok in tr.run_checks() if not ok]
            assert failed == [f"{STOPPING_FAULTS[fault]}[{m}]"], (fault, m, failed)
            # the names and their order do not change
            assert [name for name, _ in tr.checks] == [name for name, _ in inner.trace.checks]


def test_a_moved_stopping_unit_fails_step1_under_python_O():
    code = textwrap.dedent(
        """
        from fractions import Fraction
        import splinemart.construction.core as core
        from splinemart.filtration import dyadic
        from splinemart.intervals import Interval
        from test_construction import STOPPING_FAULTS, move_stopping_unit

        assert False, "asserts are stripped under -O"

        run_checks = core.StoppingTrace.run_checks
        ctx = core.ConstructionContext(dyadic(), 2)
        for fault in STOPPING_FAULTS:
            def faulty(tr, fault=fault):
                move_stopping_unit(tr, fault, 1)
                return run_checks(tr)

            core.StoppingTrace.run_checks = faulty
            try:
                core.step1_stopping(ctx, Interval(0, 1), [Fraction(1, 3)] * 3,
                                    Fraction(1, 4), 0, max_zombie_length=Fraction(1))
            except AssertionError as exc:
                print(exc)
            else:
                raise SystemExit(f"{fault}: step1_stopping accepted")
        """
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr + run.stdout
    assert run.stdout.splitlines() == [
        f"stopping construction violated ['{check}[1]']" for check in STOPPING_FAULTS.values()
    ]


@pytest.mark.parametrize("spec,k", [("dyadic", 1), ("dyadic", 2), ("padic:3", 3), ("padic:5", 4)])
def test_the_stopping_checks_hold_at_their_bounds(spec, k):
    # the moves above, stopped one unit short: each lands on the bound of
    # its check, so every check still holds
    for inner in stopping_patterns(spec, k):
        for m in {0, inner.M - 1}:
            f, (_, td) = inner.trace.f_units[m], inner.trace.targets[m]
            bound = f - 3 * inner.trace.eps1 * inner.trace.scale
            for field_name, value in [
                ("targets", (f * td - 1, td)),
                ("targets", (bound.numerator, bound.denominator)),
                ("block_units", f),
            ]:
                tr = replace(inner.trace)
                setattr(tr, field_name, _put(getattr(tr, field_name), m, value))
                assert all(ok for _, ok in tr.run_checks()), (field_name, value)
