import ast
import copy
import functools
import inspect
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinemart.cardinal as cardinal
import splinemart.construction.core as core
from splinemart.construction.core import (
    BoundPattern,
    CellSpec,
    ConstructionContext,
    PeriodicFamily,
    check_tiling,
    first_level,
    level_aligning,
    p_adic_valuation,
    p_power_at_least,
    slot_vectors,
    step1_stopping,
    tile,
)
from splinemart.construction.driver import _bind_representative, build_sequence
from splinemart.construction.lemma import (
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
from splinemart.witness import BushRep, XVec, bush_decompose

from fraction_oracle import evaluate, moment_slotwise, slot_xvecs, support_bounds

F = Fraction
HALF = F(1, 2)


def bush_slots(betas):
    """The root's bush decomposition and its slot vectors."""
    rep = BushRep.point("")
    parts = bush_decompose(rep, 1, target_count=2)
    return parts, slot_vectors(rep.value(), [r.value() for _, r in parts], betas)


class TestStopping:
    def test_mean_zero_identity(self):
        ctx = ConstructionContext(dyadic(), 2)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
        tr = pat.trace
        # the defining identity: int f_m + beta_m int f_{M+1} = C alpha_m
        for m in range(2):
            assert tr.int_f[m] + tr.betas[m] * tr.int_f[2] == tr.C * tr.alphas[m]
        # so the slot-weighted mean vanishes for the bush decomposition
        _, vecs = bush_slots(tr.betas)
        mean = XVec.zero()
        vecs = slot_xvecs(vecs)
        for key, v in moment_slotwise(pat, 0).items():
            mean = mean.add(vecs[key].scale(v))
        assert mean.sup_norm == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zone_values_and_separation(self, k):
        ctx = ConstructionContext(dyadic(), k)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
        parts, vecs = bush_slots(pat.trace.betas)
        bound = BoundPattern(pat, vecs)
        xbar = XVec.zero()  # bush root
        for cell in pat.cells:
            if cell.kind != "zone":
                continue
            pts = [cell.lo + (cell.hi - cell.lo) * F(i, 7) for i in (1, 3, 5)]
            vals = [xbar.add(bound.g_eval(t)) for t in pts]
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
            ctx, Interval(0, 1), F(1, 4), 0, const_alphas=[HALF, HALF], max_zombie_length=F(1)
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
                ctx, Interval(0, 1), F(1, 4), 0, const_alphas=[HALF, HALF], max_zombie_length=F(1)
            )
            parts, _ = bush_slots(pat.inner.trace.betas)
            assert pat.trace.w_bound is None
            _bind_representative(pat, BushRep.point(""), parts)
            assert ("eq:esty", True) in pat.trace.checks
            assert pat.trace.w_bound is not None
            assert pat.trace.w_bound <= pat.trace.eps_tilde2
            if k == 1:
                assert pat.trace.w_bound == 0  # mean already vanishes on L

    def test_mass_chain_exact(self):
        ctx = ConstructionContext(dyadic(), 2)
        eps = F(1, 4)
        pat = lemma_moments(
            ctx, Interval(0, 1), eps, 0, const_alphas=[HALF, HALF], max_zombie_length=F(1)
        )
        tr = pat.trace
        et = tr.eps_tilde2
        assert tr.zone_mass >= (1 - et) ** 2 * tr.L_mass
        assert tr.zone_mass >= (1 - et) ** 3 * 1
        assert tr.zone_mass >= (1 - eps) * 1

    def test_k1_scalar_solve(self):
        ctx = ConstructionContext(dyadic(), 1)
        pat = lemma_moments(
            ctx, Interval(0, 1), F(1, 4), 0, const_alphas=[HALF, HALF], max_zombie_length=F(1)
        )
        # A is 1x1 and positive; the assembled correction vector vanishes
        # because the mean already cancels vectorially on L
        assert len(pat.r_terms) == 1
        _, vecs = bush_slots(pat.inner.trace.betas)
        bound = BoundPattern(pat, vecs)
        assert bound.w_vectors[0].sup_norm == 0

    def test_support_interior(self):
        ctx = ConstructionContext(dyadic(), 2)
        iv = Interval(F(1, 2), F(3, 4))
        pat = lemma_moments(
            ctx, iv, F(1, 4), 2, const_alphas=[HALF, HALF], max_zombie_length=iv.length
        )
        _, vecs = bush_slots(pat.inner.trace.betas)
        bound = BoundPattern(pat, vecs)
        # the first and last cells are keep cells hugging the boundary;
        # g vanishes there, so supp g stays inside int I
        first, last = pat.cells[0], pat.cells[-1]
        assert first.lo == iv.lo and last.hi == iv.hi
        for t in (first.lo + (first.hi - first.lo) / 3, (first.lo + first.hi) / 2):
            assert bound.g_eval(t) == XVec.zero()
        for t in (last.lo + (last.hi - last.lo) / 3, last.lo + (last.hi - last.lo) * F(9, 10)):
            assert bound.g_eval(t) == XVec.zero()
        for scal, _ in pat.r_terms:
            lo, hi = support_bounds(scal)
            assert iv.lo < lo and hi < iv.hi


class TestPAdic:
    def test_triadic_stopping(self):
        ctx = ConstructionContext(UniformFiltration(3), 2)
        pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
        assert all(ok for _, ok in pat.trace.checks)
        assert pat.zone_mass() >= F(3, 4)


class TestTiling:
    """check_tiling over a list that mixes plain cells and a periodic family."""

    ZONE = CellSpec(F(1, 8), F(3, 16), "zone", 0)
    FAMILY = PeriodicFamily((ZONE, CellSpec(F(3, 16), F(1, 4), "keep")), F(1, 8), 4)

    def tiles(self, first_hi=F(1, 8), last_lo=F(5, 8)):
        # the family's four periods cover [1/8, 5/8)
        return [CellSpec(0, first_hi, "keep"), self.FAMILY, CellSpec(last_lo, 1, "keep")]

    def test_mixed_cover_passes(self):
        check_tiling(self.tiles(), Interval(0, 1))

    @pytest.mark.parametrize("fault", ["gap", "overlap", "empty", "short", "family_gap"])
    def test_broken_tilings_raise(self, fault):
        tiles = self.tiles()
        if fault == "gap":
            tiles = self.tiles(first_hi=F(1, 16))
        elif fault == "overlap":
            tiles = self.tiles(last_lo=F(9, 16))
        elif fault == "empty":
            tiles.insert(2, CellSpec(F(5, 8), F(5, 8), "keep"))
        elif fault == "short":
            tiles.pop()
        else:  # the family's own cells leave a gap inside each period
            tiles[1] = PeriodicFamily((self.ZONE,), F(1, 8), 4)
            tiles[2] = CellSpec(F(9, 16), 1, "keep")
        with pytest.raises(AssertionError):
            check_tiling(tiles, Interval(0, 1))


class TestTile:
    """tile lays blocks left to right with keep cells in the gaps."""

    A = CellSpec(F(1, 8), F(1, 4), "zone", 0)
    B = CellSpec(F(1, 2), F(5, 8), "ramp", 1)

    @staticmethod
    def keep(lo, hi):
        return CellSpec(F(lo), F(hi), "keep")

    @pytest.mark.parametrize(
        "blocks,want",
        [
            ([[A], [B]], [keep(0, F(1, 8)), A, keep(F(1, 4), F(1, 2)), B, keep(F(5, 8), 1)]),
            (
                [[A, CellSpec(F(1, 4), F(1, 2), "mix", 1)], [B]],
                [keep(0, F(1, 8)), A, CellSpec(F(1, 4), F(1, 2), "mix", 1), B, keep(F(5, 8), 1)],
            ),
            (
                [[CellSpec(0, F(1, 8), "ramp", 0)], [A]],
                [CellSpec(0, F(1, 8), "ramp", 0), A, keep(F(1, 4), 1)],
            ),
            (
                [[A], [CellSpec(F(7, 8), 1, "rbump", 0)]],
                [keep(0, F(1, 8)), A, keep(F(1, 4), F(7, 8)), CellSpec(F(7, 8), 1, "rbump", 0)],
            ),
        ],
        ids=["gap", "adjacent", "flush-left", "flush-right"],
    )
    def test_cells(self, blocks, want):
        assert tile(Interval(0, 1), blocks) == want

    def test_overlapping_blocks_raise(self):
        with pytest.raises(AssertionError):
            tile(Interval(0, 1), [[self.B], [self.A]])


class TestLevelSearch:
    CTX = ConstructionContext(dyadic(), 2)

    @staticmethod
    def at_levels(*levels):
        return lambda space: space.num_atoms if space.level in levels else None

    @pytest.mark.parametrize("start,want", [(0, 5), (5, 5), (6, 9), (10, 12)])
    def test_smallest_qualifying_level(self, start, want):
        space, found = first_level(self.CTX, start, self.at_levels(5, 9, 12))
        assert (space.level, space.k, found) == (want, 2, 2**want)

    @pytest.mark.parametrize("levels", [(), (5,)])
    def test_level_cap(self, levels, monkeypatch):
        monkeypatch.setattr(core, "LEVEL_CAP", 4)
        with pytest.raises(CapacityError, match="cap 4"):
            first_level(self.CTX, 0, self.at_levels(*levels))


class TestValuation:
    @staticmethod
    def strip_loop(p, d):
        s = 0
        while d % p == 0:
            d //= p
            s += 1
        return s

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_division_loop(self, p):
        rng = random.Random(p)
        for v in (0, 1, 2, 3, 7, 8, 9, 255, 256, 1000, 4097, 20000):
            for cofactor in (1, p + 1, rng.randrange(1, 10**40) * p + 1):
                d = p**v * cofactor
                assert p_adic_valuation(p, d) == self.strip_loop(p, d) == v
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
    """g(t) per slot, term by term: Σ evaluate(scal, t) per slot, with each
    ("w", i) bump expanded through w_data."""
    out = {}
    for scal, key in pat.terms:
        out[key] = out.get(key, F(0)) + evaluate(scal, t)
    for scal, (_, i) in pat.r_terms:
        v = evaluate(scal, t)
        for coef, key in pat.w_data[i]:
            out[key] = out.get(key, F(0)) + v * coef
    return {key: v for key, v in out.items() if v}


@functools.cache
def sequence_patterns(spec, k):
    """Every lemma pattern of a two-step sequence, each bound to slot
    vectors with one unit coordinate per part."""
    seq = build_sequence(parse_filtration_spec(spec), k, HALF, 2)
    out = []
    for _, pat in seq.all_patterns():
        betas = pat.inner.trace.betas
        points = [XVec({m + 1: F(1)}) for m in range(len(betas))]
        out.append((pat, BoundPattern(pat, slot_vectors(XVec.zero(), points, betas))))
    return out


def matches_term_by_term(pat, bound, t):
    want = term_by_term_slotwise(pat, t)
    got = {key: v for key, v in pat.eval_slotwise(t).items() if v}
    g = XVec.zero()
    slots = slot_xvecs(bound.slots)
    for key, v in want.items():
        g = g.add(slots[key].scale(v))
    return got == want and bound.g_eval(t) == g


def cell_points(pat):
    """lo, an interior point and the last level-K grid point of every cell,
    in the first, second and last instance of a periodic family."""
    h = F(1, pat.inner.space.p ** pat.K)
    for entry in pat.cells:
        if isinstance(entry, PeriodicFamily):
            shifts = sorted({0, min(1, entry.count - 1), entry.count - 1})
            cells = [(c, s * entry.period) for c in entry.cells for s in shifts]
        else:
            cells = [(entry, F(0))]
        for cell, shift in cells:
            lo, hi = shift + cell.lo, shift + cell.hi
            yield from (lo, lo + (hi - lo) * F(3, 7), hi - h)


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


def test_swapped_span_polynomials_fail_the_comparison(monkeypatch):
    """The oracle evaluates cardinal.spans itself, so a fault in the
    integer span kernel that the run table reads shows up in the
    comparison: here spans 0 and k-1 of B_3 trade places."""
    local_spans = cardinal._local_spans

    def swapped(k):
        coeffs, den = local_spans(k)
        rows = list(coeffs)
        rows[0], rows[-1] = rows[-1], rows[0]
        return tuple(rows), den

    def all_match():
        return all(
            matches_term_by_term(pat, bound, t)
            for pat, bound in sequence_patterns("dyadic", 3)
            for t in cell_points(pat)
        )

    assert all_match()
    monkeypatch.setattr(cardinal, "_local_spans", swapped)
    assert not all_match()


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
    assert not matches_term_by_term(mutant, BoundPattern(mutant, bound.slots), t)


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
