import math
import re
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.cardinal import cardinal_moment, power_sum, refinement_mask
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace

from fraction_oracle import (
    basis_at, eval_cardinal, evaluate, instance, support_bounds, truncated_power,
)

F = Fraction


def test_cardinal_low_orders():
    # B_1 = indicator of [0,1); B_2 = hat on [0,2]
    assert eval_cardinal(1, F(1, 3)) == 1
    assert eval_cardinal(1, F(3, 2)) == 0
    assert eval_cardinal(2, F(1, 2)) == F(1, 2)
    assert eval_cardinal(2, F(3, 2)) == F(1, 2)
    assert eval_cardinal(2, F(1)) == 1
    assert eval_cardinal(4, F(2)) == F(2, 3)  # cubic cardinal center value


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cardinal_partition_of_unity(k):
    # translates of B_k sum to one
    rng = random.Random(3)
    for _ in range(30):
        u = F(rng.randrange(0, 1000), 1000)
        total = sum(eval_cardinal(k, u + i) for i in range(k))
        assert total == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cardinal_moments(k):
    assert cardinal_moment(k, 0) == 1
    # symmetry about k/2 gives first moment k/2
    assert cardinal_moment(k, 1) == F(k, 2)
    # brute-force second moment via the span polynomials
    brute = F(0)
    n = 4096
    for i in range(k * n):
        u = F(2 * i + 1, 2 * n)
        brute += eval_cardinal(k, u) * u * u / n
    assert abs(brute - cardinal_moment(k, 2)) < F(1, 1000)


@pytest.mark.parametrize("k,p", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_refinement_mask_identity(k, p):
    mask = refinement_mask(k, p)
    assert len(mask) == k * (p - 1) + 1
    # residue-class sums are exactly one
    for r in range(p):
        assert sum(mask[r::p], F(0)) == 1
    # pointwise two-scale identity
    rng = random.Random(11)
    for _ in range(20):
        u = F(rng.randrange(0, k * 100), 100)
        lhs = eval_cardinal(k, u)
        rhs = sum(m * eval_cardinal(k, p * u - i) for i, m in enumerate(mask))
        assert lhs == rhs


def test_power_sum():
    for a, b, r in [(1, 10, 0), (1, 10, 1), (-3, 5, 2), (0, 7, 3), (2, 9, 4)]:
        assert power_sum(a, b, r) == sum(F(i) ** r for i in range(a, b + 1))
    assert power_sum(5, 4, 2) == 0
    assert power_sum(-3, 2, 6) == 859


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(0, 12),
    ends=st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(sorted),
)
def test_power_sum_matches_brute_force(r, ends):
    a, b = ends
    assert power_sum(a, b, r) == sum(F(i) ** r for i in range(a, b + 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rle_eval_matches_naive(k):
    sp = UniformSpace(2, 4, k)
    lo, hi = sp.interior_range()
    f = RleSpline(sp, [(lo + 1, lo + 3, F(2, 3)), (lo + 5, lo + 7, F(-1, 2))])
    rng = random.Random(5)
    for _ in range(40):
        t = F(rng.randrange(0, 512), 512)
        naive = sum(
            f.coeff(j) * eval_cardinal(k, t / sp.h + k - 1 - j)
            for j in range(lo, hi + 1)
        )
        assert evaluate(f, t) == naive


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rle_integral_and_moments(k):
    sp = UniformSpace(2, 5, k)
    lo, _ = sp.interior_range()
    f = RleSpline(sp, [(lo, lo + 4, F(1, 3)), (lo + 9, lo + 12, F(7, 5))])
    # zero-order moment: each interior basis function integrates to h
    assert f.moment(0) == F(1, 3) * 5 * sp.h + F(7, 5) * 4 * sp.h
    assert f.moment(0, origin=3 * sp.h) == f.moment(0)
    # Riemann check for first and second moments
    for r in (1, 2):
        n = 1 << 13
        brute = sum(
            evaluate(f, F(2 * i + 1, 2 * n)) * F(2 * i + 1, 2 * n) ** r for i in range(n)
        ) / n
        assert abs(f.moment(r) - brute) < F(1, 500)


@pytest.mark.parametrize("k,p", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3)])
def test_rle_refine_preserves_function(k, p):
    sp = UniformSpace(p, 2, k)
    lo, hi = sp.interior_range()
    if hi == lo:
        runs = [(lo, lo, F(1))]
    elif hi == lo + 1:
        runs = [(lo, lo, F(3, 4)), (hi, hi, F(-2))]
    else:
        runs = [(lo, lo + 1, F(3, 4)), (hi, hi, F(-2))]
    f = RleSpline(sp, runs)
    g = f.refine_once().refine_once()
    assert g.space.level == 4
    rng = random.Random(9)
    for _ in range(40):
        t = F(rng.randrange(0, p**6), p**6)
        assert evaluate(f, t) == evaluate(g, t)
    assert f.moment(0) == g.moment(0)
    assert f.moment(2) == g.moment(2)


def test_rle_refine_constant_run_stays_constant():
    sp = UniformSpace(2, 3, 3)
    lo, hi = sp.interior_range()
    f = RleSpline(sp, [(lo, hi, F(1))])
    g = f.refine_once()
    # partition of unity on the coarse interior refines to mostly-ones
    mid = (g.runs[0][0] + g.runs[-1][1]) // 2
    assert g.coeff(mid) == 1
    assert len(g.runs) <= 7  # compact representation, no blowup


def test_rle_plus_and_scale():
    sp = UniformSpace(2, 4, 2)
    lo, _ = sp.interior_range()
    a = RleSpline(sp, [(lo, lo + 5, F(1))])
    b = RleSpline(sp, [(lo + 3, lo + 8, F(2))])
    c = a.plus(RleSpline(sp, [(j0, j1, v / 2) for j0, j1, v in b.runs]))
    assert c.coeff(lo) == 1 and c.coeff(lo + 4) == 2 and c.coeff(lo + 7) == 1
    assert c.moment(0) == a.moment(0) + b.moment(0) / 2


def test_periodic_spline_moment_matches_instances():
    sp = UniformSpace(2, 8, 2)
    base = RleSpline(sp, [(20, 23, F(1)), (25, 26, F(-1, 2))])
    per = PeriodicSpline(base, shift=F(1, 8), count=6)
    for r in range(3):
        direct = sum((instance(per, i).moment(r) for i in range(6)), F(0))
        assert per.moment(r) == direct
    assert per.moment(0) == 6 * base.moment(0)
    # instance 2 covers [83/256, 91/256]; the base there is non-zero
    for t in (F(85, 256) + F(1, 512), F(87, 256), F(90, 256) + F(1, 768)):
        assert evaluate(per, t) != 0
        assert evaluate(per, t) == evaluate(base, t - 2 * per.shift)
    # eval agrees with the sum over instances at random points
    rng = random.Random(2)
    for _ in range(30):
        t = F(rng.randrange(0, 1024), 1024)
        direct = sum(evaluate(instance(per, i), t) for i in range(6))
        assert evaluate(per, t) == direct


def test_periodic_spline_builds_one_integer_table_per_origin(monkeypatch):
    sp = UniformSpace(2, 8, 4)
    base = RleSpline(sp, [(20, 23, F(1)), (25, 26, F(-1, 2))])
    per = PeriodicSpline(base, shift=F(1, 8), count=6)
    origin = F(1, 16)
    want = [sum((instance(per, i).moment(r, origin) for i in range(6)), F(0)) for r in range(6)]
    first = sum((instance(per, i).moment(1) for i in range(6)), F(0))
    tables = []
    grid_moments = RleSpline.grid_moments

    def spy(self, s, orders):
        tables.append((s, list(orders)))
        return grid_moments(self, s, orders)

    def boom(*args):
        raise RuntimeError("RleSpline.moment called")

    monkeypatch.setattr(RleSpline, "grid_moments", spy)
    monkeypatch.setattr(RleSpline, "moment", boom)
    # the callers' order: r = 0 .. k-1 about one origin (16 grid steps),
    # then about another; an order past k-1 rebuilds the table up to it
    assert [per.moment(r, origin) for r in range(4)] == want[:4]
    assert tables == [(16, [0, 1, 2, 3])]
    assert per.moment(1) == first
    assert tables[1:] == [(0, [0, 1, 2, 3])]
    assert per.moment(5, origin) == want[5]
    assert per.moment(4, origin) == want[4]
    assert tables[2:] == [(16, [0, 1, 2, 3, 4, 5])]


def recentred_moment(scal, r, origin):
    """∫ (t - origin)**r scal(t) dt by binomial re-centring of raw moments."""
    return sum(comb(r, q) * (-origin) ** (r - q) * scal.moment(q) for q in range(r + 1))


@st.composite
def rle_splines(draw):
    """Multi-run splines of order k <= 4 on p-ary grids, p in {2, 3}."""
    sp = UniformSpace(draw(st.sampled_from([2, 3])), draw(st.integers(3, 4)), draw(st.integers(1, 4)))
    lo, hi = sp.interior_range()
    ends = sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=8, unique=True)))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)
    return RleSpline(sp, [(j0, j1, draw(coeffs)) for j0, j1 in zip(ends[::2], ends[1::2])])


@settings(max_examples=200, deadline=None)
@given(
    f=rle_splines(),
    r=st.integers(0, 5),
    origin_index=st.integers(-100, 100),
    gap=st.integers(0, 5),
    count=st.integers(1, 4),
)
def test_moment_about_grid_origin_matches_recentred_raw_moments(f, r, origin_index, gap, count):
    origin = origin_index * f.space.h
    assert f.moment(r, origin) == recentred_moment(f, r, origin)
    bounds = f.index_bounds()
    if bounds is not None:
        shift = (bounds[1] - bounds[0] + 1 + gap) * f.space.h
        per = PeriodicSpline(f, shift, count)
        assert per.moment(r, origin) == recentred_moment(per, r, origin)


def test_moment_rejects_off_grid_origin():
    sp = UniformSpace(3, 3, 2)
    lo, _ = sp.interior_range()
    f = RleSpline(sp, [(lo, lo + 2, F(1))])
    per = PeriodicSpline(f, 3 * sp.h, 2)
    for scal in (f, per):
        with pytest.raises(ValueError, match="off the level-3 grid"):
            scal.moment(1, origin=sp.h / 2)


def test_moment_takes_a_float_origin_as_its_exact_binary_value():
    # a float origin is coerced like every rational of the package: 0.5 is
    # exactly 1/2, on the level-4 dyadic grid; 0.3 is 5404319552844595 /
    # 2**54, off it, and is refused as off-grid, not as a float
    sp = UniformSpace(2, 4, 3)
    lo, _ = sp.interior_range()
    f = RleSpline(sp, [(lo, lo + 4, F(3, 7)), (lo + 5, lo + 6, F(-2))])
    per = PeriodicSpline(f, 8 * sp.h, 2)
    for scal in (f, per):
        for r in range(4):
            assert scal.moment(r, 0.5) == scal.moment(r, F(1, 2))
        with pytest.raises(ValueError, match="off the level-4 grid"):
            scal.moment(1, 0.3)


@pytest.mark.parametrize("r", [-1, -3, 1.0, F(1), "1", None, True, False])
def test_moment_rejects_an_order_that_is_not_a_non_negative_int(r):
    sp = UniformSpace(3, 3, 2)
    lo, _ = sp.interior_range()
    f = RleSpline(sp, [(lo, lo + 2, F(1, 2))])
    per = PeriodicSpline(f, 3 * sp.h, 2)
    for scal in (f, per, RleSpline.zero(sp)):
        with pytest.raises(ValueError, match="moment order"):
            scal.moment(r)
        with pytest.raises(ValueError, match="moment order"):
            scal.moment(r, origin=sp.h)


@pytest.mark.parametrize("origin", [float("inf"), float("-inf"), float("nan"), "1/0", "nan", None])
def test_moment_rejects_an_origin_that_is_not_a_finite_rational(origin):
    # one ValueError that names the origin, not an OverflowError,
    # ZeroDivisionError or TypeError from the coercion
    sp = UniformSpace(3, 3, 2)
    lo, _ = sp.interior_range()
    f = RleSpline(sp, [(lo, lo + 2, F(1, 2))])
    per = PeriodicSpline(f, 3 * sp.h, 2)
    for scal in (f, per, RleSpline.zero(sp)):
        with pytest.raises(ValueError, match=f"moment origin {re.escape(repr(origin))} is not a finite rational"):
            scal.moment(1, origin)


def reference_cardinal(k, u):
    """B_k(u) from the truncated-power sum in u itself (not the local form)."""
    return truncated_power(k, u)


def reference_eval(f, t):
    """The Fraction-per-term evaluation that grid-unit evaluation replaced."""
    sp = f.space
    if not f.runs:
        return F(0)
    a = min(max(math.floor(t / sp.h), 0), sp.num_atoms - 1)
    u0 = t / sp.h + sp.k - 1
    return sum((f.coeff(j) * reference_cardinal(sp.k, u0 - j) for j in range(a, a + sp.k)), F(0))


def reference_periodic_eval(per, t):
    """The three-candidate instance loop that grid-unit evaluation replaced."""
    if per.count == 1:
        return reference_eval(per.base, t)
    sb = support_bounds(per.base)
    if sb is None:
        return F(0)
    ell = math.floor((t - sb[0]) / per.shift)
    return sum(
        (
            reference_eval(per.base, t - c * per.shift)
            for c in (ell - 1, ell, ell + 1)
            if 0 <= c < per.count
        ),
        F(0),
    )


@st.composite
def points(draw, sp):
    """t in [0, 1]: random rationals, grid points of this and a finer level, and the ends."""
    kind = draw(st.sampled_from(["random", "grid", "fine", "end"]))
    if kind == "random":
        return draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    if kind == "end":
        return F(draw(st.sampled_from([0, 1])))
    n = sp.num_atoms * (sp.p if kind == "fine" else 1)
    return F(draw(st.integers(0, n)), n)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), f=rle_splines(), gap=st.integers(0, 5), count=st.integers(1, 4))
def test_grid_unit_eval_matches_fraction_reference(data, f, gap, count):
    t = data.draw(points(f.space))
    assert evaluate(f, t) == reference_eval(f, t)
    bounds = f.index_bounds()
    if bounds is not None:
        # instances must not overlap, and with a shift of at least k - 1
        # steps the three candidates of the reference cover every instance
        steps = max(bounds[1] - bounds[0] + 1 + gap, f.space.k - 1)
        per = PeriodicSpline(f, steps * f.space.h, count)
        assert evaluate(per, t) == reference_periodic_eval(per, t)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_basis_at_window(k):
    sp = UniformSpace(3, 3, k)
    for t in (F(0), F(1, 2), F(13, 27), F(13, 27) + F(1, 10**6), F(1)):
        a, values = basis_at(sp, t)
        assert a == math.floor(t / sp.h)
        assert values == tuple(reference_cardinal(k, t / sp.h - j + k - 1) for j in range(a, a + k))
