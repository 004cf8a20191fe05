"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here exactly as stated; measure inequalities are
exact rational comparisons, martingale/moment identities are exact zeros
(well inside their float tolerances), and the empirical estimators use
fixed seeds.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from splinemart.bspline import (
    KnotVector,
    PiecewiseConstant,
    ScalarSpline,
    composition_det,
    interpolate,
    moment_matrix,
)
from splinemart.construction import build_sequence
from splinemart.errors import ConstructionPreconditionError
from splinemart.filtration import AccumulatingFiltration, dyadic, gamma_partition
from splinemart.harness import (
    scalar_convergence_demo,
    shadrin_profile,
    unconditionality_ratio,
    verify_sequence,
)
from splinemart.intervals import Interval, MeasurableUnion, measure_in
from splinemart.projection import ProjectionContext

from fraction_oracle import moment_slotwise

F = Fraction
HALF = F(1, 2)

_built = {}


def built_sequence(k):
    if k not in _built:
        t0 = time.time()
        seq = build_sequence(dyadic(), k, HALF, 4)
        _built[k] = (seq, time.time() - t0)
    return _built[k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_1_construction_suite(k):
    """Criterion 1: N=4 dyadic construction verifies all green, < 60 s."""
    seq, elapsed = built_sequence(k)
    assert elapsed < 60.0, f"construction took {elapsed:.1f}s"
    report = verify_sequence(seq, seed=2024)
    assert report.all_passed, report.render()

    # (a) martingale property: the per-atom local moments of every
    # perturbation vanish exactly, so P_{m_{n-1}} f_n - f_{n-1} = 0
    for _n, pat in seq.all_patterns():
        for j in range(k):
            for key, val in moment_slotwise(pat, j).items():
                assert val == 0 or key[0] == "w"
    # (b) raw moments, scale-relative 1e-9 (they are exactly zero)
    for _n, pat in seq.all_patterns():
        for j in range(k):
            raw = moment_slotwise(pat, j, origin=F(0))
            assert all(abs(v) <= F(1, 10**9) for v in raw.values())
    # (c) separation at sampled E_n points, exact
    rng = random.Random(99)
    for n in range(1, 5):
        for t in seq.sample_e_points(n, rng, 6):
            assert seq.sup_diff_at(t, n) >= 1
    # (d) exact rational measure bounds
    for n in range(1, 5):
        assert seq.e_measure(n) >= 1 - F(1, 2**n) * HALF
        assert seq.c_measure(n) >= 1 - F(1, 2 ** (n + 2)) * HALF
    # (e) sup-norm of every value
    sup = max(r.chain_sup for r in seq.final_rows)
    assert sup <= F(3, 2)
    print(f"\nPASS criterion 1 (k={k}): all green in {elapsed:.1f}s, "
          f"|E_4|={float(seq.e_measure(4)):.6f}, sup={float(sup):.4f}")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_criterion_2_projection_laws(k):
    """Criterion 2: projection identities at 1e-9, k=1 averaging at 1e-12."""
    ctx = ProjectionContext(dyadic(), k)
    rng = np.random.default_rng(k)
    fine = ctx.knot_vector(7)
    f = ScalarSpline(fine, rng.uniform(-1.0, 1.0, fine.dim))
    p4 = ctx.project_scalar(f, 4)
    p4twice = ctx.project_scalar(p4, 4)
    assert np.max(np.abs(p4.coeffs - p4twice.coeffs)) <= 1e-9

    g = ScalarSpline(fine, rng.uniform(-1.0, 1.0, fine.dim))
    # self-adjointness via exact quadrature over the common partition
    x, w = np.polynomial.legendre.leggauss(k + 2)
    def inner(u, v):
        total = 0.0
        for a, b in zip(fine.breakpoints, fine.breakpoints[1:]):
            af, bf = float(a), float(b)
            mid, half = 0.5 * (af + bf), 0.5 * (bf - af)
            for t, wt in zip(mid + half * x, w):
                total += half * wt * u.eval(t) * v.eval(t)
        return total
    pg = ctx.project_scalar(g, 4)
    assert abs(inner(p4, g) - inner(f, pg)) <= 1e-9

    poly = interpolate(fine, lambda t: sum(t**j for j in range(k)))
    back = ctx.project_scalar(poly, 3)
    for t in np.linspace(0, 1, 23):
        assert abs(back.eval(t) - poly.eval(t)) <= 1e-9

    via = ctx.project_scalar(ctx.project_scalar(f, 5), 2)
    direct = ctx.project_scalar(f, 2)
    assert np.max(np.abs(via.coeffs - direct.coeffs)) <= 1e-9

    if k == 1:
        p3 = ctx.project_scalar(f, 3)
        blocks = f.coeffs.reshape(2**3, -1).mean(axis=1)
        assert np.max(np.abs(p3.coeffs - blocks)) <= 1e-12
    print(f"\nPASS criterion 2 (k={k}): projection laws within 1e-9")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_criterion_3_shadrin_profile(k):
    """Criterion 3: L1 norms plateau (< 1% drift over the last 3 of 12)."""
    prof = shadrin_profile(dyadic(), k, 12)
    norms = [n for _l, _d, n in prof]
    if k == 1:
        assert all(n == 1.0 for n in norms)
    tail = norms[-3:]
    drift = (max(tail) - min(tail)) / max(tail)
    assert drift < 0.01, f"profile drift {drift:.4%}"
    print(f"\nPASS criterion 3 (k={k}): sup={max(norms):.6f}, tail drift {drift:.5%}")


def test_criterion_4_gamma_lemma_randomized():
    """Criterion 4: 200 random (I, V, eps1, eps2) exact mass postconditions."""
    rng = random.Random(31415)
    pieces_pool = [
        MeasurableUnion.full(),
        MeasurableUnion([(0, F(1, 3)), (F(2, 5), F(3, 5)), (F(17, 20), 1)]),
        MeasurableUnion([(F(1, 10), F(9, 10))]),
        MeasurableUnion([(0, F(1, 4)), (HALF, F(5, 8)), (F(3, 4), F(7, 8))]),
    ]
    done = 0
    while done < 200:
        v = rng.choice(pieces_pool)
        a = F(rng.randrange(0, 120), 128)
        b = F(rng.randrange(int(a * 128) + 4, 129), 128)
        iv = Interval(a, b)
        if measure_in(iv, v) == 0:
            continue
        eps1 = F(rng.randrange(2, 60), 60)
        eps2 = F(rng.randrange(6, 60), 60)
        n, parts, gamma = gamma_partition(iv, v, eps1, eps2)
        total = measure_in(iv, v)
        for p in parts:
            assert n * measure_in(p, v) == total  # exact equal-mass split
        mass = sum((measure_in(parts[e - 1], v) for e in gamma), F(0))
        assert mass >= (1 - eps2) * total
        assert all(2 <= e <= n - 1 for e in gamma)
        done += 1
    print(f"\nPASS criterion 4: 200 randomized gamma partitions exact")


def test_criterion_5_composition_and_moment_matrix():
    """Criterion 5: 100 composition systems at 1e-9; 100 moment matrices."""
    rng = random.Random(2718)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        cuts = sorted(rng.sample(range(1, 40), rng.choice([4, 5, 6])))
        breaks = [F(0)] + [F(c, 40) for c in cuts] + [F(1)]
        fs = [PiecewiseConstant(breaks, [rng.uniform(-2, 2) for _ in range(len(breaks) - 1)]) for _ in range(n)]
        gs = [PiecewiseConstant(breaks, [rng.uniform(-2, 2) for _ in range(len(breaks) - 1)]) for _ in range(n)]
        lhs, rhs = composition_det(fs, gs)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    filt = dyadic()
    done = 0
    while done < 100:
        k = rng.choice([1, 2, 3, 4])
        level = rng.choice([5, 6])
        kv = KnotVector.from_filtration(filt, level, k)
        span = k * (k + 1) + 2
        hi = kv.dim - span - k - 1
        if hi <= k:
            continue
        start = rng.randrange(k, hi)
        picks = [start + i * (k + 1) for i in range(k)]
        region = Interval(
            max(F(0), kv.support(picks[0]).lo - F(1, 2**level)),
            min(F(1), kv.support(picks[-1]).hi + F(1, 2**level)),
        )
        a, ainv, _norm = moment_matrix(kv, region, picks)
        assert np.linalg.det(a) > 0
        assert np.max(np.abs(a @ ainv - np.eye(k))) <= 1e-10
        done += 1
    print("\nPASS criterion 5: composition identity and moment matrices")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_6_trace_inequalities(k):
    """Criterion 6: recorded stopping-run and correction inequalities hold."""
    seq, _ = built_sequence(k)
    stopping_names = {
        "eq:alpha_upper",
        "eq:B_ell_lower",
        "eq:B_ell_upper",
        "eq:intfM",
        "sum_beta",
    }
    runs = 0
    for _n, pat in seq.all_patterns():
        tr = pat.inner.trace
        seen = {name.split("[")[0] for name, ok in tr.checks}
        assert stopping_names <= seen
        assert all(ok for _name, ok in tr.checks)
        assert sum(abs(b) for b in tr.betas) < tr.eps / 2
        runs += 1
    esty = 0
    for _n, pat in seq.all_patterns():
        tr = pat.trace
        assert tr.w_bound is not None and tr.w_bound <= tr.eps_tilde2
        assert all(ok for _name, ok in tr.checks)
        esty += 1
    assert runs >= 4 and esty >= 4
    print(f"\nPASS criterion 6 (k={k}): {runs} stopping runs, {esty} corrections")


def test_criterion_7_dichotomy():
    """Criterion 7: |V| = 0 fails fast; scalar projections converge."""
    with pytest.raises(ConstructionPreconditionError):
        build_sequence(AccumulatingFiltration(HALF), 2, HALF, 2)
    result = scalar_convergence_demo(dyadic(), 1, 12, seed=0)
    assert result["final_small_mass_fraction"] >= 0.99
    # contrast: the constructed sequence keeps unit jumps on E_n
    seq, _ = built_sequence(1)
    rng = random.Random(5)
    for t in seq.sample_e_points(4, rng, 4):
        assert seq.sup_diff_at(t, 4) >= 1
    print("\nPASS criterion 7: dichotomy and convergence contrast")


def test_criterion_8_unconditionality():
    """Criterion 8: k=1 p=2 ratio is 1 within 1e-9; ratios stable in depth."""
    ctx1 = ProjectionContext(dyadic(), 1)
    rng = np.random.default_rng(12)
    kv = ctx1.knot_vector(8)
    f = ScalarSpline(kv, rng.uniform(-1.0, 1.0, kv.dim))
    ratio = unconditionality_ratio(ctx1, f, 2.0, trials=200, seed=7)
    assert abs(ratio - 1.0) <= 1e-9

    for k in (2, 3):
        ctx = ProjectionContext(dyadic(), k)
        for p in (1.5, 2.0, 3.0):
            ratios = {}
            for depth in (6, 8):
                kvd = ctx.knot_vector(depth)
                fd = ScalarSpline(kvd, np.random.default_rng(41).uniform(-1, 1, kvd.dim))
                ratios[depth] = unconditionality_ratio(ctx, fd, p, trials=200, seed=13)
            assert np.isfinite(ratios[6]) and np.isfinite(ratios[8])
            assert abs(ratios[8] - ratios[6]) / ratios[8] < 0.10, (k, p, ratios)
    print("\nPASS criterion 8: unconditionality ratios exact (k=1) and stable")
