import random
from fractions import Fraction

import numpy as np
import pytest

import splinemart.harness.estimators as estimators
import splinemart.projection as projection
from splinemart.bspline import (
    ScalarSpline,
    basis_values,
    gauss_nodes,
    gram,
    interpolate,
    refine_coeffs,
    spline_values,
)
from splinemart.construction import build_sequence
from splinemart.filtration import dyadic
from splinemart.harness import (
    doob_ratio,
    random_martingale,
    scalar_convergence_demo,
    shadrin_profile,
    unconditionality_ratio,
    uniform_integrability_profile,
    verify_sequence,
    weak_type_ratio,
)
from splinemart.harness.estimators import NODES, WEAK_QUANTILES
from splinemart.projection import ProjectionContext, VectorSpline
from splinemart.rle import RleSpline
from splinemart.witness import XVec

F = Fraction
HALF = F(1, 2)


@pytest.fixture(scope="module")
def seq2():
    return build_sequence(dyadic(), 2, HALF, 3)


class TestVerify:
    def test_all_green(self, seq2):
        report = verify_sequence(seq2)
        assert report.all_passed, report.render()

    def test_report_lines_mention_properties(self, seq2):
        report = verify_sequence(seq2)
        names = [e.name for e in report.entries]
        assert any("(3b)" in n for n in names)
        assert any("(3c)" in n for n in names)
        assert any("martingale" in n for n in names)

    def test_fault_injection_flags_separation(self, seq2, monkeypatch):
        # corrupt values of f_n for n >= 1 so separation collapses; value_at
        # and sup_diff_at both read the step walk
        step_values = seq2.step_values
        monkeypatch.setattr(
            seq2,
            "step_values",
            lambda t, n: (XVec.zero(), XVec.zero()) if n >= 1 else step_values(t, n),
        )
        report = verify_sequence(seq2)
        failed = {e.name for e in report.failed()}
        assert any("(3b)" in n for n in failed)

    @pytest.mark.parametrize("entry", [
        "zone constancy (3a)",
        "positive mass of I_{n,i} (3e)",
        "value boundedness",
        "perturbation ledger",
    ])
    def test_one_fault_fails_exactly_its_entry(self, seq2, entry, monkeypatch):
        if entry == "zone constancy (3a)":
            # the sampled points are dyadic; the offsets h/7 and -h/9 put a 7
            # or a 3 in the denominator, and there f_n reads another value
            value_at = seq2.value_at

            def moved(t, n):
                d = t.denominator
                return value_at(t, n).add(XVec({1 << 40: F(1)}) if d & (d - 1) else XVec())

            monkeypatch.setattr(seq2, "value_at", moved)
        elif entry == "positive mass of I_{n,i} (3e)":
            in_c = next(row for sd in seq2.steps for row in sd.rows_after if row.in_c)
            monkeypatch.setattr(in_c, "total_length", F(0))
        elif entry == "value boundedness":
            monkeypatch.setattr(seq2.steps[-1].rows_after[0], "chain_sup", F(2))
        else:
            pat = next(iter(seq2.steps[0].patterns.values()))
            monkeypatch.setattr(pat.trace, "w_bound", seq2.eta)
        report = verify_sequence(seq2)
        assert [e.name for e in report.failed()] == [entry], report.render()

    @pytest.mark.parametrize("fault", ["above_one", "mix_above_one", "other_slot"])
    def test_fault_injection_flags_a_bad_ramp_coefficient(self, fault):
        # above_one: 3/2 at the first index touching the first ramp atom of
        # f_1; mix_above_one: 3/2 at the last index touching the left ramp
        # of f_{M+1}; other_slot: f_2 starts right after f_1 ends, so its
        # coefficient 1 reaches the right ramp of f_1
        seq = build_sequence(dyadic(), 2, HALF, 3)
        n, pat = next(seq.all_patterns())
        inner = pat.inner
        k = inner.space.k
        i = {"above_one": 0, "mix_above_one": inner.M, "other_slot": 1}[fault]
        scal, key = inner.terms[i]
        (j0, j1, _), = scal.runs
        if fault == "above_one":
            runs, m, want = [(j0 - k + 1, j0 - k + 1, F(3, 2)), (j0, j1, F(1))], 0, ("3/2", key)
        elif fault == "mix_above_one":
            runs, m, want = [(j0, j0, F(3, 2)), (j0 + 1, j1, F(1))], inner.M, ("3/2", key)
        else:
            (_, end_0, _), = inner.terms[0][0].runs
            runs, m, want = [(end_0 + 1, j1, F(1))], 0, ("1", key)
        inner.terms[i] = (RleSpline(scal.space, runs), key)
        inner.__dict__.pop("run_table", None)
        report = verify_sequence(seq)
        (entry,) = [e for e in report.entries if "(2)" in e.name]
        assert not entry.passed
        assert entry.location.startswith(f"step {n}, ramp cell")
        assert entry.location.endswith(
            f"of f_{m + 1}: a run touching it carries {want[0]} on {want[1]}"
        )
        assert [e.name for e in report.failed()] == [entry.name]

    def test_eta_scaling_of_bounds(self):
        for eta in (F(1, 4), HALF):
            seq = build_sequence(dyadic(), 1, eta, 2)
            for n in (1, 2):
                assert seq.e_measure(n) >= 1 - F(1, 2**n) * eta


class TestMaximalEstimators:
    def test_constant_sequence_ratio_is_the_top_quantile(self):
        ctx = ProjectionContext(dyadic(), 1)
        kv = ctx.knot_vector(3)
        const = VectorSpline(kv, {1: np.full(kv.dim, 0.5)})
        seq = [const, const, const]
        # every level lies below the constant norm, so each has full measure
        assert abs(weak_type_ratio(seq) - max(WEAK_QUANTILES)) < 1e-12

    def test_single_element_doob_ratio_one(self):
        ctx = ProjectionContext(dyadic(), 2)
        kv = ctx.knot_vector(3)
        rng = np.random.default_rng(1)
        f = VectorSpline(kv, {1: rng.uniform(-1, 1, kv.dim)})
        assert abs(doob_ratio([f], 2.0) - 1.0) < 1e-12

    def test_k1_random_martingales_classical_bounds(self):
        rng = np.random.default_rng(7)
        worst_weak, worst_doob = 0.0, 0.0
        for _ in range(20):
            seq = random_martingale(dyadic(), 1, 6, rng)
            worst_weak = max(worst_weak, weak_type_ratio(seq))
            worst_doob = max(worst_doob, doob_ratio(seq, 2.0))
        assert worst_weak <= 1.0 + 1e-6      # Doob weak-(1,1) regime
        assert worst_doob <= 2.0 + 0.01      # q = p/(p-1) = 2 sanity ceiling


# the maximal ratios as they were written with a per-coordinate sup over
# quadrature points


def reference_sup_process(seq, nodes=64):
    pts, wts = gauss_nodes(seq[-1].kv.breakpoints, nodes)
    levels = []
    for f in seq:
        vals = np.zeros(len(pts))
        for comp in f.components.values():
            vals = np.maximum(vals, np.abs(ScalarSpline(f.kv, comp).eval_many(pts)))
        levels.append(vals)
    return wts, np.max(levels, axis=0), levels


def reference_weak_type_ratio(seq):
    wts, sup, levels = reference_sup_process(seq)
    denom = max(float(vals @ wts) for vals in levels)
    if denom == 0:
        return 0.0
    top = sup.max()
    lambdas = [top * q for q in (0.25, 0.5, 0.75, 0.9, 0.99)]
    best = 0.0
    for lam in lambdas:
        meas = float(wts[sup > lam].sum())
        best = max(best, lam * meas / denom)
    return best


def reference_doob_ratio(seq, p):
    wts, sup, levels = reference_sup_process(seq)
    num = float((sup**p) @ wts) ** (1.0 / p)
    denom = max(float((vals**p) @ wts) ** (1.0 / p) for vals in levels)
    return num / denom if denom else 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_maximal_ratios_repr_identical_to_per_coordinate_reference(k):
    for coords in (1, 2, 3):
        for seed in (0, 1, 2):
            seq = random_martingale(dyadic(), k, 5, np.random.default_rng(seed), coords=coords)
            for p in (1.5, 2.0):
                assert repr(doob_ratio(seq, p)) == repr(reference_doob_ratio(seq, p))
            got, want = weak_type_ratio(seq), reference_weak_type_ratio(seq)
            assert repr(got) == repr(want), (coords, seed)


@pytest.mark.parametrize("p", [1.0, 0.5, float("inf")])
def test_doob_ratios_refuse_p_outside_one_to_infinity(p):
    seq = random_martingale(dyadic(), 2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="p must lie"):
        doob_ratio(seq, p)


class TestUnconditionality:
    def test_parseval_k1(self):
        ctx = ProjectionContext(dyadic(), 1)
        kv = ctx.knot_vector(6)
        rng = np.random.default_rng(3)
        f = ScalarSpline(kv, rng.uniform(-1, 1, kv.dim))
        ratio = unconditionality_ratio(ctx, f, 2.0, trials=50, seed=5)
        assert abs(ratio - 1.0) < 1e-9

    def test_all_plus_telescopes(self):
        ctx = ProjectionContext(dyadic(), 2)
        kv = ctx.knot_vector(5)
        rng = np.random.default_rng(4)
        f = ScalarSpline(kv, rng.uniform(-1, 1, kv.dim))
        # one random pattern: a loose bound on its ratio
        ratio = unconditionality_ratio(ctx, f, 2.0, trials=1, seed=0)
        assert ratio < 5.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_finite_and_stable(self, p):
        ctx = ProjectionContext(dyadic(), 3)
        rng = np.random.default_rng(11)
        ratios = {}
        for depth in (6, 7):
            kv = ctx.knot_vector(depth)
            f = ScalarSpline(kv, rng.uniform(-1, 1, kv.dim))
            ratios[depth] = unconditionality_ratio(ctx, f, p, trials=60, seed=9)
        assert all(np.isfinite(r) for r in ratios.values())
        assert abs(ratios[7] - ratios[6]) / ratios[7] < 0.25


def per_trial_setup(ctx, f, depth):
    """The martingale differences of f at level depth at the Gauss nodes of
    the rational breakpoints, and the node weights: what the per-trial
    reference reads for every seed, p and trial count."""
    projections = [ctx.project_scalar(f, n) for n in range(depth)] + [f]
    diffs, prev = [], np.zeros(f.kv.dim)
    for g in projections:
        fine = refine_coeffs(g, f.kv) if g.kv != f.kv else g
        diffs.append(fine.coeffs - prev)
        prev = fine.coeffs
    pts, wts = gauss_nodes(f.kv.breakpoints, NODES)
    return spline_values(np.array(diffs), *basis_values(f.kv, pts)), wts


def per_trial_unconditionality_ratio(setup, p, trials, seed):
    """unconditionality_ratio, from the `per_trial_setup` of f and depth, as
    it was before its signs came from one draw: one rng.choice per trial,
    and Gauss nodes from the rational breakpoints."""
    dvals, wts = setup
    fnorm = float((np.abs(dvals.sum(axis=0)) ** p) @ wts) ** (1.0 / p)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        signs = rng.choice([-1.0, 1.0], size=len(dvals))
        ratio = float((np.abs(signs @ dvals) ** p) @ wts) ** (1.0 / p) / fnorm
        best = max(best, ratio)
    return best


# (1.5, 200) at k=2 depth 8 is the benchmark's float shape; 1000 trials at
# depth 3 draw every one of its 2^3 sign classes many times over
@pytest.mark.parametrize("k, depth", [(1, 5), (2, 3), (2, 8), (3, 6), (4, 4)])
def test_one_sign_draw_repr_identical_to_per_trial_draws(k, depth):
    ctx = ProjectionContext(dyadic(), k)
    kv = ctx.knot_vector(depth)
    f = ScalarSpline(kv, np.random.default_rng(depth).uniform(-1, 1, kv.dim))
    setup = per_trial_setup(ctx, f, depth)
    for seed in (0, 3, 17, 2**40 + 1):
        for p, trials in ((1.5, 1), (3.0, 37), (1.5, 200), (2.0, 1000)):
            got = unconditionality_ratio(ctx, f, p, trials, seed=seed)
            want = per_trial_unconditionality_ratio(setup, p, trials, seed)
            assert repr(got) == repr(want), (k, depth, seed, p, trials)


class CountingNumpy:
    """numpy, with its matmul calls counted."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("depth, trials", [(3, 1000), (8, 200), (8, 3)])
def test_one_evaluation_per_sign_class(depth, trials, monkeypatch):
    # one matmul per evaluated pattern: one per class ±s of the draw, so
    # at most min(trials, 2^depth)
    ctx = ProjectionContext(dyadic(), 2)
    kv = ctx.knot_vector(depth)
    f = ScalarSpline(kv, np.random.default_rng(depth).uniform(-1, 1, kv.dim))
    spy = CountingNumpy()
    monkeypatch.setattr(estimators, "np", spy)
    unconditionality_ratio(ctx, f, 1.5, trials, seed=5)
    signs = np.random.default_rng(5).choice([-1.0, 1.0], size=(trials, depth + 1))
    classes = {tuple(row * row[0]) for row in signs}
    assert spy.matmuls == len(classes) <= min(trials, 2**depth)
    if trials > 2**depth:
        assert spy.matmuls == 2**depth


@pytest.mark.parametrize("trials", [0, -1])
def test_unconditionality_refuses_trials_below_one(trials):
    ctx = ProjectionContext(dyadic(), 2)
    kv = ctx.knot_vector(3)
    f = ScalarSpline(kv, np.ones(kv.dim))
    with pytest.raises(ValueError, match="trials"):
        unconditionality_ratio(ctx, f, 1.5, trials)


def test_gram_built_only_for_levels_projected_onto_or_scanned(monkeypatch):
    # the benchmark's float op: shadrin_profile scans dyadic k=3 levels
    # 1..8, unconditionality_ratio projects a k=2 level-8 spline onto
    # levels 0..7, and random_martingale projects a k=3 level-5 top onto
    # levels 4..0. The levels only read as knot vectors (the spline's own
    # level and the martingale's top) factor no Gram matrix
    built = []

    def counting_gram(kv):
        built.append((kv.k, kv.num_atoms.bit_length() - 1))
        return gram(kv)

    monkeypatch.setattr(projection, "gram", counting_gram)
    shadrin_profile(dyadic(), 3, 8)
    ctx = ProjectionContext(dyadic(), 2)
    kv = ctx.knot_vector(8)
    f = ScalarSpline(kv, np.random.default_rng(1).uniform(-1, 1, kv.dim))
    unconditionality_ratio(ctx, f, 1.5, 200, seed=2)
    random_martingale(dyadic(), 3, 5, np.random.default_rng(3), coords=2)
    want = (
        [(3, n) for n in range(1, 9)]
        + [(2, n) for n in range(8)]
        + [(3, n) for n in range(4, -1, -1)]
    )
    assert built == want


class TestUniformIntegrability:
    def test_bounded_sequence_profile_linear(self):
        ctx = ProjectionContext(dyadic(), 1)
        kv = ctx.knot_vector(4)
        f = VectorSpline(kv, {1: np.full(kv.dim, 1.0)})
        prof = uniform_integrability_profile([f], [0.5, 0.25, 0.125])
        for delta, mass in prof:
            assert mass <= delta * 1.0 + 1e-12

    def test_scaling_homogeneity(self):
        ctx = ProjectionContext(dyadic(), 1)
        kv = ctx.knot_vector(4)
        rng = np.random.default_rng(0)
        comp = rng.uniform(0, 1, kv.dim)
        f1 = VectorSpline(kv, {1: comp})
        f2 = VectorSpline(kv, {1: 3.0 * comp})
        p1 = uniform_integrability_profile([f1], [0.25])
        p2 = uniform_integrability_profile([f2], [0.25])
        assert abs(p2[0][1] - 3.0 * p1[0][1]) < 1e-10

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(5)
        seq = random_martingale(dyadic(), 1, 6, rng)
        prof = uniform_integrability_profile(seq, [0.5, 0.25, 0.125, 0.0625])
        masses = [m for _d, m in prof]
        assert all(a >= b for a, b in zip(masses, masses[1:]))


class TestConvergenceDemo:
    def test_scalar_increments_die_out(self):
        result = scalar_convergence_demo(dyadic(), 1, 12, seed=0)
        assert result["final_small_mass_fraction"] >= 0.99
        sups = result["increment_sups"]
        assert sups[-1] < 1e-3

    def test_contrast_with_constructed(self, seq2):
        # the constructed sequence keeps unit-size increments on E_n
        rng = random.Random(0)
        for t in seq2.sample_e_points(3, rng, 3):
            assert seq2.sup_diff_at(t, 3) >= 1


class TestDeterminismAndMonotonicity:
    def test_estimators_deterministic_under_seed(self):
        ctx = ProjectionContext(dyadic(), 2)
        kv = ctx.knot_vector(6)
        f = ScalarSpline(kv, np.random.default_rng(2).uniform(-1, 1, kv.dim))
        r1 = unconditionality_ratio(ctx, f, 1.5, trials=40, seed=17)
        r2 = unconditionality_ratio(ctx, f, 1.5, trials=40, seed=17)
        assert r1 == r2

    def test_max_ratio_nondecreasing_in_trials(self):
        ctx = ProjectionContext(dyadic(), 2)
        kv = ctx.knot_vector(6)
        f = ScalarSpline(kv, np.random.default_rng(3).uniform(-1, 1, kv.dim))
        r_small = unconditionality_ratio(ctx, f, 2.5, trials=30, seed=23)
        r_big = unconditionality_ratio(ctx, f, 2.5, trials=120, seed=23)
        assert r_big >= r_small


class TestConstants:
    def test_shadrin_profile_k1_exact(self):
        prof = shadrin_profile(dyadic(), 1, 4)
        for _level, _dim, norm in prof:
            assert norm == 1.0

    def test_shadrin_profile_k2_bounded(self):
        prof = shadrin_profile(dyadic(), 2, 6)
        assert all(1.0 <= norm <= 3.5 for _l, _d, norm in prof)
