import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.bspline import (
    KnotVector,
    PiecewiseConstant,
    ScalarSpline,
    basis_values,
    composition_det,
    eval_basis,
    gauss_nodes,
    gram,
    interpolate,
    moment,
    moment_matrix,
    refine_coeffs,
)
from splinemart.errors import CapacityError, DomainError, NestingError, PreconditionError
from splinemart.filtration import FileFiltration, dyadic, parse_filtration_spec
from splinemart.intervals import Interval, MeasurableUnion

F = Fraction


def cox_de_boor_reference(knots, k, i, t):
    """Independent recursive Cox-de Boor evaluation (naive, order k)."""
    if k == 1:
        lo, hi = knots[i], knots[i + 1]
        last = hi == knots[-1]
        return 1.0 if (lo <= t < hi or (last and t == hi and lo < hi)) else 0.0
    left = 0.0
    if knots[i + k - 1] > knots[i]:
        left = (t - knots[i]) / (knots[i + k - 1] - knots[i]) * cox_de_boor_reference(
            knots, k - 1, i, t
        )
    right = 0.0
    if knots[i + k] > knots[i + 1]:
        right = (knots[i + k] - t) / (knots[i + k] - knots[i + 1]) * cox_de_boor_reference(
            knots, k - 1, i + 1, t
        )
    return left + right


def random_kv(rng, k, pieces=6):
    cuts = sorted(rng.sample(range(1, 64), pieces - 1))
    return KnotVector(k, [F(0)] + [F(c, 64) for c in cuts] + [F(1)])


def test_dimension_and_smoothness_bookkeeping():
    kv = KnotVector(3, ["0", "1/4", "1/2", "3/4", "1"])
    assert kv.num_atoms == 4
    assert kv.dim == 4 + 3 - 1
    assert kv.support(0) == Interval(0, F(1, 4))
    assert kv.support(kv.dim - 1) == Interval(F(3, 4), 1)


def test_multiple_interior_knots_rejected():
    with pytest.raises(ValueError):
        KnotVector(2, [0, F(1, 2), F(1, 2), 1])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_breakpoints_equal_in_binary64_rejected(k):
    # distinct rationals whose floats coincide would give a zero-width span
    with pytest.raises(CapacityError):
        KnotVector(k, [0, F(1, 3), F(1, 3) + F(1, 2**60), 1])
    with pytest.raises(ValueError):
        KnotVector(k, [0, F(1, 3), F(1, 3), 1])
    KnotVector(k, [0, F(1, 3), F(1, 3) + F(1, 2**50), 1])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cell_one_ulp_wide_refused_by_its_quadrature(k):
    # distinct in binary64, but no Gauss node fits strictly between them
    lo = 1 / 3
    kv = KnotVector(k, [0, F(lo), F(math.nextafter(lo, 1.0)), 1])
    with pytest.raises(CapacityError):
        gauss_nodes(kv.breakpoints, k)
    with pytest.raises(CapacityError):
        gram(kv)
    pts, wts = gauss_nodes(kv.breakpoints[:2], k)
    assert np.all((pts > 0) & (pts < lo)) and math.isclose(wts.sum(), lo)


def test_greville_point_on_a_breakpoint_refused():
    # at k = 1 the Greville point of a 1-ulp cell rounds onto its end
    lo = 1 / 3
    kv = KnotVector(1, [0, F(lo), F(math.nextafter(lo, 1.0)), 1])
    with pytest.raises(CapacityError):
        interpolate(kv, lambda t: t)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_partition_of_unity_and_nonnegativity(k):
    rng = random.Random(k)
    kv = random_kv(rng, k)
    for _ in range(200):
        t = rng.random()
        vals = eval_basis(kv, t)
        assert len(vals) <= k
        assert all(v >= -1e-15 for _, v in vals)
        assert abs(sum(v for _, v in vals) - 1.0) < 1e-12
    assert abs(sum(v for _, v in eval_basis(kv, 0.0)) - 1.0) < 1e-12
    assert abs(sum(v for _, v in eval_basis(kv, 1.0)) - 1.0) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_partition_of_unity_dense(k):
    # spec invariant: unity and non-negativity at 1e4 random points
    rng = random.Random(1000 + k)
    kv = random_kv(rng, k, pieces=9)
    ts = [rng.random() for _ in range(10**4)]
    for t in ts:
        vals = eval_basis(kv, t)
        assert all(v >= -1e-15 for _, v in vals)
        assert abs(sum(v for _, v in vals) - 1.0) < 1e-12


def test_eval_basis_k1_indicator():
    kv = KnotVector(1, [0, F(1, 2), 1])
    vals = dict(eval_basis(kv, 0.3))
    assert vals == {0: 1.0}


def test_eval_basis_outside_domain():
    kv = KnotVector(2, [0, F(1, 2), 1])
    with pytest.raises(DomainError):
        eval_basis(kv, 1.2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_eval_matches_recursive_reference(k):
    rng = random.Random(10 + k)
    kv = random_kv(rng, k)
    knots = [float(t) for t in kv.knots]
    for _ in range(50):
        t = rng.random()
        ref = {i: cox_de_boor_reference(knots, k, i, t) for i in range(kv.dim)}
        got = dict(eval_basis(kv, t))
        for i in range(kv.dim):
            assert abs(ref.get(i, 0.0) - got.get(i, 0.0)) < 1e-10


def test_support_locality():
    rng = random.Random(3)
    kv = random_kv(rng, 3)
    for i in range(kv.dim):
        sup = kv.support(i)
        for _ in range(30):
            t = rng.random()
            inside = float(sup.lo) < t < float(sup.hi)
            val = dict(eval_basis(kv, t)).get(i, 0.0)
            if not inside:
                assert val < 1e-14


def test_moment_examples():
    kv1 = KnotVector(1, [0, F(1, 2), 1])
    assert abs(moment(kv1, 0, 0) - 0.5) < 1e-14
    assert abs(moment(kv1, 0, 1) - 0.125) < 1e-14
    kv2 = KnotVector(2, [0, F(1, 2), 1])
    assert abs(moment(kv2, 1, 0) - 0.5) < 1e-14  # hat has area 1/2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gram_matches_dense_quadrature_oracle(k):
    rng = random.Random(20 + k)
    kv = random_kv(rng, k)
    g = gram(kv)
    # independent dense assembly with a much finer fixed quadrature
    dim = kv.dim
    dense = np.zeros((dim, dim))
    x, w = np.polynomial.legendre.leggauss(12)
    for a, b in zip(kv.breakpoints, kv.breakpoints[1:]):
        af, bf = float(a), float(b)
        mid, half = 0.5 * (af + bf), 0.5 * (bf - af)
        for t, wt in zip(mid + half * x, w):
            active = eval_basis(kv, t)
            for i1, v1 in active:
                for i2, v2 in active:
                    dense[i1, i2] += half * wt * v1 * v2
    assert np.max(np.abs(g.dense() - dense)) < 1e-12
    assert np.max(np.abs(np.triu(g.dense(), k))) == 0  # bandwidth k-1


def test_gram_k1_diagonal_of_lengths():
    kv = KnotVector(1, [0, F(1, 4), F(1, 2), 1])
    g = gram(kv).dense()
    assert np.allclose(g, np.diag([0.25, 0.25, 0.5]), atol=1e-15)


def test_gram_k2_rows_sum_to_integrals():
    kv = KnotVector(2, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    g = gram(kv).dense()
    for i in range(kv.dim):
        assert abs(g[i].sum() - moment(kv, i, 0)) < 1e-13


def test_gram_solve_identity_residual():
    kv = KnotVector(3, [F(0), F(1, 8), F(1, 3), F(1, 2), F(5, 7), F(1)])
    g = gram(kv)
    rng = np.random.default_rng(0)
    dense = g.dense()
    for _ in range(5):
        rhs = rng.standard_normal(kv.dim)
        x = g.solve(rhs)
        assert np.linalg.norm(dense @ x - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_refine_constant_and_indicator():
    coarse = KnotVector(2, [0, F(1, 2), 1])
    fine = KnotVector(2, [0, F(1, 4), F(1, 2), F(3, 4), 1])
    one = ScalarSpline.constant(coarse)
    assert np.allclose(refine_coeffs(one, fine).coeffs, 1.0)

    k1c = KnotVector(1, [0, F(1, 2), 1])
    k1f = KnotVector(1, [0, F(1, 4), F(1, 2), 1])
    s = ScalarSpline(k1c, [0.0, 1.0])
    r = refine_coeffs(s, k1f)
    assert list(r.coeffs) == [0.0, 0.0, 1.0]


def test_refine_rejects_non_nested():
    coarse = KnotVector(2, [0, F(1, 3), 1])
    fine = KnotVector(2, [0, F(1, 2), 1])
    with pytest.raises(NestingError):
        refine_coeffs(ScalarSpline.constant(coarse), fine)


@pytest.mark.parametrize("k", [2, 3])
def test_refine_preserves_values_and_hull(k):
    rng = random.Random(40 + k)
    coarse = KnotVector(k, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    fine_bps = sorted(set(coarse.breakpoints) | {F(1, 8), F(3, 8), F(2, 3), F(7, 8)})
    fine = KnotVector(k, fine_bps)
    coeffs = np.array([rng.uniform(-1, 1) for _ in range(coarse.dim)])
    s = ScalarSpline(coarse, coeffs)
    r = refine_coeffs(s, fine)
    for _ in range(100):
        t = rng.random()
        assert abs(s.eval(t) - r.eval(t)) < 1e-10
    assert r.coeffs.min() >= coeffs.min() - 1e-12
    assert r.coeffs.max() <= coeffs.max() + 1e-12


def test_composition_det_identity_cases():
    one = PiecewiseConstant([0, 1], [1.0])
    lhs, rhs = composition_det([one], [one])
    assert abs(lhs - 1.0) < 1e-15 and abs(rhs - 1.0) < 1e-15

    f1 = PiecewiseConstant.indicator(Interval(0, F(1, 2)))
    f2 = PiecewiseConstant.indicator(Interval(F(1, 2), 1))
    lhs, rhs = composition_det([f1, f2], [f1, f2])
    assert abs(lhs - 0.25) < 1e-15
    assert abs(rhs - 0.25) < 1e-15


def test_composition_det_random_systems():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.choice([2, 3])
        cuts = sorted(rng.sample(range(1, 24), 5))
        breaks = [F(0)] + [F(c, 24) for c in cuts] + [F(1)]
        fs = [
            PiecewiseConstant(breaks, [rng.uniform(-2, 2) for _ in range(len(breaks) - 1)])
            for _ in range(n)
        ]
        gs = [
            PiecewiseConstant(breaks, [rng.uniform(-2, 2) for _ in range(len(breaks) - 1)])
            for _ in range(n)
        ]
        lhs, rhs = composition_det(fs, gs)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_moment_matrix_k1():
    kv = KnotVector(1, [0, F(1, 2), F(3, 4), 1])
    region = Interval(F(1, 2), 1)
    a, ainv, norm = moment_matrix(kv, region, [1])
    assert abs(a[0, 0] - 0.25) < 1e-14
    assert abs(ainv[0, 0] - 4.0) < 1e-10
    assert abs(norm - 4.0) < 1e-10


def test_moment_matrix_positivity_and_residual():
    filt = dyadic()
    kv = KnotVector.from_filtration(filt, 5, 2)
    region = Interval(F(1, 4), 1)
    # two disjoint hats inside (1/4, 1)
    picks = [12, 18]
    a, ainv, _ = moment_matrix(kv, region, picks)
    assert np.linalg.det(a) > 0
    assert np.max(np.abs(a @ ainv - np.eye(2))) < 1e-10


def test_moment_matrix_rejects_bad_picks():
    kv = KnotVector(2, [F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(1)])
    region = Interval(F(1, 8), F(5, 8))
    with pytest.raises(PreconditionError):
        moment_matrix(kv, region, [0, 3])  # support touches 0 -> escapes region
    with pytest.raises(PreconditionError):
        moment_matrix(kv, region, [2, 3])  # overlapping supports


def test_moment_matrix_random_admissible_picks():
    rng = random.Random(123)
    filt = dyadic()
    for _ in range(20):
        k = rng.choice([1, 2, 3])
        kv = KnotVector.from_filtration(filt, 6, k)
        start = rng.randrange(k, kv.dim - k * (k + 2) - k)
        picks = [start + i * (k + 1) for i in range(k)]
        region = Interval(
            kv.support(picks[0]).lo - F(1, 64), kv.support(picks[-1]).hi + F(1, 64)
        )
        a, ainv, _ = moment_matrix(kv, region, picks)
        assert np.linalg.det(a) > 0
        assert np.max(np.abs(a @ ainv - np.eye(k))) < 1e-10


def test_interpolate_polynomial_reproduction():
    kv = KnotVector(3, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    s = interpolate(kv, lambda t: t * t)
    rng = random.Random(5)
    for _ in range(50):
        t = rng.random()
        assert abs(s.eval(t) - t * t) < 1e-12


def test_interpolate_banded_at_dyadic_level_16():
    # dim 65538: a dense collocation matrix would take 32 GiB
    kv = KnotVector.from_filtration(dyadic(), 16, 3)
    s = interpolate(kv, lambda t: t * t)
    ts = np.concatenate([[0.0, 1.0], np.random.default_rng(16).random(2000)])
    assert np.max(np.abs(s.eval_many(ts) - ts * ts)) < 1e-12


@pytest.mark.parametrize("spec, level", [("dyadic", 5), ("padic:3", 3), ("accum:1/3", 20)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_interpolate_matches_the_dense_solve(spec, level, k):
    from splinemart.bspline import design_matrix, greville

    kv = KnotVector.from_filtration(parse_filtration_spec(spec), level, k)
    f = lambda t: math.sin(7 * t) + t**3  # noqa: E731
    pts = [float(t) for t in greville(kv)]
    dense = np.linalg.solve(design_matrix(kv, pts), [f(t) for t in pts])
    assert np.max(np.abs(interpolate(kv, f).coeffs - dense)) < 1e-12


# ---------------------------------------------------------------------------
# the batched kernel against the single-point path

FILTRATIONS = {
    "dyadic": parse_filtration_spec("dyadic"),
    "padic:3": parse_filtration_spec("padic:3"),
    "accum:1/3": parse_filtration_spec("accum:1/3"),
    "file": FileFiltration(
        MeasurableUnion.full(),
        [
            [F(0), F(1)],
            [F(0), F(2, 7), F(1)],
            [F(0), F(1, 9), F(2, 7), F(5, 8), F(1)],
            [F(0), F(1, 9), F(1, 5), F(2, 7), F(1, 3), F(5, 8), F(31, 32), F(1)],
        ],
    ),
}


def breakpoint_neighbours(kv):
    """Every breakpoint and both of its binary64 neighbours inside [0, 1]."""
    bps = [float(b) for b in kv.breakpoints]
    near = [math.nextafter(b, d) for b in bps for d in (-math.inf, math.inf)]
    return bps + [t for t in near if 0.0 <= t <= 1.0]


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(sorted(FILTRATIONS)),
    k=st.integers(1, 5),
    level=st.integers(0, 3),
    extra=st.lists(st.floats(0.0, 1.0), max_size=40),
)
def test_basis_values_bit_identical_to_eval_basis(spec, k, level, extra):
    kv = KnotVector.from_filtration(FILTRATIONS[spec], level, k)
    ts = [0.0, 1.0] + breakpoint_neighbours(kv) + extra
    first, vals = basis_values(kv, ts)
    assert vals.shape == (len(ts), k)
    for t, f0, row in zip(ts, first, vals):
        ref = eval_basis(kv, t)
        assert [i for i, _ in ref] == list(range(f0, f0 + k))
        assert all(type(v) is float for _, v in ref)
        ref_row = np.array([v for _, v in ref])
        assert ref_row.tobytes() == row.tobytes()
        assert np.signbit(ref_row).tolist() == np.signbit(row).tolist()


@pytest.mark.parametrize("spec", sorted(FILTRATIONS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_eval_basis_matches_the_reference_next_to_breakpoints(spec, k):
    kv = KnotVector.from_filtration(FILTRATIONS[spec], 3, k)
    knots = [float(t) for t in kv.knots]
    for t in [0.0, 1.0] + breakpoint_neighbours(kv):
        got = dict(eval_basis(kv, t))
        for i in range(kv.dim):
            assert abs(cox_de_boor_reference(knots, k, i, t) - got.get(i, 0.0)) < 1e-12


#: sha256 of basis_values' (first, vals) bytes and of repr(eval_basis) over
#: pin_knot_vectors x pin_points, recorded before the two evaluation paths
#: shared one de Boor kernel
KERNEL_PIN = (
    "076bf4e91333205ade62571f311f228e92f4af0cbb8b4321d7b2f82e7a0e6dab",
    "a5b45c708b59bcdcf6b3e96931c1573b93bf3b0fbe153773e4f93a68748e98ec",
)
PIN_LEVELS = {
    "dyadic": (0, 1, 2, 5, 8),
    "padic:3": (0, 1, 3, 5),
    "accum:1/3": (0, 1, 7, 30, 54),
    "accum:1/2": (0, 9, 54),
}


def pin_knot_vectors():
    for k in range(1, 6):
        for spec, levels in PIN_LEVELS.items():
            filt = parse_filtration_spec(spec)
            for level in levels:
                yield KnotVector.from_filtration(filt, level, k)
        rng = random.Random(k)
        for _ in range(4):
            cuts = sorted(F(c, 1009) for c in rng.sample(range(1, 1009), 29))
            yield KnotVector(k, [F(0)] + cuts + [F(1)])


def pin_points(kv, seed):
    rng = random.Random(seed)
    return [0.0, 1.0] + breakpoint_neighbours(kv) + [rng.random() for _ in range(40)]


def test_basis_kernel_pin():
    arrays, reprs = hashlib.sha256(), hashlib.sha256()
    for seed, kv in enumerate(pin_knot_vectors()):
        ts = pin_points(kv, seed)
        first, vals = basis_values(kv, ts)
        arrays.update(first.astype(np.int64).tobytes() + vals.tobytes())
        for t in ts:
            reprs.update(repr(eval_basis(kv, t)).encode())
    assert (arrays.hexdigest(), reprs.hexdigest()) == KERNEL_PIN


@pytest.mark.parametrize("t", [-1e-300, -0.5, 1.0 + 2**-52, 2.0, float("nan")])
def test_domain_error_on_both_paths(t):
    kv = KnotVector(3, [0, F(1, 3), 1])
    with pytest.raises(DomainError):
        eval_basis(kv, t)
    with pytest.raises(DomainError):
        basis_values(kv, [0.5, t])
    with pytest.raises(DomainError):
        ScalarSpline.constant(kv).eval_many([t])


@pytest.mark.parametrize("spec", sorted(FILTRATIONS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_right_end_clamp(spec, k):
    kv = KnotVector.from_filtration(FILTRATIONS[spec], 3, k)
    assert eval_basis(kv, 1.0)[-1] == (kv.dim - 1, 1.0)
    assert all(v == 0.0 for _, v in eval_basis(kv, 1.0)[:-1])
    first, vals = basis_values(kv, [1.0])
    assert first[0] + k - 1 == kv.dim - 1
    assert vals[0, -1] == 1.0 and not vals[0, :-1].any()


def test_eval_many_bit_identical_to_eval():
    rng = np.random.default_rng(7)
    for spec in ("dyadic", "padic:3", "accum:1/3"):
        for k in (1, 2, 3, 4):
            kv = KnotVector.from_filtration(FILTRATIONS[spec], 4, k)
            s = ScalarSpline(kv, rng.uniform(-1, 1, kv.dim))
            ts = np.concatenate([[0.0, 1.0], [float(b) for b in kv.breakpoints], rng.random(200)])
            assert s.eval_many(ts).tolist() == [s.eval(t) for t in ts]


def boehm_reference(coarse, fine_kv):
    """Knot insertion one knot at a time by linear search, coefficient by
    coefficient in Python floats."""
    k = coarse.kv.k
    knots = list(coarse.kv.knots)
    coeffs = [float(c) for c in coarse.coeffs]
    for u in sorted(set(fine_kv.breakpoints) - set(coarse.kv.breakpoints)):
        m = max(i for i in range(len(knots) - 1) if knots[i] <= u < knots[i + 1])
        new = []
        for i in range(len(coeffs) + 1):
            if i <= m - k + 1:
                new.append(coeffs[i])
            elif i <= m:
                w = float((u - knots[i]) / (knots[i + k - 1] - knots[i]))
                new.append(w * coeffs[i] + (1.0 - w) * coeffs[i - 1])
            else:
                new.append(coeffs[i - 1])
        knots.insert(m + 1, u)
        coeffs = new
    return coeffs


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_refine_accum_one_call_and_chained(k):
    filt = FILTRATIONS["accum:1/3"]
    kvs = {level: KnotVector.from_filtration(filt, level, k) for level in (2, 4, 6)}
    coarse = ScalarSpline(kvs[2], np.random.default_rng(k).uniform(-1, 1, kvs[2].dim))
    once = refine_coeffs(coarse, kvs[6])
    chained = refine_coeffs(refine_coeffs(coarse, kvs[4]), kvs[6])
    # bit for bit against the per-coefficient reference, for both routes
    assert once.coeffs.tolist() == boehm_reference(coarse, kvs[6])
    middle = ScalarSpline(kvs[4], boehm_reference(coarse, kvs[4]))
    assert chained.coeffs.tolist() == boehm_reference(middle, kvs[6])
    # the two routes insert knots in different orders, so they agree to
    # rounding only (each insertion is a convex combination: a few ulps)
    assert np.max(np.abs(once.coeffs - chained.coeffs)) <= 1e-14
    ts = np.concatenate([[0.0, 1.0], np.random.default_rng(0).random(300)])
    for fine in (once, chained):
        assert np.max(np.abs(fine.eval_many(ts) - coarse.eval_many(ts))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spec, fine_level", [("dyadic", 8), ("padic:3", 5)])
def test_refine_matches_the_reference_from_level_one(spec, fine_level, k):
    coarse_kv = KnotVector.from_filtration(FILTRATIONS[spec], 1, k)
    fine_kv = KnotVector.from_filtration(FILTRATIONS[spec], fine_level, k)
    coarse = ScalarSpline(coarse_kv, np.random.default_rng(k).uniform(-1, 1, coarse_kv.dim))
    assert refine_coeffs(coarse, fine_kv).coeffs.tolist() == boehm_reference(coarse, fine_kv)


@pytest.mark.parametrize("spec, k, depth", [("dyadic", 2, 7), ("padic:3", 3, 4), ("accum:1/3", 4, 6)])
def test_unconditionality_ratio_unchanged_under_the_reference_refinement(
    spec, k, depth, monkeypatch
):
    from splinemart.harness import estimators
    from splinemart.projection import ProjectionContext

    ctx = ProjectionContext(FILTRATIONS[spec], k)
    kv = ctx.knot_vector(depth)
    f = ScalarSpline(kv, np.random.default_rng(depth).uniform(-1, 1, kv.dim))
    got = estimators.unconditionality_ratio(ctx, f, 1.5, 50, seed=k)
    monkeypatch.setattr(
        estimators,
        "refine_coeffs",
        lambda g, fine_kv: ScalarSpline(fine_kv, boehm_reference(g, fine_kv)),
    )
    assert estimators.unconditionality_ratio(ctx, f, 1.5, 50, seed=k) == got
