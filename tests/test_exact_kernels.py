"""The integer kernels of the exact engine against plain Fraction references.

Moments, the moment-matrix inverse and the span values sum integer
numerators over one common denominator; each is checked here against a
formula that takes one Fraction operation per term, and the checks that
guard them (exact cancellation, the run-table invariants) are shown to
fire when a numerator is wrong.
"""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinemart.construction.lemma as lemma
from splinemart.cardinal import _local_spans, cardinal_moment, moment_weights, span_numerators
from splinemart.construction.core import ConstructionContext, RunGroup
from splinemart.errors import PreconditionError
from splinemart.filtration import parse_filtration_spec
from splinemart.intervals import Interval
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace

from fraction_oracle import span_polynomial, span_value
from pins import SPAN_TABLE_DIGEST

F = Fraction
HALF = F(1, 2)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=20)


@st.composite
def rle_splines(draw):
    """Multi-run splines of order k <= 4 on p-ary grids, p in {2, 3}."""
    p, level, k = draw(st.sampled_from([2, 3])), draw(st.integers(3, 4)), draw(st.integers(1, 4))
    sp = UniformSpace(p, level, k)
    lo, hi = sp.interior_range()
    ends = sorted(draw(st.lists(st.integers(lo, hi), min_size=2, max_size=8, unique=True)))
    coeffs = fractions.filter(bool)
    return RleSpline(sp, [(j0, j1, draw(coeffs)) for j0, j1 in zip(ends[::2], ends[1::2])])


def per_run_moment(sp, runs, r, origin):
    """∫ (t - origin)**r f(t) dt for the spline of these runs, as Σ over
    runs and indices of c h**(r+1) Σ_q C(r,q) mu_q (j - k + 1 - s)**(r-q),
    one Fraction term at a time."""
    s = origin / sp.h
    total = F(0)
    for j0, j1, c in runs:
        for j in range(j0, j1 + 1):
            x = j - sp.k + 1 - s
            for q in range(r + 1):
                total += c * sp.h ** (r + 1) * comb(r, q) * cardinal_moment(sp.k, q) * x ** (r - q)
    return total


@settings(max_examples=200, deadline=None)
@given(f=rle_splines(), r=st.integers(0, 5), origin_index=st.integers(-100, 100))
def test_rle_moment_matches_the_per_run_fraction_formula(f, r, origin_index):
    origin = origin_index * f.space.h
    assert f.moment(r, origin) == per_run_moment(f.space, f.runs, r, origin)


@settings(max_examples=150, deadline=None)
@given(
    f=rle_splines(),
    r=st.integers(0, 5),
    origin_index=st.integers(-100, 100),
    gap=st.integers(0, 5),
    count=st.integers(1, 6),
    scale=fractions.filter(bool),
)
def test_periodic_moment_matches_the_sum_over_instances(f, r, origin_index, gap, count, scale):
    bounds = f.index_bounds()
    if bounds is None:
        return
    f = RleSpline(f.space, [(j0, j1, scale * c) for j0, j1, c in f.runs])
    origin = origin_index * f.space.h
    steps = bounds[1] - bounds[0] + 1 + gap
    per = PeriodicSpline(f, steps * f.space.h, count)
    # instance ell is the base moved by ell * steps indices; it may reach
    # past the space, so its runs are summed directly
    instances = [
        [(j0 + ell * steps, j1 + ell * steps, c) for j0, j1, c in f.runs] for ell in range(count)
    ]
    want = sum((per_run_moment(f.space, runs, r, origin) for runs in instances), F(0))
    assert per.moment(r, origin) == want


def fraction_rank(a):
    """Rank of a rational matrix by Fraction elimination."""
    m = [row[:] for row in a]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[draw(fractions) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(a=square_matrices())
def test_invert_exact_inverts_or_refuses_a_singular_matrix(a):
    n = len(a)
    if fraction_rank(a) < n:
        with pytest.raises(PreconditionError, match="singular"):
            lemma.invert_exact(a)
        return
    nums, den = lemma.invert_exact(a)
    assert den > 0
    inv = [[F(v, den) for v in row] for row in nums]
    for i in range(n):
        for j in range(n):
            assert sum(inv[i][q] * a[q][j] for q in range(n)) == (1 if i == j else 0)


@settings(max_examples=100, deadline=None)
@given(a=square_matrices(), data=st.data())
def test_invert_exact_refuses_a_dependent_row(a, data):
    n = len(a)
    if n == 1:
        a = [[F(0)]]
    else:
        # the last row is a combination of the others
        weights = [data.draw(fractions) for _ in range(n - 1)]
        a[-1] = [sum(w * row[j] for w, row in zip(weights, a[:-1])) for j in range(n)]
    with pytest.raises(PreconditionError, match="singular"):
        lemma.invert_exact(a)


def fraction_solve(a, b):
    """x with a x = b for a non-singular rational a, by Fraction Gauss-Jordan
    elimination, one Fraction operation at a time."""
    n = len(a)
    m = [list(row) + [v] for row, v in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


@st.composite
def moment_systems(draw):
    """(M, d, zcols) as `solve_moments` takes them: k <= 4 integer rows M of
    up to 60 bits, some singular; row denominators d_j and per-order column
    denominators zd_j that are powers of p in {2, 3, 5, 6} of up to
    thousands of bits times a small cofactor; 0 to 4 slots whose numerators
    carry powers of p of up to thousands of bits too."""
    p, k = draw(st.sampled_from([2, 3, 5, 6])), draw(st.integers(1, 4))
    small = st.integers(-(2**60), 2**60)
    mrows = [[draw(small) for _ in range(k)] for _ in range(k)]
    if draw(st.integers(0, 4)) == 0:
        # the last row a combination of the others (zero when k = 1)
        coefs = [draw(st.integers(-3, 3)) for _ in range(k - 1)]
        mrows[-1] = [sum(c * row[i] for c, row in zip(coefs, mrows)) for i in range(k)]

    def den():
        return p ** draw(st.integers(0, 2500)) * draw(st.integers(1, 30))

    def num():
        return draw(small) * p ** draw(st.integers(0, 2500)) + draw(st.integers(-100, 100))

    dens = [den() for _ in range(k)]
    slots = draw(st.integers(0, 4))
    zcols = [([num() for _ in range(slots)], den()) for _ in range(k)]
    return mrows, dens, zcols


@settings(max_examples=200, deadline=None)
@given(system=moment_systems())
def test_solve_moments_matches_the_fraction_solve(system):
    mrows, dens, zcols = system
    k = len(mrows)
    if fraction_rank([[F(x) for x in row] for row in mrows]) < k:
        with pytest.raises(PreconditionError, match="singular"):
            lemma.invert_exact(mrows)
        return
    inverse = lemma.invert_exact(mrows)
    wnums, w_den = lemma.solve_moments(mrows, dens, inverse, zcols)
    a = [[F(x, dj) for x in row] for row, dj in zip(mrows, dens)]
    want = [
        fraction_solve(a, [-F(col[s], zd) for col, zd in zcols])
        for s in range(len(zcols[0][0]))
    ]
    assert [[F(n, w_den) for n in wn] for wn in wnums] == want
    # w_den is the reduced common denominator: the lcm of the coefficients'
    assert w_den == math.lcm(*(w.denominator for ws in want for w in ws))
    # a wrong inverse entry is refused whenever it would change w
    nums, den = inverse
    tampered = ([row[:] for row in nums], den)
    tampered[0][0][0] += 1
    if any(zcols[0][0]):
        with pytest.raises(AssertionError, match="moment correction failed to cancel exactly"):
            lemma.solve_moments(mrows, dens, tampered, zcols)
    else:
        assert lemma.solve_moments(mrows, dens, tampered, zcols) == (wnums, w_den)


@st.composite
def translate_families(draw):
    """A periodic spline and translates of it by delta grid steps of both
    signs (the same runs, instance spacing and count), on p-ary grids,
    p in {2, 3, 5}, of order k <= 4, with an origin on the grid."""
    p, k = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4))
    sp = UniformSpace(p, {2: 8, 3: 5, 5: 4}[p], k)  # >= 243 atoms
    coeffs = fractions.filter(bool)
    runs, j = [], 100
    for _ in range(draw(st.integers(1, 3))):
        j += draw(st.integers(0, 2))  # a gap, or none
        width = draw(st.integers(1, 3))
        runs.append((j, j + width - 1, draw(coeffs)))
        j += width
    span = j - 100
    count, shift = draw(st.integers(1, 4)), span + draw(st.integers(0, 4))
    deltas = draw(st.lists(st.integers(-60, 60).filter(bool), min_size=1, max_size=4))
    family = [
        PeriodicSpline(RleSpline(sp, [(j0 + d, j1 + d, c) for j0, j1, c in runs]), shift * sp.h, count)
        for d in [0, *deltas]
    ]
    return family, [0, *deltas], draw(st.integers(0, 30)) * sp.h


@settings(max_examples=100, deadline=None)
@given(case=translate_families())
def test_translate_class_moments_match_each_members_own(case):
    # one class, its first term's moments shifted by the binomial sum to
    # every other member, must give each member's own PeriodicSpline.moment
    family, deltas, origin = case
    terms = [(f, ("d", i)) for i, f in enumerate(family)]
    assert lemma.translate_classes(terms) == [list(enumerate(deltas))]
    keys = [key for _, key in terms]
    k = family[0].space.k
    zcols = lemma.slot_moment_columns(terms, keys, k, origin)
    for r, (col, zd) in enumerate(zcols):
        assert [F(n, zd) for n in col] == [f.moment(r, origin) for f in family]


def reference_moment(k, r):
    """∫ u^r B_k(u) du from the truncated-power spans: span i adds
    Σ_e c_e ∫₀¹ (x + i)^r x^e dx / (k-1)!, one Fraction per term."""
    return sum(
        (
            F(c * comb(r, q) * i ** (r - q), (e + q + 1) * factorial(k - 1))
            for i in range(k)
            for e, c in enumerate(span_polynomial(k, i))
            for q in range(r + 1)
        ),
        F(0),
    )


def test_span_table_and_moments_match_the_truncated_power_form():
    rows = []
    for k in range(1, 17):
        coeffs, den = _local_spans(k)
        assert den == factorial(k - 1)
        assert [tuple(reversed(p)) for p in coeffs] == [span_polynomial(k, i) for i in range(k)]
        rows.append(repr(_local_spans(k)))
        for r in range(9):
            assert cardinal_moment(k, r) == reference_moment(k, r)
            nums, wden = moment_weights(k, r)
            assert [F(n, wden) for n in nums] == [
                comb(r, q) * reference_moment(k, q) for q in range(r + 1)
            ]
            rows += [repr(cardinal_moment(k, r)), repr(moment_weights(k, r))]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == SPAN_TABLE_DIGEST


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 6), x=st.fractions(min_value=0, max_value=1, max_denominator=10**30))
def test_span_numerators_match_the_span_polynomials(k, x):
    if x == 1:
        return
    nums, den = span_numerators(k, x.numerator, x.denominator)
    assert den == span_numerators(k, 0, 1)[1] * x.denominator ** (k - 1)
    for i in range(k):
        want = span_value(k, i, x)
        assert F(nums[i], den) == want


# ---------------------------------------------------------------------------
# the checks still fire


@pytest.mark.parametrize("spec,k", [("dyadic", 1), ("dyadic", 2), ("dyadic", 3), ("padic:3", 2)])
def test_tampered_inverse_fails_the_exact_cancellation(spec, k, monkeypatch):
    invert = lemma.invert_exact

    def tampered(a):
        nums, den = invert(a)
        nums[0][0] += 1
        return nums, den

    ctx = ConstructionContext(parse_filtration_spec(spec), k)
    args = (ctx, Interval(0, 1), F(1, 4), 0)
    lemma.lemma_moments(lemma.correction_frame(*args, max_zombie_length=F(1)),
                        const_alphas=[HALF, HALF])
    # the frame takes the one inverse, so it is built after the patch
    monkeypatch.setattr(lemma, "invert_exact", tampered)
    frame = lemma.correction_frame(*args, max_zombie_length=F(1))
    with pytest.raises(AssertionError, match="moment correction failed to cancel exactly"):
        lemma.lemma_moments(frame, const_alphas=[HALF, HALF])


def test_tampered_inverse_fails_under_python_O():
    code = textwrap.dedent(
        """
        from fractions import Fraction
        import splinemart.construction.lemma as lemma
        from splinemart.construction.core import ConstructionContext
        from splinemart.filtration import parse_filtration_spec
        from splinemart.intervals import Interval

        assert False, "asserts are stripped under -O"

        invert = lemma.invert_exact

        def tampered(a):
            nums, den = invert(a)
            nums[-1][-1] -= 1
            return nums, den

        lemma.invert_exact = tampered
        ctx = ConstructionContext(parse_filtration_spec("padic:3"), 4)
        half = Fraction(1, 2)
        frame = lemma.correction_frame(
            ctx, Interval(0, 1), Fraction(1, 4), 0, max_zombie_length=Fraction(1)
        )
        try:
            lemma.lemma_moments(frame, const_alphas=[half, half])
        except AssertionError as exc:
            print(exc)
        else:
            raise SystemExit("tampered inverse accepted")
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
    assert "moment correction failed to cancel exactly" in run.stdout


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 6), fractions.filter(bool)),
        min_size=1,
        max_size=6,
    )
)
def test_run_group_refuses_overlapping_runs(runs):
    sp = UniformSpace(2, 6, 2)
    entries = [(j0, j0 + n, ((("d", 0), (c.numerator, c.denominator)),)) for j0, n, c in runs]
    ordered = sorted(entries, key=lambda e: e[0])
    overlap = any(lo <= hi for (_, hi, _), (lo, _, _) in zip(ordered, ordered[1:]))
    if overlap:
        with pytest.raises(AssertionError, match="overlap"):
            RunGroup(sp, None, 1, entries)
    else:
        group = RunGroup(sp, None, 1, entries)
        # every coefficient is its numerator over the group denominator
        for (_, _, ((_, want),)), (_, _, ((_, num),)) in zip(ordered, group.entries):
            assert F(num, group.den) == F(*want)
