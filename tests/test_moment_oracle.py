"""Check (1)'s moment oracle: the closed form of a run's moments, the
instance sums of a periodic group, and the slot moments of whole run
tables, each against an independent reference; and faults that check (1)
must catch."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, bspline_basis_set, symbols

import splinemart.cardinal as cardinal
import splinemart.rle as rle
from splinemart.construction import build_sequence
from splinemart.construction.core import RunGroup
from splinemart.filtration import parse_filtration_spec
from splinemart.harness import verify_sequence
from splinemart.harness.verify import _instance_sums, run_table_moments
from splinemart.rle import PeriodicSpline, RleSpline, UniformSpace

from fraction_oracle import moment_slotwise

F = Fraction
HALF = F(1, 2)
X = symbols("x")


def sympy_run_moment(space: UniformSpace, j0: int, j1: int, r: int, s: int) -> Fraction:
    """∫ (t - s h)**r Σ_{j=j0}^{j1} N_j(t) dt from sympy's B-spline basis on
    the knots of the run's supports, integrated exactly span by span."""
    k, h = space.k, Rational(1, space.num_atoms)
    knots = [(j0 - k + 1 + i) * h for i in range(j1 - j0 + k + 1)]
    total = Rational(0)
    for basis in bspline_basis_set(k - 1, knots, X):
        for lo, hi in zip(knots, knots[1:]):
            mid = (lo + hi) / 2
            piece = next(expr for expr, cond in basis.args if cond.subs(X, mid))
            anti = Poly((X - s * h) ** r * piece, X).integrate()
            total += anti.eval(hi) - anti.eval(lo)
    return F(int(total.p), int(total.q))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p, level", [(2, 6), (3, 4)])
def test_run_closed_form_matches_sympy(k, p, level):
    space = UniformSpace(p, level, k)
    # a single index, a run shorter than k (for k >= 3) and one longer than
    # k; origins left of the supports, at the run's first index and right of
    # the supports
    cases = ((k + 1, 1, 0), (k + 4, max(1, k - 1), k + 4), (3 * k + 5, k + 2, 4 * k + 9))
    for j0, length, s in cases:
        j1 = j0 + length - 1
        group = RunGroup(space, None, 1, [(j0, j1, ((("d", 0), (1, 1)),))])
        for r in range(k + 2):
            nums, den = run_table_moments([group], s * space.h, r)
            assert F(nums.get(("d", 0), 0), den) == sympy_run_moment(space, j0, j1, r, s)


def test_instance_sums_match_brute_sums():
    for n in range(1, 51):
        sums = _instance_sums(n, 7)
        assert sums == [sum(ell**m for ell in range(n)) for m in range(8)]


def test_periodic_group_moments_match_instance_by_instance():
    # a periodic group is its instances, each a plain group moved by the shift
    space = UniformSpace(3, 5, 3)
    entries = [(20, 21, ((("d", 0), (2, 3)),)), (23, 27, ((("d", 0), (-1, 1)), (("d", 1), (5, 1))))]
    shift, count = 11, 7
    periodic = RunGroup(space, shift, count, entries)
    for r in range(5):
        nums, den = run_table_moments([periodic], 4 * space.h, r)
        want: dict = {}
        for ell in range(count):
            moved = [(j0 + ell * shift, j1 + ell * shift, slots) for j0, j1, slots in entries]
            inst, iden = run_table_moments([RunGroup(space, None, 1, moved)], 4 * space.h, r)
            for key, n in inst.items():
                want[key] = want.get(key, 0) + F(n, iden)
        assert {key: F(n, den) for key, n in nums.items()} == want


@st.composite
def deep_periodic_splines(draw):
    """A multi-run base with fractional coefficients, repeated up to 3**600
    times on a p-ary grid (p in 2, 3, 5) of order k <= 4, at the shallowest
    level that holds every instance or deeper, up to about level 1,000."""
    p, k = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4))
    first = k - 1 + draw(st.integers(0, 40))
    ends = sorted(draw(st.lists(st.integers(0, 30), min_size=2, max_size=8, unique=True)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=60).filter(bool)
    runs = [(first + j0, first + j1, draw(coeffs)) for j0, j1 in zip(ends[::2], ends[1::2])]
    steps = runs[-1][1] - runs[0][0] + 2 + draw(st.integers(0, 9))  # RunGroup: span < shift
    # small counts, counts near a power of 3 (the construction's are p**s - 2)
    # and counts of any size up to 3**600
    count = draw(st.one_of(
        st.integers(1, 5),
        st.builds(lambda e, d: max(1, 3**e + d), st.integers(0, 600), st.integers(-2, 2)),
        st.integers(1, 3**600),
    ))
    level = 1
    while p**level <= runs[-1][1] + steps * (count - 1):  # the last interior index is p**level - 1
        level += 1
    space = UniformSpace(p, level + draw(st.integers(0, max(0, 1000 - level))), k)
    return PeriodicSpline(RleSpline(space, runs), steps * space.h, count)


@settings(max_examples=150, deadline=None)
@given(per=deep_periodic_splines(), data=st.data())
def test_periodic_moments_match_the_run_table_oracle_at_depth(per, data):
    # run_table_moments sums the instances through Stirling numbers and
    # takes the runs' moments from truncated-power ramps: no arithmetic in
    # common with the grid-unit table of PeriodicSpline.moment
    space = per.space
    origin = data.draw(st.integers(-50, space.num_atoms)) * space.h
    group = RunGroup(space, per.index_shift, per.count,
                     [(j0, j1, ((("d", 0), (c.numerator, c.denominator)),))
                      for j0, j1, c in per.base.runs])
    for r in range(space.k + 2):
        nums, den = run_table_moments([group], origin, r)
        assert per.moment(r, origin) == F(nums.get(("d", 0), 0), den)


@pytest.mark.parametrize(
    "spec, k, steps",
    [("dyadic", 1, 5), ("dyadic", 2, 5), ("dyadic", 3, 5), ("padic:3", 2, 3), ("padic:3", 4, 3)],
)
def test_run_table_moments_match_the_term_moments(spec, k, steps):
    seq = build_sequence(parse_filtration_spec(spec), k, HALF, steps)
    nonzero = 0
    for _n, pat in seq.all_patterns():
        for r in range(k + 2):
            nums, den = run_table_moments(pat.run_table, pat.interval.lo, r)
            got = {key: F(n, den) for key, n in nums.items() if n}
            assert got == {key: v for key, v in moment_slotwise(pat, r).items() if v}
            if r < k:
                assert not got
            nonzero += len(got)
    assert nonzero > 0  # orders k and k + 1 do not vanish


def test_check_one_uses_no_build_moment_code(monkeypatch):
    seq = build_sequence(parse_filtration_spec("padic:3"), 4, HALF, 2)

    def boom(*args, **kwargs):
        raise RuntimeError("build moment code called")

    for owner, name in [
        (cardinal, "power_sum"),
        (cardinal, "moment_weights"),
        (cardinal, "cardinal_moment"),
        (rle, "power_sum"),
        (rle, "moment_weights"),
        (rle.RleSpline, "moment"),
        (rle.RleSpline, "grid_moments"),
        (rle.PeriodicSpline, "moment"),
    ]:
        monkeypatch.setattr(owner, name, boom)
    for _n, pat in seq.all_patterns():
        pat.__dict__.pop("run_table", None)  # rebuilt under the patches
    report = verify_sequence(seq)
    (entry,) = [e for e in report.entries if "(1)" in e.name]
    assert entry.passed, entry.location
    patterns = len(list(seq.all_patterns()))
    assert entry.measured == f"exhaustive over {patterns} patterns, orders 0..3"
    assert report.all_passed, report.render()


@pytest.mark.parametrize(
    "fault, spec, k",
    [
        ("w_data", "padic:3", 4),
        ("w_data", "dyadic", 1),
        ("w_data", "dyadic", 2),
        ("periodic_base", "dyadic", 2),
        ("periodic_base", "padic:3", 4),
    ],
)
def test_check_one_names_a_moment_fault_under_python_O(fault, spec, k):
    # w_data: one correction coefficient scaled by 1 + 10^-6 (every numerator
    # over w_den 10^6, that one 10^6 + 1 times its own) before the run
    # table is built; periodic_base: one coefficient of a periodic group's
    # base run raised by 1 in the table itself
    code = textwrap.dedent(
        f"""
        from fractions import Fraction
        from splinemart.construction import build_sequence
        from splinemart.filtration import parse_filtration_spec
        from splinemart.harness import verify_sequence

        assert False, "asserts are stripped under -O"

        seq = build_sequence(parse_filtration_spec({spec!r}), {k}, Fraction(1, 2), 2)
        n, pat = next(seq.all_patterns())
        if {fault!r} == "w_data":
            i = next(i for i, data in enumerate(pat.w_data) if data)
            num, key = pat.w_data[i][0]
            pat.w_data = [[(m * 10**6, s) for m, s in data] for data in pat.w_data]
            pat.w_data[i][0] = (num * (10**6 + 1), key)
            pat.w_den *= 10**6
            pat.__dict__.pop("run_table", None)
        else:
            group = next(g for g in pat.run_table if g.count > 1)
            j0, j1, ((key, c), *rest) = group.entries[0]
            group.entries[0] = (j0, j1, ((key, c + group.den), *rest))
        report = verify_sequence(seq)
        (entry,) = [e for e in report.entries if "(1)" in e.name]
        if entry.passed:
            raise SystemExit("check (1) passed")
        print(f"step {{n}}, slot {{key}}, order 0: moment ")
        print(entry.location)
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
    assert run.returncode == 0, run.stderr + run.stdout
    want, location = run.stdout.splitlines()
    assert location.startswith(want)
