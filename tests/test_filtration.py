import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.errors import CapacityError, DegenerateInputError
from splinemart.filtration import (
    AccumulatingFiltration,
    FileFiltration,
    dyadic,
    UniformFiltration,
    equal_measure_split,
    gamma_partition,
    parse_filtration_spec,
)
from splinemart.intervals import Interval, MeasurableUnion, frac, measure_in

F = Fraction


def brute_measure(iv, v, grid=10000):
    """Independent oracle: count grid cells whose midpoint lies in iv ∩ v."""
    total = F(0)
    step = iv.length / grid
    for i in range(grid):
        mid = iv.lo + step * i + step / 2
        if any(lo <= mid <= hi for lo, hi in v.pieces):
            total += step
    return total


def test_dyadic_atoms_root_and_quarters():
    f = dyadic()
    assert f.breakpoints(0) == [0, 1]
    assert f.breakpoints(2) == [0, F(1, 4), F(1, 2), F(3, 4), 1]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_atoms_partition_and_refine(p, level):
    f = UniformFiltration(p)
    bps = f.breakpoints(level)
    atoms = [Interval(a, b) for a, b in zip(bps, bps[1:])]
    assert atoms[0].lo == 0 and atoms[-1].hi == 1
    assert sum(a.length for a in atoms) == 1
    for a, b in zip(atoms, atoms[1:]):
        assert a.hi == b.lo
    coarse = set(f.breakpoints(level))
    fine = set(f.breakpoints(level + 1))
    assert coarse <= fine


def test_accumulating_new_breakpoints_near_point():
    f = AccumulatingFiltration(F(1, 2))
    new = set(f.breakpoints(3)) - set(f.breakpoints(2))
    assert new
    for t in new:
        assert abs(t - F(1, 2)) <= F(1, 8)
    assert f.limit_set.measure == 0


def test_uniform_levels_past_the_atom_cap_are_refused():
    f = dyadic()
    assert len(f.breakpoints(16)) == 2**16 + 1
    with pytest.raises(CapacityError):
        f.breakpoints(17)


def test_file_filtration_roundtrip(tmp_path):
    path = tmp_path / "filt.txt"
    path.write_text("V: 0 1/2\n0 1\n0 1/2 1\n0 1/4 1/2 1\n")
    f = parse_filtration_spec(f"file:{path}")
    assert f.limit_set == MeasurableUnion([(0, F(1, 2))])
    assert f.breakpoints(2) == [0, F(1, 4), F(1, 2), 1]
    with pytest.raises(CapacityError):
        f.breakpoints(3)


def test_file_filtration_rejects_non_nested(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("V: 0 1\n0 1/3 1\n0 1/2 1\n")
    with pytest.raises(ValueError):
        parse_filtration_spec(f"file:{path}")


@pytest.mark.parametrize(
    "text", ["V: 0 1\n0 1\n0 1/2 3/2\n", "V: 0 1\n0 1\n-1/4 0 1/2 1\n", "V: 0 2\n0 1\n"]
)
def test_file_filtration_rejects_values_outside_the_unit_interval(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        parse_filtration_spec(f"file:{path}")


def test_measure_in_basics():
    v = MeasurableUnion([(0, F(1, 2))])
    assert measure_in(Interval(0, 1), MeasurableUnion.full()) == 1
    assert measure_in(Interval(F(1, 4), F(3, 4)), v) == F(1, 4)


def test_measure_in_matches_brute_force():
    rng = random.Random(7)
    v = MeasurableUnion(
        [(F(1, 10), F(2, 10)), (F(3, 10), F(45, 100)), (F(1, 2), F(6, 10)),
         (F(7, 10), F(71, 100)), (F(9, 10), F(95, 100))]
    )
    for _ in range(20):
        a = F(rng.randrange(0, 900), 1000)
        b = a + F(rng.randrange(1, 1000 - int(a * 1000)), 1000)
        iv = Interval(a, min(b, F(1)))
        exact = measure_in(iv, v)
        approx = brute_measure(iv, v)
        assert abs(exact - approx) <= iv.length / 1000


def test_measure_additive_and_monotone():
    v = MeasurableUnion([(F(1, 8), F(5, 8))])
    left, right = Interval(0, F(1, 2)), Interval(F(1, 2), 1)
    assert measure_in(left, v) + measure_in(right, v) == measure_in(Interval(0, 1), v)
    assert measure_in(left, v) <= measure_in(Interval(0, 1), v)


def test_equal_measure_split_uniform():
    parts = equal_measure_split(Interval(0, 1), MeasurableUnion.full(), 4)
    assert [p.hi for p in parts] == [F(1, 4), F(1, 2), F(3, 4), F(1)]


def test_equal_measure_split_half_support():
    v = MeasurableUnion([(0, F(1, 2))])
    parts = equal_measure_split(Interval(0, 1), v, 4)
    assert [p.hi for p in parts[:3]] == [F(1, 8), F(1, 4), F(3, 8)]
    assert parts[3] == Interval(F(3, 8), 1)
    for p in parts:
        assert measure_in(p, v) == F(1, 8)


def test_equal_measure_split_single():
    iv = Interval(F(1, 3), F(2, 3))
    assert equal_measure_split(iv, MeasurableUnion.full(), 1) == [iv]


def test_equal_measure_split_degenerate():
    v = MeasurableUnion([(F(1, 2), F(1, 2))])
    with pytest.raises(DegenerateInputError):
        equal_measure_split(Interval(0, 1), v, 2)


def test_gamma_partition_examples():
    n, parts, gamma = gamma_partition(
        Interval(0, 1), MeasurableUnion.full(), frac("3/10"), frac("1/2")
    )
    assert (n, gamma) == (4, [2, 3])

    v = MeasurableUnion([(0, F(1, 2))])
    n, parts, gamma = gamma_partition(Interval(0, 1), v, F(1), F(1, 2))
    assert (n, gamma) == (4, [2, 3])
    mass = sum(measure_in(parts[ell - 1], v) for ell in gamma)
    assert mass == F(1, 4)

    n, parts, gamma = gamma_partition(Interval(0, 1), MeasurableUnion.full(), F(1, 4), F(1))
    assert n == 1 and parts == [Interval(0, 1)] and gamma == []


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(1, 99),
    width=st.integers(1, 40),
    e1=st.fractions(min_value=F(1, 50), max_value=1),
    e2=st.fractions(min_value=F(1, 10), max_value=F(9, 10)),
)
def test_gamma_partition_postconditions(num, width, e1, e2):
    iv = Interval(F(num, 140), min(F(num, 140) + F(width, 70), F(1)))
    v = MeasurableUnion([(0, F(1, 3)), (F(2, 5), F(3, 5)), (F(17, 20), 1)])
    if measure_in(iv, v) == 0:
        return
    n, parts, gamma = gamma_partition(iv, v, e1, e2)
    total = measure_in(iv, v)
    # pieces cover iv consecutively with exactly equal masses
    assert parts[0].lo == iv.lo and parts[-1].hi == iv.hi
    for p in parts:
        assert n * measure_in(p, v) == total
    for a, b in zip(parts, parts[1:]):
        assert a.hi == b.lo
    assert all(2 <= ell <= n - 1 for ell in gamma)
    mass = sum((measure_in(parts[ell - 1], v) for ell in gamma), F(0))
    assert mass >= (1 - e2) * total
