import ast
import functools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinemart.cardinal as cardinal
import splinemart.construction.driver as driver
import splinemart.construction.lemma as lemma_module
from splinemart.construction.core import BoundPattern, PeriodicFamily
from splinemart.construction.driver import (
    DELTA, ClassRow, _bush_slots, build_sequence,
)
from splinemart.errors import (
    CapacityError,
    ConstructionPreconditionError,
    DomainError,
    PreconditionError,
)
from splinemart.filtration import (
    AccumulatingFiltration,
    FileFiltration,
    UniformFiltration,
    dyadic,
    parse_filtration_spec,
)
from splinemart.intervals import MeasurableUnion, long_decimals
from splinemart.harness import verify_sequence
from splinemart.witness import BushRep, XVec, bush_decompose

import fraction_oracle as oracle
from fraction_oracle import (
    GeneralRep, RationalBound, as_general, cell_ends, general_decompose, general_key,
    general_mix_reps, general_slot_vectors, grid_unit, moment_slotwise, reference_locate,
    slot_xvecs, unit_slots, w_fractions, w_vectors, xvec_numerators,
)
import pins
from test_construction import swapped_spans

F = Fraction
HALF = F(1, 2)


@pytest.fixture(scope="module")
def seq_k1():
    return build_sequence(dyadic(), 1, HALF, 3)


def test_f0_is_root_and_f1_takes_children(seq_k1):
    rng = random.Random(1)
    assert seq_k1.value_at(F(1, 3), 0) == XVec.zero()
    for t in seq_k1.sample_e_points(1, rng, 6):
        v = seq_k1.value_at(t, 1)
        assert v in (XVec({1: F(1)}), XVec({1: F(-1)}))  # the two root children
        assert seq_k1.sup_diff_at(t, 1) == 1


def test_value_at_refuses_points_outside_the_unit_interval():
    seq = build_sequence(dyadic(), 2, HALF, 3)
    # 4/3 and -2/3 once read as 1/3, the point of the same atom offset
    assert seq.value_at(F(1, 3), 3) != XVec.zero()
    for t in (F(4, 3), F(-2, 3), 1 + F(1, 2**70), -F(1, 2**70)):
        with pytest.raises(DomainError):
            seq.value_at(t, 3)
        with pytest.raises(DomainError):
            seq.sup_diff_at(t, 3)
    for t in (0, 1):
        assert seq.value_at(t, 3) == XVec.zero()
        assert seq.sup_diff_at(t, 3) == 0


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), True, False])
def test_walk_refuses_a_bool_or_a_non_finite_point(bad):
    # inf once escaped as OverflowError and nan as ValueError, while True
    # and False walked as t = 1 and t = 0; the walk now refuses each with an
    # explicit DomainError (holds under python -O) before it walks
    seq = build_sequence(dyadic(), 2, HALF, 2)
    calls = {
        "value_at": lambda: seq.value_at(bad, 2),
        "step_values": lambda: seq.step_values(bad, 2),
        "sup_diff_at": lambda: seq.sup_diff_at(bad, 2),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError, match="is not a finite rational"):
            call()
    # a finite float is an exact binary rational, and stays a point
    assert seq.value_at(0.375, 2) == seq.value_at(F(3, 8), 2)
    assert seq.sup_diff_at(0.375, 2) == seq.sup_diff_at(F(3, 8), 2)


WALK_STRING_CODE = """
from decimal import Decimal
from fractions import Fraction
from splinemart.construction.driver import build_sequence
from splinemart.errors import DomainError
from splinemart.filtration import dyadic

seq = build_sequence(dyadic(), 1, Fraction(1, 2), 2)
calls = {
    "value_at": seq.value_at,
    "step_values": seq.step_values,
    "sup_diff_at": seq.sup_diff_at,
}
for bad in ("1/0", "3/0", "x", None, Decimal("0.25"), [1, 2]):
    want = f"evaluation point {bad!r} is not a rational: a point is an int, a Fraction"
    for name, call in calls.items():
        try:
            call(bad, 2)
        except DomainError as exc:
            if want not in str(exc):
                raise SystemExit(f"{name}({bad!r}): {exc}")
        else:
            raise SystemExit(f"{name}({bad!r}) was accepted")
# a string that is a rational stays a point
if seq.value_at("3/8", 2) != seq.value_at(Fraction(3, 8), 2):
    raise SystemExit("value_at('3/8') differs from value_at(3/8)")
print("ok")
"""


@pytest.mark.parametrize("optimise", [False, True], ids=["python", "python-O"])
def test_walk_refuses_a_string_that_is_no_rational(optimise):
    # "1/0" once escaped from value_at, step_values and sup_diff_at as
    # ZeroDivisionError, and None or a Decimal as frac's TypeError; the walk
    # refuses each, and a malformed string, with an explicit DomainError
    # that names the point and the accepted types, under python -O too
    path = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, *(["-O"] if optimise else []), "-c", WALK_STRING_CODE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr + run.stdout
    assert run.stdout.strip() == "ok"


@pytest.mark.parametrize("k", [1, 3])
def test_step_walk_matches_two_separate_walks(k):
    """sup_diff_at reads f_{n-1}(t) off the walk to f_n(t); both must equal
    what value_at gives at n - 1 and n, zombie points included."""
    seq = build_sequence(dyadic(), k, HALF, 3)
    rng = random.Random(3)
    pts = [F(rng.randrange(1, 10**6), 10**6) for _ in range(40)] + seq.sample_e_points(3, rng, 6)
    for t in pts:
        for n in range(1, 4):
            before, after = seq.step_values(t, n)
            assert before == seq.value_at(t, n - 1) and after == seq.value_at(t, n)
            assert seq.sup_diff_at(t, n) == after.sub(before).sup_norm
    assert seq.step_values(F(1, 3), 0) == (XVec.zero(), XVec.zero())
    with pytest.raises(ValueError):
        seq.sup_diff_at(F(1, 3), 0)


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_step_accessors_refuse_a_step_that_is_not_an_int(bad):
    # True once read as step 1 and 1.0 or "1" escaped as a bare TypeError;
    # each accessor now refuses them with an explicit ValueError (holds
    # under python -O)
    seq = build_sequence(dyadic(), 2, HALF, 2)
    t = F(1, 3)
    calls = {
        "c_measure": lambda: seq.c_measure(bad),
        "e_measure": lambda: seq.e_measure(bad),
        "value_at": lambda: seq.value_at(t, bad),
        "step_values": lambda: seq.step_values(t, bad),
        "sup_diff_at": lambda: seq.sup_diff_at(t, bad),
        "sample_e_points": lambda: seq.sample_e_points(bad, random.Random(0), 2),
        "sample_e_intervals": lambda: seq.sample_e_intervals(bad, random.Random(0), 2),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"n must be an int: .* not {bad!r}"):
            call()
    assert seq.c_measure(1) == seq.steps[0].c_mass


def test_e1_measure_bound(seq_k1):
    # eta = 1/2: |E_1| >= 1 - 2^-1 * 1/2 = 3/4
    assert seq_k1.e_measure(1) >= F(3, 4)


def test_measures_all_steps(seq_k1):
    for n in range(1, 4):
        assert seq_k1.e_measure(n) >= 1 - F(1, 2**n) * HALF
        assert seq_k1.c_measure(n) >= 1 - F(1, 2 ** (n + 2)) * HALF


def test_levels_strictly_increasing(seq_k1):
    levels = seq_k1.m_levels
    assert levels[0] == 0
    assert all(a < b for a, b in zip(levels, levels[1:]))


def test_separation_exact_on_e_samples(seq_k1):
    rng = random.Random(7)
    for n in range(1, 4):
        for t in seq_k1.sample_e_points(n, rng, 4):
            assert seq_k1.sup_diff_at(t, n) >= 1


def test_class_lengths_partition(seq_k1):
    for sd in seq_k1.steps:
        assert sum((r.total_length for r in sd.rows_after), F(0)) == 1


def test_boundedness(seq_k1):
    sup = max(r.chain_sup for r in seq_k1.final_rows)
    assert sup <= 1 + seq_k1.eta / 4


@pytest.mark.parametrize("k", [2, 3])
def test_higher_orders_two_steps(k):
    seq = build_sequence(dyadic(), k, HALF, 2)
    rng = random.Random(k)
    for n in (1, 2):
        assert seq.e_measure(n) >= 1 - F(1, 2**n) * HALF
        for t in seq.sample_e_points(n, rng, 3):
            assert seq.sup_diff_at(t, n) >= 1
    # exact vanishing moments per pattern (martingale property)
    for _n, pat in seq.all_patterns():
        for j in range(k):
            mom = moment_slotwise(pat, j)
            parts_vals = mom.values()
            assert all(isinstance(v, F) for v in parts_vals)


def test_triadic_generator():
    seq = build_sequence(UniformFiltration(3), 1, HALF, 2)
    assert seq.e_measure(1) >= F(3, 4)
    rng = random.Random(0)
    for t in seq.sample_e_points(2, rng, 3):
        assert seq.sup_diff_at(t, 2) >= 1


def test_dichotomy_precondition():
    with pytest.raises(ConstructionPreconditionError):
        build_sequence(AccumulatingFiltration(HALF), 1, HALF, 2)


def test_file_filtration_capacity():
    filt = FileFiltration(
        MeasurableUnion.full(),
        [[F(0), F(1)], [F(0), HALF, F(1)], [F(0), F(1, 4), HALF, F(3, 4), F(1)]],
    )
    with pytest.raises(CapacityError):
        build_sequence(filt, 1, HALF, 1)


def test_eta_validation():
    with pytest.raises(PreconditionError):
        build_sequence(dyadic(), 1, F(3, 2), 1)
    with pytest.raises(PreconditionError):
        build_sequence(dyadic(), 1, HALF, 0)


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"])
@pytest.mark.parametrize("name", ["order", "steps"])
def test_non_int_order_or_steps_is_refused_before_any_build(name, bad, monkeypatch):
    # a float, a bool or a string is refused by name, not taken as k = 1 or
    # N = 1 or let through to fail deep in the build
    def no_build(*args, **kwargs):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(driver, "lemma_moments", no_build)
    args = {"order": 2, "steps": 2, name: bad}
    with pytest.raises(PreconditionError, match=f"{name} must be an int, not {bad!r}"):
        build_sequence(dyadic(), args["order"], HALF, args["steps"])


def test_zone_constancy_nearby_points(seq_k1):
    rng = random.Random(3)
    h = F(1, 2 ** seq_k1.m_levels[2])
    for t in seq_k1.sample_e_points(2, rng, 3):
        v = seq_k1.value_at(t, 2)
        assert seq_k1.value_at(t + h / 5, 2) == v
        assert seq_k1.value_at(t - h / 3, 2) == v


def test_eta_quarter_bounds_scale():
    seq = build_sequence(dyadic(), 1, F(1, 4), 2)
    for n in (1, 2):
        assert seq.e_measure(n) >= 1 - F(1, 2**n) * F(1, 4)


def test_json_roundtrip(seq_k1):
    blob = seq_k1.to_json(trace="full")
    encoded = json.dumps(blob)
    back = json.loads(encoded)
    assert back["k"] == 1
    assert len(back["E"]) == 3
    assert all(not row["failed"] for row in back["trace_summary"])


@pytest.mark.parametrize("trace", ["ful", "none", ""])
def test_result_record_refuses_an_unknown_trace(seq_k1, trace):
    for write in (seq_k1.to_json, seq_k1.dumps):
        with pytest.raises(ValueError, match="trace must be 'summary' or 'full'"):
            write(trace=trace)


@pytest.mark.parametrize("pin", pins.GOLDEN, ids=pins.case_id)
def test_outputs_match_golden_digests(pin):
    seq = pins.build(pin)
    rows = tuple(len(sd.rows_after) for sd in seq.steps)
    got = pin._replace(rows=rows, digest=pins.fingerprint(seq))
    assert got == pin, (
        f"{pins.case_id(pin)}: rows {pin.rows} -> {got.rows}, digest {pin.digest} -> {got.digest}"
    )


# deep bush reps (up to 2**8 nodes), and padic:3 at N = 4, at eta = 1/2
DEPTH_CASES = [("dyadic", 1, 8), ("dyadic", 2, 7), ("dyadic", 3, 5), ("padic:3", 2, 4)]


@pytest.mark.parametrize(
    "spec,k,steps", DEPTH_CASES, ids=[f"{s}-k{k}-N{n}" for s, k, n in DEPTH_CASES]
)
def test_outputs_at_depth_match_pinned_digests(spec, k, steps):
    """The outputs at depth -- `dumps(trace="full")`, |E_n| and |C_n| -- are
    the record `pins.fingerprint` hashes, so the table row's digest pins them."""
    pin = next(p for p in pins.GOLDEN if p[:4] == (spec, k, steps, "1/2"))
    seq = pins.build(pin)
    with long_decimals():
        record = seq.to_json(trace="full", seed=0)
        assert json.loads(seq.dumps(trace="full")) == json.loads(json.dumps(record))
    assert [e["measure"] for e in record["E"]] == [str(seq.e_measure(j)) for j in range(1, steps + 1)]
    assert record["C"] == [str(seq.c_measure(j)) for j in range(steps + 1)]


@pytest.fixture(scope="module")
def seq_k2_n5():
    return build_sequence(dyadic(), 2, HALF, 5)


@pytest.mark.parametrize("fixture", ["seq_k1", "seq_k2_n5"])
def test_census_rows_are_distinct_classes(fixture, request):
    seq = request.getfixturevalue(fixture)
    for sd in seq.steps:
        keys = [r.key for r in sd.rows_after]
        assert len(set(keys)) == len(keys)


def test_shape_forgets_the_prefix_but_not_its_absence():
    for depth in (0, 1, 3):
        a, b, root = BushRep("0", depth), BushRep("110", depth), BushRep("", depth)
        assert a.shape() == b.shape()
        assert root.shape() != a.shape()
        assert a.shape()[1:] == root.shape()[1:]  # only the empty-prefix flag differs
        assert a.shape() != BushRep("0", depth + 1).shape()
        # the general reference's shape, relabelled below the common
        # prefix, makes the same classes
        ga, gb, groot = (as_general(r).shape() for r in (a, b, root))
        assert ga == gb and groot != ga and ga[1:] == groot[1:]
        # equal shapes decompose alike and keep their norms
        assert [w for w, _ in bush_decompose(a, 1)] == [w for w, _ in bush_decompose(b, 1)]
        assert [w for w, _ in bush_decompose(a, 1)] == [w for w, _ in general_decompose(a, 1)]
        assert a.value().sup_norm == b.value().sup_norm == as_general(a).value().sup_norm
    # the general form's unequal weights have a shape of their own, which
    # no BushRep holds: the constructor refuses its weight tuple
    rel_weights = (("0", F(1, 2)), ("10", F(1, 4)), ("11", F(1, 4)))
    under = GeneralRep(tuple(("0" + s, w) for s, w in rel_weights))
    assert under.shape() == (False, rel_weights)
    with pytest.raises(ValueError, match="node path must be a binary word"):
        BushRep(under.weights)


def test_depth_seven_builds_and_verifies():
    seq = build_sequence(dyadic(), 1, HALF, 7)
    assert seq.num_steps == 7
    report = verify_sequence(seq)
    assert report.all_passed, report.render()


@pytest.fixture(scope="module")
def seq_deep():
    return build_sequence(parse_filtration_spec("padic:3"), 4, HALF, 3)


def cell_boundaries(pattern):
    """Every top-level cell start, the interval end, and every family cell
    start in the first, second, a middle and the last instance."""
    h = grid_unit(pattern)
    for entry in pattern.cells:
        if isinstance(entry, PeriodicFamily):
            for idx in sorted({0, 1, entry.count // 2, entry.count - 1}):
                for c in entry.cells:
                    yield (c.lo + idx * entry.period) * h
        yield entry.lo * h
    yield pattern.interval.hi


@pytest.mark.parametrize("fixture", ["seq_k2_n5", "seq_deep"])
def test_locate_matches_linear_scan(fixture, request):
    seq = request.getfixturevalue(fixture)
    checked = 0
    for _, pat in seq.all_patterns():
        scale = seq.filt.uniform_base**pat.K
        h = F(1, scale)
        for b in cell_boundaries(pat):
            for t in (b - h / 7, b, b + h / 7):
                want = reference_locate(pat, t)
                # locate takes the level-K atom of t and gives the shift in
                # level-K units
                u = math.floor(t * scale)
                if want is None:
                    with pytest.raises(KeyError):
                        pat.locate(u)
                else:
                    cell, shift = pat.locate(u)
                    assert (cell, F(shift, scale)) == want
                    checked += 1
    assert checked > 100


def grid_above(x, h):
    """Smallest multiple of h strictly greater than x."""
    return (math.floor(x / h) + 1) * h


def grid_below(x, h):
    """Largest multiple of h strictly less than x."""
    return (math.ceil(x / h) - 1) * h


def reference_stopping(inner):
    """j_indices and ∫f_m of the binary-search stopping scan over interval
    arithmetic, which the closed form replaced."""
    tr, sp = inner.trace, inner.space
    h, k = sp.h, sp.k
    a = inner.interval.lo
    d = inner.interval.length / tr.n_pieces
    p1 = a + d / 2
    u1 = grid_above(max(a, p1 - tr.eps3), h)
    v1 = grid_below(min(a + d, p1 + tr.eps3), h)

    def int_range(r, s):
        lo, hi = v1 + (r - 1) * d, u1 + (s + 1) * d
        jlo = math.floor(lo / h)
        if (jlo + 1) * h <= lo:
            jlo += 1
        jhi = math.ceil(hi / h) + k - 2
        if (jhi - k + 1) * h >= hi:
            jhi -= 1
        return (jhi - jlo + 1) * h

    j_indices, int_f = [], []
    for m in range(tr.M):
        r = (j_indices[-1] if j_indices else -1) + 2
        lo_s, hi_s = r, tr.blocks
        while lo_s < hi_s:
            mid = (lo_s + hi_s) // 2
            if int_range(r, mid) > tr.C * tr.alphas[m]:
                hi_s = mid
            else:
                lo_s = mid + 1
        j_indices.append(lo_s)
        int_f.append(int_range(r, lo_s))
    return tuple(j_indices), tuple(int_f)


# the reference scan runs interval arithmetic on every pattern: the table
# rows past N = 4 would add about 4 s
@pytest.mark.parametrize("pin", [pin for pin in pins.GOLDEN if pin.steps <= 4], ids=pins.case_id)
def test_closed_form_stopping_matches_binary_search(pin):
    seq = pins.build(pin)
    for _, pat in seq.all_patterns():
        tr = pat.inner.trace
        int_f = oracle.stopping_masses(tr)["int_f"]
        assert (tr.j_indices, int_f[: tr.M]) == reference_stopping(pat.inner)


def general_mix_value(parts, betas) -> GeneralRep:
    """xbar + sum beta_m (x_m - xbar) over the decomposed parts, for any
    weights w_m and betas: node coefficients (1 - sum beta) w_m + beta_m."""
    total = sum(betas, F(0))
    return general_mix_reps([((1 - total) * w + betas[m], rep) for m, (w, rep) in enumerate(parts)])


def reference_census(rows, sd, p):
    """The census of f_{n+1} from the classes `rows` of f_n, by the per-cell
    spawn loop that the pattern ledger replaced: every cell instance of a
    pattern adds one class. Mix cells take the general mix formula and the
    sup norm of its value, where the build recombines the parts and reuses
    the parent's norm. Classes key on the general form's shape
    (`general_key`)."""
    census = {}

    def add(row):
        key = general_key(row)
        if key in census:
            census[key].total_length += row.total_length
        else:
            census[key] = row

    h_n = F(1, p**sd.m_level)
    for row in rows:
        if row.kind != "const":
            add(replace(row))
            continue
        parts = bush_decompose(row.rep_value, DELTA, target_count=2)
        pat = sd.patterns[tuple(w for w, _ in parts)]
        atom_count = row.total_length / h_n
        base_norm = row.rep_value.value().sup_norm
        part_norms = [rep.value().sup_norm for _, rep in parts]
        bound = BoundPattern(pat, _bush_slots(row.rep_value, parts))
        for entry in pat.cells:
            if isinstance(entry, PeriodicFamily):
                instances = [(c, entry.count) for c in entry.cells]
            else:
                instances = [(entry, 1)]
            for cell, count in instances:
                c_lo, c_hi = cell_ends(pat, cell)
                if cell.kind == "zone":
                    value, norm = parts[cell.m][1], part_norms[cell.m]
                elif cell.kind == "keep" and cell.m >= 0:
                    # an order-1 correction bump: the parent value plus w_m,
                    # which a rep holds only when w_m is zero
                    w = w_vectors(w_fractions(pat), bound.slots)[cell.m]
                    assert not w, "order-1 correction is not zero"
                    value, norm = row.rep_value, row.rep_value.value().add(w).sup_norm
                elif cell.kind == "keep":
                    value, norm = row.rep_value, base_norm
                elif cell.kind == "mix":
                    value = general_mix_value(parts, pat.inner.trace.betas)
                    norm = value.value().sup_norm
                elif cell.kind == "rbump":
                    value, norm = None, base_norm + (pat.trace.w_bound or F(0))
                else:
                    value, norm = None, max(base_norm, *part_norms)
                add(ClassRow(
                    kind="const" if value is not None else "zombie",
                    cell_kind=cell.kind,
                    rep_value=value,
                    total_length=(c_hi - c_lo) * count * atom_count,
                    in_c=cell.kind == "zone",
                    in_e=cell.kind == "zone" and row.in_c,
                    norm_bound=norm,
                    chain_sup=max(row.chain_sup, norm),
                ))
    return list(census.values())


CENSUS_CASES = [("dyadic", k, 5, eta) for k in (1, 2, 3) for eta in ("1/2", "2/5")] + [
    ("padic:3", 2, 4, "1/2"),
    ("padic:3", 4, 3, "1/2"),
]


@pytest.mark.parametrize("case", CENSUS_CASES, ids=pins.case_id)
def test_ledger_census_matches_per_cell_reference(case):
    seq = pins.build(case)
    p = seq.filt.uniform_base
    rows = [ClassRow("const", "zone", BushRep(""), F(1), True, True)]
    for sd in seq.steps:
        for pat in sd.patterns.values():
            assert sum((w for _, w in oracle.ledger(pat)), F(0)) == pat.interval.length
        want = reference_census(rows, sd, p)
        assert [(general_key(r), r.total_length) for r in sd.rows_after] == [
            (general_key(r), r.total_length) for r in want
        ]
        for r in sd.rows_after:
            if r.kind == "const":
                assert r.norm_bound == r.rep_value.value().sup_norm
        rows = sd.rows_after


ORACLE_CASES = [
    (spec, k, 5 if k < 4 else 4, eta)
    for spec in ("dyadic", "padic:3", "padic:5")
    for k in (1, 2, 3, 4)
    for eta in ("1/2", "2/5", "4999/10000")
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=pins.case_id)
def test_integer_step1_and_census_match_the_fraction_oracle(case):
    seq = pins.build(case)
    for _, pat in seq.all_patterns():
        tr = pat.inner.trace
        want = oracle.fraction_stopping(pat.inner)
        got = {"j_indices": tr.j_indices, "betas": tr.betas, **oracle.stopping_masses(tr)}
        for name, value in got.items():
            assert value == want[name], name
        assert all(type(b) is F for b in tr.betas)
        assert tr.checks == want["checks"]
        # one child group per zone part and per other cell kind, with every
        # grid unit of the ledger
        groups = driver._child_groups(pat)
        assert len(groups) <= tr.M + 4
        assert sum(u for _, u in groups) == sum(u for _, u in pat.ledger_units)
    p = seq.filt.uniform_base
    rows = [ClassRow("const", "zone", BushRep(""), F(1), True, True)]
    for sd in seq.steps:
        want = oracle.fraction_census(rows, sd, p)
        assert [(r.key, r.total_length) for r in sd.rows_after] == [
            (r.key, r.total_length) for r in want
        ]
        assert all(type(r.total_length) is F for r in sd.rows_after)
        assert sd.c_mass == sum((r.total_length for r in want if r.in_c), F(0))
        assert sd.e_mass == sum((r.total_length for r in want if r.in_e), F(0))
        assert sd.const_mass == sum((r.total_length for r in want if r.kind == "const"), F(0))
        rows = sd.rows_after


COMPACT_CASES = CENSUS_CASES + [case for case in ORACLE_CASES if case not in CENSUS_CASES]


@pytest.mark.parametrize("case", COMPACT_CASES, ids=pins.case_id)
def test_compact_reps_match_the_general_reference(case):
    # every constant value the build carries: the census rows, and every
    # binding that the point walk and the E_n sampler reach
    seq = pins.build(case)
    rng = random.Random(5)
    for n in range(1, seq.num_steps + 1):
        points = seq.sample_e_points(n, rng, 3) + [F(rng.randrange(1, 10**6), 10**6) for _ in range(3)]
        for t in points:
            seq.sup_diff_at(t, n)
        seq.sample_e_intervals(n, rng, 2)
    reps = {r.rep_value for sd in seq.steps for r in sd.rows_after if r.kind == "const"}
    reps |= {binding for _, binding in seq._bound}
    assert any(rep.depth for rep in reps)  # mix children are among them
    classes: dict = {}  # compact shape -> the general shapes of its reps
    for rep in reps:
        general = as_general(rep)
        nums, (gnums, gden) = rep.numerators(), general.numerators()
        assert {c: F(n) for c, n in nums.items()} == {c: F(n, gden) for c, n in gnums.items()}
        assert rep.value() == general.value() == oracle.node_sum(general)
        assert rep.value().sup_norm == general.value().sup_norm
        parts, gparts = bush_decompose(rep, DELTA, 2), general_decompose(general, DELTA, 2)
        assert [(w, as_general(r)) for w, r in parts] == gparts
        classes.setdefault(rep.shape(), set()).add(general.shape())
    # the compact shape makes the general form's classes: one general shape
    # per compact shape, and no general shape under two
    assert all(len(shapes) == 1 for shapes in classes.values())
    assert len(set().union(*classes.values())) == len(classes)
    # every binding of the build and of the walks: the node-path slots are
    # the general slot vectors of (x_s, parts, betas), whose dmix is zero
    bindings = {key: (pattern, parts) for key, (pattern, parts, *_) in seq._bound.items()}
    rows = [ClassRow("const", "zone", BushRep(""), F(1), True, True)]
    for j, sd in enumerate(seq.steps):
        for row in rows:
            if row.kind == "const":
                parts = bush_decompose(row.rep_value, DELTA, target_count=2)
                bindings[j, row.rep_value] = sd.patterns[tuple(w for w, _ in parts)], parts
        rows = sd.rows_after
    for (_, binding), (pattern, parts) in bindings.items():
        points = [xvec_numerators(rep.value()) for _, rep in parts]
        nums, den = general_slot_vectors(
            xvec_numerators(binding.value()), points, pattern.inner.trace.betas
        )
        assert not nums[("dmix",)]
        assert slot_xvecs(_bush_slots(binding, parts)) == slot_xvecs(nums, den)


ORDER_ONE_CASES = [("dyadic", "1/2", 6), ("dyadic", "2/5", 6), ("padic:3", "1/2", 5),
                   ("padic:5", "1/2", 3)]


@pytest.mark.parametrize(
    "spec,eta,max_steps",
    ORDER_ONE_CASES,
    ids=[f"{s}-N{n}-eta{e.replace('/', '_')}" for s, e, n in ORDER_ONE_CASES],
)
def test_order_one_correction_vanishes_on_every_class(spec, eta, max_steps):
    # the census spawn takes the order-1 bump atoms as keep cells; that is
    # sound only if w = 0 for every class, not just a pattern's first
    filt = parse_filtration_spec(spec)
    for steps in range(1, max_steps + 1):
        seq = build_sequence(filt, 1, F(eta), steps)
        rows = [ClassRow("const", "zone", BushRep(""), F(1), True, True)]
        for sd in seq.steps:
            for row in rows:
                if row.kind != "const":
                    continue
                parts = bush_decompose(row.rep_value, DELTA, target_count=2)
                pat = sd.patterns[tuple(w for w, _ in parts)]
                points = [xvec_numerators(rep.value()) for _, rep in parts]
                xbar = xvec_numerators(row.rep_value.value())
                slots = general_slot_vectors(xbar, points, pat.inner.trace.betas)
                w = w_vectors(w_fractions(pat), *slots)
                assert len(w) == 1 and all(len(v) == 0 for v in w)
                assert RationalBound(pat, slots).w_norm() == 0
            rows = sd.rows_after


def test_one_correction_frame_per_step(monkeypatch):
    # every decomposition profile of a step shares the step's frame: the
    # moment matrix is inverted once per step (5 times, where a frame per
    # profile inverted it 15 times), the patterns share the bump splines,
    # and with equal weights each pattern's terms form two translate
    # classes, the parts and the mix term
    inversions = []
    invert = lemma_module.invert_exact
    monkeypatch.setattr(lemma_module, "invert_exact", lambda a: inversions.append(a) or invert(a))
    seq = build_sequence(dyadic(), 2, HALF, 5)
    assert len(inversions) == 5
    assert sum(len(sd.patterns) for sd in seq.steps) == 15
    for sd in seq.steps:
        pats = list(sd.patterns.values())
        for pat in pats:
            assert all(b is b0 for (b, _), (b0, _) in zip(pat.r_terms, pats[0].r_terms))
            classes = lemma_module.translate_classes(pat.terms)
            assert len(classes) == 2
            assert sorted(len(c) for c in classes) == [1, pat.inner.M]


def _scale_one_correction(lemma_moments):
    """lemma_moments with one w_data coefficient of each pattern scaled by
    1 + 10^-6, so the order-1 correction of its first class is not zero:
    every numerator goes over w_den 10^6, and that one gains 1 / 10^6."""

    def faulty(*args, **kwargs):
        pat = lemma_moments(*args, **kwargs)
        i = next(i for i, data in enumerate(pat.w_data) if data)
        n, key = pat.w_data[i][0]
        pat.w_data = [[(m * 10**6, k) for m, k in data] for data in pat.w_data]
        pat.w_data[i][0] = (n * (10**6 + 1), key)
        pat.w_den *= 10**6
        return pat

    return faulty


def test_nonzero_order_one_correction_is_refused(monkeypatch):
    monkeypatch.setattr(driver, "lemma_moments", _scale_one_correction(driver.lemma_moments))
    with pytest.raises(AssertionError, match="order-1 moment correction is not zero"):
        build_sequence(dyadic(), 1, HALF, 2)


def test_unequal_betas_are_refused(monkeypatch):
    # the mix cells take the parts recombined, which holds only when every
    # stopping beta is equal; a pattern whose betas differ must not bind
    lemma_moments = driver.lemma_moments

    def faulty(*args, **kwargs):
        pat = lemma_moments(*args, **kwargs)
        tr = pat.inner.trace
        tr.betas = (tr.betas[0] * (1 + F(1, 10**6)), *tr.betas[1:])
        return pat

    monkeypatch.setattr(driver, "lemma_moments", faulty)
    with pytest.raises(AssertionError, match="stopping betas are not all equal"):
        build_sequence(dyadic(), 2, HALF, 2)


def test_nonzero_order_one_correction_fails_the_cli_under_python_O():
    code = textwrap.dedent(
        """
        import sys
        import splinemart.construction.driver as driver
        from splinemart.cli import main
        from test_driver import _scale_one_correction

        assert False, "asserts are stripped under -O"

        driver.lemma_moments = _scale_one_correction(driver.lemma_moments)
        sys.exit(main(["construct", "--filtration", "padic:3", "--k", "1", "--steps", "2"]))
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
    assert run.returncode == 3, run.stderr + run.stdout
    assert "order-1 moment correction is not zero" in run.stderr


# ---------------------------------------------------------------------------
# the integer point walk and E_n sampler against the Fraction oracle walk

WALK_CASES = [
    ("dyadic", 1), ("dyadic", 2), ("dyadic", 3), ("dyadic", 4),
    ("padic:3", 2), ("padic:3", 4), ("padic:5", 4),
]
WALK_STEPS = 4


@functools.cache
def walk_sequence(spec, k):
    return build_sequence(parse_filtration_spec(spec), k, HALF, WALK_STEPS)


@pytest.mark.parametrize("spec,k", WALK_CASES)
def test_cells_are_grid_units_and_the_ledger_sums_their_fraction_widths(spec, k):
    # every lemma and inner Step-1 pattern of the sequence: each cell end
    # and period is an int, the cells tile [interval.lo p**K, interval.hi
    # p**K) in order, and the ledger is the per-cell sum of Fraction widths
    seq = walk_sequence(spec, k)
    for _, lemma in seq.all_patterns():
        for pat in (lemma, lemma.inner):
            h = grid_unit(pat)
            pos = pat.interval.lo / h
            want = {}
            for e in pat.cells:
                family = isinstance(e, PeriodicFamily)
                cells, count = (e.cells, e.count) if family else ((e,), 1)
                ends = [x for c in cells for x in (c.lo, c.hi)] + ([e.period] if family else [])
                assert all(type(x) is int for x in ends), e
                assert e.lo == pos < e.hi
                if family:
                    inner_pos = e.lo
                    for c in cells:
                        assert c.lo == inner_pos < c.hi
                        inner_pos = c.hi
                    assert inner_pos == e.lo + e.period
                    assert e.hi == e.lo + count * e.period
                pos = e.hi
                for c in cells:
                    lo, hi = cell_ends(pat, c)
                    want[(c.kind, c.m)] = want.get((c.kind, c.m), F(0)) + (hi - lo) * count
            assert pos == pat.interval.hi / h
            assert list(oracle.ledger(pat)) == list(want.items())


@st.composite
def walk_points(draw, seq):
    """A point of [0, 1]: a random rational, 0 or 1, an atom end or a cell
    end at some step's level, or a point of E_n as the sampler draws it,
    with the final level's denominator."""
    kind = draw(st.sampled_from(["rational", "end", "atom", "cell", "sample"]))
    if kind == "rational":
        return draw(st.fractions(min_value=0, max_value=1, max_denominator=10**12))
    if kind == "end":
        return F(draw(st.sampled_from([0, 1])))
    j = draw(st.integers(0, seq.num_steps - 1))
    scale = seq.filt.uniform_base ** seq.m_levels[j]
    atom = draw(st.integers(0, scale - 1))
    if kind == "atom":
        return F(atom + draw(st.integers(0, 1)), scale)
    if kind == "cell":
        pats = list(seq.steps[j].patterns.values())
        pat = pats[draw(st.integers(0, len(pats) - 1))]
        ends = [e.lo for e in pat.cells]
        for e in pat.cells:
            if isinstance(e, PeriodicFamily):
                shift = draw(st.integers(0, e.count - 1)) * e.period
                ends += [c.lo + shift for c in e.cells] + [e.cells[-1].hi + shift]
        ends = [u * grid_unit(pat) for u in ends]
        end = draw(st.sampled_from(ends + [pat.interval.hi]))
        return F(atom, scale) + end - pat.interval.lo
    n = draw(st.integers(1, seq.num_steps))
    return oracle.descend_random(seq, random.Random(draw(st.integers(0, 2**32))), n)


@pytest.mark.parametrize("spec,k", WALK_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_point_walk_matches_the_fraction_walk(spec, k, data):
    seq = walk_sequence(spec, k)
    t = data.draw(walk_points(seq))
    for n in range(seq.num_steps + 1):
        before, after = oracle.step_values(seq, t, n)
        assert seq.step_values(t, n) == (before, after), (t, n)
        assert seq.value_at(t, n) == after, (t, n)
        if n:
            assert seq.sup_diff_at(t, n) == after.sub(before).sup_norm, (t, n)


@pytest.mark.parametrize("spec,k", WALK_CASES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_sampler_matches_the_fraction_sampler(spec, k, seed, data):
    """Same cells and points from the same seed, and the generator left in
    the same state: verify and the result record draw on after them."""
    seq = walk_sequence(spec, k)
    n = data.draw(st.integers(1, seq.num_steps))
    ours, theirs = random.Random(seed), random.Random(seed)
    assert seq._descend_random_cell(ours, n) == oracle.descend_random_cell(seq, theirs, n)
    assert ours.getstate() == theirs.getstate()
    assert seq._descend_random(ours, n) == oracle.descend_random(seq, theirs, n)
    assert ours.getstate() == theirs.getstate()


def test_tampered_run_coefficient_changes_value_at(monkeypatch):
    """One coefficient numerator of the first step's run table, raised by
    one on a freshly built sequence before its first walk, changes f_1 at a
    point on that run: the coordinate table is built from the run table on
    the first walk, and kept."""
    seq = build_sequence(parse_filtration_spec("dyadic"), 2, HALF, WALK_STEPS)
    (pattern,) = seq.steps[0].patterns.values()
    group = pattern.run_table[0]
    j0, j1, slots = group.entries[0]
    sp = group.space
    # instance 0 of index origin + j0: N_j is non-zero in the middle of its
    # support [(j - k + 1) h, (j + 1) h), and the first step reads t itself
    t = (group.origin + j0 - sp.k + 1) * sp.h + sp.k * sp.h / 2
    # the reference walk reads the run table and builds no coordinate table;
    # an untampered build of the same sequence reads the same value
    value = oracle.step_values(seq, t, 1)[1]
    assert walk_sequence("dyadic", 2).value_at(t, 1) == value
    (key, c), *rest = slots
    monkeypatch.setattr(group, "entries", [(j0, j1, ((key, c + 1), *rest)), *group.entries[1:]])
    assert seq.value_at(t, 1) != value


def test_sup_diff_at_refuses_n_before_walking(seq_k1, monkeypatch):
    def walked(t, n):
        raise AssertionError("walked")

    monkeypatch.setattr(seq_k1, "step_values", walked)
    for n in (0, -1, seq_k1.num_steps + 1):
        with pytest.raises(ValueError, match="n out of range"):
            seq_k1.sup_diff_at(F(1, 3), n)


def test_step_indices_outside_their_range_are_refused():
    # a negative n once read the last steps from the end (c_measure(-1) was
    # C_N's mass), sample_e_intervals(0) returned [0, 1] and n = N + 1
    # escaped as a bare IndexError
    seq = build_sequence(dyadic(), 2, HALF, 2)
    rng = random.Random(0)
    measures = {"c_measure": seq.c_measure, "e_measure": seq.e_measure,
                "sample_e_intervals": lambda n: seq.sample_e_intervals(n, rng)}
    for name, call in measures.items():
        first = 0 if name == "c_measure" else 1
        for n in (-1, 0, seq.num_steps + 1):
            if n == first:
                continue
            with pytest.raises(ValueError, match=rf"n out of range: .* needs {first}\.\.2, not {n}"):
                call(n)
    assert seq.c_measure(0) == 1
    assert [seq.c_measure(n) for n in (1, 2)] == [sd.c_mass for sd in seq.steps]
    assert seq.e_measure(1) == seq.steps[0].e_mass
    assert len(seq.sample_e_intervals(2, rng)) == 4


def test_run_table_refuses_a_point_finer_than_its_spaces():
    seq = walk_sequence("dyadic", 2)
    (pattern,) = seq.steps[0].patterns.values()
    bound = BoundPattern(pattern, unit_slots(pattern)[0])
    with pytest.raises(PreconditionError, match="cannot read a point"):
        bound.g_numerators(1, 3, pattern.K + 1)


def table_points(seq, rng, cells: bool = True) -> list:
    """Points of [0, 1] for the walk: 0 and 1, two E_n sample points per
    step and, if `cells`, per step j the cell points and bump ends of the
    pattern that one sampled atom of level m_j reaches (the atom [0, 1) at
    step 0), moved into that atom."""
    points = {F(0), F(1)}
    for n in range(1, seq.num_steps + 1):
        points.update(seq.sample_e_points(n, rng, 2))
    for j in range(seq.num_steps if cells else 0):
        scale = seq.filt.uniform_base ** seq.m_levels[j]
        atom = math.floor(seq.sample_e_points(j, rng, 1)[0] * scale) if j else 0
        lo = F(atom, scale)
        pattern = list(oracle.fraction_steps(seq, lo, j + 1))[j][0].pattern
        for tau in [*oracle.cell_points(pattern), *oracle.bump_ends(pattern)]:
            t = lo + tau - pattern.interval.lo
            if t <= 1:
                points.add(t)
    return sorted(points)


def matches_the_fraction_walk(seq, t) -> bool:
    """Every (f_{n-1}(t), f_n(t)), n = 0 .. N, of the walk equals the
    reference walk's (`fraction_oracle.partial_sums`)."""
    sums = oracle.partial_sums(seq, t, seq.num_steps)
    return all(
        seq.step_values(t, n) == (sums[max(n - 1, 0)], sums[n]) for n in range(seq.num_steps + 1)
    )


# CENSUS_CASES + ORACLE_CASES, each with its cell points (about a thousand
# per case at k = 4)
@pytest.mark.parametrize("case", COMPACT_CASES, ids=pins.case_id)
def test_coordinate_tables_match_the_fraction_walk(case):
    seq = pins.build(case)
    for t in table_points(seq, random.Random(11)):
        assert matches_the_fraction_walk(seq, t), t


def test_coordinate_tables_match_the_fraction_walk_at_large_denominators():
    # E_n sample points at dyadic k=3 N=6 have denominators of thousands of bits
    seq = build_sequence(dyadic(), 3, HALF, 6)
    points = table_points(seq, random.Random(12), cells=False)
    assert max(t.denominator.bit_length() for t in points) > 2000
    for t in points:
        assert matches_the_fraction_walk(seq, t), t


def test_swapped_span_rows_fail_the_walk_comparison(monkeypatch):
    """Spans 0 and k-1 of B_3 traded in cardinal's table make a cut window of
    a small build differ from the reference walk, stopping at the first."""
    seq = build_sequence(dyadic(), 3, HALF, 2)
    points = table_points(seq, random.Random(11))
    assert all(matches_the_fraction_walk(seq, t) for t in points)
    monkeypatch.setattr(cardinal, "_local_spans", swapped_spans)
    assert not all(matches_the_fraction_walk(seq, t) for t in points)


def test_reference_walk_reads_no_engine_kernel():
    """The oracle's code names no span kernel, coordinate table, grid_units or .locate."""
    nodes = list(ast.walk(ast.parse(Path(oracle.__file__).read_text())))
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names = attrs | {getattr(n, "id", getattr(n, "name", None)) for n in nodes}  # Name, alias
    banned = {"span_numerators", "_local_spans", "coordinate_table", "grid_units"} & names
    banned |= {"locate"} & attrs
    assert not banned, sorted(banned)


def test_build_sequence_builds_no_coordinate_table(monkeypatch):
    """The build binds each pattern for its w_norm only; the first walk
    builds the tables."""
    def refused(self, level):
        raise AssertionError("the build read a coordinate table")

    with monkeypatch.context() as m:
        m.setattr(BoundPattern, "coordinate_table", refused)
        seq = build_sequence(parse_filtration_spec("padic:3"), 4, HALF, 3)
    seq.value_at(F(1, 3), 3)
    assert len(seq._bound) == 3
    assert all(bound._tables for _, _, _, bound, _, _ in seq._bound.values())
