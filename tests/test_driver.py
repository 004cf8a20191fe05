import hashlib
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

import splinemart.construction.driver as driver
from splinemart.construction.core import BoundPattern, PeriodicFamily, slot_vectors
from splinemart.construction.driver import (
    DELTA, ClassRow, _bush_slots, _mix_value, build_sequence,
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
from splinemart.intervals import MeasurableUnion
from splinemart.harness import verify_sequence
from splinemart.witness import BushRep, XVec, bush_decompose

from fraction_oracle import moment_slotwise

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
    import json

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


# sha256 of `_fingerprint` per (spec, k, N, eta), recorded before the census
# was keyed by congruence class; the quotient must not move a single output
GOLDEN = [
("dyadic", 1, 2, "1/2", "0ef22372d60b3aea9e7d167d634e667bf3f3920e6f74cc117e6d67c35902d1ec"),
    ("dyadic", 1, 2, "2/5", "3fe70afad6d603fc7b90dc475913ef0b0c32978bc80676eb427d1b01ffb96cec"),
    ("dyadic", 1, 4, "1/2", "80d7b4ca8229cc6b4b59881dea9829455d509ddc9185707494080067edab8384"),
    ("dyadic", 1, 4, "2/5", "7f33aa81d13eb4fd390ac6f22b688547268e5e9774925c3d9cc859e516cdfae5"),
    ("dyadic", 2, 2, "1/2", "f1ea86af5e5038f2b3f0d2ba5e2878e51f247ba1f420baf1f90ee62ec6746a4e"),
    ("dyadic", 2, 2, "2/5", "424276bb89908f3ff971739a39cecfd764ae50dc81b61b0592f8c8e43d68c872"),
    ("dyadic", 2, 4, "1/2", "4bd3780f5f12ffc0705c76a6bc02a1c464af1742151640ffaf8b4736c726ccc3"),
    ("dyadic", 2, 4, "2/5", "afaa22ce900ccca8ae2389aaaefafdb06ef9606b3b8c66acf35e877318d4b58e"),
    ("dyadic", 3, 2, "1/2", "b9244276a475b978e98e25daccf7ba5af00e7740ac6d0dff4bbdf2cf9999a72e"),
    ("dyadic", 3, 2, "2/5", "1f0dd50214b7c1f75bbfd698d2d35fc6058c10a07af9f20d74c9091efd9e385b"),
    ("dyadic", 3, 4, "1/2", "0b08bb7e0800aa0869c0804f95ea61f058b5dc2c4ca8323baded1e5507a59d5e"),
    ("dyadic", 3, 4, "2/5", "dada9786a1a55e59aa5f128a4ae777dcc9ccff6c6a46f78cb86b3444e3e348f3"),
    ("padic:3", 2, 2, "1/2", "3a7b11493c48b787ee51abca4e3398393a32f70afbffdb19a909757f39eb174f"),
    ("padic:3", 2, 2, "2/5", "32c548edbb73529e36ba26a232704fbaa9830b7c0f47d8aa54bb76afffb633a8"),
    ("padic:3", 2, 4, "1/2", "5af33591e4d0c7b9f516c7c76176c780c2c7ac14b745b5e13bd66e156f19651c"),
    ("padic:3", 2, 4, "2/5", "beab43d19f53404ea05f6b7dcb4499427898ba27d8622110b03f18e2c1d0515e"),
]


def _fingerprint(seq) -> str:
    n = seq.num_steps
    payload = {
        "blob": seq.to_json(trace="full", seed=0),
        "masses": [[str(sd.e_mass), str(sd.c_mass), str(sd.const_mass)] for sd in seq.steps],
        "chain_sup": str(max(r.chain_sup for r in seq.final_rows)),
        "values": [
            [[c, str(v)] for c, v in sorted(seq.value_at(t, n).items())]
            for t in (F(1, 7), F(2, 5), F(5, 9), F(31, 32))
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "spec,k,steps,eta,digest",
    GOLDEN,
    ids=[f"{s}-k{k}-N{n}-eta{e.replace('/', '_')}" for s, k, n, e, _ in GOLDEN],
)
def test_outputs_match_golden_digests(spec, k, steps, eta, digest):
    seq = build_sequence(parse_filtration_spec(spec), k, F(eta), steps)
    assert _fingerprint(seq) == digest


# sha256 of `_depth_digest` per (spec, k, N) at eta = 1/2, recorded before
# bush values and slot vectors were summed in integers; these reach reps of
# up to 2**8 nodes, which the golden digests above (N <= 4) do not
DEPTH_PINS = [
    ("dyadic", 1, 8, "af8b7908f5546ba03ba0f92275720cb41c95af096681767e0c0a7cd199949b02"),
    ("dyadic", 2, 7, "cf870fbcd88d4bd1b5395683ffb06ba75577f64ee494bce4167a9c88f4053b63"),
    ("dyadic", 3, 5, "cef70fa90d92ba8202906933a2707a520a1086b8e1840be4d52e135b07709862"),
    ("padic:3", 2, 4, "8d1891a67dafa2111247ed0baf893bb01f7ff1206cfe56c79677aea7374c2e1f"),
]


def _depth_digest(seq) -> str:
    n = seq.num_steps
    payload = json.dumps({
        "dumps": seq.dumps(trace="full"),
        "E": [str(seq.e_measure(j)) for j in range(1, n + 1)],
        "C": [str(seq.c_measure(j)) for j in range(n + 1)],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(
    "spec,k,steps,digest", DEPTH_PINS, ids=[f"{s}-k{k}-N{n}" for s, k, n, _ in DEPTH_PINS]
)
def test_outputs_at_depth_match_pinned_digests(spec, k, steps, digest):
    seq = build_sequence(parse_filtration_spec(spec), k, HALF, steps)
    assert _depth_digest(seq) == digest


@pytest.fixture(scope="module")
def seq_k2_n5():
    return build_sequence(dyadic(), 2, HALF, 5)


@pytest.mark.parametrize("fixture", ["seq_k1", "seq_k2_n5"])
def test_census_rows_are_distinct_classes(fixture, request):
    seq = request.getfixturevalue(fixture)
    for sd in seq.steps:
        keys = [r.key for r in sd.rows_after]
        assert len(set(keys)) == len(keys)


def test_census_row_counts(seq_k2_n5):
    # one row per class: 8404 rows at step 5 when keyed by parent row
    assert [len(sd.rows_after) for sd in seq_k2_n5.steps] == [5, 13, 22, 33, 46]
    assert len(seq_k2_n5.final_rows) == 46


def test_shape_forgets_the_prefix_but_not_its_absence():
    rel_weights = [("0", F(1, 2)), ("10", F(1, 4)), ("11", F(1, 4))]

    def under(prefix):
        return BushRep(tuple((prefix + s, w) for s, w in rel_weights))

    a, b, root = under("0"), under("110"), under("")
    assert a.shape() == b.shape()
    assert root.shape() != a.shape()
    assert a.shape()[1:] == root.shape()[1:]  # only the empty-prefix flag differs
    # equal shapes decompose alike and keep their norms
    assert [w for w, _ in bush_decompose(a, 1)] == [w for w, _ in bush_decompose(b, 1)]
    assert a.value().sup_norm == b.value().sup_norm


def test_depth_seven_builds_and_verifies():
    seq = build_sequence(dyadic(), 1, HALF, 7)
    assert seq.num_steps == 7
    report = verify_sequence(seq)
    assert report.all_passed, report.render()


@pytest.fixture(scope="module")
def seq_deep():
    return build_sequence(parse_filtration_spec("padic:3"), 4, HALF, 3)


def reference_locate(pattern, t):
    """The linear scan over Fraction cell bounds that grid-unit bisection replaced."""
    for entry in pattern.cells:
        if isinstance(entry, PeriodicFamily):
            if entry.lo <= t < entry.hi:
                idx = min(int((t - entry.lo) / entry.period), entry.count - 1)
                local = t - idx * entry.period
                for c in entry.cells:
                    if c.lo <= local < c.hi:
                        return c, idx * entry.period
                return None
        elif entry.lo <= t < entry.hi:
            return entry, F(0)
    return None


def cell_boundaries(pattern):
    """Every top-level cell start, the interval end, and every family cell
    start in the first, second, a middle and the last instance."""
    for entry in pattern.cells:
        if isinstance(entry, PeriodicFamily):
            for idx in sorted({0, 1, entry.count // 2, entry.count - 1}):
                for c in entry.cells:
                    yield c.lo + idx * entry.period
        yield entry.lo
    yield pattern.interval.hi


@pytest.mark.parametrize("fixture", ["seq_k2_n5", "seq_deep"])
def test_locate_matches_linear_scan(fixture, request):
    seq = request.getfixturevalue(fixture)
    checked = 0
    for _, pat in seq.all_patterns():
        h = F(1, seq.filt.uniform_base**pat.K)
        for b in cell_boundaries(pat):
            for t in (b - h / 7, b, b + h / 7):
                want = reference_locate(pat, t)
                if want is None:
                    with pytest.raises(KeyError):
                        pat.locate(t)
                else:
                    assert pat.locate(t) == want
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


@pytest.mark.parametrize(
    "spec,k,steps,eta",
    [g[:4] for g in GOLDEN],
    ids=[f"{s}-k{k}-N{n}-eta{e.replace('/', '_')}" for s, k, n, e, _ in GOLDEN],
)
def test_closed_form_stopping_matches_binary_search(spec, k, steps, eta):
    seq = build_sequence(parse_filtration_spec(spec), k, F(eta), steps)
    for _, pat in seq.all_patterns():
        tr = pat.inner.trace
        assert (tr.j_indices, tr.int_f[: tr.M]) == reference_stopping(pat.inner)


def reference_census(rows, sd, p):
    """The census of f_{n+1} from the classes `rows` of f_n, by the per-cell
    spawn loop that the pattern ledger replaced: every cell instance of a
    pattern adds one class."""
    census = {}

    def add(row):
        if row.key in census:
            census[row.key].total_length += row.total_length
        else:
            census[row.key] = row

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
        bound = BoundPattern(pat, _bush_slots(row.rep_value, parts, pat))
        for entry in pat.cells:
            if isinstance(entry, PeriodicFamily):
                instances = [(c, entry.count) for c in entry.cells]
            else:
                instances = [(entry, 1)]
            for cell, count in instances:
                if cell.kind == "zone":
                    value, norm = parts[cell.m][1], part_norms[cell.m]
                elif cell.kind == "keep" and cell.m >= 0:
                    # an order-1 correction bump: the parent value plus w_m,
                    # which a rep holds only when w_m is zero
                    w = bound.w_vectors[cell.m]
                    assert not w, "order-1 correction is not zero"
                    value, norm = row.rep_value, row.rep_value.value().add(w).sup_norm
                elif cell.kind == "keep":
                    value, norm = row.rep_value, base_norm
                elif cell.kind == "mix":
                    value = _mix_value(parts, pat.inner.trace.betas)
                    norm = value.value().sup_norm
                elif cell.kind == "rbump":
                    value, norm = None, base_norm + (pat.trace.w_bound or F(0))
                else:
                    value, norm = None, max(base_norm, *part_norms)
                add(ClassRow(
                    kind="const" if value is not None else "zombie",
                    cell_kind=cell.kind,
                    rep_value=value,
                    total_length=(cell.hi - cell.lo) * count * atom_count,
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


@pytest.mark.parametrize(
    "spec,k,steps,eta",
    CENSUS_CASES,
    ids=[f"{s}-k{k}-N{n}-eta{e.replace('/', '_')}" for s, k, n, e in CENSUS_CASES],
)
def test_ledger_census_matches_per_cell_reference(spec, k, steps, eta):
    seq = build_sequence(parse_filtration_spec(spec), k, F(eta), steps)
    p = seq.filt.uniform_base
    rows = [ClassRow("const", "zone", BushRep.point(""), F(1), True, True)]
    for sd in seq.steps:
        for pat in sd.patterns.values():
            assert sum((w for _, w in pat.ledger), F(0)) == pat.interval.length
        want = reference_census(rows, sd, p)
        assert [(r.key, r.total_length) for r in sd.rows_after] == [
            (r.key, r.total_length) for r in want
        ]
        for r in sd.rows_after:
            if r.kind == "const":
                assert r.norm_bound == r.rep_value.value().sup_norm
        rows = sd.rows_after


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
        rows = [ClassRow("const", "zone", BushRep.point(""), F(1), True, True)]
        for sd in seq.steps:
            for row in rows:
                if row.kind != "const":
                    continue
                parts = bush_decompose(row.rep_value, DELTA, target_count=2)
                pat = sd.patterns[tuple(w for w, _ in parts)]
                points = [rep.value() for _, rep in parts]
                slots = slot_vectors(row.rep_value.value(), points, pat.inner.trace.betas)
                w = BoundPattern(pat, slots).w_vectors
                assert len(w) == 1 and all(len(v) == 0 for v in w)
            rows = sd.rows_after


def test_order_one_census_row_counts():
    # the bump atoms join the keep classes: [4, 11, 17, 23, 29, 35] while
    # they were a cell kind of their own
    seq = build_sequence(dyadic(), 1, HALF, 6)
    assert [len(sd.rows_after) for sd in seq.steps] == [3, 8, 12, 16, 20, 24]


def _scale_one_correction(lemma_moments):
    """lemma_moments with one w_data coefficient of each pattern scaled by
    1 + 10^-6, so the order-1 correction of its first class is not zero."""

    def faulty(*args, **kwargs):
        pat = lemma_moments(*args, **kwargs)
        i = next(i for i, data in enumerate(pat.w_data) if data)
        coef, key = pat.w_data[i][0]
        pat.w_data[i][0] = (coef * (1 + F(1, 10**6)), key)
        return pat

    return faulty


def test_nonzero_order_one_correction_is_refused(monkeypatch):
    monkeypatch.setattr(driver, "lemma_moments", _scale_one_correction(driver.lemma_moments))
    with pytest.raises(AssertionError, match="order-1 moment correction is not zero"):
        build_sequence(dyadic(), 1, HALF, 2)


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
