import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinemart.construction as construction
from splinemart import harness
from splinemart.bspline import KnotVector, gram
from splinemart.cli import MAX_ORDER, MAX_TRIALS, main, trial_count
from splinemart.construction.core import LEVEL_CAP
from splinemart.errors import ConditioningError, InfeasibleStoppingError
from splinemart.filtration import dyadic, parse_filtration_spec
from splinemart.harness import verify_sequence
from splinemart.intervals import DECIMAL_DIGITS_CAP, frac, long_decimals


def test_construct_writes_json_and_verifies(tmp_path, capsys):
    out = tmp_path / "result.json"
    rc = main(
        [
            "construct",
            "--k",
            "1",
            "--eta",
            "1/2",
            "--steps",
            "2",
            "--out",
            str(out),
            "--trace",
            "full",
            "--verify",
        ]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["k"] == 1 and len(blob["levels"]) == 3
    err = capsys.readouterr().err
    assert "ALL CHECKS PASSED" in err


def test_verify_from_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["construct", "--k", "1", "--steps", "2", "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_from_file_checks_c_measures(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["construct", "--k", "1", "--steps", "2", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    blob["C"][2] = "1/2"  # below the (3d) bound 1 - 2^-4 eta
    out.write_text(json.dumps(blob))
    assert main(["verify", "--in", str(out)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and "|C_2 ∩ V|" in fails[0] and "(3d)" in fails[0]


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_verify_from_file_json_matches_a_fresh_verify(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["construct", "--k", "1", "--steps", "2", "--out", str(out)]) == 0
    assert main(["verify", "--k", "1", "--steps", "2", "--json"]) == 0
    fresh = _json_out(capsys)
    assert main(["verify", "--in", str(out), "--json"]) == 0
    recorded = _json_out(capsys)
    # the file holds the (3c)/(3d) measures and the trace rows: the same
    # entries the fresh build reports, in the same order
    names = ["|E_1| >= (1-2^-1 eta)|V| (3c)", "|C_1 ∩ V| bound (3d)",
             "|E_2| >= (1-2^-2 eta)|V| (3c)", "|C_2 ∩ V| bound (3d)", "trace inequalities"]
    assert recorded["passed"] and [c["name"] for c in recorded["checks"]] == names
    assert recorded["checks"] == [c for c in fresh["checks"] if c["name"] in names]


def test_verify_from_file_json_reports_a_low_c(tmp_path, capsys):
    low_c = tmp_path / "low_c.json"
    low_c.write_text('{"eta": "1/2", "E": [{"measure": "1"}], "C": ["1", "1/2"]}')
    assert main(["verify", "--in", str(low_c), "--json"]) == 1
    report = _json_out(capsys)
    assert not report["passed"]
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("|E_1| >= (1-2^-1 eta)|V| (3c)", True),
        ("|C_1 ∩ V| bound (3d)", False),
        ("trace inequalities", True),
    ]
    assert (report["checks"][1]["measured"], report["checks"][1]["bound"]) == ("0.5", "0.9375")


def test_failed_trace_checks_of_both_traces_reach_the_file_and_both_verify_paths(
    tmp_path, monkeypatch, capsys
):
    # every built sequence passes its trace checks, so fail one of each trace
    seq = construction.build_sequence(parse_filtration_spec("dyadic"), 1, Fraction(1, 2), 2)
    n, pat = list(seq.all_patterns())[-1]
    monkeypatch.setattr(pat.trace, "checks", pat.trace.checks + [("lemma probe", False)])
    monkeypatch.setattr(pat.inner.trace, "checks", pat.inner.trace.checks + [("probe", False)])
    failed = [name for row in seq.to_json()["trace_summary"] for name in row["failed"]]
    assert failed == ["lemma probe", "stopping probe"]
    entry = verify_sequence(seq).entries[-1]
    assert entry.name == "trace inequalities" and not entry.passed
    assert entry.measured == f"violations: {[(n, 'lemma probe'), (n, 'stopping probe')]}"
    out = tmp_path / "result.json"
    out.write_text(seq.dumps())
    assert main(["verify", "--in", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [entry.line()]


def test_result_file_round_trips_measures_past_the_digit_limit(tmp_path, monkeypatch, capsys):
    tiny = Fraction(1, 3**11000)  # 5,249 decimal digits in the denominator
    build = construction.build_sequence

    def deep_measures(*args):
        seq = build(*args)
        for sd in seq.steps:
            sd.e_mass = sd.c_mass = 1 - tiny
        return seq

    monkeypatch.setattr(construction, "build_sequence", deep_measures)
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "result.json"
    assert main(["construct", "--k", "1", "--steps", "2", "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit  # restored after each use
    with long_decimals():
        blob = json.loads(out.read_text())
        assert [frac(e["measure"]) for e in blob["E"]] == [1 - tiny] * 2
        assert [frac(c) for c in blob["C"][1:]] == [1 - tiny] * 2


def test_digit_cap_is_finite_and_covers_the_level_cap():
    # p**LEVEL_CAP has LEVEL_CAP * log10(p) digits: at most LEVEL_CAP for p <= 10
    assert LEVEL_CAP <= DECIMAL_DIGITS_CAP < float("inf")
    with long_decimals(), pytest.raises(ValueError, match="limit"):
        int("7" * (DECIMAL_DIGITS_CAP + 1))


def test_dumps_writes_integer_fields_past_the_digit_limit():
    seq = construction.build_sequence(parse_filtration_spec("dyadic"), 1, Fraction(1, 2), 2)
    huge = 3**11000  # 5,249 decimal digits
    for _, pat in seq.all_patterns():
        pat.inner.trace.j_indices = (huge,)
    limit = sys.get_int_max_str_digits()
    text = seq.dumps(trace="full", indent=2)
    assert sys.get_int_max_str_digits() == limit
    with long_decimals():
        blob = json.loads(text)
        assert blob == seq.to_json(trace="full")
    assert all(row["inner"]["j_indices"] == [huge] for row in blob["trace_summary"])


def test_overlapping_lifts_restore_the_limit_when_the_last_leaves():
    limit = sys.get_int_max_str_digits()
    first, second = long_decimals(), long_decimals()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)  # the other user is still converting
    assert sys.get_int_max_str_digits() == DECIMAL_DIGITS_CAP
    second.__exit__(None, None, None)
    assert sys.get_int_max_str_digits() == limit


def test_construct_verifies_on_a_composite_base(capsys):
    # 6 is no prime power: grid values have denominators such as 2 * 3**2,
    # which divide a power of 6 without being one
    argv = ["construct", "--filtration", "padic:6", "--k", "2", "--steps", "3", "--verify"]
    assert main(argv) == 0
    assert "ALL CHECKS PASSED" in capsys.readouterr().err


def test_verify_fresh_build(capsys):
    rc = main(["verify", "--k", "1", "--steps", "1", "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] is True


def test_constants_csv(capsys):
    rc = main(["constants", "--k", "1", "--levels", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "level,dimension,l1_norm"
    assert len(lines) == 4
    for line in lines[1:]:
        level, dim, norm = line.split(",")
        assert float(norm) == 1.0
        assert int(dim) == 2 ** int(level)


def test_constants_refuses_a_level_past_the_atom_cap(capsys):
    # refused before the sweep, so no row is printed
    assert main(["constants", "--k", "1", "--levels", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_uncond_json(capsys):
    rc = main(
        ["uncond", "--k", "1", "--p", "2.0", "--depth", "5", "--trials", "20", "--json"]
    )
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert abs(blob["max_ratio"] - 1.0) < 1e-9


def test_demo_convergence(capsys):
    rc = main(["demo-convergence", "--k", "1", "--depth", "10", "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["depth"] == 10


def test_dichotomy_error_exit_code(capsys):
    rc = main(["construct", "--k", "1", "--steps", "1", "--filtration", "accum:1/2"])
    assert rc == 2
    assert "measure zero" in capsys.readouterr().err


#: result files whose E and C lists hold a value no measure of a subset of
#: [0, 1] takes, or a |C_0 ∩ V| other than |V| = 1
IMPOSSIBLE_MEASURES = {
    "e_above_one": (["5"], ["1", "1"]),
    "e_negative": (["-1/2"], ["1", "1"]),
    "c_above_one": (["1"], ["1", "3/2"]),
    "c_negative": (["1"], ["1", "-1/4"]),
    "c0_below_one": (["1"], ["1/2", "1"]),
    "c0_absent": (["1"], []),
}

#: result files of no valid shape, with measures that all pass: a file of
#: N >= 1 steps holds a list of N entries in E and one of N + 1 in C
MALFORMED_SHAPES = {
    "c_too_short": (["1", "1"], ["1"]),
    "e_empty": ([], ["1"]),
    "c_not_a_list": (["1"], "11"),
}


#: filtration files with a breakpoint or a limit-set piece outside [0, 1]
OUT_OF_RANGE_FILTRATIONS = {
    "breakpoint_above_one": "V: 0 1\n0 1\n0 1/2 3/2\n",
    "breakpoint_below_zero": "V: 0 1\n0 1\n-1/4 0 1/2 1\n",
    "limit_set_past_one": "V: 0 2\n0 1\n0 1/2 1\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--k", "0"],
        ["construct", "--filtration", "padic:1"],
        ["construct", "--filtration", "bogus"],
        ["verify", "--in", "no-such-result.json"],
        ["uncond", "--p", "1"],
        ["verify", "--in", "empty.json"],
        ["verify", "--in", "bad_measure.json"],
        ["verify", "--in", "huge_measure.json"],
        ["construct", "--out", "no-such-dir/result.json"],
        ["constants", "--k", "1", "--levels", "1", "--csv", "no-such-dir/table.csv"],
        ["uncond", "--seed", "-1"],
        ["demo-convergence", "--seed", "-1"],
        ["construct", "--eta", "1/0"],
        ["verify", "--eta", "1/0"],
    ]
    + [["verify", "--in", f"{name}.json"] for name in {**IMPOSSIBLE_MEASURES, **MALFORMED_SHAPES}]
    + [
        ["verify", "--in", "failed_not_a_list.json"],
        ["verify", "--in", "c_true.json"],
        ["verify", "--in", "e_true.json"],
        # accum:1/3 breakpoints collide in binary64 from level 55
        ["constants", "--k", "3", "--levels", "56", "--filtration", "accum:1/3"],
    ]
    + [
        [*command, "--filtration", f"file:{name}.txt"]
        for name in OUT_OF_RANGE_FILTRATIONS
        for command in (["constants", "--levels", "1"], ["uncond", "--depth", "1"],
                        ["demo-convergence", "--depth", "1"])
    ]
    + [
        # accum:1/3 atoms at level 54 are one ulp wide: no Gauss node fits inside
        ["constants", "--k", "1", "--levels", "54", "--filtration", "accum:1/3"],
        ["demo-convergence", "--k", "1", "--depth", "54", "--filtration", "accum:1/3"],
    ]
    + [
        # accum:1/3 level 44 is refused by the Gauss-node rule after 43 levels
        ["constants", "--k", "3", "--levels", "50", "--filtration", "accum:1/3"],
    ]
    + [
        # orders past MAX_ORDER: without the bound these recurse past the
        # interpreter's limit, fail the Gram matrix's Cholesky, or allocate
        # about 10 GiB for Gram assembly
        ["construct", "--k", "1100", "--steps", "1"],
        ["constants", "--k", "32", "--levels", "4"],
        ["uncond", "--k", "40", "--depth", "3"],
        ["constants", "--k", "1100", "--levels", "1"],
        ["demo-convergence", "--k", "1100", "--depth", "1"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in OUT_OF_RANGE_FILTRATIONS.items():
        (tmp_path / f"{name}.txt").write_text(text)
    (tmp_path / "failed_not_a_list.json").write_text(json.dumps({
        "eta": "1/2", "E": [{"measure": "1"}], "C": ["1", "1"],
        "trace_summary": [{"step": 0, "failed": "eq:esty"}],
    }))
    (tmp_path / "c_true.json").write_text(
        '{"eta": "1/2", "E": [{"measure": "1"}], "C": ["1", true]}'
    )
    (tmp_path / "e_true.json").write_text(
        '{"eta": "1/2", "E": [{"measure": true}], "C": ["1", "1"]}'
    )
    for name, (e, c) in {**IMPOSSIBLE_MEASURES, **MALFORMED_SHAPES}.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"eta": "1/2", "E": [{"measure": m} for m in e], "C": c})
        )
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "bad_measure.json").write_text('{"eta": "1/2", "E": [{"measure": "x"}]}')
    # a measure past the float range (no measure of a subset of [0, 1] is)
    (tmp_path / "huge_measure.json").write_text(
        '{"eta": "1/2", "E": [{"measure": "1e400"}], "C": ["1"]}'
    )
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("where", ["accum point", "limit set", "breakpoints"])
def test_a_zero_denominator_in_a_filtration_is_refused_with_exit_2(where, tmp_path, capsys):
    # Fraction(1, 0) once escaped as a ZeroDivisionError traceback with exit
    # 1, the code for a failed check
    if where == "accum point":
        spec = "accum:1/0"
    else:
        path = tmp_path / "filtration.txt"
        path.write_text("V: 0 1/0\n0 1/2 1\n" if where == "limit set" else "V: 0 1\n0 1/0 1\n")
        spec = f"file:{path}"
    assert main(["construct", "--filtration", spec, "--k", "1", "--steps", "1"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0] == f"error: argument --filtration: zero denominator in filtration {spec!r}"


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**8])
def test_uncond_refuses_trials_past_the_cap_before_any_draw(trials, capsys, monkeypatch):
    # about 205 bytes per trial: --trials 10**8 would need about 20 GB
    def no_draw(*args, **kwargs):
        raise AssertionError("the sign draw ran")

    monkeypatch.setattr(harness, "unconditionality_ratio", no_draw)
    assert main(["uncond", "--trials", str(trials)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0] == f"error: argument --trials: must lie in 1..{MAX_TRIALS}, got {trials}"
    assert trial_count(str(MAX_TRIALS)) == MAX_TRIALS


def test_constants_runs_at_the_largest_accepted_order(capsys):
    assert main(["constants", "--k", str(MAX_ORDER), "--levels", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_gram_refused_by_cholesky_raises_conditioning_error():
    # the dyadic level where `constants --k 32 --levels 4` failed with a
    # LinAlgError before --k was bounded
    kv = KnotVector.from_filtration(dyadic(), 2, 32)
    with pytest.raises(ConditioningError, match="banded Cholesky at order 32"):
        gram(kv)


def test_constants_refusal_names_the_level(capsys):
    assert main(["constants", "--k", "3", "--levels", "50", "--filtration", "accum:1/3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level 44: ")


@pytest.fixture(scope="module")
def result_k1_n2(tmp_path_factory):
    """A real result file: dyadic k=1, N=2, eta = 1/2."""
    path = tmp_path_factory.mktemp("result") / "result.json"
    assert main(["construct", "--k", "1", "--steps", "2", "--out", str(path)]) == 0
    return path


@st.composite
def edited_measure(draw):
    """An entry of the result file, a rational for it in [-2, 2] and the
    entry's bound: 1 - 2^-n eta for |E_n| (3c), 1 - 2^-(n+2) eta for
    |C_n ∩ V| (3d) and |V| = 1 for |C_0 ∩ V|, at eta = 1/2."""
    kind = draw(st.sampled_from(["E", "C"]))
    i = draw(st.integers(0, 1 if kind == "E" else 2))
    if kind == "E":
        bound = 1 - Fraction(1, 2 ** (i + 2))
    else:
        bound = 1 - Fraction(1, 2 ** (i + 3)) if i else Fraction(1)
    near = [Fraction(0), Fraction(1), bound, bound - Fraction(1, 2**20)]
    value = draw(st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=2**10), st.sampled_from(near)
    ))
    return kind, i, value, bound


@settings(max_examples=60, deadline=None)
@given(case=edited_measure())
@example(case=("E", 0, Fraction(2), Fraction(3, 4)))
@example(case=("E", 0, Fraction(-1, 2), Fraction(3, 4)))
@example(case=("C", 0, Fraction(1, 2), Fraction(1)))
def test_verify_in_refuses_exactly_the_impossible_measures(case, result_k1_n2):
    kind, i, value, bound = case
    blob = json.loads(result_k1_n2.read_text())
    if kind == "E":
        blob["E"][i]["measure"] = str(value)
    else:
        blob["C"][i] = str(value)
    path = result_k1_n2.parent / "edited.json"
    path.write_text(json.dumps(blob))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--in", str(path)])
    if not 0 <= value <= 1 or ((kind, i) == ("C", 0) and value != 1):
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: result file entry {kind}[{i}] ")
    else:
        assert code == (0 if value >= bound else 1), (case, out.getvalue())


def _internal_fault(exc):
    def build(*args):
        raise exc

    return build


@pytest.mark.parametrize(
    "argv,fault,code,stream,prefix",
    [
        (["constants", "--k", "1", "--levels", "2"], None, 0, "out", "level,"),
        (["verify", "--in", "low_c.json"], None, 1, "out", "FAIL  "),
        (["construct", "--k", "0"], None, 2, "err", "error: "),
        (["construct", "--steps", "1"], InfeasibleStoppingError("no blocks left"), 3, "err",
         "internal error: InfeasibleStoppingError: no blocks left"),
        (["verify", "--steps", "1"], AssertionError("zombie budget exceeded"), 3, "err",
         "internal error: AssertionError: zombie budget exceeded"),
    ],
    ids=["0-pass", "1-check-failed", "2-refused-input", "3-infeasible-stopping", "3-assertion"],
)
def test_each_exit_code_has_one_meaning(argv, fault, code, stream, prefix, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    # |C_1 ∩ V| = 1/2 is below the (3d) bound 1 - 2^-3 eta
    (tmp_path / "low_c.json").write_text('{"eta": "1/2", "E": [{"measure": "1"}], "C": ["1", "1/2"]}')
    if fault is not None:
        monkeypatch.setattr(construction, "build_sequence", _internal_fault(fault))
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = getattr(captured, stream).splitlines()
    assert lines[0].startswith(prefix)
    if code >= 2:
        assert captured.out == "" and len(lines) == 1


def _count(top):
    """A positive-integer flag value: 1..top, or one the parser refuses."""
    return st.one_of(st.integers(1, top).map(str), st.sampled_from(["0", "-2", "x", "2.5", ""]))


ETA = st.sampled_from(["1/2", "1/3", "2/3", "0.25", "0", "1", "-1/2", "3/2", "1/0", "x", ""])
SEED = st.sampled_from(["0", "7", "-1", "x", "1.5"])
FILTRATION = st.sampled_from(
    ["dyadic", "padic:3", "padic:1", "padic:x", "accum:1/3", "accum:1/2", "accum:2",
     "file:no-such-filtration.txt", "file:bad_filtration.txt", "bogus", ""]
)
OUT_PATH = st.sampled_from(["out.json", "no-such-dir/out.json", ".", ""])
IN_PATH = st.sampled_from(["good.json", "low_c.json", "empty.json", "not_json.txt", "missing.json", "."])
#: the flags of each subcommand and a strategy for each flag's value (None:
#: a switch); every value keeps the work small: --k <= 8, --steps <= 2,
#: --levels <= 3, --depth <= 3, --trials <= 5
ARGV_FLAGS = {
    "construct": {"--k": _count(8), "--eta": ETA, "--steps": _count(2), "--out": OUT_PATH,
                  "--trace": st.sampled_from(["summary", "full", "none"]), "--verify": None},
    "verify": {"--in": IN_PATH, "--k": _count(8), "--eta": ETA, "--steps": _count(2),
               "--json": None},
    "constants": {"--k": _count(8), "--levels": _count(3), "--csv": OUT_PATH},
    "uncond": {"--k": _count(8), "--p": st.sampled_from(["2", "1.5", "1", "inf", "nan", "x"]),
               "--depth": _count(3), "--trials": _count(5), "--seed": SEED, "--json": None},
    "demo-convergence": {"--k": _count(8), "--depth": _count(3), "--seed": SEED, "--json": None},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_FLAGS) + ["bogus"]))
    flags = {**ARGV_FLAGS.get(command, {}), "--filtration": FILTRATION, "--bogus": None, "--help": None}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    assert main(["construct", "--k", "1", "--steps", "1", "--out", str(root / "good.json")]) == 0
    (root / "low_c.json").write_text('{"eta": "1/2", "E": [{"measure": "1"}], "C": ["1", "1/2"]}')
    (root / "empty.json").write_text("{}")
    (root / "not_json.txt").write_text("not json")
    (root / "bad_filtration.txt").write_text("V: 0 1\n0 1/3 1\n0 1/2 1\n")
    return root


@settings(max_examples=80, deadline=None)
@given(argv=argvs())
def test_argv_fuzz_exits_0_1_or_2_without_a_traceback(argv, argv_dir):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


def test_construct_accepts_an_eta_below_the_binary64_range(tmp_path):
    eta = "1/1" + "0" * 400  # float(eta) is 0.0
    out = tmp_path / "tiny.json"
    assert main(["construct", "--k", "2", "--steps", "1", "--eta", eta, "--out", str(out)]) == 0
    with long_decimals():
        assert json.loads(out.read_text())["eta"] == eta


def test_rationals_past_the_digit_limit_parse_and_build_alike(tmp_path, capsys):
    # integers of 5,001 digits and more, past CPython's default limit of 4,300
    limit = sys.get_int_max_str_digits()
    z = "0" * 5000
    assert frac("1/1" + z) == frac("0." + z[1:] + "1") == Fraction(1, 10**5000)
    # eta = 2/5 + 10**-5002 in two spellings, and 2/5 in three; an eta near
    # 1/2 builds in a fraction of a second, where 1e-5000 takes seconds
    spellings = [
        ("0.4" + z + "1", "4" + z + "1/1" + z + "00"),
        ("2/5", "4" + z + "/1" + z + "0", "0.4" + z),
    ]
    for same in spellings:
        outs = []
        for i, eta in enumerate(same):
            out = tmp_path / f"eta{i}.json"
            argv = ["construct", "--k", "1", "--steps", "1", "--eta", eta, "--out", str(out)]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs.count(outs[0]) == len(outs)
    spec = "accum:1/3" + z[:3000]
    assert parse_filtration_spec(spec).kind == spec
    assert main(["constants", "--filtration", spec, "--k", "2", "--levels", "3"]) == 0
    assert capsys.readouterr().out.startswith("level,dimension,l1_norm")
    assert sys.get_int_max_str_digits() == limit
