import json

import pytest

from splinemart.cli import main


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
        ["construct", "--out", "no-such-dir/result.json"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "bad_measure.json").write_text('{"eta": "1/2", "E": [{"measure": "x"}]}')
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
