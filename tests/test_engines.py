"""The split between the two engines holds at import time: the exact engine
runs without numpy or scipy, and scipy.linalg loads at the first banded
factorization. Each check runs in a fresh interpreter, whose sys.modules
no other test has touched."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import splinemart.harness as harness

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str, cwd: Path) -> None:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_exact_engine_loads_no_numeric_stack(tmp_path):
    run_fresh(
        """
        import contextlib, io, sys
        from fractions import Fraction
        from splinemart.cli import main
        from splinemart.construction import build_sequence
        from splinemart.filtration import dyadic
        from splinemart.harness import verify_sequence

        seq = build_sequence(dyadic(), 2, Fraction(1, 2), 3)
        assert verify_sequence(seq).all_passed
        assert seq.to_json(trace="full")["trace_summary"]
        assert seq.value_at(Fraction(1, 3), 3) is not None
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", "--k", "2", "--steps", "3", "--verify",
                         "--out", "r.json"]) == 0
            assert main(["verify", "--in", "r.json"]) == 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
        assert not loaded, loaded
        """,
        tmp_path,
    )


def test_scipy_linalg_loads_at_the_first_gram(tmp_path):
    run_fresh(
        """
        import sys
        from fractions import Fraction
        import splinemart.bspline as bspline
        import splinemart.harness
        import splinemart.projection

        kv = bspline.KnotVector(3, [0, Fraction(1, 3), Fraction(1, 2), 1])
        assert len(bspline.eval_basis(kv, 0.4)) == 3
        first, vals = bspline.basis_values(kv, [0.1, 0.4, 0.9])
        assert bspline.ScalarSpline(kv, [1.0] * kv.dim).eval(0.7) == 1.0
        assert "numpy" in sys.modules and "scipy.linalg" not in sys.modules
        bspline.GramOperator(kv)
        assert "scipy.linalg" in sys.modules
        """,
        tmp_path,
    )


def test_every_public_harness_name_resolves():
    for name in harness.__all__:
        assert callable(getattr(harness, name)), name
    assert set(harness.__all__) <= set(dir(harness))
    from splinemart.harness import shadrin_profile, weak_type_ratio  # noqa: F401

    with pytest.raises(AttributeError):
        harness.no_such_estimator
    with pytest.raises(ImportError):
        from splinemart.harness import no_such_estimator  # noqa: F401
