import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.construction.core import BoundPattern, slot_vectors
from splinemart.errors import UnachievableSeparationError
from splinemart.witness import BushRep, XVec, bush_decompose, mix_reps

from fraction_oracle import (
    combine, node_coordinate, node_sum, node_vector, slot_xvecs, xvec_numerators,
)

F = Fraction


def all_paths(depth):
    for d in range(depth + 1):
        for bits in itertools.product("01", repeat=d):
            yield "".join(bits)


def test_xvec_basics():
    v = XVec({1: F(1, 2), 3: F(-2)})
    assert v.sup_norm == 2
    assert v[2] == 0
    w = v.add(XVec({3: F(2)}))
    assert w == XVec({1: F(1, 2)})
    assert v.scale(0) == XVec.zero()
    assert XVec.zero().sup_norm == 0


def test_node_vector_examples():
    assert node_vector("") == XVec.zero()
    assert node_vector("0") == XVec({1: F(1)})
    assert node_vector("1") == XVec({1: F(-1)})
    assert node_coordinate("") == 1
    assert node_coordinate("0") == 2
    assert node_coordinate("1") == 3
    assert node_coordinate("00") == 4


def test_node_norm_and_support_exhaustive():
    for path in all_paths(8):
        v = node_vector(path)
        assert len(v) == len(path)
        if path:
            assert v.sup_norm == 1
            assert all(abs(val) == 1 for _, val in v.items())


def test_bush_averaging_exhaustive():
    for path in all_paths(8):
        v = node_vector(path)
        c0, c1 = node_vector(path + "0"), node_vector(path + "1")
        assert c0.add(c1).scale(F(1, 2)) == v
        assert v.sub(c0).sup_norm == 1
        assert v.sub(c1).sup_norm == 1


def test_decompose_root():
    rep = BushRep.point("")
    parts = bush_decompose(rep, 1, target_count=2)
    assert [(w, r.weights[0][0]) for w, r in parts] == [(F(1, 2), "0"), (F(1, 2), "1")]
    value = rep.value()
    for w, r in parts:
        assert value.sub(r.value()).sup_norm == 1


def test_decompose_pair_of_children():
    rep = mix_reps(
        [(F(1, 2), BushRep.point("0")), (F(1, 2), BushRep.point("1"))]
    )
    parts = bush_decompose(rep, 1)
    assert len(parts) == 4
    assert all(w == F(1, 4) for w, _ in parts)
    mix = XVec.zero()
    for w, r in parts:
        mix = mix.add(r.value().scale(w))
        assert rep.value().sub(r.value()).sup_norm >= 1
    assert mix == rep.value()


@pytest.mark.parametrize("target", [2, 3, 8])
def test_decompose_reconstruction_exhaustive(target):
    for path in all_paths(4):
        rep = BushRep.point(path)
        parts = bush_decompose(rep, 1, target_count=target)
        assert len(parts) >= target
        assert sum((w for w, _ in parts), F(0)) == 1
        mix = XVec.zero()
        for w, r in parts:
            mix = mix.add(r.value().scale(w))
            assert rep.value().sub(r.value()).sup_norm >= 1
        assert mix == rep.value()


def test_decompose_rejects_large_delta():
    with pytest.raises(UnachievableSeparationError):
        bush_decompose(BushRep.point(""), F(3, 2))


def test_mix_reps_affine_correction_stays_convex():
    # y = xbar + beta (x0 - xbar) with small beta keeps node weights >= 0
    x0, x1 = BushRep.point("00"), BushRep.point("01")
    xbar = mix_reps([(F(1, 2), x0), (F(1, 2), x1)])
    beta = F(1, 100)
    y = mix_reps([(1 - beta, xbar), (beta, x0)])
    assert dict(y.weights) == {"00": F(1, 2) + beta / 2, "01": F(1, 2) - beta / 2}
    assert y.value() == xbar.value().add(x0.value().sub(xbar.value()).scale(beta))


def test_mix_reps_rejects_negative_node_weights():
    a = BushRep.point("00")
    b = BushRep.point("01")
    with pytest.raises(ValueError):
        mix_reps([(F(-1, 8), a), (F(9, 8), b)])


paths = st.integers(0, 10).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: format(v, f"0{n}b") if n else "")
)
small_fractions = st.builds(
    Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 8, 10, 1 << 40, 3**30])
)


@st.composite
def reps(draw):
    """A BushRep of 1 to 256 distinct nodes with non-negative weights, some
    of them zero."""
    nodes = draw(st.lists(paths, min_size=1, max_size=256, unique=True))
    raw = draw(st.lists(st.integers(0, 9), min_size=len(nodes), max_size=len(nodes)))
    raw[0] += 1
    total = sum(raw)
    return BushRep(tuple((p, Fraction(r, total)) for p, r in zip(nodes, raw)))


@settings(max_examples=150, deadline=None)
@given(rep=reps())
def test_trie_value_matches_the_node_vector_sum(rep):
    value = rep.value()
    assert value == node_sum(rep)
    assert all(v != 0 for _, v in value.items())
    assert value.sup_norm == max((abs(v) for _, v in value.items()), default=0)


@settings(max_examples=100, deadline=None)
@given(rep=reps())
def test_memoized_value_shape_and_hash_match_a_fresh_rep(rep):
    first = (rep.value(), rep.shape(), hash(rep))
    assert (rep.value(), rep.shape(), hash(rep)) == first  # read from the memo
    assert rep.value() is first[0]
    fresh = BushRep(rep.weights)
    assert fresh == rep
    assert (fresh.value(), fresh.shape(), hash(fresh)) == first
    assert hash(rep) == hash(rep.weights)


def fraction_mix(parts):
    """mix_reps by Fraction sums, one gcd per operation: the reference."""
    total = sum((c for c, _ in parts), Fraction(0))
    if total != 1:
        raise ValueError(f"coefficients sum to {total}, not 1")
    acc: dict = {}
    for c, rep in parts:
        for path, w in rep.weights:
            acc[path] = acc.get(path, Fraction(0)) + c * w
    weights = tuple((p, w) for p, w in sorted(acc.items()) if w != 0)
    if any(w < 0 for _, w in weights):
        raise ValueError("negative weight")
    return weights


@st.composite
def mixes(draw):
    """1 to 6 reps of up to 16 nodes each, and coefficients over assorted
    denominators that sum to 1; some coefficients are negative."""
    count = draw(st.integers(1, 6))
    parts = []
    for _ in range(count):
        nodes = draw(st.lists(paths, min_size=1, max_size=16, unique=True))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(nodes), max_size=len(nodes)))
        den = draw(st.sampled_from([1, 3, 1 << 20, 3**12]))
        weights = tuple((p, Fraction(r * den, sum(raw) * den)) for p, r in zip(nodes, raw))
        parts.append(BushRep(weights))
    coefs = [draw(small_fractions) for _ in range(count - 1)]
    coefs.append(1 - sum(coefs, Fraction(0)))
    return list(zip(coefs, parts))


@settings(max_examples=200, deadline=None)
@given(parts=mixes())
def test_integer_mix_reps_matches_the_fraction_sum(parts):
    try:
        want = fraction_mix(parts)
    except ValueError:
        with pytest.raises(ValueError, match="negative weight"):
            mix_reps(parts)
    else:
        got = mix_reps(parts)
        assert got.weights == want
        assert all(type(w) is Fraction for _, w in got.weights)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.tuples(paths, small_fractions), max_size=12), close=st.booleans())
def test_rep_weight_checks_match_the_fraction_sum(weights, close):
    if close and weights:  # the last weight makes the sum 1
        weights[-1] = (weights[-1][0], 1 - sum((w for _, w in weights[:-1]), Fraction(0)))
    total = sum((w for _, w in weights), Fraction(0))
    negative = [(p, w) for p, w in weights if w < 0]
    if negative:
        path, w = negative[0]
        with pytest.raises(ValueError, match=f"negative weight {w} on node {path!r}"):
            BushRep(tuple(weights))
    elif total != 1:
        with pytest.raises(ValueError, match=f"weights sum to {total}, not 1"):
            BushRep(tuple(weights))
    else:
        assert BushRep(tuple(weights)).weights == tuple(weights)


def test_mix_reps_refuses_coefficients_that_do_not_sum_to_one():
    with pytest.raises(ValueError, match="coefficients sum to 3/4, not 1"):
        mix_reps([(F(1, 4), BushRep.point("0")), (F(1, 2), BushRep.point("1"))])
    with pytest.raises(ValueError, match="coefficients sum to 0, not 1"):
        mix_reps([])


vectors = st.dictionaries(st.integers(1, 64), small_fractions, max_size=12).map(XVec)


@settings(max_examples=150, deadline=None)
@given(
    xbar=vectors,
    points=st.lists(vectors, min_size=1, max_size=5),
    data=st.data(),
)
def test_integer_slot_vectors_and_combine_match_add_and_scale(xbar, points, data):
    betas = data.draw(st.lists(small_fractions, min_size=len(points), max_size=len(points)))
    raw = slot_vectors(xvec_numerators(xbar), [xvec_numerators(x) for x in points], betas)
    slots = slot_xvecs(raw)
    diffs = [x.sub(xbar) for x in points]
    want_mix = XVec.zero()
    for b, dv in zip(betas, diffs):
        want_mix = want_mix.add(dv.scale(b))
    assert slots == {**{("d", m): dv for m, dv in enumerate(diffs)}, ("dmix",): want_mix}

    # correction coefficients as w_data holds them: integer numerators over
    # one denominator w_den
    keys = list(slots)
    w_den = data.draw(st.integers(1, 10**6))
    w_data = data.draw(st.lists(
        st.lists(st.tuples(st.integers(-10**6, 10**6), st.sampled_from(keys)), max_size=6),
        max_size=3,
    ))
    wants = []
    for wd in w_data:
        want = XVec.zero()
        for n, key in wd:
            want = want.add(slots[key].scale(Fraction(n, w_den)))
        vec = combine(raw, ((key, Fraction(n, w_den)) for n, key in wd))
        assert vec == want
        assert all(v != 0 for _, v in vec.items())
        wants.append(want)
    got = BoundPattern(SimpleNamespace(w_data=w_data, w_den=w_den), raw).w_norm()
    assert got == max((w.sup_norm for w in wants), default=Fraction(0))


def test_argument_checks_survive_optimised_python():
    # these checks must raise, not assert: `python -O` strips assert statements
    code = textwrap.dedent(
        """
        from fractions import Fraction as F
        from splinemart.rle import RleSpline, UniformSpace
        from splinemart.witness import BushRep, mix_reps

        if __debug__:
            raise SystemExit("not running optimised")
        calls = {
            "coefficients sum to 2": lambda: mix_reps(
                [(F(1), BushRep.point("0")), (F(1), BushRep.point("1"))]
            ),
            "different spaces": lambda: RleSpline.zero(UniformSpace(2, 3, 2)).plus(
                RleSpline.zero(UniformSpace(2, 4, 2))
            ),
        }
        for message, call in calls.items():
            try:
                call()
            except ValueError as exc:
                if message not in str(exc):
                    raise SystemExit(f"{message}: raised {exc!r}")
            else:
                raise SystemExit(f"{message}: accepted")
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
