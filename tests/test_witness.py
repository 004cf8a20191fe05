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

from splinemart.errors import UnachievableSeparationError
from splinemart.witness import BushRep, XVec, bush_decompose, mix_reps

from fraction_oracle import (
    GeneralRep, RationalBound, as_general, combine, general_decompose, general_mix_reps,
    general_slot_vectors, node_coordinate, node_sum, node_vector, slot_xvecs, xvec_numerators,
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
    rep = BushRep("")
    parts = bush_decompose(rep, 1, target_count=2)
    assert [(w, r) for w, r in parts] == [(F(1, 2), BushRep("0")), (F(1, 2), BushRep("1"))]
    # the general reference expands the root alike
    assert [(w, r.weights) for w, r in general_decompose(as_general(rep), 1)] == [
        (w, as_general(r).weights) for w, r in parts
    ]
    value = rep.value()
    for w, r in parts:
        assert value.sub(r.value()).sup_norm == 1


def test_decompose_pair_of_children():
    rep = mix_reps([(F(1, 2), BushRep("0")), (F(1, 2), BushRep("1"))])
    assert rep == BushRep("", 1)
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
        rep = BushRep(path)
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
        bush_decompose(BushRep(""), F(3, 2))


def test_mix_reps_affine_correction_stays_convex():
    # the parts recombined are their node one level up; the affine
    # correction y = xbar + beta (x0 - xbar) keeps the general node weights
    # >= 0, but it is no equal-weight average, so mix_reps refuses it
    x0, x1 = BushRep("00"), BushRep("01")
    xbar = mix_reps([(F(1, 2), x0), (F(1, 2), x1)])
    assert xbar == BushRep("0", 1)
    assert as_general(xbar) == general_mix_reps([(F(1, 2), x0), (F(1, 2), x1)])
    assert xbar.value() == node_vector("0") == as_general(xbar).value()
    beta = F(1, 100)
    y = general_mix_reps([(1 - beta, xbar), (beta, x0)])
    assert dict(y.weights) == {"00": F(1, 2) + beta / 2, "01": F(1, 2) - beta / 2}
    assert y.value() == xbar.value().add(x0.value().sub(xbar.value()).scale(beta))
    with pytest.raises(ValueError, match="the 3 parts are not the decomposition of one node"):
        mix_reps([(1 - beta, xbar), (beta, x0), (F(0), x1)])
    with pytest.raises(ValueError, match="the 2 parts are not the decomposition of one node"):
        mix_reps([(1 - beta, x0), (beta, x1)])
    # a general value is no part, even at equal weights
    with pytest.raises(ValueError, match="the 2 parts are not the decomposition of one node"):
        mix_reps([(F(1, 2), GeneralRep.point("00")), (F(1, 2), GeneralRep.point("01"))])


def test_mix_reps_rejects_negative_node_weights():
    a = BushRep("00")
    b = BushRep("01")
    with pytest.raises(ValueError):
        mix_reps([(F(-1, 8), a), (F(9, 8), b)])
    with pytest.raises(ValueError, match="negative weight"):
        general_mix_reps([(F(-1, 8), a), (F(9, 8), b)])


paths = st.integers(0, 10).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: format(v, f"0{n}b") if n else "")
)
small_fractions = st.builds(
    Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 8, 10, 1 << 40, 3**30])
)
compact_reps = st.builds(BushRep, paths, st.integers(0, 5))


@st.composite
def general_reps(draw):
    """A GeneralRep of 1 to 256 distinct nodes with non-negative weights,
    some of them zero."""
    nodes = draw(st.lists(paths, min_size=1, max_size=256, unique=True))
    raw = draw(st.lists(st.integers(0, 9), min_size=len(nodes), max_size=len(nodes)))
    raw[0] += 1
    total = sum(raw)
    return GeneralRep(tuple((p, Fraction(r, total)) for p, r in zip(nodes, raw)))


@settings(max_examples=150, deadline=None)
@given(rep=compact_reps, general=general_reps())
def test_trie_value_matches_the_node_vector_sum(rep, general):
    # the compact rep reads x_path off its path; the general reference sums
    # its descendants up the path trie; both agree with the node vectors
    value = rep.value()
    assert value == node_vector(rep.path) == node_sum(rep) == as_general(rep).value()
    nums = rep.numerators()
    assert all(abs(n) == 1 for n in nums.values()) and len(nums) == len(rep.path)
    assert value == XVec.over(nums, 1)
    assert value.sup_norm == (1 if rep.path else 0)
    # the reference's trie pass, at weights no compact rep holds
    assert general.value() == node_sum(general)
    assert all(v != 0 for _, v in general.value().items())


@settings(max_examples=100, deadline=None)
@given(rep=compact_reps)
def test_memoized_value_shape_and_hash_match_a_fresh_rep(rep):
    first = (rep.numerators(), rep.value(), rep.shape(), hash(rep))
    assert (rep.numerators(), rep.value(), rep.shape(), hash(rep)) == first  # read from the memo
    assert rep.value() is first[1] and rep.numerators() is first[0]
    fresh = BushRep(rep.path, rep.depth)
    assert fresh == rep
    assert (fresh.numerators(), fresh.value(), fresh.shape(), hash(fresh)) == first
    assert hash(rep) == hash((rep.path, rep.depth))
    # the shape is the general reference's, up to relabelling
    assert rep.shape() == (rep.path == "", rep.depth)
    general = as_general(rep).shape()
    assert general[0] == (rep.path == "")
    assert general[1] == as_general(BushRep("0" * (rep.path != ""), rep.depth)).shape()[1]


def fraction_mix(parts):
    """mix_reps by Fraction sums, one gcd per operation: the reference."""
    total = sum((c for c, _ in parts), Fraction(0))
    if total != 1:
        raise ValueError(f"coefficients sum to {total}, not 1")
    acc: dict = {}
    for c, rep in parts:
        for path, w in as_general(rep).weights:
            acc[path] = acc.get(path, Fraction(0)) + c * w
    weights = tuple((p, w) for p, w in sorted(acc.items()) if w != 0)
    if any(w < 0 for _, w in weights):
        raise ValueError("negative weight")
    return weights


@st.composite
def mixes(draw):
    """1 to 6 general reps of up to 16 nodes each, and coefficients over
    assorted denominators that sum to 1; some coefficients are negative."""
    count = draw(st.integers(1, 6))
    parts = []
    for _ in range(count):
        nodes = draw(st.lists(paths, min_size=1, max_size=16, unique=True))
        raw = draw(st.lists(st.integers(1, 9), min_size=len(nodes), max_size=len(nodes)))
        den = draw(st.sampled_from([1, 3, 1 << 20, 3**12]))
        weights = tuple((p, Fraction(r * den, sum(raw) * den)) for p, r in zip(nodes, raw))
        parts.append(GeneralRep(weights))
    coefs = [draw(small_fractions) for _ in range(count - 1)]
    coefs.append(1 - sum(coefs, Fraction(0)))
    return list(zip(coefs, parts))


@st.composite
def decompositions(draw):
    """The parts of a compact rep's decomposition, maybe with one fault: a
    coefficient moved between two parts, a part dropped, two parts
    swapped, or a part that is not a point. Returns (rep, parts, whether
    the parts are still a decomposition of one node)."""
    rep = draw(compact_reps)
    parts = bush_decompose(rep, 1, target_count=draw(st.integers(1, 8)))
    fault = draw(st.sampled_from([None, "coefficient", "drop", "swap", "depth"]))
    i = draw(st.integers(1, len(parts) - 1))  # a decomposition has 2 parts or more
    if fault == "coefficient":
        shift = draw(small_fractions.filter(bool))
        parts[i] = (parts[i][0] + shift, parts[i][1])
        parts[i - 1] = (parts[i - 1][0] - shift, parts[i - 1][1])
    elif fault == "drop":
        del parts[i]
        parts = [(Fraction(1, len(parts)), r) for _, r in parts]
    elif fault == "swap":
        parts[i], parts[i - 1] = parts[i - 1], parts[i]
    elif fault == "depth":
        parts[i] = (parts[i][0], BushRep(parts[i][1].path, 1))
    return rep, parts, fault is None


@settings(max_examples=200, deadline=None)
@given(case=decompositions(), general=mixes())
def test_integer_mix_reps_matches_the_fraction_sum(case, general):
    rep, parts, valid = case
    if valid:
        # the parts recombined are their node one level up, as in the
        # Fraction sum
        got = mix_reps(parts)
        assert as_general(got).weights == fraction_mix(parts)
        assert got == BushRep(rep.path, len(parts).bit_length() - 1)
    else:
        with pytest.raises(ValueError):
            mix_reps(parts)
    # the general reference keeps the integer sum of the Fraction one
    try:
        want = fraction_mix(general)
    except ValueError:
        with pytest.raises(ValueError, match="negative weight"):
            general_mix_reps(general)
    else:
        got = general_mix_reps(general)
        assert got.weights == want
        assert all(type(w) is Fraction for _, w in got.weights)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.tuples(paths, small_fractions), max_size=12), close=st.booleans())
def test_rep_weight_checks_match_the_fraction_sum(weights, close):
    if close and weights:  # the last weight makes the sum 1
        weights[-1] = (weights[-1][0], 1 - sum((w for _, w in weights[:-1]), Fraction(0)))
    # a weight tuple is no node path: the compact rep refuses every one
    with pytest.raises(ValueError, match="node path must be a binary word"):
        BushRep(tuple(weights))
    # the general reference checks the weights as the Fraction sum does
    total = sum((w for _, w in weights), Fraction(0))
    negative = [(p, w) for p, w in weights if w < 0]
    if negative:
        path, w = negative[0]
        with pytest.raises(ValueError, match=f"negative weight {w} on node {path!r}"):
            GeneralRep(tuple(weights))
    elif total != 1:
        with pytest.raises(ValueError, match=f"weights sum to {total}, not 1"):
            GeneralRep(tuple(weights))
    else:
        assert GeneralRep(tuple(weights)).weights == tuple(weights)


@pytest.mark.parametrize("path,depth", [
    ("012", 0), ("0 1", 0), (0, 0), (None, 0), ((("0", F(1)),), 0), ("01", -1),
    ("01", True), ("01", 1.0), ("01", "1"),
])
def test_rep_constructor_refuses_what_is_not_a_node_and_a_depth(path, depth):
    with pytest.raises(ValueError):
        BushRep(path, depth)


def test_mix_reps_refuses_coefficients_that_do_not_sum_to_one():
    with pytest.raises(ValueError, match="the 2 parts are not the decomposition of one node"):
        mix_reps([(F(1, 4), BushRep("0")), (F(1, 2), BushRep("1"))])
    with pytest.raises(ValueError, match="the 0 parts are not the decomposition of one node"):
        mix_reps([])
    # the general reference names the sum
    with pytest.raises(ValueError, match="coefficients sum to 3/4, not 1"):
        general_mix_reps([(F(1, 4), BushRep("0")), (F(1, 2), BushRep("1"))])
    with pytest.raises(ValueError, match="coefficients sum to 0, not 1"):
        general_mix_reps([])


vectors = st.dictionaries(st.integers(1, 64), small_fractions, max_size=12).map(XVec)


@settings(max_examples=150, deadline=None)
@given(
    xbar=vectors,
    points=st.lists(vectors, min_size=1, max_size=5),
    data=st.data(),
)
def test_integer_slot_vectors_and_combine_match_add_and_scale(xbar, points, data):
    betas = data.draw(st.lists(small_fractions, min_size=len(points), max_size=len(points)))
    raw = general_slot_vectors(xvec_numerators(xbar), [xvec_numerators(x) for x in points], betas)
    slots = slot_xvecs(*raw)
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
        vec = combine(raw[0], ((key, Fraction(n, w_den)) for n, key in wd), raw[1])
        assert vec == want
        assert all(v != 0 for _, v in vec.items())
        wants.append(want)
    got = RationalBound(SimpleNamespace(w_data=w_data, w_den=w_den), raw).w_norm()
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
            "the 2 parts are not the decomposition": lambda: mix_reps(
                [(F(1), BushRep("0")), (F(1), BushRep("1"))]
            ),
            "the 4 parts are not the decomposition": lambda: mix_reps([  # affine
                (F(1, 4), BushRep("00")), (F(1, 2), BushRep("01")),
                (F(1, 2), BushRep("10")), (F(-1, 4), BushRep("11")),
            ]),
            "node path must be a binary word": lambda: BushRep(
                (("0", F(1, 4)), ("1", F(3, 4)))  # unequal weights
            ),
            "expansion depth must be an int >= 0": lambda: BushRep("0", -1),
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
