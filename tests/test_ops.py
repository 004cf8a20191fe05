"""The perturbations bound to witness vectors: each pattern builder, then
slot_vectors, then BoundPattern, as the operations are stated
mathematically."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.construction import (
    BoundPattern,
    ConstructionContext,
    lemma_moments,
    slot_vectors,
    step1_stopping,
)
from splinemart.filtration import dyadic
from splinemart.intervals import Interval
from splinemart.witness import XVec

from fraction_oracle import moment_slotwise, node_vector, slot_xvecs, support_bounds

F = Fraction
HALF = F(1, 2)


def bind(pattern, xbar, xs, betas) -> BoundPattern:
    return BoundPattern(pattern, slot_vectors(xbar, xs, betas))


def mean(bound: BoundPattern) -> XVec:
    """∫ g as a witness vector: the slot-wise means times the slot vectors."""
    acc = XVec.zero()
    slots = slot_xvecs(bound.slots)
    for key, v in moment_slotwise(bound.pattern, 0).items():
        acc = acc.add(slots[key].scale(v))
    return acc


def test_stopping_bush_children_example():
    # x_j bush children of xbar = root; zone values are xbar ± e_1 exactly
    ctx = ConstructionContext(dyadic(), 2)
    xbar = node_vector("")
    xs = [node_vector("0"), node_vector("1")]
    pat = step1_stopping(ctx, Interval(0, 1), [HALF, HALF], F(1, 4), 0, max_zombie_length=F(1))
    bound = bind(pat, xbar, xs, pat.trace.betas)
    assert mean(bound).sup_norm == 0
    for cell in pat.cells:
        if cell.kind != "zone":
            continue
        t = cell.lo + (cell.hi - cell.lo) / 3
        val = xbar.add(bound.g_eval(t))
        assert val in (xs[0], xs[1])
        assert val.sub(xbar).sup_norm == 1


@settings(max_examples=10, deadline=None)
@given(
    num=st.integers(2, 61),
    a0=st.fractions(min_value=F(1, 20), max_value=F(9, 20)),
)
def test_stopping_postconditions_randomized(num, a0):
    # randomized admissible inputs: sibling-equal weights keep the unit
    # separation of the bush while the pair masses vary freely
    ctx = ConstructionContext(dyadic(), 1)
    iv = Interval(F(num - 1, 64), F(num + 2, 64))
    alphas = [a0, a0, HALF - a0, HALF - a0]
    xs = [node_vector(p) for p in ("00", "01", "10", "11")]
    xbar = XVec.zero()
    for a, x in zip(alphas, xs):
        xbar = xbar.add(x.scale(a))
    eps = F(1, 4)
    pat = step1_stopping(ctx, iv, alphas, eps, 6, max_zombie_length=iv.length)
    bound = bind(pat, xbar, xs, pat.trace.betas)
    assert mean(bound).sup_norm == 0
    assert pat.zone_mass() >= (1 - eps) * iv.length
    for scal, _key in pat.terms:
        s_lo, s_hi = support_bounds(scal)
        assert iv.lo < s_lo and s_hi < iv.hi


@pytest.mark.parametrize("k", [1, 2])
def test_moment_perturbation_end_to_end(k):
    ctx = ConstructionContext(dyadic(), k)
    xbar = node_vector("0")
    xs = [node_vector("00"), node_vector("01")]
    pat = lemma_moments(
        ctx, Interval(0, 1), F(1, 8), 0, const_alphas=[HALF, HALF], max_zombie_length=F(1)
    )
    bound = bind(pat, xbar, xs, pat.inner.trace.betas)
    # every slot's moment vanishes, so g's does for any slot vectors
    for j in range(k):
        assert not any(moment_slotwise(pat, j).values())
    assert max(w.sup_norm for w in bound.w_vectors) <= pat.trace.eps_tilde2
    # zone values sit in the child set, at separation exactly one
    fam = next(e for e in pat.cells if hasattr(e, "period"))
    zone = next(c for c in fam.cells if c.kind == "zone")
    for inst in (0, pat.piece_count // 2, pat.piece_count - 1):
        t = zone.lo + inst * fam.period + (zone.hi - zone.lo) / 3
        val = xbar.add(bound.g_eval(t))
        assert val in tuple(xs)
        assert val.sub(xbar).sup_norm == 1
