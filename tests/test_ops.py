"""The perturbations bound to witness vectors: each pattern builder, then
the general slot vectors, then the bound pattern, as the operations are
stated mathematically."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemart.construction import (
    ConstructionContext,
    correction_frame,
    lemma_moments,
    step1_stopping,
)
from splinemart.construction.lemma import translate_classes
from splinemart.filtration import dyadic
from splinemart.intervals import Interval
from splinemart.witness import XVec

from fraction_oracle import (
    RationalBound,
    cell_ends,
    general_slot_vectors,
    grid_unit,
    moment_slotwise,
    node_vector,
    reference_w_data,
    slot_xvecs,
    support_bounds,
    w_fractions,
    w_sup_norm,
    xvec_numerators,
)
from test_construction import g_at

F = Fraction
HALF = F(1, 2)


def bind(pattern, xbar, xs, betas) -> RationalBound:
    points = [xvec_numerators(x) for x in xs]
    return RationalBound(pattern, general_slot_vectors(xvec_numerators(xbar), points, betas))


def mean(bound: RationalBound) -> XVec:
    """∫ g as a witness vector: the slot-wise means times the slot vectors."""
    acc = XVec.zero()
    slots = slot_xvecs(bound.slots, bound.den)
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
        lo, hi = cell_ends(pat, cell)
        t = lo + (hi - lo) / 3
        val = xbar.add(g_at(bound, t))
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
        correction_frame(ctx, Interval(0, 1), F(1, 8), 0, max_zombie_length=F(1)),
        const_alphas=[HALF, HALF],
    )
    bound = bind(pat, xbar, xs, pat.inner.trace.betas)
    # every slot's moment vanishes, so g's does for any slot vectors
    for j in range(k):
        assert not any(moment_slotwise(pat, j).values())
    w_norm = w_sup_norm(w_fractions(pat), bound.slots, bound.den)
    assert w_norm <= pat.trace.eps_tilde2
    assert bound.w_norm() == w_norm
    # zone values sit in the child set, at separation exactly one
    fam = next(e for e in pat.cells if hasattr(e, "period"))
    zone = next(c for c in fam.cells if c.kind == "zone")
    for inst in (0, pat.piece_count // 2, pat.piece_count - 1):
        lo, hi = cell_ends(pat, zone)
        t = lo + inst * fam.period * grid_unit(pat) + (hi - lo) / 3
        val = xbar.add(g_at(bound, t))
        assert val in tuple(xs)
        assert val.sub(xbar).sup_norm == 1


def test_unequal_weights_form_one_translate_class_per_term():
    # stopping terms of different weights have different lengths, so none
    # is a translate of another: each term takes its own moments, and w is
    # the Fraction reference's
    ctx = ConstructionContext(dyadic(), 3)
    pat = lemma_moments(
        correction_frame(ctx, Interval(0, 1), F(1, 8), 0, max_zombie_length=F(1)),
        const_alphas=[F(1, 4), F(3, 4)],
    )
    assert translate_classes(pat.terms) == [[(i, 0)] for i in range(len(pat.terms))]
    assert w_fractions(pat) == reference_w_data(pat)
    for j in range(3):
        assert not any(moment_slotwise(pat, j).values())
