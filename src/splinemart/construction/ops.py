"""Vector-level entry points for the perturbation constructions.

The pattern builders in core/lemma work slot-wise (scalar weights per
witness vector); these wrappers accept the witness vectors themselves and
return bound patterns with direct evaluation, matching how the operations
are stated mathematically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import PreconditionError
from ..intervals import Interval, frac
from ..witness import XVec
from .core import BoundPattern, ConstructionContext, slot_vectors, step1_stopping
from .lemma import lemma_moments


def stopping_perturbation(
    ctx: ConstructionContext,
    interval: Interval,
    alphas: Sequence[Fraction],
    xs: Sequence[XVec],
    xbar: XVec,
    eps: Fraction,
    base_level: int = 0,
) -> BoundPattern:
    """Step-1 stopping construction bound to concrete witness vectors.

    Requires xbar = sum alpha_j x_j exactly and unit separation
    ||xbar - x_j|| >= 1 (what the bush decompositions provide).
    """
    alphas = [frac(a) for a in alphas]
    acc = XVec.zero()
    for a, x in zip(alphas, xs):
        acc = acc.add(x.scale(a))
    if acc != xbar:
        raise PreconditionError("xbar must equal the convex combination of xs")
    for x in xs:
        if xbar.sub(x).sup_norm < 1:
            raise PreconditionError("decomposition points must be separated from xbar")
    pattern = step1_stopping(ctx, interval, alphas, eps, base_level)
    return pattern.bind(slot_vectors(xbar, xs, pattern.trace.betas))


def moment_perturbation(
    ctx: ConstructionContext,
    interval: Interval,
    alphas: Sequence[Fraction],
    xs: Sequence[XVec],
    xbar: XVec,
    eps: Fraction,
    base_level: int = 0,
) -> BoundPattern:
    """Full vanishing-moment perturbation bound to witness vectors."""
    pattern = lemma_moments(ctx, interval, eps, base_level, const_alphas=alphas)
    return pattern.bind(slot_vectors(xbar, xs, pattern.inner.trace.betas))
