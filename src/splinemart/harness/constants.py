"""Empirical constants: the projection-norm profile the theory only proves finite."""

from __future__ import annotations

from ..errors import SplineMartError
from ..projection import ProjectionContext


def shadrin_profile(filt, order: int, levels: int) -> list[tuple[int, int, float]]:
    """(level, dimension, ||P_level||_{L1}) for levels 1..levels; a refused
    level raises its error with the level named first."""
    ctx = ProjectionContext(filt, order)
    out = []
    for level in range(1, levels + 1):
        try:
            kv = ctx.knot_vector(level)
            out.append((level, kv.dim, ctx.l1_norm(level)))
        except SplineMartError as exc:
            raise type(exc)(f"level {level}: {exc}") from exc
    return out
