"""Dense binary64 matrices of the float layer, for tests that check its
banded and per-point paths against numpy's dense linear algebra.

The program never forms these: Gram solves run in band storage and basis
values are read k per point.
"""

import numpy as np

from splinemart.bspline import GramOperator, KnotVector, basis_values


def design_matrix(kv: KnotVector, ts) -> np.ndarray:
    """Dense matrix B[p, i] = N_i(ts[p])."""
    first, vals = basis_values(kv, ts)
    mat = np.zeros((len(first), kv.dim))
    np.put_along_axis(mat, first[:, None] + np.arange(kv.k), vals, axis=1)
    return mat


def dense_gram(g: GramOperator) -> np.ndarray:
    """The full symmetric Gram matrix from its lower band storage."""
    dim = g.dim
    out = np.zeros((dim, dim))
    for r in range(g.bandwidth + 1):
        for j in range(dim - r):
            out[j + r, j] = g.ab_lower[r, j]
            out[j, j + r] = g.ab_lower[r, j]
    return out
