"""splinemart: martingale spline sequences over interval filtrations.

Library layout:

Exact engine (pure Python, no numpy or scipy):

- ``intervals`` / ``filtration``: exact rational interval measure logic and
  filtration generators.
- ``cardinal`` / ``rle``: uniform-grid splines in exact rationals.
- ``witness``: finitely supported sup-norm vectors and the dyadic bush.
- ``construction``: the mean-zero / vanishing-moment spline perturbations
  and the divergent-sequence driver.
- ``harness.verify``: the verification report of a constructed sequence.

Binary64 engine (numpy at import; scipy.linalg at the first banded
factorization or solve):

- ``bspline``: B-spline bases, moments, Gram matrices, knot refinement.
- ``projection``: orthogonal projections onto spline spaces and the L1
  operator-norm estimator.
- ``harness.estimators`` / ``harness.constants``: empirical constant
  estimators, which ``harness`` loads on first access to their names.

``cli`` imports each engine inside the commands that use it.
"""

from . import errors
from .intervals import Interval, MeasurableUnion, frac, measure_in
from .filtration import (
    AccumulatingFiltration,
    FileFiltration,
    FiltrationOracle,
    UniformFiltration,
    dyadic,
    equal_measure_split,
    gamma_partition,
    load_filtration_file,
    parse_filtration_spec,
    refine_until,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Interval",
    "MeasurableUnion",
    "frac",
    "measure_in",
    "FiltrationOracle",
    "UniformFiltration",
    "AccumulatingFiltration",
    "FileFiltration",
    "dyadic",
    "equal_measure_split",
    "gamma_partition",
    "load_filtration_file",
    "parse_filtration_spec",
    "refine_until",
]
