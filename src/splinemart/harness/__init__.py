from .verify import CheckEntry, VerificationReport, verify_sequence
from .estimators import (
    doob_ratio,
    random_martingale,
    scalar_convergence_demo,
    unconditionality_ratio,
    uniform_integrability_profile,
    weak_type_ratio,
)
from .constants import shadrin_profile

__all__ = [
    "CheckEntry",
    "VerificationReport",
    "verify_sequence",
    "weak_type_ratio",
    "doob_ratio",
    "unconditionality_ratio",
    "uniform_integrability_profile",
    "scalar_convergence_demo",
    "random_martingale",
    "shadrin_profile",
]
