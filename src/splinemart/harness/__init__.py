"""Verification of the exact construction and the binary64 estimators.

verify loads eagerly and needs only the exact engine. The float names
load from estimators and constants on first access (PEP 562), so
importing the package for verify_sequence loads no numpy.
"""

from importlib import import_module

from .verify import CheckEntry, VerificationReport, verify_sequence

#: float name -> the submodule that defines it
_FLOAT_NAMES = {
    "doob_ratio": "estimators",
    "random_martingale": "estimators",
    "scalar_convergence_demo": "estimators",
    "unconditionality_ratio": "estimators",
    "uniform_integrability_profile": "estimators",
    "weak_type_ratio": "estimators",
    "shadrin_profile": "constants",
}

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


def __getattr__(name: str):
    # not cached here, so a name rebound in its defining module is what
    # the package returns from then on
    if name not in _FLOAT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_FLOAT_NAMES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
