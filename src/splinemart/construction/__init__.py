from .core import (
    BoundPattern,
    ConstructionContext,
    Step1Pattern,
    step1_stopping,
)
from .lemma import CorrectionFrame, LemmaPattern, correction_frame, lemma_moments, step2_correct
from .driver import SequenceResult, build_sequence

__all__ = [
    "BoundPattern",
    "ConstructionContext",
    "Step1Pattern",
    "step1_stopping",
    "CorrectionFrame",
    "LemmaPattern",
    "correction_frame",
    "lemma_moments",
    "step2_correct",
    "SequenceResult",
    "build_sequence",
]
