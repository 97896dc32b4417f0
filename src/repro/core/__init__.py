"""Gamora public API: the paper's primary contribution as a library."""

from repro.core.api import Gamora, ReasoningOutcome
from repro.core.postprocess import (
    PredictedExtraction,
    correct_lsb_region,
    extract_from_predictions,
)

__all__ = [
    "Gamora",
    "ReasoningOutcome",
    "PredictedExtraction",
    "correct_lsb_region",
    "extract_from_predictions",
]
