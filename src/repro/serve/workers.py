"""Timed per-circuit extraction for the reasoning service.

:func:`timed_extraction` runs
:func:`~repro.core.postprocess.extract_from_predictions` on one circuit's
predicted labels, in process, and returns the extraction with its wall
time.  It calls the extractor by this module's global name, so a tracer
that patches ``repro.serve.workers.extract_from_predictions`` sees every
extraction the service runs.
"""

from __future__ import annotations

from repro.core.postprocess import PredictedExtraction, extract_from_predictions
from repro.utils.timing import Timer

__all__ = ["timed_extraction"]


def timed_extraction(aig, labels, root_filter: bool, correct_lsb: bool,
                     lsb_outputs: int) -> tuple[PredictedExtraction, float]:
    """Extract one circuit's adder tree; returns ``(extraction, seconds)``."""
    with Timer() as timer:
        extraction = extract_from_predictions(
            aig, labels, root_filter=root_filter,
            correct_lsb=correct_lsb, lsb_outputs=lsb_outputs,
        )
    return extraction, timer.elapsed
