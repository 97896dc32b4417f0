"""Reference implementations the product's post-processing is tested against.

The product (``src/repro``) ships one post-processing engine: the
vectorized cut sweep, the array-shaped pairing, the array word-level
report and the batched SCA relation resolution.  This package keeps the
original per-node / per-root / per-adder Python loops those replaced, so
the differential suites (``tests/test_fast_cuts.py``,
``tests/test_fast_pairing.py``, ``tests/test_wordlevel_fast.py``) and the
baseline benchmarks (``benchmarks/bench_*_fast.py``) can compare against
an independent implementation.  Nothing under ``src/`` imports it.

Each function mirrors the signature of its product counterpart, minus the
options the product no longer has:

* :func:`detect_xor_maj` — exact detection over ``enumerate_cuts``;
* :func:`extract_adder_tree` — the per-root FA/HA pairing loop;
* :func:`predictions_to_detection`, :func:`correct_lsb_region`,
  :func:`extract_from_predictions` — per-node verification and LSB repair
  over depth-bounded local cones (:func:`repro.aig.cuts.node_cuts`);
* :func:`analyze_adder_tree` — the per-adder word-level walk;
* :func:`resolve_relations` / :func:`verify_multiplier` — per-adder SCA
  polarity resolution.
"""

from tests.oracles.adder_tree import cone_between, extract_adder_tree
from tests.oracles.postprocess import (
    correct_lsb_region,
    extract_from_predictions,
    predictions_to_detection,
)
from tests.oracles.sca import resolve_relations, verify_multiplier
from tests.oracles.wordlevel import analyze_adder_tree
from tests.oracles.xor_maj import detect_xor_maj

__all__ = [
    "analyze_adder_tree",
    "cone_between",
    "correct_lsb_region",
    "detect_xor_maj",
    "extract_adder_tree",
    "extract_from_predictions",
    "predictions_to_detection",
    "resolve_relations",
    "verify_multiplier",
]
