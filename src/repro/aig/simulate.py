"""Bit-parallel AIG simulation on NumPy uint64 words.

Simulation is the workhorse for validating every substrate in this repo:
generated multipliers are checked bit-exactly against Python integer
multiplication, and technology-mapped netlists are checked equivalent to
their sources.  Evaluation is *levelized*: nodes are grouped by topological
level and each level is computed with vectorized gather/XOR/AND, so a
64-lane random sweep of a million-node network takes milliseconds rather
than a Python-loop eternity.
"""

from __future__ import annotations

import numpy as np

from repro.aig.graph import AIG, lit_neg, lit_var
from repro.utils.rng import seeded_rng

__all__ = [
    "simulate",
    "random_simulate",
    "exhaustive_patterns",
    "exhaustive_simulate",
    "evaluate_bits",
    "simulation_equivalent",
]

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def simulate(aig: AIG, input_words: np.ndarray) -> np.ndarray:
    """Simulate with explicit input words.

    Parameters
    ----------
    input_words:
        ``uint64`` array of shape ``(num_inputs, W)``; bit ``b`` of word
        ``w`` of row ``i`` is the value of input ``i`` in pattern
        ``64 * w + b``.

    Returns
    -------
    ``uint64`` array of shape ``(num_outputs, W)`` with output values,
    complemented output literals already applied.
    """
    input_words = np.ascontiguousarray(input_words, dtype=np.uint64)
    if input_words.ndim != 2 or input_words.shape[0] != aig.num_inputs:
        raise ValueError(
            f"expected input shape ({aig.num_inputs}, W), got {input_words.shape}"
        )
    num_words = input_words.shape[1]
    values = np.zeros((aig.num_vars, num_words), dtype=np.uint64)
    if aig.num_inputs:
        values[1:1 + aig.num_inputs] = input_words

    fanin0, fanin1 = aig.fanin_arrays()
    for batch in aig.and_level_batches():
        f0 = fanin0[batch]
        f1 = fanin1[batch]
        lhs = values[f0 >> 1]
        rhs = values[f1 >> 1]
        mask0 = np.where((f0 & 1).astype(bool), _ALL_ONES, np.uint64(0))[:, None]
        mask1 = np.where((f1 & 1).astype(bool), _ALL_ONES, np.uint64(0))[:, None]
        values[batch] = (lhs ^ mask0) & (rhs ^ mask1)

    outputs = np.empty((aig.num_outputs, num_words), dtype=np.uint64)
    for row, lit in enumerate(aig.outputs):
        word = values[lit_var(lit)]
        outputs[row] = ~word if lit_neg(lit) else word
    return outputs


def random_simulate(aig: AIG, num_words: int = 4,
                    seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate ``64 * num_words`` uniformly random patterns.

    Returns ``(input_words, output_words)`` so callers can cross-check
    against a reference model pattern by pattern.
    """
    rng = seeded_rng(seed)
    inputs = rng.integers(0, 1 << 64, size=(aig.num_inputs, num_words), dtype=np.uint64)
    return inputs, simulate(aig, inputs)


def exhaustive_patterns(num_inputs: int) -> np.ndarray:
    """All ``2^num_inputs`` patterns packed into uint64 words.

    Row ``i`` holds the elementary truth table of input ``i``: in pattern
    ``m`` (global bit index), input ``i`` takes the value of bit ``i`` of
    ``m``.  Practical up to ~20 inputs.
    """
    if num_inputs > 24:
        raise ValueError("exhaustive simulation beyond 24 inputs is impractical")
    total = 1 << num_inputs
    num_words = max(1, total // 64)
    patterns = np.zeros((num_inputs, num_words), dtype=np.uint64)
    pattern_index = np.arange(total, dtype=np.uint64)
    for i in range(num_inputs):
        bits = (pattern_index >> np.uint64(i)) & np.uint64(1)
        if total < 64:
            word = np.uint64(0)
            for m in range(total):
                if bits[m]:
                    word |= np.uint64(1) << np.uint64(m)
            patterns[i, 0] = word
        else:
            packed = np.packbits(
                bits.astype(np.uint8).reshape(num_words, 64), axis=1, bitorder="little"
            )
            patterns[i] = packed.view(np.uint64).reshape(num_words)
    return patterns


def exhaustive_simulate(aig: AIG) -> np.ndarray:
    """Outputs under all input patterns (see :func:`exhaustive_patterns`).

    When fewer than 64 patterns exist, bits beyond ``2^num_inputs`` are
    masked off so results compare cleanly across networks.
    """
    out = simulate(aig, exhaustive_patterns(aig.num_inputs))
    total = 1 << aig.num_inputs
    if total < 64:
        out &= np.uint64((1 << total) - 1)
    return out


def evaluate_bits(aig: AIG, input_bits: list[int] | tuple[int, ...]) -> list[int]:
    """Evaluate a single pattern given one 0/1 value per input."""
    if len(input_bits) != aig.num_inputs:
        raise ValueError(f"expected {aig.num_inputs} input bits, got {len(input_bits)}")
    words = np.asarray(
        [[_ALL_ONES if bit else np.uint64(0)] for bit in input_bits], dtype=np.uint64
    ).reshape(aig.num_inputs, 1)
    out = simulate(aig, words)
    return [int(word[0] & np.uint64(1)) for word in out]


def simulation_equivalent(left: AIG, right: AIG, num_words: int = 16,
                          seed: int | None = None) -> bool:
    """Check two AIGs agree on all outputs.

    Exhaustive when there are ≤ 14 inputs (a proof for combinational
    networks); otherwise a ``64 * num_words``-pattern random check, which on
    arithmetic netlists is a strong smoke test rather than a proof.
    """
    if left.num_inputs != right.num_inputs or left.num_outputs != right.num_outputs:
        return False
    if left.num_inputs <= 14:
        return bool(np.array_equal(exhaustive_simulate(left), exhaustive_simulate(right)))
    rng = seeded_rng(seed)
    inputs = rng.integers(0, 1 << 64, size=(left.num_inputs, num_words), dtype=np.uint64)
    return bool(np.array_equal(simulate(left, inputs), simulate(right, inputs)))
