"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aig.simulate import simulate
from repro.generators import GeneratedMultiplier, booth_multiplier, csa_multiplier


def pack_operand_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack per-pattern integer operands into simulation word rows.

    ``values`` has one integer per pattern (length must be a multiple of
    64); returns a ``(width, num_words)`` uint64 array where row ``i`` holds
    bit ``i`` of every pattern.
    """
    num_patterns = len(values)
    assert num_patterns % 64 == 0
    num_words = num_patterns // 64
    rows = np.zeros((width, num_words), dtype=np.uint64)
    for i in range(width):
        bits = ((values >> i) & 1).astype(np.uint8).reshape(num_words, 64)
        rows[i] = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).ravel()
    return rows


def unpack_output_words(words: np.ndarray, num_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_operand_bits` for one output row group.

    ``words`` is the ``(num_outputs, num_words)`` simulator result; returns
    integer values per pattern assembled from the output bits (LSB first).
    """
    num_outputs = words.shape[0]
    values = np.zeros(num_patterns, dtype=object)
    for k in range(num_outputs):
        bits = np.unpackbits(words[k].view(np.uint8), bitorder="little")[:num_patterns]
        values += bits.astype(object) << k
    return values


def assert_multiplier_correct(gen: GeneratedMultiplier, num_patterns: int = 128,
                              seed: int = 7) -> None:
    """Check a generated multiplier against integer multiplication."""
    width = gen.width
    rng = np.random.default_rng(seed)
    a_vals = rng.integers(0, 1 << width, size=num_patterns, dtype=np.uint64)
    b_vals = rng.integers(0, 1 << width, size=num_patterns, dtype=np.uint64)
    inputs = np.vstack([
        pack_operand_bits(a_vals, width),
        pack_operand_bits(b_vals, width),
    ])
    outputs = simulate(gen.aig, inputs)
    products = unpack_output_words(outputs, num_patterns)
    expected = a_vals.astype(object) * b_vals.astype(object)
    assert np.array_equal(products, expected), f"{gen.name}: product mismatch"


@pytest.fixture(scope="session")
def csa8() -> GeneratedMultiplier:
    return csa_multiplier(8)


@pytest.fixture(scope="session")
def csa4() -> GeneratedMultiplier:
    return csa_multiplier(4)


@pytest.fixture(scope="session")
def booth8() -> GeneratedMultiplier:
    return booth_multiplier(8)


@pytest.fixture(scope="session")
def booth4() -> GeneratedMultiplier:
    return booth_multiplier(4)
