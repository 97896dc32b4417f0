"""AIGER parsing: the bulk route of ``loads_aag`` vs the per-line parser.

Times :func:`repro.aig.aiger.loads_aag` on ``dumps_aag`` output, which is
in strashed canonical form and so takes the bulk route (one regex lex,
one int64 conversion, whole-array checks), against the per-line
reference parser every input went through before (``text.splitlines()``
then one ``add_and`` per AND line).  Both parse the same text, and the
two AIGs must be identical: fan-ins, outputs, port names, strash index
and structural hash.

The full series covers the end-to-end benchmark's large circuits and
asserts >= 3x on each.  The CI smoke test does the same on a 32-bit CSA.
Both append a record to ``BENCH_parse.json``.
"""

from __future__ import annotations

import time

from common import (
    bench_multiplier,
    emit,
    emit_json,
    format_table,
    keep_under_benchmark_only,
)
from repro.aig.aiger import _loads_canonical, dumps_aag, loads_aag
from tests.test_aiger import assert_same_aig, reference_parse

REPEATS = 3
MIN_SPEEDUP = 3.0
SERIES = (("csa", 48), ("booth", 64), ("csa", 80), ("csa", 96))
SMOKE = ("csa", 32)


def best_of(parse, text: str) -> tuple[object, float]:
    """Best-of-``REPEATS`` wall clock; result from the last run."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = parse(text)
        best = min(best, time.perf_counter() - started)
    return result, best


def compare(kind: str, width: int) -> tuple[list, float]:
    """One table row and the speedup for one circuit."""
    text = dumps_aag(bench_multiplier(width, kind).aig)
    assert _loads_canonical(text, "aig") is not None  # the bulk route
    want, ref_seconds = best_of(reference_parse, text)
    got, seconds = best_of(loads_aag, text)
    assert_same_aig(got, want)
    speedup = ref_seconds / max(seconds, 1e-9)
    row = [f"{kind.upper()}-{width}", got.num_ands, f"{len(text) / 1e6:.2f}",
           f"{ref_seconds * 1e3:.1f}", f"{seconds * 1e3:.1f}",
           f"{speedup:.1f}x"]
    return row, speedup


HEADER = ["circuit", "ANDs", "MB", "per-line ms", "bulk ms", "speedup"]


def test_parse_series(benchmark):
    """Full lane: every large circuit parses identically and >= 3x faster."""
    keep_under_benchmark_only(benchmark)
    rows, speedups = [], {}
    for kind, width in SERIES:
        row, speedups[row[0]] = compare(kind, width)
        rows.append(row)
    emit("parse", format_table(
        f"AIGER parsing, per-line vs bulk (best of {REPEATS})", HEADER, rows,
    ))
    emit_json("BENCH_parse", {"speedups": speedups})
    slow = {name: s for name, s in speedups.items() if s < MIN_SPEEDUP}
    assert not slow, f"need >= {MIN_SPEEDUP}x on every circuit, got {slow}"


def test_parse_smoke(benchmark):
    """CI guard: the bulk route stays identical and >= 3x on a 32-bit CSA."""
    keep_under_benchmark_only(benchmark)
    row, speedup = compare(*SMOKE)
    emit("parse_smoke", format_table(
        f"AIGER parsing smoke (best of {REPEATS})", HEADER, [row],
    ))
    emit_json("BENCH_parse", {"smoke": True, "circuit": row[0],
                              "speedup": speedup})
    assert speedup >= MIN_SPEEDUP, (
        f"{row[0]}: bulk parse {speedup:.2f}x over per-line (need >= "
        f"{MIN_SPEEDUP}x)"
    )
