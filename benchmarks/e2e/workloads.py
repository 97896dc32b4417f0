"""Inputs and the correctness oracle of the end-to-end benchmark.

Each workload's traffic is a pure function of its seed: the circuits, their
AIGER text, the request order and hot-mix's fresh circuits.  The model is
always trained with ``seed=0``, so the workload seed changes only the
traffic.  Every circuit is carried as the AIGER text the program receives
and as the AIG parsed back from that text, so the oracle reasons over
exactly the netlist the daemon or CLI parses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.aig.aiger import dumps_aag, loads_aag
from repro.aig.graph import AIG
from repro.aig.transform import extract_cone
from repro.core import Gamora
from repro.generators import make_multiplier
from repro.reasoning import analyze_adder_tree, extract_adder_tree
from repro.reasoning.wordlevel import compare_adder_trees

WORKLOADS = ("cold-large", "hot-mix", "streamed-large")

# The streamed-large window and shard budget: the deployment kernel's
# estimate_inference_memory for CSA-96 under the shallow model, divided by
# 8.  Fixed here so that a later change to the estimator cannot change the
# workload it is measured on.
STREAM_BUDGET_BYTES = 7_784_583

HOT_FRESH_EVERY = 20  # every 20th hot-mix request is a never-seen circuit
HOT_ZIPF_EXPONENT = 1.1

# (kind, width) per workload; smoke sizes keep the self-test fast.
_CATALOGUE = {
    "cold-large": (("csa", 48), ("booth", 64), ("csa", 80)),
    "hot-mix": (("csa", 8), ("booth", 8), ("csa", 12), ("booth", 12),
                ("csa", 16), ("booth", 16), ("csa", 24), ("booth", 24)),
    "streamed-large": (("csa", 96),),
}
_SMOKE_CATALOGUE = {
    "cold-large": (("csa", 8), ("booth", 8), ("csa", 10)),
    "hot-mix": (("csa", 4), ("booth", 4), ("csa", 5), ("booth", 6)),
    "streamed-large": (("csa", 12),),
}
_FRESH_BASES = (("csa", 12), ("booth", 12), ("csa", 16), ("booth", 16))
_SMOKE_FRESH_BASES = (("csa", 6), ("booth", 6))
WARMUP = ("csa", 4)

# Requests are sent in whole periods so every run keeps its workload's mix:
# a cold-large cycle holds each of its 3 circuits once, a hot-mix period
# holds exactly one fresh circuit.
PERIOD = {"cold-large": 3, "hot-mix": HOT_FRESH_EVERY, "streamed-large": 1}
CONNECTIONS = {"cold-large": 1, "hot-mix": 2, "streamed-large": 1}


@dataclass
class Circuit:
    """One netlist as sent (``text``) and as parsed back (``aig``)."""

    key: str
    text: str
    aig: AIG

    @property
    def num_ands(self) -> int:
        return self.aig.num_ands


def make_circuit(key: str, aig: AIG) -> Circuit:
    text = dumps_aag(aig)
    return Circuit(key, text, loads_aag(text, name=key))


def multiplier(kind: str, width: int) -> Circuit:
    return make_circuit(f"{kind}{width}", make_multiplier(width, kind).aig)


def catalogue(workload: str, smoke: bool = False) -> list[Circuit]:
    """The workload's fixed circuits (hot-mix: its Zipf ranks, in order)."""
    table = _SMOKE_CATALOGUE if smoke else _CATALOGUE
    return [multiplier(kind, width) for kind, width in table[workload]]


def warmup_circuit() -> Circuit:
    return multiplier(*WARMUP)


def serve_args(workload: str, smoke: bool = False) -> list[str]:
    """Daemon flags of a workload (defaults everywhere else)."""
    if workload == "cold-large":
        return ["--result-cache", "0", "--graph-cache", "0"]
    if workload == "hot-mix":
        return []
    if workload == "streamed-large":
        budget = stream_budget(smoke)
        return ["--result-cache", "0", "--graph-cache", "0",
                "--max-shard-bytes", str(budget),
                "--max-window-bytes", str(budget)]
    raise ValueError(f"unknown workload {workload!r}")


def stream_budget(smoke: bool) -> int:
    if not smoke:
        return STREAM_BUDGET_BYTES
    # The smoke circuit is tiny: derive its budget by the same rule (the
    # estimate depends on layer widths only, not on trained weights).
    from repro.learn.infer import estimate_inference_memory

    gamora = Gamora(model="shallow")
    data = gamora.prepare(catalogue("streamed-large", True)[0].aig,
                          with_labels=False)
    return estimate_inference_memory(gamora.inference_kernel(),
                                     data.num_nodes, data.num_edges) // 8


# ----------------------------------------------------------------------
# Request sequences

def request_sequence(workload: str, seed: int, count: int,
                     circuits: list[Circuit], smoke: bool = False,
                     exclude_hashes: set[str] | None = None) -> list[Circuit]:
    """The first ``count`` requests of a workload under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cold-large":
        sequence: list[Circuit] = []
        while len(sequence) < count:
            cycle = list(circuits)
            rng.shuffle(cycle)
            sequence.extend(cycle)
        return sequence[:count]
    if workload == "hot-mix":
        return hot_mix_sequence(rng, count, circuits, smoke,
                                exclude_hashes or set())
    return [circuits[0]] * count


def hot_mix_sequence(rng: random.Random, count: int, circuits: list[Circuit],
                     smoke: bool, exclude_hashes: set[str]) -> list[Circuit]:
    """Zipf draws over the catalogue, every 20th request a fresh cone."""
    weights = [1.0 / rank ** HOT_ZIPF_EXPONENT
               for rank in range(1, len(circuits) + 1)]
    bases = [make_multiplier(width, kind).aig
             for kind, width in (_SMOKE_FRESH_BASES if smoke else _FRESH_BASES)]
    seen = {c.aig.structural_hash() for c in circuits} | exclude_hashes
    sequence = []
    for index in range(count):
        if index % HOT_FRESH_EVERY == HOT_FRESH_EVERY - 1:
            base = bases[(index // HOT_FRESH_EVERY) % len(bases)]
            sequence.append(fresh_cone(rng, base, seen))
        else:
            sequence.append(rng.choices(circuits, weights)[0])
    return sequence


def fresh_cone(rng: random.Random, base: AIG, seen: set[str],
               attempts: int = 1000) -> Circuit:
    """A seeded output-range cone of ``base``, new by structure.

    The bases take turns and the range ends in the top quarter of the
    outputs, so a cone keeps 80 to 100% of its base's AND nodes and every
    run sends the same mix of fresh-circuit sizes: the seed moves the
    ranges, not the tail latency.  Adds the cone's structural hash to
    ``seen``; raises if ``attempts`` draws found nothing new.
    """
    for _ in range(attempts):
        high = rng.randrange(3 * base.num_outputs // 4, base.num_outputs)
        low = rng.randrange(high + 1)
        cone = extract_cone(base, range(low, high + 1))
        circuit = make_circuit(f"{base.name}[{low}:{high}]", cone)
        digest = circuit.aig.structural_hash()
        if digest not in seen:
            seen.add(digest)
            return circuit
    raise RuntimeError(f"no structurally new cone in {attempts} draws")


# ----------------------------------------------------------------------
# Oracle

@dataclass(frozen=True)
class Answer:
    """What a response must report for one circuit."""

    num_full_adders: int
    num_half_adders: int
    num_mismatches: int
    summary: str | None  # word-level report summary (None: not reported)


def reference_answer(gamora: Gamora, aig: AIG) -> tuple[Answer, object]:
    """Sequential ``Gamora.reason`` plus ``analyze_adder_tree``.

    Returns the answer and the predicted adder tree (for recall).
    """
    outcome = gamora.reason(aig)
    report = analyze_adder_tree(aig, outcome.tree)
    answer = Answer(int(outcome.tree.num_full_adders),
                    int(outcome.tree.num_half_adders),
                    int(outcome.num_mismatches), report.summary())
    return answer, outcome.tree


def response_answer(result: dict) -> Answer:
    """The answer carried by a daemon ``reason`` response's ``result``."""
    report = result.get("report")
    return Answer(int(result["num_full_adders"]),
                  int(result["num_half_adders"]),
                  int(result["num_mismatches"]),
                  report["summary"] if report is not None else None)


def matches(expected: Answer, got: Answer) -> bool:
    """Whether ``got`` agrees with the reference (summary when reported)."""
    same_counts = (expected.num_full_adders == got.num_full_adders
                   and expected.num_half_adders == got.num_half_adders
                   and expected.num_mismatches == got.num_mismatches)
    return same_counts and (got.summary is None
                            or got.summary == expected.summary)


def recall_counts(aig: AIG, predicted_tree) -> tuple[float, int]:
    """``(adders recovered, adders in the exact tree)`` for one circuit."""
    exact = extract_adder_tree(aig, engine="fast")
    total = len(exact.arrays().root_pair_keys())
    recall = compare_adder_trees(exact, predicted_tree)["recall"]
    return recall * total, total
