"""Properties of ``AIG.structural_hash`` and the structural-hash LRU.

The hash keys the serving caches, so these tests pin down exactly what it
must and must not distinguish: stable across runs and processes, invariant
under AND-node id permutation of equivalent construction orders, blind to
names, and collision-free across the whole generator zoo.
"""

from pathlib import Path

import pytest

from repro.aig import AIG
from repro.aig.aiger import read_aiger
from repro.aig.graph import lit_not
from repro.generators import (
    booth_multiplier,
    csa_multiplier,
    dot_product,
    multi_operand_adder,
    multiply_accumulate,
    squarer,
)
from repro.kernels import registry, set_backend
from repro.serve import StructuralHashCache, exact_fingerprint
from repro.utils.random_circuits import random_aig

FIXTURES = Path(__file__).parent / "fixtures"

# Digests of the checked-in AIGER fixtures under ``aig-shash-v2``.
FIXTURE_DIGESTS = {
    "csa2_mult": "be8208045052b857a16db05210365f7a",
    "half_adder": "8fd240bf86b9886ee296a7b3071c78f1",
    "toy_xor3": "7290c043a17747e54b8e994d2615578e",
}

BACKENDS = [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(
        not registry._load_backend("c"),
        reason="C kernel backend unavailable (no working C compiler)")),
]


def toy_aig(name: str = "toy") -> AIG:
    aig = AIG(name=name)
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    aig.add_output(aig.add_xor(aig.add_and(a, b), c), "y")
    return aig


def or_of_two_ands(first_then_second: bool) -> AIG:
    """``(a·b) + (c·d)`` with the two AND nodes created in either order.

    The two variants compute the same structure but number the AND
    variables differently — the permutation-twin case the hash must not
    distinguish (and the exact fingerprint must).
    """
    aig = AIG(name="twin")
    a, b, c, d = aig.add_inputs(4)
    if first_then_second:
        left = aig.add_and(a, b)
        right = aig.add_and(c, d)
    else:
        right = aig.add_and(c, d)
        left = aig.add_and(a, b)
    aig.add_output(aig.add_or(left, right), "y")
    return aig


class TestStability:
    def test_deterministic_across_calls_and_instances(self):
        assert toy_aig().structural_hash() == toy_aig().structural_hash()
        aig = toy_aig()
        assert aig.structural_hash() == aig.structural_hash()  # memoized path

    def test_pinned_golden_value(self):
        """Cross-run/cross-process stability, pinned to a golden digest.

        If this changes, every persistent cache keyed by the hash silently
        invalidates — bump deliberately, never accidentally.  Bumped once
        with the version-tagged ``aig-shash-v2`` scheme (splitmix64
        uint64 mixing replacing the per-node blake2b loop).
        """
        assert toy_aig().structural_hash() == (
            "7290c043a17747e54b8e994d2615578e"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("stem", sorted(FIXTURE_DIGESTS))
    def test_fixture_golden_values(self, stem, backend):
        """Every kernel backend reproduces the pinned fixture digests."""
        try:
            set_backend(backend)
            aig = read_aiger(FIXTURES / f"{stem}.aag")
            assert aig.structural_hash() == FIXTURE_DIGESTS[stem]
        finally:
            set_backend(None)

    def test_name_independent(self):
        assert toy_aig("x").structural_hash() == toy_aig("y").structural_hash()

    def test_memo_invalidated_by_mutation(self):
        aig = toy_aig()
        before = aig.structural_hash()
        aig.add_output(aig.outputs[0], "y2")
        assert aig.structural_hash() != before


class TestPermutationInvariance:
    def test_equivalent_construction_orders_hash_equal(self):
        twin_a = or_of_two_ands(True)
        twin_b = or_of_two_ands(False)
        # The twins genuinely number their AND nodes differently...
        assert twin_a.fanins(5) != twin_b.fanins(5)
        # ...yet hash identically, while the exact fingerprint differs.
        assert twin_a.structural_hash() == twin_b.structural_hash()
        assert exact_fingerprint(twin_a) != exact_fingerprint(twin_b)

    def test_commutative_fanin_polarity(self):
        """XOR built as (a, b) and (b, a) collapses to the same structure."""
        one = AIG()
        a, b = one.add_inputs(2)
        one.add_output(one.add_xor(a, b))
        other = AIG()
        a, b = other.add_inputs(2)
        other.add_output(other.add_xor(b, a))
        assert one.structural_hash() == other.structural_hash()


class TestSensitivity:
    def test_output_polarity_changes_hash(self):
        def xor_out(invert):
            aig = AIG()
            a, b = aig.add_inputs(2)
            lit = aig.add_xor(a, b)
            aig.add_output(lit_not(lit) if invert else lit)
            return aig

        assert xor_out(False).structural_hash() != xor_out(True).structural_hash()

    def test_output_order_changes_hash(self):
        def two_outputs(swapped):
            aig = AIG()
            a, b, c = aig.add_inputs(3)
            x, y = aig.add_and(a, b), aig.add_or(b, c)
            for lit in ((y, x) if swapped else (x, y)):
                aig.add_output(lit)
            return aig

        assert two_outputs(False).structural_hash() != \
            two_outputs(True).structural_hash()

    def test_input_position_changes_hash(self):
        def and_of(which):
            aig = AIG()
            lits = aig.add_inputs(3)
            aig.add_output(aig.add_and(lits[0], lits[which]))
            return aig

        assert and_of(1).structural_hash() != and_of(2).structural_hash()

    def test_collision_free_across_generator_zoo(self):
        """Every distinct design in the zoo gets a distinct digest."""
        zoo = {
            f"csa{w}": csa_multiplier(w).aig for w in range(2, 9)
        }
        zoo.update({f"booth{w}": booth_multiplier(w).aig for w in range(2, 6)})
        zoo.update({f"square{w}": squarer(w).aig for w in (3, 4, 5)})
        zoo.update({
            "dot2x3": dot_product(3, 2).aig,
            "dot3x3": dot_product(3, 3).aig,
            "mac3": multiply_accumulate(3).aig,
            "mac4": multiply_accumulate(4).aig,
            "moa3x4": multi_operand_adder(4, 3).aig,
            "moa4x4": multi_operand_adder(4, 4).aig,
        })
        zoo.update({
            f"rand{seed}": random_aig(num_inputs=5, num_ands=25,
                                      num_outputs=3, seed=seed)
            for seed in range(12)
        })
        hashes = {name: aig.structural_hash() for name, aig in zoo.items()}
        assert len(set(hashes.values())) == len(zoo), (
            "structural hash collision among: "
            + ", ".join(sorted(hashes))
        )


class TestLruCache:
    def test_hit_miss_counters(self):
        cache = StructuralHashCache(capacity=4)
        assert cache.get("k", "fp") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", "fp", "value")
        assert cache.get("k", "fp") == "value"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats()["size"] == 1

    def test_fingerprint_conflict_counts_as_miss(self):
        cache = StructuralHashCache(capacity=4)
        twin_a, twin_b = or_of_two_ands(True), or_of_two_ands(False)
        key = twin_a.structural_hash()
        cache.put(key, exact_fingerprint(twin_a), "a-encoding")
        # Same structural hash, different node numbering: must NOT be served.
        assert cache.get(key, exact_fingerprint(twin_b)) is None
        assert cache.fingerprint_conflicts == 1
        assert cache.get(key, exact_fingerprint(twin_a)) == "a-encoding"

    def test_lru_eviction(self):
        cache = StructuralHashCache(capacity=2)
        cache.put("a", "fp", 1)
        cache.put("b", "fp", 2)
        assert cache.get("a", "fp") == 1  # refresh "a"
        cache.put("c", "fp", 3)  # evicts "b" (least recently used)
        assert cache.evictions == 1
        assert not cache.contains("b", "fp")
        assert cache.get("a", "fp") == 1
        assert cache.get("c", "fp") == 3

    def test_contains_is_fingerprint_aware(self):
        """Membership must agree with ``get()`` on permutation twins.

        The old ``in`` operator checked the hash key alone, reporting a hit
        for a twin cached under a different node numbering that ``get()``
        would (correctly) reject — regression for that divergence.
        """
        cache = StructuralHashCache(capacity=4)
        twin_a, twin_b = or_of_two_ands(True), or_of_two_ands(False)
        key = twin_a.structural_hash()
        cache.put(key, exact_fingerprint(twin_a), "a-encoding")
        assert cache.contains(key, exact_fingerprint(twin_a))
        assert not cache.contains(key, exact_fingerprint(twin_b))
        # Peeking is pure: no counter or LRU-order side effects.
        assert (cache.hits, cache.misses, cache.fingerprint_conflicts) == (0, 0, 0)
        assert not cache.contains("absent", exact_fingerprint(twin_a))

    def test_zero_capacity_disables(self):
        cache = StructuralHashCache(capacity=0)
        cache.put("k", "fp", "value")
        assert len(cache) == 0
        assert cache.get("k", "fp") is None

    def test_get_or_build(self):
        cache = StructuralHashCache(capacity=2)
        calls = []
        build = lambda: calls.append(1) or "built"  # noqa: E731
        assert cache.get_or_build("k", "fp", build) == "built"
        assert cache.get_or_build("k", "fp", build) == "built"
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)


class TestPersistence:
    def test_round_trip_preserves_entries(self, tmp_path):
        import numpy as np

        cache = StructuralHashCache(capacity=8)
        twin = or_of_two_ands(True)
        key = (twin.structural_hash(), ("opts", True, 4))
        value = {"labels": np.arange(5), "note": "payload"}
        cache.put(key, exact_fingerprint(twin), value)
        cache.put("plain-key", "fp2", [1, 2, 3])
        assert cache.to_dir(tmp_path / "spill") == 2

        restored = StructuralHashCache(capacity=8)
        assert restored.from_dir(tmp_path / "spill") == 2
        got = restored.get(key, exact_fingerprint(twin))
        assert got is not None and got["note"] == "payload"
        assert np.array_equal(got["labels"], value["labels"])
        assert restored.get("plain-key", "fp2") == [1, 2, 3]
        # Fingerprint guard survives the disk round trip.
        other = or_of_two_ands(False)
        assert restored.get(key, exact_fingerprint(other)) is None

    def test_save_is_incremental(self, tmp_path):
        cache = StructuralHashCache(capacity=4)
        cache.put("k1", "fp", 1)
        spill = tmp_path / "spill"
        assert cache.to_dir(spill) == 1
        assert cache.to_dir(spill) == 0  # same entry: skipped by name
        cache.put("k2", "fp", 2)
        assert cache.to_dir(spill) == 1  # only the new entry is written

    def test_corrupt_and_missing_entries_are_skipped(self, tmp_path):
        spill = tmp_path / "spill"
        cache = StructuralHashCache(capacity=4)
        cache.put("good", "fp", "value")
        assert cache.to_dir(spill) == 1
        (spill / "garbage.npz").write_bytes(b"not an npz archive")
        restored = StructuralHashCache(capacity=4)
        assert restored.from_dir(spill) == 1
        assert restored.get("good", "fp") == "value"
        assert StructuralHashCache(4).from_dir(tmp_path / "absent") == 0

    def test_load_respects_capacity(self, tmp_path):
        cache = StructuralHashCache(capacity=8)
        for index in range(6):
            cache.put(f"k{index}", "fp", index)
        spill = tmp_path / "spill"
        assert cache.to_dir(spill) == 6
        tiny = StructuralHashCache(capacity=2)
        assert tiny.from_dir(spill) == 6  # all readable...
        assert len(tiny) == 2  # ...but the LRU bound still holds


class TestServiceCacheCounters:
    @pytest.mark.slow
    def test_encode_counters_exposed(self):
        from repro.core import Gamora
        from repro.learn import TrainConfig
        from repro.serve import ReasoningService

        gamora = Gamora(model="shallow", train_config=TrainConfig(epochs=5))
        gamora.fit([csa_multiplier(4)])
        service = ReasoningService(gamora)
        service.encode(csa_multiplier(5))
        service.encode(csa_multiplier(5))
        stats = service.cache_stats()["graph"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        service.clear_caches()
        assert service.cache_stats()["graph"]["size"] == 0
