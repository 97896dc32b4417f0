"""Differential tests: vectorized cut engine vs the legacy Cut-object path.

The fast engine (``repro.aig.fast_cuts``) must agree with the Cut-object
enumerator (``repro.aig.cuts``) *exactly* — same cuts, same truths, same
slot order, including dedup/dominance/truncation edge cases — because it
replaced that path behind label generation, exact detection, and
prediction post-processing.  Detection and post-processing are compared
against the legacy per-node loops kept in ``tests/oracles/``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.aig import AIG, lit_not, read_aiger
from repro.aig.cuts import Cut, enumerate_cuts
from repro.aig.fast_cuts import (
    CutArrays,
    classify_cut_arrays,
    enumerate_cuts_arrays,
    matched_leaf_sets,
)
from repro.aig.npn import (
    IS_MAJ3_LUT,
    IS_XOR2_LUT,
    IS_XOR3_LUT,
    is_maj_truth,
    is_xor_truth,
)
from repro.core.postprocess import extract_from_predictions
from repro.generators import booth_multiplier, csa_multiplier
from repro.reasoning import detect_xor_maj
from repro.reasoning.adder_tree import ground_truth_labels
from repro.utils.random_circuits import random_aig
from tests import oracles

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.aag"))


def assert_cutsets_equal(aig: AIG, k: int = 3, max_cuts: int = 8) -> None:
    legacy = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    fast = enumerate_cuts_arrays(aig, k=k, max_cuts=max_cuts).to_cutsets()
    assert len(legacy) == len(fast)
    for var, (want, got) in enumerate(zip(legacy, fast)):
        assert want == got, f"var {var}: legacy={want} fast={got}"


def assert_detections_equal(aig: AIG, max_cuts: int = 10) -> None:
    fast = detect_xor_maj(aig, max_cuts=max_cuts)
    legacy = oracles.detect_xor_maj(aig, max_cuts=max_cuts)
    assert fast.xor_roots == legacy.xor_roots
    assert fast.maj_roots == legacy.maj_roots


class TestCutSetEquivalence:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_aiger_fixtures(self, path):
        assert_cutsets_equal(read_aiger(path))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_circuits(self, seed):
        aig = random_aig(num_inputs=5, num_ands=40, num_outputs=3, seed=seed)
        assert_cutsets_equal(aig)

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_reconvergent_low_budget(self, seed):
        """Few inputs + many ANDs: dedup, dominance and truncation all bite."""
        aig = random_aig(num_inputs=3, num_ands=60, num_outputs=2,
                         seed=1000 + seed)
        assert_cutsets_equal(aig, max_cuts=4)
        assert_cutsets_equal(aig, k=2, max_cuts=6)

    @pytest.mark.parametrize("seed", range(8))
    def test_degenerate_outputs_and_constants(self, seed):
        """Constant/PI outputs and fold-created constants stress boundaries."""
        aig = random_aig(num_inputs=4, num_ands=30, num_outputs=5,
                         seed=2000 + seed, allow_constants=True)
        assert_cutsets_equal(aig)

    def test_multipliers(self, csa4, booth4):
        assert_cutsets_equal(csa4.aig, max_cuts=10)
        assert_cutsets_equal(booth4.aig, max_cuts=10)

    def test_empty_and_gateless_graphs(self):
        empty = AIG()
        assert enumerate_cuts_arrays(empty).to_cutsets() == enumerate_cuts(empty)
        pis_only = AIG()
        a, b = pis_only.add_inputs(2)
        pis_only.add_output(a)
        pis_only.add_output(lit_not(b))
        assert_cutsets_equal(pis_only)

    def test_duplicate_fanin_collapse(self):
        """x·x and x·¬x fold at construction; survivors must still agree."""
        aig = AIG()
        a, b = aig.add_inputs(2)
        same = aig.add_and(a, a)  # folds to a
        contradiction = aig.add_and(a, lit_not(a))  # folds to const0
        aig.add_output(aig.add_and(aig.add_or(same, b), aig.add_xor(a, b)))
        aig.add_output(contradiction)
        assert_cutsets_equal(aig)

    def test_deep_chain_past_depth_limit(self):
        """A chain deeper than node_cuts' depth bound (legacy local cones
        truncate there; the global enumerations must still agree)."""
        aig = AIG()
        lits = aig.add_inputs(3)
        acc = lits[0]
        for i in range(12):
            acc = aig.add_xor(acc, lits[(i % 2) + 1])
        aig.add_output(acc)
        assert_cutsets_equal(aig)
        assert_detections_equal(aig)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            enumerate_cuts_arrays(AIG(), k=1)
        with pytest.raises(ValueError):
            enumerate_cuts_arrays(AIG(), k=4)

    def test_max_cuts_validation_matches_legacy(self):
        """Both engines reject max_cuts<1 (the legacy loop's off-by-one at
        0 — append-then-break kept one cut — is now an explicit error)."""
        with pytest.raises(ValueError):
            enumerate_cuts_arrays(AIG(), max_cuts=0)
        with pytest.raises(ValueError):
            enumerate_cuts(AIG(), max_cuts=0)


class TestArrayFormat:
    def test_struct_of_arrays_shapes_and_padding(self, csa4):
        arrays = enumerate_cuts_arrays(csa4.aig, max_cuts=6)
        n = csa4.aig.num_vars
        assert arrays.leaves.shape == (n, 7, 3)
        assert arrays.leaves.dtype == np.int32
        assert arrays.truths.shape == (n, 7)
        assert arrays.truths.dtype == np.uint8
        assert (arrays.counts >= 1).all()  # every node has its trivial cut
        # Unused leaf slots hold the pad id; used ones are ascending.
        for var in range(n):
            for slot in range(int(arrays.counts[var])):
                size = int(arrays.sizes[var, slot])
                row = arrays.leaves[var, slot]
                assert (row[size:] == n).all()
                assert (np.diff(row[:size]) > 0).all()

    def test_trivial_cut_is_last_slot(self, csa4):
        arrays = enumerate_cuts_arrays(csa4.aig)
        for var in csa4.aig.and_vars():
            last = int(arrays.counts[var]) - 1
            assert arrays.sizes[var, last] == 1
            assert arrays.leaves[var, last, 0] == var
            assert arrays.truths[var, last] == 0b10

    def test_cuts_of_adapter(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        y = aig.add_and(a, b)
        arrays = enumerate_cuts_arrays(aig)
        cuts = arrays.cuts_of(y >> 1)
        assert Cut((a >> 1, b >> 1), 0b1000) in cuts
        assert Cut((y >> 1,), 0b10) in cuts


class TestClassificationLuts:
    def test_luts_match_predicates(self):
        for table in range(256):
            assert IS_XOR3_LUT[table] == is_xor_truth(table, 3)
            assert IS_MAJ3_LUT[table] == is_maj_truth(table, 3)
        for table in range(16):
            assert IS_XOR2_LUT[table] == is_xor_truth(table, 2)

    def test_orbits_are_disjoint(self):
        assert not (IS_XOR3_LUT & IS_MAJ3_LUT).any()

    def test_classify_full_adder(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        from repro.generators.components import full_adder

        s, co = full_adder(aig, a, b, c)
        aig.add_output(s)
        aig.add_output(co)
        arrays = enumerate_cuts_arrays(aig)
        is_xor, is_maj = classify_cut_arrays(arrays)
        assert is_xor[s >> 1].any()
        assert is_maj[co >> 1].any()
        xor_sets, maj_sets = matched_leaf_sets(arrays)
        target = tuple(sorted(x >> 1 for x in (a, b, c)))
        assert target in xor_sets[s >> 1]
        assert target in maj_sets[co >> 1]


class TestDetectionEquivalence:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_aiger_fixtures(self, path):
        assert_detections_equal(read_aiger(path))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed):
        aig = random_aig(num_inputs=5, num_ands=50, num_outputs=3,
                         seed=3000 + seed)
        assert_detections_equal(aig)

    def test_multipliers(self, csa4, csa8, booth4):
        assert_detections_equal(csa4.aig)
        assert_detections_equal(csa8.aig)
        assert_detections_equal(booth4.aig)


class TestExtractionEquivalence:
    """Fast and legacy post-processing recover identical adder trees."""

    @staticmethod
    def assert_extractions_equal(aig: AIG) -> None:
        labels = ground_truth_labels(aig)
        fast = extract_from_predictions(aig, labels)
        legacy = oracles.extract_from_predictions(aig, labels)
        assert fast.tree.adders == legacy.tree.adders
        assert fast.rejected_xor == legacy.rejected_xor
        assert fast.rejected_maj == legacy.rejected_maj
        assert fast.corrected_vars == legacy.corrected_vars
        assert fast.detection.xor_roots == legacy.detection.xor_roots
        assert fast.detection.maj_roots == legacy.detection.maj_roots

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_aiger_fixtures(self, path):
        self.assert_extractions_equal(read_aiger(path))

    def test_multipliers(self, csa4, booth4):
        self.assert_extractions_equal(csa4.aig)
        self.assert_extractions_equal(booth4.aig)

    @pytest.mark.slow
    def test_csa8(self, csa8):
        self.assert_extractions_equal(csa8.aig)


class TestLabelGenerationStability:
    """Ground-truth labels (training data) are engine-independent."""

    def test_labels_identical(self, csa4):
        fast = ground_truth_labels(csa4.aig, detect_xor_maj(csa4.aig))
        legacy = ground_truth_labels(
            csa4.aig, oracles.detect_xor_maj(csa4.aig)
        )
        for task in ("root", "xor", "maj"):
            assert np.array_equal(fast[task], legacy[task])


class TestConeRestrictedSweep:
    """restrict_to: cone nodes get full-sweep cuts, the rest stay empty."""

    def test_restricted_equals_full_on_cone(self, csa4):
        from repro.aig.graph import lit_var

        aig = csa4.aig
        roots = [lit_var(lit) for lit in aig.outputs[:2]]
        full = enumerate_cuts_arrays(aig, max_cuts=10)
        cone_only = enumerate_cuts_arrays(aig, max_cuts=10, restrict_to=roots)
        cone = aig.transitive_fanin(roots)
        for var in aig.and_vars():
            if var in cone:
                assert cone_only.cuts_of(var) == full.cuts_of(var)
            else:
                assert cone_only.counts[var] == 0

    def test_standalone_lsb_repair_engines_agree(self, csa4):
        from repro.core.postprocess import correct_lsb_region

        labels = ground_truth_labels(csa4.aig)
        fast_patched, fast_cone = correct_lsb_region(csa4.aig, labels)
        legacy_patched, legacy_cone = oracles.correct_lsb_region(csa4.aig,
                                                                 labels)
        assert fast_cone == legacy_cone
        for task in ("root", "xor", "maj"):
            assert np.array_equal(fast_patched[task], legacy_patched[task])


class TestLeafCompactionPath:
    """The big-graph leaf-remapping branch produces identical cuts."""

    def test_forced_compaction_matches(self):
        # pack_limit below num_vars forces per-level leaf compaction (the
        # >1.2M-variable path) on a small graph; the chunk sizing derived
        # from the same limit must keep every compacted universe legal.
        aig = random_aig(num_inputs=30, num_ands=300, num_outputs=3, seed=7)
        assert aig.num_vars + 1 > 130
        want = enumerate_cuts_arrays(aig, max_cuts=6).to_cutsets()
        got = enumerate_cuts_arrays(aig, max_cuts=6,
                                    pack_limit=130).to_cutsets()
        assert want == got

    def test_safe_pack_limit_is_exact(self):
        from repro.aig.fast_cuts import _SAFE_PACK_LIMIT

        top = np.iinfo(np.int64).max
        assert 5 * _SAFE_PACK_LIMIT ** 3 < top
        assert 5 * (_SAFE_PACK_LIMIT + 1) ** 3 >= top

    def test_infeasible_pack_limit_is_rejected(self, csa4):
        # Below 6*slots+2 even a single-node chunk would overflow the
        # compacted universe; must refuse up front, not corrupt mid-sweep.
        with pytest.raises(ValueError, match="pack_limit"):
            enumerate_cuts_arrays(csa4.aig, pack_limit=8)
