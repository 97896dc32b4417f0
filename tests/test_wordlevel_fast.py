"""Differential tests for the array-native detection→word-level pipeline.

The serving path must be array-shaped end to end — candidate arrays from
the shared cut sweep through pairing, word-level analysis, and SCA
relation resolution — while staying *bit-identical* to the legacy
dict/per-adder path it replaced (kept in ``tests/oracles/``).  These suites
pin both properties:

* the array pipeline builds **zero** ``XorMajDetection`` dicts (counting
  adapter) yet still serves the dict view lazily when asked;
* trees, word-level reports, comparison metrics, and SCA relations are
  identical to the oracle's over ripple/CSA/Booth/compressor netlists and
  the AIGER fixtures;
* report construction is deterministic: sorted collections, stable under
  shuffled detections and repeated runs.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from repro.aig import AIG, read_aiger
from repro.core.postprocess import extract_from_predictions
from repro.generators import booth_multiplier, csa_multiplier
from repro.generators.adders import ripple_carry_adder
from repro.generators.components import full_adder
from repro.reasoning import (
    AdderTree,
    AdderTreeArrays,
    ExtractedAdder,
    XorMajDetection,
    analyze_adder_tree,
    analyze_adder_trees,
    compare_adder_trees,
    detect_xor_maj,
    extract_adder_tree,
    ground_truth_labels,
)
from repro.utils.random_circuits import random_aig
from repro.verify.sca import _resolve_relations
from tests import oracles

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.aag"))


def ripple(width: int) -> AIG:
    aig = AIG()
    a_bits = aig.add_inputs(width, "a")
    b_bits = aig.add_inputs(width, "b")
    sums, cout = ripple_carry_adder(aig, a_bits, b_bits)
    for s in sums:
        aig.add_output(s)
    aig.add_output(cout)
    return aig


def compressor_column() -> AIG:
    """A 4:2 compressor column: one FA reads both outputs of another."""
    aig = AIG()
    a, b, c, d = aig.add_inputs(4)
    s1, c1 = full_adder(aig, a, b, c)
    s2, c2 = full_adder(aig, s1, c1, d)
    aig.add_output(s2)
    aig.add_output(c2)
    return aig


def family_aigs() -> list:
    return [ripple(6), csa_multiplier(4).aig, booth_multiplier(4).aig,
            compressor_column()]


class TestDictFreeServingPath:
    """Acceptance criterion: post-processing builds zero XorMajDetection
    dicts on the extract_from_predictions path (counting adapter)."""

    def test_fast_extraction_builds_no_detection(self, csa4):
        labels = ground_truth_labels(csa4.aig)
        before = XorMajDetection.constructions
        extraction = extract_from_predictions(csa4.aig, labels)
        assert XorMajDetection.constructions == before
        # ... and the word-level report doesn't need the dicts either.
        analyze_adder_tree(csa4.aig, extraction.tree)
        assert XorMajDetection.constructions == before

    def test_legacy_engine_still_builds_detections(self, csa4):
        labels = ground_truth_labels(csa4.aig)
        before = XorMajDetection.constructions
        oracles.extract_from_predictions(csa4.aig, labels)
        assert XorMajDetection.constructions > before

    def test_detection_adapter_matches_legacy(self, booth4):
        """The lazy dict view must be *content-identical* to what the
        legacy oracle computes — including per-var leaf-list order."""
        labels = ground_truth_labels(booth4.aig)
        fast = extract_from_predictions(booth4.aig, labels)
        legacy = oracles.extract_from_predictions(booth4.aig, labels)
        assert fast.detection.xor_roots == legacy.detection.xor_roots
        assert fast.detection.maj_roots == legacy.detection.maj_roots
        # Accessing the adapter twice returns the same materialized object.
        assert fast.detection is fast.detection


class TestPipelineDifferential:
    """Array-native path vs legacy dict path: bit-identical AdderTree and
    WordLevelReport over every netlist family."""

    @staticmethod
    def assert_pipeline_identical(aig: AIG) -> None:
        labels = ground_truth_labels(aig)
        fast = extract_from_predictions(aig, labels)
        legacy = oracles.extract_from_predictions(aig, labels)
        assert fast.tree.adders == legacy.tree.adders
        assert fast.tree.consumed == legacy.tree.consumed
        assert fast.rejected_xor == legacy.rejected_xor
        assert fast.rejected_maj == legacy.rejected_maj
        assert fast.corrected_vars == legacy.corrected_vars
        fast_report = analyze_adder_tree(aig, fast.tree)
        legacy_report = oracles.analyze_adder_tree(aig, legacy.tree)
        assert fast_report == legacy_report
        assert fast_report.summary() == legacy_report.summary()

    @pytest.mark.parametrize("make", [
        lambda: ripple(6),
        lambda: csa_multiplier(4).aig,
        lambda: booth_multiplier(4).aig,
        compressor_column,
    ], ids=["ripple6", "csa4", "booth4", "compressor"])
    def test_families(self, make):
        self.assert_pipeline_identical(make())

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_aiger_fixtures(self, path):
        self.assert_pipeline_identical(read_aiger(path))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        aig = random_aig(num_inputs=5, num_ands=60, num_outputs=4,
                         seed=7100 + seed)
        self.assert_pipeline_identical(aig)


class TestBatchedAnalysis:
    """analyze_adder_trees == per-tree analysis, in input order.

    The serving layer builds every batch's word-level reports through
    ``analyze_adder_trees``; the reports must be exactly the ones
    per-circuit ``analyze_adder_tree`` would produce.
    """

    def test_mixed_batch_matches_per_tree(self):
        items = [(aig, extract_adder_tree(aig)) for aig in family_aigs()]
        # An adder-free circuit (empty tree) and a duplicate ride along:
        # both are shapes the daemon's batches routinely contain.
        plain = AIG()
        a, b = plain.add_inputs(2)
        plain.add_output(plain.add_and(a, b))
        items.append((plain, extract_adder_tree(plain)))
        items.append(items[1])
        batched = analyze_adder_trees(items)
        expected = [analyze_adder_tree(aig, tree) for aig, tree in items]
        assert batched == expected

    def test_single_item_and_empty_batch(self):
        aig = csa_multiplier(4).aig
        tree = extract_adder_tree(aig)
        assert analyze_adder_trees([(aig, tree)]) == [
            analyze_adder_tree(aig, tree)
        ]
        assert analyze_adder_trees([]) == []

    def test_accepts_generator_input(self):
        items = [(aig, extract_adder_tree(aig)) for aig in family_aigs()[:2]]
        assert analyze_adder_trees(iter(items)) == [
            analyze_adder_tree(aig, tree) for aig, tree in items
        ]

    def test_legacy_engine_falls_back_per_tree(self):
        """The batched pass equals the per-adder oracle on oracle trees."""
        items = [(aig, oracles.extract_adder_tree(aig))
                 for aig in family_aigs()[:2]]
        assert analyze_adder_trees(items) == [
            oracles.analyze_adder_tree(aig, tree) for aig, tree in items
        ]


class TestReportDeterminism:
    """Satellite bugfix: report collections are sorted on construction, so
    summary() and equality are stable across runs and input orders."""

    def test_fields_are_sorted_lists(self, csa4):
        report = analyze_adder_tree(csa4.aig, extract_adder_tree(csa4.aig))
        for field in (report.pp_leaves, report.pi_leaves,
                      report.output_roots):
            assert isinstance(field, list)
            assert field == sorted(field)
            assert len(field) == len(set(field))
        for level in report.ranks:
            assert level == sorted(level)

    def test_construction_normalizes_unordered_input(self):
        left = __import__("repro.reasoning.wordlevel", fromlist=["WordLevelReport"])
        report_a = left.WordLevelReport(
            num_full_adders=1, num_half_adders=1, num_links=1,
            ranks=[[2, 0, 1]], pp_leaves={9, 3, 5}, pi_leaves=[4, 2, 4],
            output_roots={8, 1},
        )
        report_b = left.WordLevelReport(
            num_full_adders=1, num_half_adders=1, num_links=1,
            ranks=[[0, 1, 2]], pp_leaves=[5, 9, 3], pi_leaves={2, 4},
            output_roots=[1, 8, 8],
        )
        assert report_a == report_b
        assert report_a.pp_leaves == [3, 5, 9]
        assert report_a.pi_leaves == [2, 4]
        assert report_a.output_roots == [1, 8]

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_predictions_same_report(self, booth4, seed):
        """Shuffled-prediction determinism: a detection presented in
        adversarial dict/list order yields the identical report."""
        aig = booth4.aig
        detection = detect_xor_maj(aig)
        rng = random.Random(seed)

        def scramble(mapping):
            keys = list(mapping)
            rng.shuffle(keys)
            out = {}
            for key in keys:
                sets = list(mapping[key])
                rng.shuffle(sets)
                out[key] = sets
            return out

        shuffled = XorMajDetection(xor_roots=scramble(detection.xor_roots),
                                   maj_roots=scramble(detection.maj_roots))
        reference = analyze_adder_tree(
            aig, extract_adder_tree(aig, detection))
        report = analyze_adder_tree(
            aig, extract_adder_tree(aig, shuffled))
        assert report == reference

    def test_repeated_runs_identical(self, csa4):
        first = analyze_adder_tree(csa4.aig, extract_adder_tree(csa4.aig))
        second = analyze_adder_tree(csa4.aig, extract_adder_tree(csa4.aig))
        assert first == second
        assert first.summary() == second.summary()


def _reference_compare(reference: AdderTree, candidate: AdderTree) -> dict:
    """The pre-refactor dict implementation, kept as the regression oracle."""
    ref_pairs = {(a.sum_var, a.carry_var) for a in reference.adders}
    cand_pairs = {(a.sum_var, a.carry_var) for a in candidate.adders}
    if not ref_pairs and not cand_pairs:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    hits = len(ref_pairs & cand_pairs)
    precision = hits / len(cand_pairs) if cand_pairs else 0.0
    recall = hits / len(ref_pairs) if ref_pairs else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1}


class TestCompareAdderTrees:
    """Satellite: compare via the cached packed-key index, same metrics."""

    def test_matches_reference_on_families(self):
        for aig in family_aigs():
            exact = extract_adder_tree(aig)
            labels = ground_truth_labels(aig)
            predicted = extract_from_predictions(aig, labels).tree
            got = compare_adder_trees(exact, predicted)
            assert got == _reference_compare(exact, predicted)

    def test_partial_overlap(self):
        exact = AdderTree(adders=[
            ExtractedAdder("FA", 10, 11, (1, 2, 3)),
            ExtractedAdder("HA", 12, 13, (4, 5)),
        ])
        candidate = AdderTree(adders=[
            ExtractedAdder("FA", 10, 11, (1, 2, 3)),
            ExtractedAdder("HA", 14, 15, (6, 7)),
        ])
        got = compare_adder_trees(exact, candidate)
        assert got == _reference_compare(exact, candidate)
        assert got["precision"] == got["recall"] == 0.5

    def test_empty_trees(self):
        empty = AdderTree()
        assert compare_adder_trees(empty, empty)["f1"] == 1.0

    def test_key_index_is_cached(self, csa4):
        tree = extract_adder_tree(csa4.aig)
        core = tree.arrays()
        assert core.root_pair_keys() is core.root_pair_keys()
        first = compare_adder_trees(tree, tree)
        assert compare_adder_trees(tree, tree) == first


class TestAdderTreeCore:
    """The struct-of-arrays core round-trips through the object views."""

    def test_adders_round_trip(self, csa4):
        tree = extract_adder_tree(csa4.aig)  # core-authoritative (fast)
        rebuilt = AdderTreeArrays.from_adders(tree.adders)
        core = tree.arrays()
        assert np.array_equal(rebuilt.kind, core.kind)
        assert np.array_equal(rebuilt.sum_var, core.sum_var)
        assert np.array_equal(rebuilt.carry_var, core.carry_var)
        assert np.array_equal(rebuilt.leaves, core.leaves)
        assert np.array_equal(rebuilt.leaf_count, core.leaf_count)

    def test_core_rebuilt_after_append(self):
        tree = AdderTree(adders=[ExtractedAdder("HA", 4, 5, (1, 2))])
        assert len(tree.arrays()) == 1
        tree.adders.append(ExtractedAdder("FA", 8, 9, (4, 5, 3)))
        assert len(tree.arrays()) == 2
        assert tree.links() == [(0, 1)]

    def test_mutated_view_of_engine_tree_is_seen(self, csa4):
        """Handing out the mutable adders view forfeits the cached core:
        in-place replacement on an engine-built tree must reach the array
        consumers too."""
        tree = extract_adder_tree(csa4.aig)
        view = tree.adders
        view[0] = ExtractedAdder("HA", 999, 998, (1, 2))
        assert int(tree.arrays().sum_var[0]) == 999
        assert 999 in tree.root_vars()
        fast = analyze_adder_tree(csa4.aig, tree)
        legacy = oracles.analyze_adder_tree(csa4.aig, tree)
        assert fast == legacy

    def test_same_length_mutation_is_seen(self):
        """A list-built tree re-derives its core: in-place replacement
        (not just growth) must reach every array consumer."""
        tree = AdderTree(adders=[ExtractedAdder("HA", 5, 6, (2, 3)),
                                 ExtractedAdder("HA", 8, 9, (5, 7))])
        assert tree.links() == [(0, 1)]
        tree.adders[0] = ExtractedAdder("HA", 50, 60, (20, 30))
        assert tree.arrays().sum_var.tolist() == [50, 8]
        assert tree.links() == []
        assert 50 in tree.root_vars()

    def test_value_equality_preserved(self, csa4):
        """The dataclass-era semantics: equal content compares equal,
        core-built vs list-built included; instances stay unhashable."""
        left = AdderTree(adders=[ExtractedAdder("HA", 5, 6, (2, 3))])
        right = AdderTree(adders=[ExtractedAdder("HA", 5, 6, (2, 3))])
        assert left == right
        assert left != AdderTree(adders=[ExtractedAdder("HA", 5, 7, (2, 3))])
        with pytest.raises(TypeError):
            hash(left)
        fast = extract_adder_tree(csa4.aig)  # core-built
        legacy = oracles.extract_adder_tree(csa4.aig,
                                            detect_xor_maj(csa4.aig))
        assert fast == legacy
        labels = ground_truth_labels(csa4.aig)
        assert (extract_from_predictions(csa4.aig, labels)
                == oracles.extract_from_predictions(csa4.aig, labels))

    def test_consumed_view_matches_mask(self, csa4):
        fast = extract_adder_tree(csa4.aig)
        legacy = oracles.extract_adder_tree(csa4.aig,
                                            detect_xor_maj(csa4.aig))
        assert fast.consumed == legacy.consumed

    def test_pickle_round_trip(self, csa4):
        """Result-cache payloads carry the array tree across processes."""
        import pickle

        labels = ground_truth_labels(csa4.aig)
        extraction = extract_from_predictions(csa4.aig, labels)
        clone = pickle.loads(pickle.dumps(extraction))
        assert clone.tree.adders == extraction.tree.adders
        assert clone.tree.consumed == extraction.tree.consumed
        assert clone.num_mismatches == extraction.num_mismatches
        assert (analyze_adder_tree(csa4.aig, clone.tree)
                == analyze_adder_tree(csa4.aig, extraction.tree))


class TestScaRelationEngines:
    """Batched relation resolution vs the per-adder oracle."""

    @pytest.mark.parametrize("make", [
        lambda: ripple(5),
        lambda: csa_multiplier(4).aig,
        lambda: booth_multiplier(3).aig,
        compressor_column,
    ], ids=["ripple5", "csa4", "booth3", "compressor"])
    def test_relations_identical(self, make):
        aig = make()
        tree = extract_adder_tree(aig)
        assert _resolve_relations(aig, tree) == oracles.resolve_relations(
            aig, tree)

    def test_verify_results_identical(self):
        from repro.verify import verify_multiplier

        gen = csa_multiplier(4)
        fast = verify_multiplier(gen)
        legacy = oracles.verify_multiplier(gen)
        assert fast.ok and legacy.ok
        assert fast.substitutions == legacy.substitutions
        assert fast.peak_terms == legacy.peak_terms
        assert fast.residue_terms == legacy.residue_terms

    def test_empty_tree(self):
        aig = ripple(2)
        assert _resolve_relations(aig, AdderTree()) == {}

    def test_wide_slice_is_unresolved_not_a_crash(self):
        """A hand-built tree with a >3-leaf slice must degrade exactly
        like the legacy oracle: unresolved (gate-level fallback), not a
        broadcast error."""
        from repro.verify import verify_multiplier

        gen = csa_multiplier(3)
        tree = extract_adder_tree(gen.aig)
        wide = AdderTree(adders=tree.adders + [
            ExtractedAdder("FA", tree.adders[0].sum_var + 0, 1, (1, 2, 3, 4)),
        ])
        fast = _resolve_relations(gen.aig, wide)
        assert fast == oracles.resolve_relations(gen.aig, wide)
        result = verify_multiplier(gen, tree=wide)
        assert result.ok == oracles.verify_multiplier(gen, tree=wide).ok
