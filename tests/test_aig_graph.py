"""Unit tests for the core AIG data structure."""

import pytest

from repro.aig import AIG, CONST0, CONST1, lit_neg, lit_not, lit_var, make_lit
from repro.aig.simulate import evaluate_bits


class TestLiterals:
    def test_literal_encoding_roundtrip(self):
        for var in (0, 1, 5, 1000):
            for neg in (0, 1):
                lit = make_lit(var, neg)
                assert lit_var(lit) == var
                assert lit_neg(lit) == neg

    def test_not_is_involution(self):
        assert lit_not(lit_not(42)) == 42
        assert lit_not(CONST0) == CONST1


class TestConstruction:
    def test_inputs_before_ands_enforced(self):
        aig = AIG()
        a = aig.add_input()
        b = aig.add_input()
        aig.add_and(a, b)
        with pytest.raises(ValueError):
            aig.add_input()

    def test_counts(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        y = aig.add_and(a, b)
        aig.add_output(y)
        assert aig.num_inputs == 2
        assert aig.num_ands == 1
        assert aig.num_outputs == 1
        assert aig.num_vars == 4  # const + 2 PIs + 1 AND
        assert aig.num_edges == 2

    def test_unknown_literal_rejected(self):
        aig = AIG()
        a = aig.add_input()
        with pytest.raises(ValueError):
            aig.add_and(a, 999)


class TestConstantFolding:
    def setup_method(self):
        self.aig = AIG()
        self.a, self.b = self.aig.add_inputs(2)

    def test_and_with_false_is_false(self):
        assert self.aig.add_and(self.a, CONST0) == CONST0

    def test_and_with_true_is_identity(self):
        assert self.aig.add_and(self.a, CONST1) == self.a

    def test_and_idempotent(self):
        assert self.aig.add_and(self.a, self.a) == self.a

    def test_and_with_complement_is_false(self):
        assert self.aig.add_and(self.a, lit_not(self.a)) == CONST0

    def test_no_node_created_by_folding(self):
        before = self.aig.num_ands
        self.aig.add_and(self.a, CONST1)
        self.aig.add_and(self.a, self.a)
        assert self.aig.num_ands == before


class TestStructuralHashing:
    def test_same_pair_returns_same_node(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        first = aig.add_and(a, b)
        second = aig.add_and(b, a)  # commuted
        assert first == second
        assert aig.num_ands == 1

    def test_different_polarity_is_different_node(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        plain = aig.add_and(a, b)
        inverted = aig.add_and(lit_not(a), b)
        assert plain != inverted
        assert aig.num_ands == 2

    def test_find_and_locates_without_creating(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        node = aig.add_and(a, b)
        assert aig.find_and(b, a) == node
        assert aig.find_and(lit_not(a), b) is None
        assert aig.num_ands == 1

    def test_xor_uses_three_nodes(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        aig.add_xor(a, b)
        assert aig.num_ands == 3

    def test_shared_subterms_are_reused(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        aig.add_xor(a, b)
        count = aig.num_ands
        # MAJ shares nothing with XOR here, but a second XOR is free.
        aig.add_xor(a, b)
        assert aig.num_ands == count


class TestDerivedGates:
    """Every derived gate must compute its defining function."""

    @pytest.mark.parametrize("bits", [(x, y) for x in (0, 1) for y in (0, 1)])
    def test_two_input_gates(self, bits):
        aig = AIG()
        a, b = aig.add_inputs(2)
        aig.add_output(aig.add_or(a, b), "or")
        aig.add_output(aig.add_nand(a, b), "nand")
        aig.add_output(aig.add_nor(a, b), "nor")
        aig.add_output(aig.add_xor(a, b), "xor")
        aig.add_output(aig.add_xnor(a, b), "xnor")
        x, y = bits
        got = evaluate_bits(aig, [x, y])
        assert got == [x | y, 1 - (x & y), 1 - (x | y), x ^ y, 1 - (x ^ y)]

    @pytest.mark.parametrize(
        "bits", [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    def test_three_input_gates(self, bits):
        aig = AIG()
        s, t, e = aig.add_inputs(3)
        aig.add_output(aig.add_mux(s, t, e), "mux")
        aig.add_output(aig.add_maj3(s, t, e), "maj")
        x, y, z = bits
        got = evaluate_bits(aig, [x, y, z])
        assert got == [y if x else z, int(x + y + z >= 2)]

    def test_multi_input_gates(self):
        aig = AIG()
        lits = aig.add_inputs(5)
        aig.add_output(aig.add_and_multi(lits), "and5")
        aig.add_output(aig.add_or_multi(lits), "or5")
        assert evaluate_bits(aig, [1, 1, 1, 1, 1]) == [1, 1]
        assert evaluate_bits(aig, [1, 1, 0, 1, 1]) == [0, 1]
        assert evaluate_bits(aig, [0, 0, 0, 0, 0]) == [0, 0]

    def test_empty_multi_and_is_true(self):
        aig = AIG()
        assert aig.add_and_multi([]) == CONST1
        assert aig.add_or_multi([]) == CONST0


class TestStructure:
    def test_levels_and_depth(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_output(y)
        levels = aig.levels_array()
        assert levels[lit_var(a)] == 0
        assert levels[lit_var(x)] == 1
        assert levels[lit_var(y)] == 2
        assert aig.depth() == 2

    def test_fanout_counts(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        x = aig.add_and(a, b)
        aig.add_and(x, c)
        aig.add_and(x, a)
        counts = aig.fanout_counts()
        assert counts[lit_var(x)] == 2
        assert counts[lit_var(a)] == 2  # read by x and by the third AND

    def test_transitive_fanin(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        cone = aig.transitive_fanin([lit_var(y)])
        assert lit_var(x) in cone
        assert lit_var(a) in cone
        assert lit_var(y) in cone

    def test_stats_keys(self, csa4):
        stats = csa4.aig.stats()
        assert stats["ands"] == csa4.aig.num_ands
        assert stats["edges"] == 2 * stats["ands"]
        assert stats["depth"] > 0

    def test_fanin_accessors_reject_non_and(self):
        aig = AIG()
        a = aig.add_input()
        with pytest.raises(ValueError):
            aig.fanin0(lit_var(a))


class TestVectorizedStructure:
    """The wavefront ``levels_array()`` / bincount ``fanout_counts()``
    paths must agree with the scalar per-node recurrence on every graph
    shape."""

    @staticmethod
    def _reference_levels(aig: AIG) -> list[int]:
        lev = [0] * aig.num_vars
        for var in aig.and_vars():
            lev[var] = 1 + max(lev[aig.fanin0(var) >> 1],
                               lev[aig.fanin1(var) >> 1])
        return lev

    @pytest.mark.parametrize("seed", range(8))
    def test_wavefront_levels_match_scalar(self, monkeypatch, seed):
        from repro.utils.random_circuits import random_aig

        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)  # force vector path
        aig = random_aig(num_inputs=5, num_ands=40, num_outputs=3, seed=seed)
        assert aig.levels_array().tolist() == self._reference_levels(aig)

    def test_wavefront_levels_deep_chain(self, monkeypatch):
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        aig = AIG()
        a, b = aig.add_inputs(2)
        lit = a
        for _ in range(50):
            lit = aig.add_and(lit, b)
            b = lit_not(b)  # avoid strash collapsing the chain
        aig.add_output(lit)
        assert aig.levels_array().tolist() == self._reference_levels(aig)
        assert aig.depth() == 50

    def test_levels_cache_invalidated_on_append(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        x = aig.add_and(a, b)
        assert aig.levels_array()[lit_var(x)] == 1
        y = aig.add_and(x, lit_not(b))
        assert aig.levels_array()[lit_var(y)] == 2

    def test_fanout_counts_empty_and_reference(self, csa4):
        assert AIG().fanout_counts() == [0]
        aig = csa4.aig
        reference = [0] * aig.num_vars
        for var in aig.and_vars():
            reference[aig.fanin0(var) >> 1] += 1
            reference[aig.fanin1(var) >> 1] += 1
        assert aig.fanout_counts() == reference

    def test_and_pair_groups_shape(self, csa4):
        aig = csa4.aig
        keys, starts, members = aig.and_pair_groups()
        assert len(starts) == len(keys) + 1
        assert starts[0] == 0 and starts[-1] == len(members)
        index = aig.and_pair_index()
        assert sum(len(vs) for vs in index.values()) == len(members)
        # Groups ascend and members ascend within each group.
        for g in range(len(keys)):
            group = members[starts[g]:starts[g + 1]].tolist()
            assert group == sorted(group)

    def test_and_pair_groups_invalidated_on_append(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        x = aig.add_and(a, b)
        keys_before, _, _ = aig.and_pair_groups()
        fanin0_before, fanin1_before = aig.fanin_arrays()
        levels_before = aig.levels_array()
        # Arrays handed out before an append are copies, not views of the
        # fan-in columns, so they neither block the append nor change.
        y = aig.add_and(b, c)
        assert fanin0_before.tolist() == [-1, -1, -1, -1, a]
        assert fanin1_before.tolist() == [-1, -1, -1, -1, b]
        assert not fanin0_before.flags.writeable
        assert not fanin1_before.flags.writeable
        keys_after, _, members_after = aig.and_pair_groups()
        assert len(keys_after) == len(keys_before) + 1
        assert len(members_after) == 2
        fanin0, fanin1 = aig.fanin_arrays()
        assert fanin0.tolist() == [-1, -1, -1, -1, a, b]
        assert fanin1.tolist() == [-1, -1, -1, -1, b, c]
        assert levels_before.tolist() == [0, 0, 0, 0, 1]
        assert aig.levels_array().tolist() == [0, 0, 0, 0, 1, 1]
        assert lit_var(x) == 4 and lit_var(y) == 5
