"""Round-trip and format tests for AIGER I/O."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, aiger, dumps_aag, loads_aag, read_aiger, simulation_equivalent, write_aag, write_aig
from repro.aig.aiger import _loads_canonical, _parse_ascii
from repro.generators import make_multiplier
from repro.utils.random_circuits import random_aig

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN_NAMES = ["toy_xor3", "half_adder", "csa2_mult"]

# Handcrafted malformed netlists, one per parser check.  The daemon must
# map each to ``bad_request``; both parser routes must reject each with
# the same message.
MALFORMED_NETLISTS = [
    "",                                  # empty
    "hello world",                       # no header
    "aag x 1 0 1 0",                     # non-numeric header field
    "aag -1 0 0 0 0",                    # negative count
    "aag 1 0 1 0 0",                     # latches unsupported
    "aag 1 2 0 0 0",                     # more inputs than variables
    "aag 3 1 0 1 2",                     # inputs+ands exceed max_var
    "aag 1 1 0 0 0\n3",                  # odd input literal
    "aag 2 2 0 0 0\n2\n2",               # duplicate input literal
    "aag 1 0 0 1 0\n4",                  # output uses undefined literal
    "aag 2 1 0 0 1\n2\n4 2",             # AND line with 2 fields
    "aag 2 1 0 0 1\n2\n4 2 x",           # non-numeric AND field
    "aag 2 1 0 0 1\n2\n3 2 2",           # odd AND lhs
    "aag 2 1 0 0 1\n2\n2 2 2",           # AND redefines an input
    "aag 2 1 0 1 1\n2\n4\n4 2 -1",       # negative fan-in
]


def toy_aig():
    aig = AIG(name="toy")
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    aig.add_output(aig.add_xor(aig.add_and(a, b), c), "y")
    return aig


class TestAscii:
    def test_header(self):
        text = dumps_aag(toy_aig())
        header = text.splitlines()[0].split()
        assert header[0] == "aag"
        assert header[2] == "3"  # inputs
        assert header[3] == "0"  # latches

    def test_roundtrip_function(self):
        original = toy_aig()
        parsed = loads_aag(dumps_aag(original))
        assert simulation_equivalent(original, parsed)

    def test_roundtrip_symbols(self):
        parsed = loads_aag(dumps_aag(toy_aig()))
        assert parsed.input_names == ["a", "b", "c"]
        assert parsed.output_names == ["y"]

    def test_roundtrip_multiplier(self, csa4, tmp_path):
        path = tmp_path / "mult.aag"
        write_aag(csa4.aig, path)
        parsed = read_aiger(path)
        assert simulation_equivalent(csa4.aig, parsed)
        assert parsed.num_ands == csa4.aig.num_ands

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            loads_aag("")

    def test_latches_rejected(self):
        with pytest.raises(ValueError):
            loads_aag("aag 1 0 1 0 0\n2 3\n")


class TestBinary:
    def test_roundtrip_binary(self, csa4, tmp_path):
        path = tmp_path / "mult.aig"
        write_aig(csa4.aig, path)
        parsed = read_aiger(path)
        assert simulation_equivalent(csa4.aig, parsed)
        assert parsed.num_ands == csa4.aig.num_ands
        assert parsed.input_names == csa4.aig.input_names

    def test_binary_roundtrip_booth(self, booth4, tmp_path):
        path = tmp_path / "booth.aig"
        write_aig(booth4.aig, path)
        parsed = read_aiger(path)
        assert simulation_equivalent(booth4.aig, parsed)

    def test_binary_smaller_than_ascii(self, csa8, tmp_path):
        ascii_path = tmp_path / "m.aag"
        binary_path = tmp_path / "m.aig"
        write_aag(csa8.aig, ascii_path)
        write_aig(csa8.aig, binary_path)
        assert binary_path.stat().st_size < ascii_path.stat().st_size

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.aig"
        path.write_bytes(b"not an aiger file")
        with pytest.raises(ValueError):
            read_aiger(path)

    def test_truncated_binary_rejected(self, csa4, tmp_path):
        path = tmp_path / "trunc.aig"
        write_aig(csa4.aig, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            read_aiger(path)


class TestGoldenFiles:
    """Checked-in ``.aag`` fixtures pin the on-disk format: any writer or
    parser change that alters the bytes of a round-trip fails here."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_parse_serialize_parse_is_byte_stable(self, name):
        text = (FIXTURES / f"{name}.aag").read_text()
        once = dumps_aag(loads_aag(text, name=name))
        assert once == text  # the fixture is a serialization fixed point
        twice = dumps_aag(loads_aag(once, name=name))
        assert twice == once

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_function_preserved(self, name):
        path = FIXTURES / f"{name}.aag"
        parsed = read_aiger(path)
        assert parsed.name == name
        assert simulation_equivalent(parsed, loads_aag(dumps_aag(parsed), name=name))

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_binary_round_trip(self, name, tmp_path):
        """ASCII golden -> binary -> parse preserves structure exactly."""
        original = read_aiger(FIXTURES / f"{name}.aag")
        binary_path = tmp_path / f"{name}.aig"
        write_aig(original, binary_path)
        parsed = read_aiger(binary_path)
        assert dumps_aag(parsed) == dumps_aag(original)

    def test_golden_half_adder_shape(self):
        parsed = read_aiger(FIXTURES / "half_adder.aag")
        assert parsed.num_inputs == 2
        assert parsed.num_outputs == 2
        assert parsed.output_names == ["sum", "carry"]


# ----------------------------------------------------------------------
# The bulk route against the reference parser
# ----------------------------------------------------------------------
def reference_parse(text: str, name: str = "aig") -> AIG:
    """The line-by-line parser every input used to go through."""
    return _parse_ascii(text.splitlines(), name)


def assert_same_aig(got: AIG, want: AIG) -> None:
    assert got.name == want.name
    assert got.num_inputs == want.num_inputs
    assert got.num_vars == want.num_vars
    assert ([got.fanins(var) for var in got.and_vars()]
            == [want.fanins(var) for var in want.and_vars()])
    for got_arr, want_arr in zip(got.fanin_arrays(), want.fanin_arrays()):
        assert got_arr.dtype == want_arr.dtype == np.int64
        np.testing.assert_array_equal(got_arr, want_arr)
    assert got.outputs == want.outputs
    assert got.input_names == want.input_names
    assert got.output_names == want.output_names
    assert got._strash_index() == want._strash_index()
    assert got.structural_hash() == want.structural_hash()


def assert_same_outcome(text: str) -> None:
    """``loads_aag`` and the reference parser agree: same AIG or same error."""
    try:
        want = reference_parse(text)
    except ValueError as error:
        with pytest.raises(ValueError) as info:
            loads_aag(text)
        assert str(info.value) == str(error), text
    else:
        assert_same_aig(loads_aag(text), want)


@pytest.fixture
def refuse_fallback(monkeypatch):
    """Fails the test if any input falls back to the reference parser."""
    def refuse(lines, name):
        raise AssertionError("fell back to the per-line parser")

    monkeypatch.setattr(aiger, "_parse_ascii", refuse)


@pytest.fixture
def parse_spy(monkeypatch):
    """Counts the inputs that fall back to the reference parser."""
    calls = []

    def spy(lines, name):
        calls.append(name)
        return _parse_ascii(lines, name)

    monkeypatch.setattr(aiger, "_parse_ascii", spy)
    return calls


class TestBulkParse:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), num_inputs=st.integers(1, 8),
           num_ands=st.integers(0, 60), num_outputs=st.integers(0, 5),
           allow_constants=st.booleans())
    def test_random_circuits_match_reference(self, seed, num_inputs, num_ands,
                                             num_outputs, allow_constants):
        aig = random_aig(num_inputs=num_inputs, num_ands=num_ands,
                         num_outputs=num_outputs, seed=seed,
                         allow_constants=allow_constants)
        text = dumps_aag(aig)
        assert _loads_canonical(text, "aig") is not None  # bulk route
        assert_same_aig(loads_aag(text), reference_parse(text))

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["csa", "booth"]), width=st.integers(2, 10))
    def test_multipliers_match_reference(self, kind, width):
        text = dumps_aag(make_multiplier(width, kind).aig)
        assert _loads_canonical(text, "aig") is not None  # bulk route
        assert_same_aig(loads_aag(text, name="m"),
                        reference_parse(text, name="m"))

    def test_dumps_output_takes_the_bulk_route(self, csa4, booth4,
                                               refuse_fallback):
        for aig in (csa4.aig, booth4.aig, random_aig(seed=3)):
            parsed = loads_aag(dumps_aag(aig))
            assert simulation_equivalent(aig, parsed)
            assert parsed.num_ands == aig.num_ands

    def test_read_aiger_takes_the_bulk_route(self, csa4, tmp_path,
                                             refuse_fallback):
        path = tmp_path / "mult.aag"
        write_aag(csa4.aig, path)
        assert read_aiger(path).num_ands == csa4.aig.num_ands

    @pytest.mark.parametrize("variant", [
        "permuted_inputs", "constant_fanin", "duplicate_and",
        "swapped_fanins", "crlf", "trailing_space_input",
        "trailing_space_and", "no_final_newline", "nineteen_digit_literal",
    ])
    def test_non_canonical_variants_fall_back(self, variant, csa4,
                                              parse_spy):
        text = {
            # Legal, but inputs 2 and 4 trade variables.
            "permuted_inputs": "aag 3 2 0 1 1\n4\n2\n6\n6 4 3\n",
            # AND(x, TRUE) folds to x; the output follows the fold.
            "constant_fanin": "aag 4 2 0 2 2\n2\n4\n6\n8\n6 4 1\n8 6 2\n",
            # The second AND re-strashes onto the first.
            "duplicate_and": "aag 4 2 0 2 2\n2\n4\n6\n9\n6 4 2\n8 4 2\n",
            "swapped_fanins": "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\n",
            "crlf": dumps_aag(csa4.aig).replace("\n", "\r\n"),
            "trailing_space_input": dumps_aag(csa4.aig).replace(
                "\n2\n", "\n2 \n", 1),
            "trailing_space_and": dumps_aag(csa4.aig).replace(
                " 2\n", " 2 \n", 1),
            "no_final_newline": "aag 3 2 0 1 1\n2\n4\n7\n6 4 2",
            "nineteen_digit_literal": "aag 3 2 0 1 1\n2\n4\n"
                                      "0000000000000000006\n6 4 2\n",
        }[variant]
        assert text != dumps_aag(csa4.aig)
        parsed = loads_aag(text)
        assert parse_spy == ["aig"]  # declined by the bulk route
        assert_same_aig(parsed, reference_parse(text))

    def test_variants_fold_like_the_reference(self):
        folded = loads_aag("aag 4 2 0 2 2\n2\n4\n6\n8\n6 4 1\n8 6 2\n")
        assert folded.num_ands == 1 and folded.outputs[0] == 4
        merged = loads_aag("aag 4 2 0 2 2\n2\n4\n6\n9\n6 4 2\n8 4 2\n")
        assert merged.num_ands == 1 and merged.outputs == [6, 7]

    @pytest.mark.parametrize("netlist", MALFORMED_NETLISTS)
    def test_malformed_messages_match_reference(self, netlist):
        with pytest.raises(ValueError):
            reference_parse(netlist)
        assert_same_outcome(netlist)

    @pytest.mark.parametrize("netlist", [
        "aag 3 2 0 1 1\n2\n4\n8\n6 4 2\n",        # output past last var
        "aag 3 2 0 1 1\n2\n4\n6\n6 6 2\n",        # AND reads itself
        "aag 4 2 0 1 2\n2\n4\n8\n6 8 2\n8 4 2\n",  # forward reference
        "aag 2 2 0 1 1\n2\n4\n6\n6 4 2\n",        # max_var too small
    ])
    def test_well_lexed_malformed_messages_match_reference(self, netlist):
        """Malformed text that passes the bulk lexer and fails a check."""
        with pytest.raises(ValueError):
            reference_parse(netlist)
        assert_same_outcome(netlist)

    def test_every_truncation_matches_reference(self, csa4):
        text = dumps_aag(csa4.aig)
        lines = text.splitlines(keepends=True)
        for cut in range(len(lines) + 1):
            assert_same_outcome("".join(lines[:cut]))
            assert_same_outcome("".join(lines[:cut]).rstrip("\n"))

    def test_every_character_truncation_matches_reference(self):
        text = (FIXTURES / "half_adder.aag").read_text()
        for cut in range(len(text) + 1):
            assert_same_outcome(text[:cut])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_single_character_edits_match_reference(self, seed, data):
        text = dumps_aag(random_aig(num_inputs=3, num_ands=8,
                                    num_outputs=2, seed=seed))
        where = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from(list("0123456789 \n\r-x")))
        action = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "insert":
            edited = text[:where] + char + text[where:]
        elif action == "replace":
            edited = text[:where] + char + text[where + 1:]
        else:
            edited = text[:where] + text[where + 1:]
        assert_same_outcome(edited)

    @pytest.mark.parametrize("netlist", [
        "aag 1000000000000 1 0 1 0\n2\n2\n",
        "aag 1000000000000 1000000000000 0 0 0\n2\n",
        "aag 1000000000000 0 0 1000000000000 0\n2\n",
        "aag 1000000000000 1 0 0 999999999999\n2\n4 2 2\n",
    ])
    def test_huge_header_counts_allocate_nothing_proportional(self, netlist):
        tracemalloc.start()
        try:
            assert_same_outcome(netlist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestLazyStrash:
    def test_add_and_finds_parsed_nodes(self, csa4):
        aig = loads_aag(dumps_aag(csa4.aig))
        assert aig._strash is None  # parsing builds no strash dict
        num_ands = aig.num_ands
        for var in list(aig.and_vars())[::7]:
            f0, f1 = aig.fanins(var)
            assert aig.add_and(f1, f0) == 2 * var
            assert aig.find_and(f0, f1) == 2 * var
        assert aig.num_ands == num_ands

    def test_appending_after_parse_clears_the_array_cache(self, csa4):
        aig = loads_aag(dumps_aag(csa4.aig))
        fanin0, _ = aig.fanin_arrays()
        assert not fanin0.flags.writeable
        with pytest.raises(ValueError):
            fanin0[0] = 0
        a, b = aig.input_lit(0), aig.input_lit(1)
        new = aig.add_and(a ^ 1, b ^ 1)
        assert new >> 1 == aig.num_vars - 1  # a node was appended
        assert aig.find_and(b ^ 1, a ^ 1) == new
        fanin0, fanin1 = aig.fanin_arrays()
        assert len(fanin0) == aig.num_vars
        assert (fanin0[new >> 1], fanin1[new >> 1]) == (a ^ 1, b ^ 1)
