"""Reader/writer for the AIGER interchange format (ASCII ``.aag`` and
binary ``.aig``), combinational subset.

The paper's pipeline consumes AIGs produced by ABC; this module lets the
reproduction exchange netlists with ABC or any AIGER-speaking tool.  Only
combinational networks are supported (no latches), which covers every
benchmark in the paper.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np

from repro.aig.graph import AIG, lit_not

__all__ = ["write_aag", "write_aig", "read_aiger", "dumps_aag", "loads_aag"]


def dumps_aag(aig: AIG) -> str:
    """Serialize to the ASCII AIGER format as a string."""
    max_var = aig.num_vars - 1
    lines = [f"aag {max_var} {aig.num_inputs} 0 {aig.num_outputs} {aig.num_ands}"]
    for var in aig.input_vars():
        lines.append(str(2 * var))
    for lit in aig.outputs:
        lines.append(str(lit))
    for var, f0, f1 in aig.iter_ands():
        # AIGER requires rhs0 >= rhs1; AIG normalizes f0 <= f1.
        lines.append(f"{2 * var} {f1} {f0}")
    for index, name in enumerate(aig.input_names):
        lines.append(f"i{index} {name}")
    for index, name in enumerate(aig.output_names):
        lines.append(f"o{index} {name}")
    lines.append("c")
    lines.append(aig.name)
    return "\n".join(lines) + "\n"


def write_aag(aig: AIG, path: str | Path) -> None:
    """Write the ASCII ``.aag`` format."""
    Path(path).write_text(dumps_aag(aig))


def _encode_varint(value: int) -> bytes:
    """AIGER's LEB128-style delta encoding."""
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _decode_varint(stream: io.BufferedIOBase) -> int:
    value = 0
    shift = 0
    while True:
        byte = stream.read(1)
        if not byte:
            raise ValueError("truncated binary AIGER file")
        part = byte[0]
        value |= (part & 0x7F) << shift
        if not part & 0x80:
            return value
        shift += 7


def write_aig(aig: AIG, path: str | Path) -> None:
    """Write the binary ``.aig`` format (delta-encoded ANDs)."""
    max_var = aig.num_vars - 1
    with open(path, "wb") as stream:
        header = f"aig {max_var} {aig.num_inputs} 0 {aig.num_outputs} {aig.num_ands}\n"
        stream.write(header.encode("ascii"))
        for lit in aig.outputs:
            stream.write(f"{lit}\n".encode("ascii"))
        for var, f0, f1 in aig.iter_ands():
            lhs = 2 * var
            rhs0, rhs1 = max(f0, f1), min(f0, f1)
            stream.write(_encode_varint(lhs - rhs0))
            stream.write(_encode_varint(rhs0 - rhs1))
        symbols = [f"i{k} {name}\n" for k, name in enumerate(aig.input_names)]
        symbols += [f"o{k} {name}\n" for k, name in enumerate(aig.output_names)]
        stream.write("".join(symbols).encode("ascii"))
        stream.write(f"c\n{aig.name}\n".encode("ascii"))


def loads_aag(text: str, name: str = "aig") -> AIG:
    """Parse ASCII AIGER text into an :class:`AIG` (re-strashed).

    Text already in strashed canonical form (what :func:`dumps_aag`, ABC
    and every strashed writer emit) is parsed in bulk, with no per-line
    Python work.  Anything else, legal or malformed, goes line by line
    through the reference parser, which re-strashes it and owns every
    error message.  Both routes build the same AIG.
    """
    aig = _loads_canonical(text, name)
    if aig is None:
        aig = _parse_ascii(text.splitlines(), name)
    return aig


def read_aiger(path: str | Path, name: str | None = None) -> AIG:
    """Read a ``.aag`` or ``.aig`` file, auto-detected from the header."""
    data = Path(path).read_bytes()
    title = name if name is not None else Path(path).stem
    if data.startswith(b"aag"):
        return loads_aag(data.decode("ascii"), title)
    if data.startswith(b"aig"):
        return _parse_binary(data, title)
    raise ValueError(f"{path}: not an AIGER file (header {data[:3]!r})")


def _parse_header(line: str) -> tuple[int, int, int, int, int]:
    parts = line.split()
    if len(parts) != 6 or parts[0] not in ("aag", "aig"):
        raise ValueError(f"malformed AIGER header: {line!r}")
    try:
        max_var, num_in, num_latch, num_out, num_and = (
            int(p) for p in parts[1:]
        )
    except ValueError:
        raise ValueError(f"non-numeric AIGER header field: {line!r}") from None
    if min(max_var, num_in, num_latch, num_out, num_and) < 0:
        raise ValueError(f"negative count in AIGER header: {line!r}")
    if num_latch:
        raise ValueError("sequential AIGER (latches) is not supported")
    if num_in + num_and > max_var:
        raise ValueError(
            f"AIGER header claims {num_in} inputs + {num_and} ANDs "
            f"but only {max_var} variables: {line!r}"
        )
    return max_var, num_in, num_latch, num_out, num_and


def _apply_symbols(aig: AIG, lines: list[str]) -> None:
    names_in = dict(enumerate(aig.input_names))
    names_out = dict(enumerate(aig.output_names))
    for line in lines:
        if line.startswith("c"):
            break
        if not line or line[0] not in "io":
            continue
        kind = line[0]
        head, _, symbol = line[1:].partition(" ")
        if not head.isdigit() or not symbol:
            continue
        index = int(head)
        if kind == "i" and index in names_in:
            names_in[index] = symbol
        elif kind == "o" and index in names_out:
            names_out[index] = symbol
    aig._input_names = [names_in[k] for k in sorted(names_in)]
    aig._output_names = [names_out[k] for k in sorted(names_out)]


def _translate(lit: int, lit_map: dict[int, int]) -> int:
    var_lit = lit_map.get(lit & ~1)
    if var_lit is None:
        raise ValueError(f"literal {lit} used before definition")
    return lit_not(var_lit) if lit & 1 else var_lit


def _take_line(lines: list[str], cursor: int, what: str) -> str:
    """The next definition line, or a clear error for truncated input."""
    if cursor >= len(lines):
        raise ValueError(
            f"truncated AIGER input: expected {what} on line {cursor + 1}"
        )
    return lines[cursor]


def _take_int(line: str, what: str) -> int:
    """The line's single leading integer, validated as a literal."""
    fields = line.split()
    if not fields:
        raise ValueError(f"blank AIGER line where {what} was expected")
    try:
        value = int(fields[0])
    except ValueError:
        raise ValueError(
            f"non-numeric AIGER {what}: {fields[0]!r}"
        ) from None
    if value < 0:
        raise ValueError(f"negative AIGER {what}: {value}")
    return value


def _parse_ascii(lines: list[str], name: str) -> AIG:
    if not lines:
        raise ValueError("empty AIGER input")
    max_var, num_in, _latches, num_out, num_and = _parse_header(lines[0])
    aig = AIG(name=name)
    lit_map: dict[int, int] = {0: 0}
    cursor = 1
    for _ in range(num_in):
        file_lit = _take_int(_take_line(lines, cursor, "an input literal"),
                             "input literal")
        if file_lit < 2 or file_lit & 1:
            raise ValueError(
                f"invalid AIGER input literal {file_lit}: inputs must be "
                "positive even literals"
            )
        if file_lit in lit_map:
            raise ValueError(f"duplicate AIGER definition of literal {file_lit}")
        lit_map[file_lit] = aig.add_input()
        cursor += 1
    output_lits = []
    for _ in range(num_out):
        output_lits.append(
            _take_int(_take_line(lines, cursor, "an output literal"),
                      "output literal")
        )
        cursor += 1
    for _ in range(num_and):
        fields = _take_line(lines, cursor, "an AND definition").split()
        if len(fields) != 3:
            raise ValueError(
                f"malformed AIGER AND line (need 'lhs rhs0 rhs1'): "
                f"{lines[cursor]!r}"
            )
        try:
            lhs, rhs0, rhs1 = (int(p) for p in fields)
        except ValueError:
            raise ValueError(
                f"non-numeric AIGER AND line: {lines[cursor]!r}"
            ) from None
        cursor += 1
        if lhs < 2 or lhs & 1:
            raise ValueError(
                f"invalid AIGER AND literal {lhs}: definitions must be "
                "positive even literals"
            )
        if min(rhs0, rhs1) < 0:
            raise ValueError(f"negative fan-in literal in AND {lhs}")
        if lhs in lit_map:
            raise ValueError(f"duplicate AIGER definition of literal {lhs}")
        lit_map[lhs] = aig.add_and(
            _translate(rhs0, lit_map), _translate(rhs1, lit_map)
        )
    for lit in output_lits:
        aig.add_output(_translate(lit, lit_map))
    _apply_symbols(aig, lines[cursor:])
    return aig


# The bulk route's lexer: ASCII digits only, and at most 18 of them, so
# every literal fits an int64.  Text that misses any of these patterns
# (CRLF, tabs, extra spaces, signs, a missing final newline...) declines
# to the reference parser.
_LIT = "[0-9]{1,18}"
_CANONICAL_HEADER = re.compile("aag " + " ".join([f"({_LIT})"] * 5) + "\n")


def _loads_canonical(text: str, name: str) -> AIG | None:
    """Bulk-parse text in strashed canonical form, else return ``None``.

    Canonical form: inputs are ``2, 4, .., 2I``; AND ``k`` defines
    ``2(I+1+k)`` as ``rhs0 > rhs1`` over two distinct non-constant
    variables defined earlier; no two ANDs share a fan-in pair; every
    output literal is defined.  The reference parser maps each literal
    of such a file to itself and creates every AND as written, so the
    fan-in columns can be adopted as they are.  Every check is on whole
    arrays; nothing is sized by a header count the text cannot hold.
    """
    header = _CANONICAL_HEADER.match(text)
    if header is None:
        return None
    max_var, num_in, num_latch, num_out, num_and = map(int, header.groups())
    start = header.end()
    # A literal line takes at least 2 characters, an AND line at least 6.
    if (num_latch or num_in + num_and > max_var
            or 2 * (num_in + num_out) + 6 * num_and > len(text) - start):
        return None
    body = re.compile(
        rf"(?:{_LIT}\n){{{num_in + num_out}}}"
        rf"(?:{_LIT} {_LIT} {_LIT}\n){{{num_and}}}"
    ).match(text, start)
    if body is None:
        return None
    values = np.fromstring(text[start:body.end()], dtype=np.int64, sep=" ")
    first = 1 + num_in
    num_vars = first + num_and
    outputs = values[num_in:num_in + num_out]
    lhs, rhs0, rhs1 = values[num_in + num_out:].reshape(num_and, 3).T
    and_vars = np.arange(first, num_vars, dtype=np.int64)
    var0, var1 = rhs0 >> 1, rhs1 >> 1
    if not (np.array_equal(values[:num_in], 2 * np.arange(1, first))
            and np.all(outputs < 2 * num_vars)
            and np.array_equal(lhs, 2 * and_vars)
            and np.all((var1 > 0) & (var1 < var0) & (var0 < and_vars))):
        return None
    pairs = np.sort(rhs1 * (2 * num_vars) + rhs0)
    if np.any(pairs[1:] == pairs[:-1]):
        return None
    fanin0 = np.full(num_vars, -1, dtype=np.int64)
    fanin1 = np.full(num_vars, -1, dtype=np.int64)
    fanin0[first:] = rhs1
    fanin1[first:] = rhs0
    aig = AIG._from_strashed_arrays(name, num_in, fanin0, fanin1, outputs)
    _apply_symbols(aig, text[body.end():].splitlines())
    return aig


def _parse_binary(data: bytes, name: str) -> AIG:
    stream = io.BytesIO(data)
    header = b""
    while not header.endswith(b"\n"):
        byte = stream.read(1)
        if not byte:
            raise ValueError("truncated binary AIGER header")
        header += byte
    max_var, num_in, _latches, num_out, num_and = _parse_header(header.decode("ascii"))

    aig = AIG(name=name)
    lit_map: dict[int, int] = {0: 0}
    for index in range(num_in):
        # Binary AIGER fixes input literals to 2, 4, ..., 2 * num_in.
        lit_map[2 * (index + 1)] = aig.add_input()

    output_lits = []
    for _ in range(num_out):
        line = b""
        while not line.endswith(b"\n"):
            byte = stream.read(1)
            if not byte:  # EOF mid-line: would loop forever otherwise
                raise ValueError("truncated binary AIGER file")
            line += byte
        try:
            output_lits.append(int(line.strip()))
        except ValueError:
            raise ValueError(
                f"non-numeric binary AIGER output literal: {line!r}"
            ) from None

    for index in range(num_and):
        lhs = 2 * (num_in + index + 1)
        delta0 = _decode_varint(stream)
        delta1 = _decode_varint(stream)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        lit_map[lhs] = aig.add_and(
            _translate(rhs0, lit_map), _translate(rhs1, lit_map)
        )
    for lit in output_lits:
        aig.add_output(_translate(lit, lit_map))
    rest = stream.read().decode("ascii", errors="replace").splitlines()
    _apply_symbols(aig, rest)
    return aig
