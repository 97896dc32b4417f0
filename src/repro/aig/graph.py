"""And-Inverter Graph (AIG) core data structure.

An AIG is the uniform Boolean-network representation used throughout the
paper: every internal node is a two-input AND gate and edges may be
complemented (inverters).  We follow the AIGER literal convention:

* a *variable* is an integer index; variable ``0`` is the constant FALSE;
* a *literal* is ``2 * var + neg`` where ``neg`` is 1 when the edge is
  complemented, so literal ``0`` is constant false and literal ``1`` constant
  true;
* primary inputs occupy variables ``1 .. num_inputs`` and AND nodes follow,
  which makes the variable order a topological order by construction.

The class performs constant folding and structural hashing (*strash*) on the
fly, mirroring ABC's ``strash``: an AND over the same (normalized) literal
pair is created only once, and trivial ANDs fold to existing literals.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from repro.kernels.registry import LEVELS_SCALAR_CUTOFF, get_kernel

__all__ = [
    "AIG",
    "lit_var",
    "lit_neg",
    "lit_not",
    "make_lit",
    "CONST0",
    "CONST1",
]

CONST0 = 0  # literal: constant false
CONST1 = 1  # literal: constant true


def make_lit(var: int, neg: bool | int = 0) -> int:
    """Build a literal from a variable index and a complement flag."""
    return 2 * var + int(bool(neg))


def lit_var(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1


def lit_neg(lit: int) -> int:
    """1 if the literal is complemented, else 0."""
    return lit & 1


def lit_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


def _int64_column(values) -> array:
    """A growable int64 column holding a copy of a C-contiguous 1-D
    int64 array (one buffer copy, no per-element Python ints)."""
    column = array("q")
    column.frombytes(memoryview(values).cast("B"))
    return column


class AIG:
    """A combinational And-Inverter Graph with structural hashing.

    Typical construction::

        aig = AIG(name="toy")
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output(aig.add_xor(a, b), "y")

    Variables are topologically ordered (fan-ins of a node always have
    smaller variable indices), so iterating ``aig.and_vars()`` visits nodes
    in a valid evaluation order.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # The fan-in columns: one growable int64 array per fan-in, indexed
        # by variable; entry 0 is the constant node.  For PIs and the
        # constant, fan-in literals are stored as -1.  Indexing yields
        # Python ints; fanin_arrays() is a cached NumPy copy of them.
        self._fanin0 = array("q", [-1])
        self._fanin1 = array("q", [-1])
        self._num_inputs = 0
        self._input_names: list[str] = []
        self._outputs = array("q")  # literals
        self._output_names: list[str] = []
        # Lazy: built from the fan-in columns by the first add_and/find_and,
        # so a graph that is only read (a parsed netlist) never pays for it.
        self._strash: dict[tuple[int, int], int] | None = None
        self._levels_arr = None  # lazy np.int64 level per variable
        self._fanin_arrays = None  # lazy np.int64 copies of the columns
        self._pair_groups = None  # lazy fan-in pair index (array form)
        self._pair_index: dict | None = None  # lazy fan-in pair index (dict)
        self._shash: tuple[tuple[int, int], str] | None = None  # lazy cache

    @classmethod
    def _from_strashed_arrays(cls, name: str, num_inputs: int, fanin0,
                              fanin1, outputs) -> "AIG":
        """An AIG adopting already-strashed int64 fan-in arrays as is.

        ``fanin0``/``fanin1`` have one entry per variable (``-1`` for the
        constant and the inputs) and must be exactly what ``add_and``
        would have built: every AND's fan-ins normalized ``f0 < f1``,
        non-constant, on distinct earlier variables, with no repeated
        pair.  The caller checks that; nothing is re-checked here.  Each
        array is copied once into the matching column and also becomes
        the :meth:`fanin_arrays` cache (read-only); ports get the default
        names.
        """
        aig = cls(name=name)
        aig._fanin0 = _int64_column(fanin0)
        aig._fanin1 = _int64_column(fanin1)
        aig._num_inputs = num_inputs
        aig._input_names = [f"i{k}" for k in range(num_inputs)]
        aig._outputs = _int64_column(outputs)
        aig._output_names = [f"o{k}" for k in range(len(aig._outputs))]
        fanin0.flags.writeable = False
        fanin1.flags.writeable = False
        aig._fanin_arrays = (fanin0, fanin1)
        return aig

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str | None = None) -> int:
        """Create a primary input and return its (positive) literal.

        Inputs must be created before any AND node so that variables stay
        topologically ordered in the AIGER convention.
        """
        if self.num_ands:
            raise ValueError("all primary inputs must be created before AND nodes")
        self._num_inputs += 1
        var = len(self._fanin0)
        self._fanin0.append(-1)
        self._fanin1.append(-1)
        self._input_names.append(name if name is not None else f"i{self._num_inputs - 1}")
        self._invalidate_structure_caches()
        return make_lit(var)

    def _invalidate_structure_caches(self) -> None:
        """Drop every derived-structure cache after a node is appended."""
        self._levels_arr = None
        self._fanin_arrays = None
        self._pair_groups = None
        self._pair_index = None

    def add_inputs(self, count: int, prefix: str = "i") -> list[int]:
        """Create ``count`` primary inputs named ``prefix0 .. prefix{count-1}``."""
        return [self.add_input(f"{prefix}{k}") for k in range(count)]

    def add_and(self, a: int, b: int) -> int:
        """AND of two literals with constant folding and structural hashing."""
        self._check_lit(a)
        self._check_lit(b)
        # Constant folding.
        if a == CONST0 or b == CONST0 or a == lit_not(b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1 or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        strash = self._strash_index()
        existing = strash.get(key)
        if existing is not None:
            return make_lit(existing)
        var = len(self._fanin0)
        self._fanin0.append(a)
        self._fanin1.append(b)
        strash[key] = var
        self._invalidate_structure_caches()
        return make_lit(var)

    def add_output(self, lit: int, name: str | None = None) -> None:
        """Register a primary output driven by ``lit``."""
        self._check_lit(lit)
        self._outputs.append(lit)
        self._output_names.append(name if name is not None else f"o{len(self._outputs) - 1}")

    # Derived gates -----------------------------------------------------
    def add_not(self, a: int) -> int:
        """Inversion is free in an AIG: just complement the literal."""
        return lit_not(a)

    def add_or(self, a: int, b: int) -> int:
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_nand(self, a: int, b: int) -> int:
        return lit_not(self.add_and(a, b))

    def add_nor(self, a: int, b: int) -> int:
        return self.add_and(lit_not(a), lit_not(b))

    def add_xor(self, a: int, b: int) -> int:
        """XOR via the standard 3-AND decomposition ``(a·¬b) + (¬a·b)``."""
        return self.add_or(self.add_and(a, lit_not(b)), self.add_and(lit_not(a), b))

    def add_xnor(self, a: int, b: int) -> int:
        return lit_not(self.add_xor(a, b))

    def add_mux(self, sel: int, then_lit: int, else_lit: int) -> int:
        """``sel ? then_lit : else_lit``."""
        return self.add_or(self.add_and(sel, then_lit), self.add_and(lit_not(sel), else_lit))

    def add_maj3(self, a: int, b: int, c: int) -> int:
        """Majority-of-three as ``a·b + c·(a+b)`` (the carry-out form)."""
        return self.add_or(self.add_and(a, b), self.add_and(c, self.add_or(a, b)))

    def add_and_multi(self, lits: Iterable[int]) -> int:
        """Balanced AND over arbitrarily many literals."""
        items = list(lits)
        if not items:
            return CONST1
        while len(items) > 1:
            items = [
                self.add_and(items[k], items[k + 1]) if k + 1 < len(items) else items[k]
                for k in range(0, len(items), 2)
            ]
        return items[0]

    def add_or_multi(self, lits: Iterable[int]) -> int:
        """Balanced OR over arbitrarily many literals."""
        return lit_not(self.add_and_multi(lit_not(x) for x in lits))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of variables including the constant node."""
        return len(self._fanin0)

    @property
    def num_inputs(self) -> int:
        return self._num_inputs

    @property
    def num_ands(self) -> int:
        return len(self._fanin0) - 1 - self._num_inputs

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_edges(self) -> int:
        """Number of AND fan-in edges (two per AND node)."""
        return 2 * self.num_ands

    @property
    def outputs(self) -> list[int]:
        """Output literals, in declaration order."""
        return list(self._outputs)

    @property
    def output_names(self) -> list[str]:
        return list(self._output_names)

    @property
    def input_names(self) -> list[str]:
        return list(self._input_names)

    def input_vars(self) -> range:
        """Variable indices of the primary inputs."""
        return range(1, 1 + self._num_inputs)

    def input_lit(self, index: int) -> int:
        """Literal of the ``index``-th primary input."""
        if not 0 <= index < self._num_inputs:
            raise IndexError(f"input index {index} out of range")
        return make_lit(1 + index)

    def and_vars(self) -> range:
        """Variable indices of AND nodes, in topological order."""
        return range(1 + self._num_inputs, self.num_vars)

    def is_input(self, var: int) -> bool:
        return 1 <= var <= self._num_inputs

    def is_and(self, var: int) -> bool:
        return var > self._num_inputs and var < self.num_vars

    def fanin0(self, var: int) -> int:
        """First fan-in literal of an AND variable."""
        if not self.is_and(var):
            raise ValueError(f"variable {var} is not an AND node")
        return self._fanin0[var]

    def fanin1(self, var: int) -> int:
        """Second fan-in literal of an AND variable."""
        if not self.is_and(var):
            raise ValueError(f"variable {var} is not an AND node")
        return self._fanin1[var]

    def fanins(self, var: int) -> tuple[int, int]:
        """Both fan-in literals of an AND variable."""
        return self.fanin0(var), self.fanin1(var)

    def find_and(self, a: int, b: int) -> int | None:
        """Return the existing AND literal over ``(a, b)`` or None.

        Performs the same normalization as :meth:`add_and` but never creates
        a node; used by the reasoning code to locate half-adder carries.
        """
        if a > b:
            a, b = b, a
        var = self._strash_index().get((a, b))
        return None if var is None else make_lit(var)

    def _strash_index(self) -> dict[tuple[int, int], int]:
        """The ``(fanin0, fanin1) -> var`` strash dict, built on first use."""
        if self._strash is None:
            first = 1 + self._num_inputs
            self._strash = dict(zip(
                zip(self._fanin0[first:], self._fanin1[first:]),
                range(first, len(self._fanin0)),
            ))
        return self._strash

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    # Below this many AND nodes the per-node Python recurrence beats the
    # wavefront sweep's per-round kernel call overhead (a few µs per level).
    # The tunable constant lives in the kernel registry (one knob for the
    # whole repo); this stays a class attribute so tests can monkeypatch it.
    _LEVELS_VECTOR_MIN = LEVELS_SCALAR_CUTOFF

    def levels_array(self) -> "object":
        """Topological level of every variable as a cached int64 array.

        PIs and the constant are level 0.  Computed by the registered
        ``kahn_propagate`` kernel (:mod:`repro.kernels`): a longest-path
        wavefront over the AND→AND CSR fan-out index, with every AND
        seeded at level 1 so primary-input fan-ins contribute without
        appearing as graph nodes — O(|V| + |E|) work, replacing the old
        per-node Python recurrence on large graphs.  Small graphs (fewer
        than ``_LEVELS_VECTOR_MIN`` ANDs) keep the scalar loop, which has
        lower constant overhead there.
        """
        import numpy as np

        if self._levels_arr is not None:
            return self._levels_arr
        num = self.num_vars
        first = 1 + self._num_inputs
        n_ands = num - first
        if n_ands < self._LEVELS_VECTOR_MIN:
            lev = [0] * num
            fanin0, fanin1 = self._fanin0, self._fanin1
            for var in range(first, num):
                lev[var] = 1 + max(lev[fanin0[var] >> 1], lev[fanin1[var] >> 1])
            self._levels_arr = np.asarray(lev, dtype=np.int64)
            return self._levels_arr
        fanin0, fanin1 = self.fanin_arrays()
        f0v = fanin0[first:] >> 1
        f1v = fanin1[first:] >> 1
        # Number of *AND* fan-ins per AND node (0-based): the Kahn indegree.
        indegree = (f0v >= first).astype(np.int64) + (f1v >= first)
        # CSR index: AND producer -> the AND nodes that read it.
        src = np.concatenate([f0v, f1v]) - first
        dst = np.concatenate([np.arange(n_ands), np.arange(n_ands)])
        keep = src >= 0
        src, dst = src[keep], dst[keep]
        order = np.argsort(src, kind="stable")
        src_sorted, dst_sorted = src[order], dst[order]
        bounds = np.searchsorted(src_sorted, np.arange(n_ands + 1))
        values = np.ones(n_ands, dtype=np.int64)
        get_kernel("kahn_propagate")(bounds, dst_sorted, indegree, values)
        lev = np.zeros(num, dtype=np.int64)
        lev[first:] = values
        self._levels_arr = lev
        return lev

    def depth(self) -> int:
        """Maximum level over the output cones (0 for constant outputs)."""
        if not self._outputs:
            return 0
        lev = self.levels_array()
        return max(int(lev[lit_var(o)]) for o in self._outputs)

    def fanout_counts(self) -> list[int]:
        """Number of AND fan-outs per variable (output edges not counted)."""
        import numpy as np

        if self.num_ands == 0:
            return [0] * self.num_vars
        first = 1 + self._num_inputs
        fanin0, fanin1 = self.fanin_arrays()
        readers = np.concatenate([fanin0[first:] >> 1, fanin1[first:] >> 1])
        return np.bincount(readers, minlength=self.num_vars).tolist()

    def and_pair_groups(self) -> tuple["object", "object", "object"]:
        """AND nodes grouped by their (unordered) fan-in variable pair.

        Returns ``(keys, starts, members)``: ``keys`` is a sorted int64
        array of packed pair keys ``lo * num_vars + hi`` (``lo < hi``;
        same-variable pairs are skipped), ``members`` holds the AND
        variables grouped by key — ascending within each group — and
        ``starts`` has ``len(keys) + 1`` offsets so group ``g`` is
        ``members[starts[g]:starts[g + 1]]``.  This is the array form of
        the half-adder carry pool; it is cached and invalidated whenever a
        node is appended, so batch callers pay the build once per graph.
        """
        import numpy as np

        if self._pair_groups is not None:
            return self._pair_groups
        first = 1 + self._num_inputs
        if self.num_ands == 0:
            empty = np.zeros(0, dtype=np.int64)
            self._pair_groups = (empty, np.zeros(1, dtype=np.int64), empty)
            return self._pair_groups
        fanin0, fanin1 = self.fanin_arrays()
        f0v = fanin0[first:] >> 1
        f1v = fanin1[first:] >> 1
        lo = np.minimum(f0v, f1v)
        hi = np.maximum(f0v, f1v)
        keep = lo != hi
        members = np.arange(first, self.num_vars, dtype=np.int64)[keep]
        key = lo[keep] * np.int64(self.num_vars) + hi[keep]
        order = np.argsort(key, kind="stable")  # stable: members stay ascending
        sorted_key, members = key[order], members[order]
        if len(sorted_key):
            group_first = np.r_[True, sorted_key[1:] != sorted_key[:-1]]
            keys = sorted_key[group_first]
            starts = np.r_[np.flatnonzero(group_first), len(sorted_key)]
        else:
            keys = sorted_key
            starts = np.zeros(1, dtype=np.int64)
        self._pair_groups = (keys, starts.astype(np.int64), members)
        return self._pair_groups

    def and_pair_index(self) -> dict[tuple[int, int], list[int]]:
        """Dict view of :meth:`and_pair_groups`: ``(lo, hi) -> [and vars]``.

        Candidate lists are ascending.  The mapping is cached on the graph
        (rebuilt after any node append) and shared between callers — treat
        it as read-only.
        """
        if self._pair_index is not None:
            return self._pair_index
        keys, starts, members = self.and_pair_groups()
        num = self.num_vars
        member_list = members.tolist()
        start_list = starts.tolist()
        index: dict[tuple[int, int], list[int]] = {}
        for g, key in enumerate(keys.tolist()):
            index[(key // num, key % num)] = member_list[
                start_list[g]:start_list[g + 1]
            ]
        self._pair_index = index
        return index

    def transitive_fanin(self, roots: Iterable[int]) -> set[int]:
        """Set of variables in the transitive fan-in cone of ``roots`` (vars)."""
        seen: set[int] = set()
        stack = [v for v in roots]
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            if self.is_and(var):
                stack.append(self._fanin0[var] >> 1)
                stack.append(self._fanin1[var] >> 1)
        return seen

    def transitive_fanin_array(self, roots: Iterable[int]) -> "object":
        """:meth:`transitive_fanin` as a sorted int64 variable array.

        A reverse-reachability wavefront over :meth:`fanin_arrays`: each
        round gathers both fan-in variables of every AND in the frontier
        in one vectorized step and keeps only the never-seen ones, so the
        Python-level iteration count is the cone depth, not its size.
        Same membership as the set-based walk (roots included, PIs and
        the constant included where reached).  A root that is not a
        variable of this graph raises ``ValueError`` (a negative one
        would otherwise index from the end).
        """
        import numpy as np

        seen = np.zeros(self.num_vars, dtype=bool)
        frontier = np.fromiter(roots, dtype=np.int64)
        if frontier.size and (frontier.min() < 0
                              or frontier.max() >= self.num_vars):
            raise ValueError(f"roots must be variables in "
                             f"[0, {self.num_vars}), got {frontier.min()}"
                             f"..{frontier.max()}")
        fanin0, fanin1 = self.fanin_arrays()
        first_and = 1 + self._num_inputs
        while frontier.size:
            seen[frontier] = True
            ands = frontier[frontier >= first_and]
            if not ands.size:
                break
            reached = np.concatenate([fanin0[ands] >> 1, fanin1[ands] >> 1])
            frontier = np.unique(reached[~seen[reached]])
        return np.flatnonzero(seen)

    def iter_ands(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(var, fanin0_lit, fanin1_lit)`` for every AND node."""
        for var in self.and_vars():
            yield var, self._fanin0[var], self._fanin1[var]

    def and_level_batches(self) -> Iterator["object"]:
        """Yield AND variables grouped by topological level, as int64 arrays.

        Levels come in ascending order and variables keep their index order
        within a level.  This is the wavefront the NumPy bottom-up sweeps
        iterate (cut enumeration, structural hashing): a level's nodes
        depend only on values already computed for earlier batches.
        Compiled sweeps walk variable-id order instead and never consume
        it, so callers pass the generator unstarted.
        """
        import numpy as np

        if self.num_ands == 0:
            return
        level = self.levels_array()
        and_vars = np.arange(1 + self._num_inputs, self.num_vars,
                             dtype=np.int64)
        order = np.argsort(level[and_vars], kind="stable")
        ordered = and_vars[order]
        ordered_level = level[ordered]
        starts = np.flatnonzero(
            np.r_[True, ordered_level[1:] != ordered_level[:-1]]
        )
        for begin, end in zip(starts, np.append(starts[1:], len(ordered))):
            yield ordered[begin:end]

    def fanin_arrays(self) -> tuple["object", "object"]:
        """Fan-in literals as two NumPy int64 arrays of length ``num_vars``.

        Entries for the constant node and PIs are ``-1``.  Used by the
        vectorized simulator, the feature encoder, the pairing engine and
        every array-form structure query here.  Cached until a node is
        appended; the arrays are read-only copies of the fan-in columns,
        never views: a view would pin the column's buffer, and the next
        append would raise ``BufferError``.
        """
        import numpy as np

        if self._fanin_arrays is None:
            fanin0 = np.array(self._fanin0, dtype=np.int64)
            fanin1 = np.array(self._fanin1, dtype=np.int64)
            fanin0.flags.writeable = False
            fanin1.flags.writeable = False
            self._fanin_arrays = (fanin0, fanin1)
        return self._fanin_arrays

    def structural_hash(self) -> str:
        """128-bit hex digest of the circuit *structure* (not node ids).

        The hash is computed bottom-up: every node's 64-bit mixing value is
        derived only from its fan-ins' values (with complement bits folded
        in, commutatively combined) and one final ``hashlib.blake2b`` folds
        in a version tag, the input count, and every output value in
        declaration order.  The per-node step is the registered
        ``shash_sweep`` kernel (:mod:`repro.kernels`), a splitmix64-style
        avalanche instead of a per-node ``blake2b`` loop: the C backend
        runs it as one scalar pass in variable-id order, the NumPy
        reference one topological level at a time.  The level batches
        are handed over as a lazy generator, so only the NumPy path ever
        computes levels.  Consequences:

        * it is deterministic across processes, runs, platforms and kernel
          backends (fixed mixing constants, little-endian byte fold, no
          salting), so it can key persistent or cross-process caches; the
          digest carries a version-tagged prefix (``aig-shash-v2``) — bump
          it whenever the mixing scheme changes so stale persistent entries
          can never be mistaken for current ones;
        * it is invariant under AND-node id permutation: two AIGs built from
          equivalent construction orders hash identically even though their
          variable numbering differs;
        * it is sensitive to anything that changes the computed function's
          wiring — input count/order, output order, output polarity, and
          gate structure all change the digest.

        Names (``self.name``, port symbols) are deliberately excluded: the
        hash identifies structure, which is what reasoning results depend
        on.  Because an :class:`AIG` is append-only, the digest is memoized
        on ``(num_vars, num_outputs)``.  Used by
        :mod:`repro.serve` to key the encoded-graph and reasoning-result
        LRU caches.
        """
        import hashlib

        import numpy as np

        from repro.kernels.numpy_backend import SHASH_FLIP, splitmix

        key = (self.num_vars, self.num_outputs)
        if self._shash is not None and self._shash[0] == key:
            return self._shash[1]

        node = np.zeros(self.num_vars, dtype=np.uint64)
        # The constant is seeded from "const0".  A 1-element array: uint64
        # *scalar* overflow would warn, arrays wrap.
        node[0] = splitmix(np.array([0x636F6E737430], dtype=np.uint64))[0]
        if self._num_inputs:
            node[1:1 + self._num_inputs] = splitmix(
                np.uint64(0x7069) + np.arange(self._num_inputs, dtype=np.uint64)
            )
        if self.num_ands:
            fanin0, fanin1 = self.fanin_arrays()
            get_kernel("shash_sweep")(fanin0, fanin1, 1 + self._num_inputs,
                                      node, self.and_level_batches())
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            b"aig-shash-v2:%d:%d:" % (self._num_inputs, len(self._outputs))
        )
        if self._outputs:
            out = np.array(self._outputs, dtype=np.int64)
            out_mix = (node[out >> 1]
                       ^ (out & 1).astype(np.uint64) * SHASH_FLIP)
            digest.update(out_mix.astype("<u8").tobytes())
        result = digest.hexdigest()
        self._shash = (key, result)
        return result

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _check_lit(self, lit: int) -> None:
        if lit < 0 or (lit >> 1) >= self.num_vars:
            raise ValueError(f"literal {lit} references an unknown variable")

    def stats(self) -> dict[str, int]:
        """Summary statistics (the |V|/|E| annotations of Fig. 7)."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "ands": self.num_ands,
            "nodes": self.num_vars,
            "edges": self.num_edges,
            "depth": self.depth(),
        }

    def __repr__(self) -> str:
        return (
            f"AIG(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, ands={self.num_ands})"
        )
