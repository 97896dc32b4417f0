"""C implementations of ``merge_level``, ``shash_sweep``,
``kahn_propagate`` and ``halo_prefix_counts``, via ctypes.

Import-gated: importing this module compiles
``c_kernels.c`` with the system C compiler (``cc -O2 -shared -fPIC``) and
loads the result with :class:`ctypes.CDLL`.  No compiler, a compile error
or a load error raises ``ImportError``, and the registry treats ``c`` as
unavailable (numpy serves).  ``cone_sweep`` and ``fa_join`` are not
ported; the registry serves them from numpy per kernel.

The two bottom-up sweeps are one C call per graph in ascending id order
(fan-ins precede their node in an AIG, so id order is topological):
``merge_level`` walks its ``nodes`` list and ``shash_sweep`` walks
``first .. num_vars - 1``.  Neither reads the ``level_batches`` the
numpy reference consumes, so passing a lazy generator there costs the
C path nothing.

The build is cached as ``__pycache__/c_kernels-<key>.so`` beside this
module, where ``<key>`` is a SHA-256 over the source, the compiler path
and the flags, so a changed source or toolchain never loads a stale
library.  A build is written to a temporary file and ``os.replace``-d
into place, so concurrent processes never see a half-written library;
a cached file whose ELF tables run past its end (a truncated copy) is
rebuilt rather than loaded.  When that directory is not writable (a
read-only install), the library is built in a private ``mkdtemp()``
directory, loaded, and the directory removed again.

The C functions validate every index they dereference and keep no global
state (scratch is allocated per call), and ctypes releases the GIL
around each call.  The wrappers here check dtypes, C-contiguity, shapes,
``k`` and ``num_hops`` before any pointer reaches C, raising
``TypeError`` or ``ValueError`` on a mismatch; a node list that is not
strictly ascending, or a fan-in that does not precede its node, is
rejected by C before it writes anything and raised as ``ValueError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile

import numpy as np

from repro.kernels import numpy_backend
from repro.kernels.registry import register

__all__ = ["SOURCE", "CFLAGS", "CACHE_DIR", "cached_library",
           "load_library", "merge_level", "shash_sweep", "kahn_propagate",
           "halo_prefix_counts"]

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "c_kernels.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
CACHE_DIR = os.path.join(_HERE, "__pycache__")
_COMPILE_TIMEOUT_S = 120

_EXPAND_LUT = np.ascontiguousarray(numpy_backend.EXPAND_LUT)
_WIDTH_MASK = np.ascontiguousarray(numpy_backend._WIDTH_MASK)

# Status codes of the C entry points (0 is success); see c_kernels.c.
_STATUS_EINDEX = -1
_STATUS_ENOMEM = -2
_STATUS_EORDER = -3

# halo_prefix_counts keeps one byte per node for its depth 0..K+1.
_MAX_HOPS = 254


# ---------------------------------------------------------------------------
# Build and load
# ---------------------------------------------------------------------------

def _find_compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _build_key(compiler: str) -> str:
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as fh:
        digest.update(fh.read())
    digest.update("\0".join((compiler, *CFLAGS)).encode())
    return digest.hexdigest()[:16]


def _elf_complete(path: str) -> bool:
    """Whether ``path`` is an ELF file whose header tables fit inside it.

    The section header table sits at the end of a linked object, so any
    truncated copy fails this check before the loader maps it.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(64)
            size = os.fstat(fh.fileno()).st_size
    except OSError:
        return False
    if len(header) < 52 or header[:4] != b"\x7fELF":
        return False
    order = "<" if header[5] == 1 else ">"
    if header[4] == 2 and len(header) == 64:  # ELFCLASS64
        phoff, shoff = struct.unpack_from(order + "QQ", header, 32)
        fields = struct.unpack_from(order + "HHHH", header, 54)
    elif header[4] == 1:  # ELFCLASS32
        phoff, shoff = struct.unpack_from(order + "II", header, 28)
        fields = struct.unpack_from(order + "HHHH", header, 42)
    else:
        return False
    phentsize, phnum, shentsize, shnum = fields
    return size >= max(phoff + phentsize * phnum, shoff + shentsize * shnum)


def _compile(compiler: str, path: str) -> None:
    """Build the library at ``path`` through a temp file and ``os.replace``.

    Raises ``OSError`` when the directory cannot be written and
    ``ImportError`` when the compiler fails.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".c_kernels-", suffix=".tmp",
                               dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, SOURCE],
            capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise ImportError(
                f"compiling {SOURCE} failed: {proc.stderr.strip()}"
            )
        if not _elf_complete(tmp):
            raise ImportError(f"{compiler} did not produce an ELF library")
        os.chmod(tmp, 0o755)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cached_library(cache_dir: str = CACHE_DIR) -> str:
    """Path of a complete build in ``cache_dir``, compiling it if needed."""
    compiler = _find_compiler()
    if compiler is None:
        raise ImportError("no C compiler ('cc' or 'gcc') on PATH")
    path = os.path.join(cache_dir, f"c_kernels-{_build_key(compiler)}.so")
    if not _elf_complete(path):
        _compile(compiler, path)
    return path


def load_library(cache_dir: str = CACHE_DIR) -> ctypes.CDLL:
    """Load the kernels, building into ``cache_dir`` (or a private dir)."""
    try:
        path = cached_library(cache_dir)
    except OSError:
        # Unwritable cache: build for this process only.  The mapping
        # outlives the file, so the private directory goes right away.
        private = tempfile.mkdtemp(prefix="repro-c-kernels-")
        try:
            return ctypes.CDLL(cached_library(private))
        finally:
            shutil.rmtree(private, ignore_errors=True)
    return ctypes.CDLL(path)


try:
    _LIB = load_library()
except (OSError, subprocess.SubprocessError) as exc:
    raise ImportError(f"C kernel backend unavailable: {exc}") from exc

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_LIB.repro_merge_level.argtypes = [
    _PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR,
    _I64, _I64, ctypes.c_int, ctypes.c_int32, ctypes.c_uint8, _PTR, _PTR,
]
_LIB.repro_merge_level.restype = ctypes.c_int
_LIB.repro_shash_sweep.argtypes = [_PTR, _PTR, _I64, _I64, _PTR]
_LIB.repro_shash_sweep.restype = ctypes.c_int
_LIB.repro_kahn_propagate.argtypes = [_PTR, _PTR, _I64, _PTR, _PTR, _I64]
_LIB.repro_kahn_propagate.restype = ctypes.c_int
_LIB.repro_halo_prefix_counts.argtypes = [
    _PTR, _I64, _PTR, _I64, _PTR, _I64, _I64, _PTR, _PTR,
]
_LIB.repro_halo_prefix_counts.restype = ctypes.c_int


# ---------------------------------------------------------------------------
# Checked wrappers
# ---------------------------------------------------------------------------

def _check(name: str, array, dtype, ndim: int, *, writable=False) -> None:
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        got = getattr(array, "dtype", type(array).__name__)
        raise TypeError(f"{name} must be a {np.dtype(dtype)} ndarray, "
                        f"got {got}")
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if not array.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if writable and not array.flags.writeable:
        raise ValueError(f"{name} must be writable")


def _raise_for(status: int, kernel: str) -> None:
    if status == _STATUS_ENOMEM:
        raise MemoryError(f"{kernel}: scratch allocation failed")
    if status == _STATUS_EINDEX:
        raise ValueError(f"{kernel}: index or count out of range")
    if status == _STATUS_EORDER:
        raise ValueError(f"{kernel}: nodes must be strictly ascending and "
                         "every fan-in must precede its node")


@register("merge_level", "c")
def merge_level(nodes, level_batches, fanin0, fanin1, leaves, truths, sizes,
                counts, *, k, max_cuts, include_trivial, pad, pack_limit):
    # One scalar pass over `nodes` in id order: the level batches and
    # pack_limit (int64 key compaction) only shape the numpy merge, and
    # the scalar merge compares leaf triples directly.
    del level_batches, pack_limit
    if k not in (2, 3):
        raise ValueError(f"merge_level handles k in {{2, 3}}, got k={k}")
    _check("nodes", nodes, np.int64, 1)
    _check("fanin0", fanin0, np.int64, 1)
    _check("fanin1", fanin1, np.int64, 1)
    _check("leaves", leaves, np.int32, 3, writable=True)
    _check("truths", truths, np.uint8, 2, writable=True)
    _check("sizes", sizes, np.int8, 2, writable=True)
    _check("counts", counts, np.int32, 1, writable=True)
    num_vars, slots = truths.shape
    if (leaves.shape != (num_vars, slots, 3) or sizes.shape != truths.shape
            or counts.shape != (num_vars,) or fanin0.shape != (num_vars,)
            or fanin1.shape != (num_vars,)):
        raise ValueError("merge_level: cut columns and fan-in arrays "
                         "disagree on (num_vars, slots)")
    if not 1 <= max_cuts <= slots - bool(include_trivial):
        raise ValueError(f"max_cuts={max_cuts} does not fit {slots} slots")
    if not 0 <= pad <= np.iinfo(np.int32).max:
        raise ValueError(f"pad={pad} does not fit the int32 leaf column")
    status = _LIB.repro_merge_level(
        nodes.ctypes.data, len(nodes), fanin0.ctypes.data,
        fanin1.ctypes.data, num_vars, slots, leaves.ctypes.data,
        truths.ctypes.data, sizes.ctypes.data, counts.ctypes.data,
        k, max_cuts, bool(include_trivial), pad,
        numpy_backend.TRIVIAL_TRUTH, _EXPAND_LUT.ctypes.data,
        _WIDTH_MASK.ctypes.data,
    )
    _raise_for(status, "merge_level")


@register("shash_sweep", "c")
def shash_sweep(fanin0, fanin1, first, node, level_batches):
    del level_batches  # one pass in id order needs no level batches
    _check("fanin0", fanin0, np.int64, 1)
    _check("fanin1", fanin1, np.int64, 1)
    _check("node", node, np.uint64, 1, writable=True)
    num_vars = len(node)
    if fanin0.shape != (num_vars,) or fanin1.shape != (num_vars,):
        raise ValueError("shash_sweep: node and fan-in arrays disagree on "
                         "num_vars")
    if not 0 <= first <= num_vars:
        raise ValueError(f"shash_sweep: first={first} outside "
                         f"[0, {num_vars}]")
    status = _LIB.repro_shash_sweep(fanin0.ctypes.data, fanin1.ctypes.data,
                                    first, num_vars, node.ctypes.data)
    _raise_for(status, "shash_sweep")


@register("kahn_propagate", "c")
def kahn_propagate(indptr, consumers, indegree, values):
    _check("indptr", indptr, np.int64, 1)
    _check("consumers", consumers, np.int64, 1)
    _check("indegree", indegree, np.int64, 1, writable=True)
    _check("values", values, np.int64, 1, writable=True)
    n = len(values)
    if indegree.shape != (n,) or indptr.shape != (n + 1,):
        raise ValueError("kahn_propagate: indptr must have len(values) + 1 "
                         "entries and indegree len(values)")
    status = _LIB.repro_kahn_propagate(
        indptr.ctypes.data, consumers.ctypes.data, len(consumers),
        indegree.ctypes.data, values.ctypes.data, n,
    )
    _raise_for(status, "kahn_propagate")


@register("halo_prefix_counts", "c")
def halo_prefix_counts(indptr, indices, targets, num_hops):
    _check("indptr", indptr, np.int64, 1)
    _check("indices", indices, np.int64, 1)
    _check("targets", targets, np.int64, 1)
    if len(indptr) == 0:
        raise ValueError("halo_prefix_counts: indptr needs num_nodes + 1 "
                         "entries")
    if not 0 <= num_hops <= _MAX_HOPS:
        raise ValueError(f"halo_prefix_counts handles 0 <= num_hops <= "
                         f"{_MAX_HOPS}, got num_hops={num_hops}")
    length = len(targets)
    sizes = np.zeros((length, num_hops + 1), dtype=np.int64)
    edges = np.zeros((length, num_hops), dtype=np.int64)
    status = _LIB.repro_halo_prefix_counts(
        indptr.ctypes.data, len(indptr) - 1, indices.ctypes.data,
        len(indices), targets.ctypes.data, length, num_hops,
        sizes.ctypes.data, edges.ctypes.data,
    )
    _raise_for(status, "halo_prefix_counts")
    return sizes, edges
