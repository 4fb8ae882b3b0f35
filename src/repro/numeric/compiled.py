"""The compiled core: build, load and call ``_core.c``.

The numeric engine's per-supernode work — extend-add, the dense front
kernels, the supernodal solve — the minimum degree ordering, the walks
of the symbolic analysis and static pivoting are one C unit
(``_core.c`` and its interface ``_core.h``, shipped as package data)
called through cffi in API mode.  It calls the LAPACK/BLAS routines
that ``scipy.linalg.cython_blas`` / ``cython_lapack`` export (the same
OpenBLAS the ``scipy.linalg`` wrappers call), whose addresses it is
given once, at import.  cffi releases the GIL for every call, so the
scheduler's worker threads run tasks at the same time, and threads
order and analyse at the same time.  Every wrapper below checks the
arrays it passes (a ``ValueError`` naming the array) before the C code
indexes them.

The module is built when this module is imported — no timed region pays
for it — into a per-user cache (``~/.cache/repro``, or the temporary
directory if that is not writable) under a name keyed by the hash of
everything that goes into it, and published with ``os.replace``, so
concurrent first imports each build privately and one copy wins.  A
later import with the same source loads the cached module and runs no
compiler.  Building needs a C compiler and the Python headers; without
them the import fails with one :class:`ImportError` saying so.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shutil
import sysconfig
import tempfile
from pathlib import Path

import cffi
import numpy as np
import scipy.linalg.cython_blas as _cython_blas
import scipy.linalg.cython_lapack as _cython_lapack

__all__ = ["Context", "Job", "build", "column_counts", "elimination_tree",
           "etree_heights", "front", "merge_contiguous", "minimum_degree",
           "pattern_graph", "postorder", "solve", "static_pivoting",
           "supernode_rows"]

SOURCE_PATH = Path(__file__).with_name("_core.c")

#: Every product and difference of the per-pivot loops rounds on its own,
#: as NumPy's do (no fused multiply-add).
COMPILE_ARGS = ["-O2", "-ffp-contract=off"]

HEADER_PATH = SOURCE_PATH.with_name("_core.h")

#: What cffi is told of the unit: its header, which ``_core.c`` includes.
CDEF = HEADER_PATH.read_text()

#: The routines ``_core.c`` calls, and the scipy module exporting each.
ROUTINES = {"dgemm": _cython_blas, "dgemv": _cython_blas,
            "dtrsm": _cython_blas, "dsyrk": _cython_blas,
            "dpotrf": _cython_lapack, "dgetrf": _cython_lapack}


def default_cache_dir() -> Path:
    """``~/.cache/repro``, or ``<tempdir>/repro-<uid>`` when the home
    cache cannot be created or written."""
    home = Path.home() / ".cache" / "repro"
    try:
        home.mkdir(parents=True, exist_ok=True)
        if os.access(home, os.W_OK):
            return home
    except OSError:
        pass
    return Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def build(cache_dir: str | os.PathLike | None = None,
          source: str | None = None,
          compile_args: list[str] | None = None):
    """Load the compiled unit for ``source`` (default: ``_core.c``) from
    ``cache_dir`` (default: :func:`default_cache_dir`), compiling it into
    the cache first if no build of this exact source is there.
    ``compile_args`` (default :data:`COMPILE_ARGS`) are passed to the
    compiler and the linker; they are part of the cache key, so builds
    with different flags never collide.  Returns the cffi extension
    module (``.ffi``, ``.lib``).

    Raises:
        ImportError: the module could not be built (no C compiler, or no
            Python headers).
    """
    if source is None:
        source = SOURCE_PATH.read_text()
    args = COMPILE_ARGS if compile_args is None else list(compile_args)
    key = "\0".join((CDEF, source, " ".join(args), cffi.__version__))
    name = "_repro_core_" + hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    target = cache / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    if not target.exists():
        _compile(name, source, cache, target, args)
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(name: str, source: str, cache: Path, target: Path,
             args: list[str]) -> None:
    """Compile in a private directory, then publish atomically."""
    cache.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=name + ".", dir=cache)
    try:
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        ffi.set_source(name, "#include <stdint.h>\n" + source,
                       include_dirs=[str(SOURCE_PATH.parent)],
                       extra_compile_args=args, extra_link_args=args)
        built = ffi.compile(tmpdir=work)
        os.replace(built, target)
    except Exception as exc:  # noqa: BLE001 - one error for every cause
        raise ImportError(
            "repro.numeric could not build its compiled core "
            f"({SOURCE_PATH.name}); a C compiler and the Python headers "
            f"are needed: {exc}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _capsule_pointer(capsule) -> int:
    """The address a Cython ``__pyx_capi__`` capsule holds."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return get_pointer(capsule, get_name(capsule))


def _bind(module) -> None:
    """Make ``module`` (a :func:`build` result) the unit every function
    here calls, and hand it the BLAS/LAPACK addresses.  Done once, at
    import; ``scripts/sanitized.py`` calls it again, before any call,
    to run on a sanitizer build."""
    global ffi, lib
    ffi, lib = module.ffi, module.lib
    for routine, owner in ROUTINES.items():
        setattr(lib.repro_blas, routine,
                ffi.cast(f"repro_{routine}_t",
                         _capsule_pointer(owner.__pyx_capi__[routine])))


_bind(build())


# -- calling it ---------------------------------------------------------------


def _doubles(a: np.ndarray, writable: bool = True):
    if a.dtype != np.float64 or not a.flags.c_contiguous or (
            writable and not a.flags.writeable):
        raise ValueError("expected a C-contiguous, writable float64 array")
    return ffi.from_buffer("double[]", a)


def _int64s(a: np.ndarray):
    return ffi.from_buffer("int64_t[]", np.ascontiguousarray(a, np.int64))


def _raise_for(status) -> None:
    """Raise the error a failed kernel's ``status`` describes."""
    code, pos = status.code, status.pos
    pivot = np.float64(status.pivot)
    if code == lib.REPRO_NON_SPD:
        raise ValueError(f"non-SPD pivot {pivot} at front position {pos}")
    if code == lib.REPRO_NON_FINITE:
        raise ValueError(f"non-finite pivot {pivot} at front position {pos}")
    if code == lib.REPRO_ZERO_PIVOT:
        raise ValueError(f"zero pivot at front position {pos}")
    if code == lib.REPRO_NO_MEMORY:
        raise MemoryError("the numeric core could not allocate an update "
                          "block")


def front(panel: np.ndarray, right: np.ndarray | None, update: np.ndarray,
          block: int, perturb: float | None) -> int:
    """Factor one split front in place (``right`` is ``None`` and
    ``perturb`` is ``None`` for Cholesky); returns the bumped pivots."""
    k, m = panel.shape[1], update.shape[0]
    if panel.shape[0] != k + m or update.shape != (m, m) or (
            right is not None and right.shape != (k, m)):
        raise ValueError("front parts must be (k+m) x k, k x m and m x m")
    bumped = ffi.new("int64_t *")
    status = ffi.new("repro_status *")
    lib.repro_front(_doubles(panel),
                    ffi.NULL if right is None else _doubles(right),
                    _doubles(update), k, m, block,
                    0.0 if perturb is None else perturb, perturb is not None,
                    bumped, status)
    _raise_for(status)
    return bumped[0]


class Context:
    """The C view (``ptr``, a ``repro_ctx *``) of a pattern-cached
    context's flat maps (see ``repro_ctx`` in ``_core.c``); it holds the
    arrays it points into."""

    def __init__(self, layout: np.ndarray, **maps: np.ndarray) -> None:
        #: Rows of a solve panel, length of a factor buffer, and values a
        #: job's scatter reads.
        self.n = int(layout[:, 0].sum())
        self.buffer_len = int(layout[-1, 4]) if len(layout) else 0
        self.n_values = int(maps["src"].max()) + 1 if len(maps["src"]) else 0
        self.ptr = ffi.new("repro_ctx *")
        self._keep = [_int64s(layout)]
        self.ptr.layout = self._keep[0]
        for name, values in maps.items():
            self._keep.append(_int64s(values))
            setattr(self.ptr, name, self._keep[-1])
        self.ptr.n_sn = len(layout)
        self.ptr.n_entries = len(maps["dst"])
        if len(layout):
            self.ptr.max_k, self.ptr.max_m = layout[:, :2].max(axis=0)


class Job:
    """One factorization's C state: ``values`` (the permuted matrix data)
    scattered into ``buffer``, and its update blocks, each freed when
    its parent has added it (the rest with the job).  :meth:`run_task` releases the GIL while it computes."""

    def __init__(self, c_ctx: Context, buffer: np.ndarray,
                 values: np.ndarray, bumped: np.ndarray, block: int,
                 perturb: float | None) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if (buffer.size != c_ctx.buffer_len or values.size < c_ctx.n_values
                or bumped.dtype != np.int64 or bumped.size != c_ctx.ptr.n_sn):
            raise ValueError("job arrays do not fit the numeric context")
        job = lib.repro_job_new(c_ctx.ptr, _doubles(buffer),
                                _doubles(values, writable=False),
                                ffi.from_buffer("int64_t[]", bumped), block,
                                0.0 if perturb is None else perturb,
                                perturb is not None)
        if job == ffi.NULL:
            raise MemoryError("the numeric core could not allocate a job")
        self._job = ffi.gc(job, lib.repro_job_free)
        self._keep = (c_ctx, buffer, bumped)

    def run_task(self, t: int) -> None:
        status = ffi.new("repro_status *")
        if lib.repro_run_task(self._job, t, status):
            _raise_for(status)

    def pending(self) -> int:
        """Update blocks not consumed yet: 0 after a complete
        factorization."""
        return lib.repro_job_pending(self._job)


def solve(c_ctx: Context, buffer: np.ndarray, y: np.ndarray,
          lu: bool) -> None:
    """Solve in place on the C-ordered (n, k) float64 panel ``y`` over a
    factor ``buffer`` (see ``repro_solve`` in ``_core.c``)."""
    if (y.ndim != 2 or y.shape[0] != c_ctx.n
            or buffer.size != c_ctx.buffer_len):
        raise ValueError("solve panel or factor does not fit the numeric "
                         "context")
    if lib.repro_solve(c_ctx.ptr, _doubles(buffer, writable=False),
                       _doubles(y), y.shape[1], lu):
        raise MemoryError("the numeric core could not allocate the solve "
                          "workspace")


def _check_pattern(indptr: np.ndarray, indices: np.ndarray,
                   what: str = "a square pattern's columns",
                   ascending: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``indptr``/``indices`` as int64, after checking that they are the
    lists of ``len(indptr) - 1`` vertices, each entry one of them and
    (``ascending``) each list strictly increasing."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    n = len(indptr) - 1
    problem = None
    if (n < 0 or indptr[0] != 0 or indptr[-1] != len(indices)
            or np.any(indptr[1:] < indptr[:-1])):
        problem = "indptr does not run monotonically from 0 to len(indices)"
    elif len(indices) and not 0 <= indices.min() <= indices.max() < n:
        problem = f"indices has entries outside range({n})"
    elif ascending and len(indices):
        unordered = np.zeros(len(indices), dtype=bool)
        np.less_equal(indices[1:], indices[:-1], out=unordered[1:])
        unordered[indptr[:-1][indptr[:-1] < len(indices)]] = False
        if unordered.any():
            problem = "indices is not strictly increasing in every list"
    if problem:
        raise ValueError(f"indptr/indices are not {what}: {problem}")
    return indptr, indices


def _check_forest(parent: np.ndarray, n: int,
                  ascending: bool = False) -> np.ndarray:
    """``parent`` as int64 after checking it has n entries, each -1 or a
    vertex, and (``ascending``) each above its child."""
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    if parent.shape != (n,) or (n and not -1 <= parent.min() <= parent.max()
                                < n):
        raise ValueError(f"parent is not {n} entries in [-1, {n})")
    if ascending and np.any((parent >= 0) & (parent <= np.arange(n))):
        raise ValueError("parent is not an elimination tree (some parent "
                         "is not above its child)")
    return parent


def _check_status(code: int, what: str) -> None:
    if code == lib.REPRO_NO_MEMORY:
        raise MemoryError(f"{what} could not allocate its workspace")


def minimum_degree(indptr: np.ndarray, indices: np.ndarray,
                   foldable: int) -> np.ndarray:
    """The approximate-minimum-degree permutation (new -> old) of the
    graph ``indptr``/``indices`` (see ``repro_amd`` in ``_core.c``)."""
    indptr, indices = _check_pattern(
        indptr, indices, "the adjacency lists of len(indptr) - 1 vertices")
    n = len(indptr) - 1
    perm = np.empty(n, dtype=np.int64)
    status = ffi.new("repro_status *")
    lib.repro_amd(n, _int64s(indptr), _int64s(indices), foldable,
                  ffi.from_buffer("int64_t[]", perm), status)
    _check_status(status.code, "minimum degree")
    if status.code == lib.REPRO_BAD_ORDER:
        raise AssertionError(f"minimum degree ordered {status.pos} of {n}")
    return perm


def elimination_tree(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Liu's elimination tree of a square pattern (see ``repro_etree``)."""
    indptr, indices = _check_pattern(indptr, indices)
    parent = np.empty(len(indptr) - 1, dtype=np.int64)
    _check_status(lib.repro_etree(len(parent), _int64s(indptr),
                                  _int64s(indices), _int64s(parent)),
                  "the elimination tree")
    return parent


def etree_heights(parent: np.ndarray) -> np.ndarray:
    """Heights above the leaves of an elimination tree (see
    ``repro_etree_heights``)."""
    parent = _check_forest(parent, len(parent), ascending=True)
    heights = np.empty(len(parent), dtype=np.int64)
    lib.repro_etree_heights(len(parent), _int64s(parent), _int64s(heights))
    return heights


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder of the forest ``parent``, roots and children ascending
    (see ``repro_postorder``)."""
    parent = _check_forest(parent, len(parent))
    post = np.empty(len(parent), dtype=np.int64)
    code = lib.repro_postorder(len(parent), _int64s(parent), _int64s(post))
    _check_status(code, "postorder")
    if code == lib.REPRO_BAD_ORDER:
        raise ValueError("parent array does not describe a forest")
    return post


def column_counts(indptr: np.ndarray, indices: np.ndarray,
                  parent: np.ndarray, post: np.ndarray | None) -> np.ndarray:
    """Gilbert-Ng-Peyton column counts (see ``repro_column_counts``);
    ``post`` (``None``: the identity) must list every child before its
    parent."""
    indptr, indices = _check_pattern(indptr, indices)
    n = len(indptr) - 1
    parent = _check_forest(parent, n, ascending=post is None)
    if post is not None:
        post = np.ascontiguousarray(post, dtype=np.int64)
        rank = np.full(n, -1, dtype=np.int64)
        if post.shape == (n,) and (not n or 0 <= post.min() <= post.max()
                                   < n):
            rank[post] = np.arange(n)
        if np.any(rank < 0) or np.any(
                (parent >= 0) & (rank[parent] <= rank)):
            raise ValueError("post is not a postorder of parent")
    counts = np.empty(n, dtype=np.int64)
    _check_status(lib.repro_column_counts(
        n, _int64s(indptr), _int64s(indices), _int64s(parent),
        ffi.NULL if post is None else _int64s(post), _int64s(counts)),
        "column counts")
    return counts


def merge_contiguous(first: np.ndarray, last: np.ndarray, size: np.ndarray,
                     sn_parent: np.ndarray, relax_small: float,
                     relax_ratio: float, force_small: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Relaxed amalgamation of a supernode tree (see ``repro_merge``):
    ``(keep, first)`` of the survivors."""
    first, last, size = (np.ascontiguousarray(a, dtype=np.int64)
                         for a in (first, last, size))
    nsn = len(first)
    sn_parent = _check_forest(sn_parent, nsn)
    if last.shape != (nsn,) or size.shape != (nsn,) or np.any(last < first):
        raise ValueError("first/last/size are not one column range and "
                         "front size per supernode")
    keep = np.empty(nsn, dtype=np.int64)
    keep_first = np.empty(nsn, dtype=np.int64)
    nkeep = ffi.new("int64_t *")
    _check_status(lib.repro_merge(
        nsn, _int64s(first), _int64s(last), _int64s(size),
        _int64s(sn_parent), relax_small, relax_ratio, force_small,
        _int64s(keep), _int64s(keep_first), nkeep), "amalgamation")
    return keep[:nkeep[0]].copy(), keep_first[:nkeep[0]].copy()


def supernode_rows(indptr: np.ndarray, indices: np.ndarray,
                   first: np.ndarray, last: np.ndarray,
                   sn_parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, row_off)``: every supernode's front rows, flat (see
    ``repro_sn_rows``)."""
    indptr, indices = _check_pattern(indptr, indices)
    n = len(indptr) - 1
    first = np.ascontiguousarray(first, dtype=np.int64)
    last = np.ascontiguousarray(last, dtype=np.int64)
    nsn = len(first)
    sn_parent = _check_forest(sn_parent, nsn)
    if last.shape != (nsn,) or (nsn and not (
            0 <= first.min() and last.max() < n and np.all(first <= last))):
        raise ValueError(f"first/last are not column ranges in range({n})")
    row_off = np.empty(nsn + 1, dtype=np.int64)
    out = ffi.new("int64_t **")
    _check_status(lib.repro_sn_rows(
        n, _int64s(indptr), _int64s(indices), nsn, _int64s(first),
        _int64s(last), _int64s(sn_parent), _int64s(row_off), out),
        "supernode rows")
    try:
        rows = np.frombuffer(ffi.buffer(out[0], int(row_off[-1]) * 8),
                             dtype=np.int64).copy()
    finally:
        lib.repro_free(out[0])
    return rows, row_off


def static_pivoting(indptr: np.ndarray, indices: np.ndarray,
                    data: np.ndarray) -> np.ndarray:
    """The static-pivoting row matching of a square matrix (see
    ``repro_static_pivot``): greedy over the columns by decreasing
    largest magnitude, ``np.argsort(-best)`` (the default sort: its tie
    order and NaN placement are NumPy's), then augmentation."""
    indptr, indices = _check_pattern(indptr, indices)
    n = len(indptr) - 1
    mag = np.abs(np.ascontiguousarray(data, dtype=np.float64))
    if mag.shape != indices.shape:
        raise ValueError("data does not hold one value per entry")
    lengths = np.diff(indptr)
    best = np.zeros(n)
    filled = lengths > 0
    if filled.any():
        best[filled] = np.maximum.reduceat(mag, indptr[:-1][filled])
    match_col = np.empty(n, dtype=np.int64)
    code = lib.repro_static_pivot(n, _int64s(indptr), _int64s(indices),
                                  _doubles(mag, writable=False),
                                  _int64s(np.argsort(-best)),
                                  _int64s(match_col))
    _check_status(code, "static pivoting")
    if code == lib.REPRO_SINGULAR:
        raise ValueError("matrix is structurally singular")
    return match_col


def pattern_graph(indptr: np.ndarray, indices: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency of a square CSC pattern plus its transpose, diagonal
    dropped, lists ascending (see ``repro_pattern_graph``); each column's
    rows must be strictly increasing."""
    indptr, indices = _check_pattern(indptr, indices, ascending=True)
    n = len(indptr) - 1
    gptr = np.empty(n + 1, dtype=np.int64)
    gind = np.empty(2 * len(indices), dtype=np.int64)
    _check_status(lib.repro_pattern_graph(n, _int64s(indptr),
                                          _int64s(indices), _int64s(gptr),
                                          _int64s(gind)), "pattern_graph")
    return gptr, gind[:gptr[-1]]
