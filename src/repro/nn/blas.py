"""One BLAS thread per process.

numpy's matmuls run on OpenBLAS, which hands every product above its
threading size to a pool of helper threads.  On this model's shapes a
helper saves little wall time, and it spins on another CPU while it
waits: the process pays about twice the CPU for the same answer.  The
system scales across cores with processes (``repro serve --workers``),
so each process keeps its BLAS on the calling thread.

:func:`cap_blas_threads` runs when :mod:`repro.nn` is imported.  It does
not depend on import order: OpenBLAS reads its environment only once,
when it loads, and numpy is usually loaded first.  So the cap finds every
OpenBLAS mapped into the process (``/proc/self/maps``) and calls its
``set_num_threads`` entry.  Forked children inherit the setting.  An
explicit ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is the BLAS's
own knob and is left alone.  Without an OpenBLAS (MKL, Accelerate) or
without ``/proc`` (not Linux), nothing happens.
"""

from __future__ import annotations

import ctypes
import os

# The entry's name in OpenBLAS, its 64-bit-integer build and the
# scipy-openblas wheels numpy ships; the getter swaps "set" for "get".
_SET_NUM_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)
_GET_NUM_THREADS = tuple(name.replace("_set_", "_get_") for name in _SET_NUM_THREADS)
_BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _loaded_openblas() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS shared object mapped into this process, by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return {}
    libraries = {}
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        if "openblas" in os.path.basename(path).lower():
            try:
                libraries[path] = ctypes.CDLL(path)
            except OSError:  # unmapped or deleted since the read
                continue
    return libraries


def _entry(library: ctypes.CDLL, names: tuple[str, ...], restype, *argtypes):
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            function.restype, function.argtypes = restype, argtypes
            return function
    return None


def blas_threads() -> dict[str, int | None]:
    """Each loaded OpenBLAS's thread count, by path (None: no known entry)."""
    counts = {}
    for path, library in _loaded_openblas().items():
        get_threads = _entry(library, _GET_NUM_THREADS, ctypes.c_int)
        counts[path] = None if get_threads is None else get_threads()
    return counts


def cap_blas_threads() -> None:
    """Run every loaded OpenBLAS on the calling thread, unless the user chose."""
    if any(os.environ.get(name) for name in _BLAS_SETTINGS):
        return
    for library in _loaded_openblas().values():
        set_threads = _entry(library, _SET_NUM_THREADS, None, ctypes.c_int)
        if set_threads is not None:
            set_threads(1)
