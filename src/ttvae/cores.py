"""One owner of the two cores: the helper thread and the BLAS thread count.

:func:`helper` is the executor of the process's one helper thread, started on
first use and shared by every caller.  The eval decode runs half of each
chunk on it (``evaluation.decode_hardened``), a training step its weight
gradients (``vae.losses.forward_backward``).

:func:`one_blas_thread` holds BLAS at one thread while the helper works, so
that the two threads do not each start BLAS threads on top, which
oversubscribes the host.  It finds numpy's bundled OpenBLAS in
``/proc/self/maps`` and calls its thread-count getter and setter through
``ctypes``, as threadpoolctl does, and does nothing where it finds no such
library or symbol.  The count is process-global: while any section holds
it, every thread's BLAS calls run on one thread.  The count from before the
first section comes back when the last one exits, also on error.

``concurrent.futures`` is imported on first use, so that ``import ttvae``
does not pay for it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"

_lock = threading.Lock()
_pool = None
_blas = None        # (get, set) once looked up; () where none was found
_pins = 0           # sections holding BLAS at one thread
_restore = 0        # the count from before the first of them


def helper():
    """The executor of the one helper thread, started on first use."""
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ttvae-helper")
        return _pool


def _read_maps() -> str:
    try:
        with open("/proc/self/maps") as fh:
            return fh.read()
    except OSError:
        return ""


def _openblas() -> tuple:
    """numpy's OpenBLAS thread-count (getter, setter), or () where none is
    found; looked up once.  Called with ``_lock`` held."""
    global _blas
    if _blas is None:
        _blas = ()
        paths = {line.split(maxsplit=5)[-1] for line in _read_maps().splitlines()
                 if "libscipy_openblas" in line}
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                get, set_ = getattr(lib, _GET), getattr(lib, _SET)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            _blas = (get, set_)
            break
    return _blas


@contextlib.contextmanager
def one_blas_thread():
    """Hold BLAS at one thread inside the ``with`` block (see the module)."""
    global _pins, _restore
    with _lock:
        blas = _openblas()
        if blas and not _pins:
            _restore = blas[0]()
            blas[1](1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if blas and not _pins:
                blas[1](_restore)
