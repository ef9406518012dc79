"""One owner of the two cores: the helper thread, the BLAS thread count, the
split rule and the allocator setting of training.

:func:`helper` is the executor of the process's one helper thread, started on
first use and shared by every caller.  :func:`splits` is the one rule for
whether a section of batch rows runs as two row halves, the second on the
helper, or whole on the calling thread; :func:`by_rows` takes it and runs
the section.  Three sections run through it: the forward pass of a training
step (``encoder_forward`` and ``decoder_forward`` with a cache), the
evaluation pass of ``vae.losses.evaluate_batch`` and the eval decode of one
chunk (``evaluation.decode_hardened``), the last two one cache-free forward
per half.  The step's backward weight gradients ask :func:`splits` too:
above the rule they go to the helper task by task, overlapping the
input-gradient chain, and below it they are computed in place.

The rule splits from ``SPLIT_WORK`` rows x hidden**2, in proportion to the
work of one recurrent step, where each half keeps at least two rows and
neither the hidden nor the latent size passes ``ROW_EXACT_WIDTH``.  Within
those bounds a row comes out of every matmul of the forward pass with the
bits it has in the whole batch (checked at hidden 16 to 448 and latent 16
to 448, at the smallest split batch, one row more, and twice it plus one),
so a split moves no float.  Past them OpenBLAS rounds a row by the row
count of its block: at hidden 512 from the recurrent step of two-row halves
on, at hidden 768 in the encoder's output heads.

The constant is the measured break-even of the training forward pass (two
GRU layers) on 2 shared vCPUs, in three runs during a quiet stretch, fastest
of 12 calls, BLAS on one thread, the whole batch on one thread against the
halves on two, in ms:

    hidden  batch  whole    halves
        64     64  29-31    33-34
        64    256  95-104   67-69
       128     32  25-26    33-35
       128     64  59-62    47-51
       256      8  25-30    26
       256     16  40-43    32-36
       256     64  147-154  99-104

Work below it pays more for the GIL and the handover than the second core
gives back, and so does any split while another tenant keeps the second
vCPU busy.  Rows x hidden alone could not place all of these: at 4096 it
would split hidden 64 at batch 64 and hidden 128 at batch 32.

:func:`one_blas_thread` holds BLAS at one thread while the helper works, so
that the two threads do not each start BLAS threads on top, which
oversubscribes the host; :func:`by_rows` holds it while it splits, and a
training step holds it throughout.  It finds numpy's bundled OpenBLAS in
``/proc/self/maps`` and calls its thread-count getter and setter through
``ctypes``, as threadpoolctl does, and does nothing where it finds no such
library or symbol.  The count is process-global: while any section holds
it, every thread's BLAS calls run on one thread.  The count from before the
first section comes back when the last one exits, also on error.

:func:`keep_buffers_mapped` sets glibc's allocator, through ``mallopt``, so
that a training step's buffers stay mapped from one step to the next:
buffers under ``MMAP_THRESHOLD`` come from the heap, and the heap is never
trimmed.  Without it, glibc gives the freed step buffers back to the system
and each step faults tens of thousands of pages back in.  Setting either
value switches off glibc's dynamic thresholds, so both are set.  ``train``
calls it once; the setting is process-wide and stays for the life of the
process, so a library caller of ``train`` keeps a heap as large as its
largest step.  Where the C library has no ``mallopt`` it does nothing.

``concurrent.futures`` is imported on first use, so that ``import ttvae``
does not pay for it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

SPLIT_WORK = 2**20           # rows x hidden**2 from which a section splits
ROW_EXACT_WIDTH = 448        # widest hidden or latent size a split is run at
MMAP_THRESHOLD = 64 << 20    # bytes; smaller buffers come from the heap
TRIM_THRESHOLD = 2**31 - 1   # bytes; the largest mallopt takes: never trim

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"

_lock = threading.Lock()
_pool = None
_blas = None        # (get, set) once looked up; () where none was found
_pins = 0           # sections holding BLAS at one thread
_restore = 0        # the count from before the first of them
_heap_set = False   # whether keep_buffers_mapped has run
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def helper():
    """The executor of the one helper thread, started on first use."""
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ttvae-helper")
        return _pool


def splits(rows: int, hidden: int, latent: int) -> bool:
    """Whether a section over ``rows`` batch rows of a model with ``hidden``
    units and a ``latent``-wide code runs as two row halves (see the
    module)."""
    return (rows >= 4 and max(hidden, latent) <= ROW_EXACT_WIDTH
            and rows * hidden * hidden >= SPLIT_WORK)


def by_rows(fn, rows: int, hidden: int, latent: int) -> list:
    """``[fn(slice(0, rows))]`` of a section over ``rows`` batch rows, or,
    where :func:`splits` says so for the model's sizes, ``[fn(first),
    fn(second)]`` of its two halves: the first ``ceil(rows/2)`` rows on the
    calling thread, the rest on the helper, with BLAS held at one thread.
    An error in the helper's half is raised once the caller's half is done."""
    if not splits(rows, hidden, latent):
        return [fn(slice(0, rows))]
    half = (rows + 1) // 2
    with one_blas_thread():
        second = helper().submit(fn, slice(half, rows))
        try:
            first = fn(slice(0, half))
        finally:
            second.exception()  # wait for the helper whatever happened here
    return [first, second.result()]


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


def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


def keep_buffers_mapped() -> None:
    """Keep a training step's buffers mapped between steps (see the module);
    the first call sets the allocator, later calls do nothing."""
    global _heap_set
    with _lock:
        if _heap_set:
            return
        _heap_set = True
        mallopt = _mallopt()
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
