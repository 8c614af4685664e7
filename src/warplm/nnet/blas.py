"""Pin numpy's OpenBLAS to one thread for a block of code.

A multi-threaded OpenBLAS may cut a matmul into other tiles at another
thread count, and then gives some elements other bits: a 30k-vocabulary
`pretrain` wrote other checkpoint bytes under 2 BLAS threads than under 1.
`one_blas_thread()` runs its block at one thread, so the bits do not depend
on the thread count the process started with.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np


def _openblas_thread_controls() -> list:
    """[(get, set)] thread-count functions of numpy's OpenBLAS, looked up
    through numpy's extension module (dlsym also searches the libraries it
    links) under the names of numpy's wheel (scipy_openblas_*64_) or of a
    distribution build (openblas_*, openblas_*64_). Empty where none is
    found."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return [(get, set_)]
    return []


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread; restore its count
    after."""
    controls = _openblas_thread_controls()
    old = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, old):
            set_(count)
