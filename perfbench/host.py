"""Host and configuration stamp stored with every benchmark result."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import shutil


def _loaded_openblas() -> str | None:
    """Path of the OpenBLAS library numpy loaded into this process."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS will use, or None if unknown."""
    path = _loaded_openblas()
    if path is None:
        return None
    library = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        function = getattr(library, symbol, None)
        if function is not None:
            function.argtypes = []
            function.restype = ctypes.c_int
            return int(function())
    return None


def stamp(executor: str, workers: int) -> dict:
    """Host, library and default-configuration facts for one run."""
    import numpy as np
    import scipy

    from repro.nn import get_backend
    from repro.nn.lazy import lazy_default

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cc": shutil.which("cc"),
        "default_backend": get_backend().name,
        "lazy_default": lazy_default(),
        "executor": executor,
        "workers": workers,
        "start_method": multiprocessing.get_start_method(),
        # Workers x BLAS threads above nproc oversubscribes the cores and
        # measures contention instead of the program.
        "oversubscribed": threads is not None and workers * threads > nproc,
    }
