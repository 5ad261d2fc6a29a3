"""Pin and record the execution environment before ``repro`` is imported.

The benchmark measures the default execution path at one kernel thread
with the compiled C kernels.  :func:`bootstrap` must run before anything
imports ``repro``:

* ``REPRO_NUM_THREADS=1`` -- a speedup only counts at one thread (or on a
  host with as many real cores as threads);
* ``TMPDIR`` points into the checkout's build directory, so the kernel
  compile cache (``tempfile.gettempdir()/repro-kernels``) and anything
  else the program writes stay inside the checkout;
* the checkout's ``src/`` leads ``sys.path`` and the imported ``repro``
  is verified to come from it.

:func:`require_kernels` fails loudly when the compiled kernels did not
load, instead of silently timing the NumPy fallback.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Build and output directory (ignored by git).
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BUILD_DIR / "perfbench"


class EnvError(RuntimeError):
    """The environment cannot produce a comparable measurement."""


def bootstrap() -> None:
    """Pin threads, redirect temp files, and put the checkout on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise EnvError(
            f"no program source at {SRC}; run from a full checkout"
        )
    os.environ["REPRO_NUM_THREADS"] = "1"
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR if tempfile was used already


def require_kernels() -> None:
    """Load the compiled kernels at one thread, or raise."""
    import repro
    from repro.hashing import kernel_thread_count
    from repro.hashing._kernels import get_kernels

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise EnvError(
            f"imported repro from {repro.__file__}, not from {SRC}"
        )
    if get_kernels() is None:
        raise EnvError(
            "compiled kernels did not load (no C compiler, CC='', or "
            "REPRO_NO_KERNELS set); refusing to time the NumPy fallback"
        )
    threads = kernel_thread_count()
    if threads != 1:
        raise EnvError(f"kernel threads are {threads}, expected 1")


def provenance() -> dict:
    """Facts that change what a run measures; runs compare only when equal."""
    import platform

    import numpy as np

    from benchmarks._util import environment_provenance

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **environment_provenance(),
    }
