"""Process set-up shared by the benchmark's entry points.

Imported before numpy: it caps the BLAS/OpenMP thread pools and puts the
checkout's own ``src`` first on the import path, so the benchmark always
measures the program next to it and never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> dict:
    """Cap thread pools at nproc and import the program from ``src``.

    Exits with status 1 when the checkout holds no program, so the benchmark
    never reports a result it did not measure.  Returns the thread caps.
    """
    if not (SRC / "streamopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'streamopt'}; "
                 "run from the root of a full checkout")
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) < cap
        os.environ[var] = current if keep else str(cap)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return {var: os.environ[var] for var in THREAD_VARS}
