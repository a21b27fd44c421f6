"""Process set-up shared by the benchmark's scripts.

Points imports at the checkout's own ``src/sirpool``, pins numeric libraries
to one thread and the process to one CPU, and asks git for the commit.
Kept free of third-party imports: ``pin_threads`` must run before numpy loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One client, one process, one thread: BLAS/OpenMP pools would otherwise take
# every core and make timings depend on what else the machine runs.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def pin_cpu() -> int | None:
    """Run this process, its threads and its children on one CPU; return it.

    Each CPU of a shared VM speeds up and slows down on its own, so the speed
    sampler must run on the CPU the workload runs on.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def use_checkout_source() -> None:
    """Put src/ first on sys.path; exit with code 2 if the package is not there."""
    if not (SRC / "sirpool" / "__init__.py").is_file():
        print(f"perfbench: no sirpool package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit with code 2 unless module was loaded from the checkout's src/."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: imported {module.__name__} from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str | None:
    """HEAD's commit of the checkout; None outside a git repository or without git."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
