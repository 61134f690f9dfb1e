"""Import the fitzkit sources of the checkout the benchmark lives in.

The benchmark never uses an installed copy: it puts ``<checkout>/src`` first
on ``sys.path`` and refuses to run when the sources are not there.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"


def import_fitzkit():
    """Import fitzkit from ``<checkout>/src``; exit with code 1 when absent."""
    pkg = SRC / "fitzkit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: fitzkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fitzkit

    if Path(fitzkit.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported fitzkit from {fitzkit.__file__}, not {pkg}")
    return fitzkit
