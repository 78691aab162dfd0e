#!/usr/bin/env python3
"""sphere-ot benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload cap_lp --seed 0 --seconds 10 --trace 0

Workloads: cap_lp, warp_assign, entropic_cap, reanalyse (see README.md).
The last line of stdout is the result JSON and the line before it the run
record. Without the package source next to this directory it exits 1 and
prints no result.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sphere_ot"

if __name__ == "__main__":
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: package source {PACKAGE} not found")
    sys.path.insert(0, str(PACKAGE.parent))
    import bench  # numpy, scipy and every sphere_ot module: part of setup_s

    sys.exit(bench.main(START))
