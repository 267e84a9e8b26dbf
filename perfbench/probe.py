"""Set-up probe: a fresh interpreter imports lapdual and runs one workload's first solve.

    python3 perfbench/probe.py <workload> <seed>

Prints the digest of that solve, which must equal the warm in-process one.
"""

import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import lapdual  # noqa: E402,F401  (the import is part of what is timed)

from perfbench.workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
op = workload.block(int(sys.argv[2]), 0)[0]
with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
    print(workload.digest(workload.call(op, SimpleNamespace(workdir=Path(tmp)))))
