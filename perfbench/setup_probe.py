"""Set-up probe: import driftlab, load a workload's scenarios and validate them.

`run.py` starts this in a fresh interpreter and times it from process start
to the line it prints, which is what `setup_s` measures.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports driftlab)

if __name__ == "__main__":
    _, invalid = workloads.setup(workloads.WORKLOADS[sys.argv[1]])
    print("invalid %s" % ",".join(invalid) if invalid else "ok", flush=True)
