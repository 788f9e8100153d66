"""Set-up probe: time a cold ``import huplab.cli`` plus the workload's input generation.

    python3 perfbench/probe.py SRC WORKLOAD SEED WORK_ROOT

Run in a fresh interpreter so the import is cold; interpreter start-up is not
timed.  Prints the elapsed seconds.  Input files go to a private directory
under WORK_ROOT, which is removed afterwards.
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

src, workload, seed, work_root = sys.argv[1:5]
sys.path.insert(0, src)
workdir = Path(work_root) / f"probe-{os.getpid()}"
try:
    import huplab.cli  # noqa: E402,F401

    import workloads  # noqa: E402

    workloads.generate(workload, int(seed), workdir)
    elapsed = time.perf_counter() - start
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(repr(elapsed))
