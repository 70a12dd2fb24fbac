"""Time one cold set-up of a benchmark workload, in a fresh interpreter.

Set-up is importing nccsim and building the workload's scenarios (for
``grid_cli``, parsing its plan file). Prints the elapsed seconds::

    python3 perfbench/setup_probe.py <workload> <work-dir>
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(Path(sys.argv[2]))
print(time.perf_counter() - start)
