"""Times one cold set-up of a workload: importing numrad and building its inputs.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds taken; run.py starts it in a fresh interpreter several
times and reports the median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
