"""Set-up probe: import ruinfair and parse and validate one workload's inputs.

``run.py`` times this script in a fresh interpreter for ``setup_s``; it
prints ``time.perf_counter()`` when done:

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]().prepare(int(sys.argv[2]))
    print(time.perf_counter())
