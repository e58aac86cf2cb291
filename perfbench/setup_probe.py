"""Set-up of one workload in a fresh interpreter, timed by run.py.

    python3 perfbench/setup_probe.py <workload> <scratch-dir>

Imports triblock (which computes R0) and makes the workload's first call
into each layer it uses, so lazy set-up such as the perimeter spline and
the FFT plans is paid here.  Needs src/ on PYTHONPATH.  Prints the
system-wide monotonic clock when done, which run.py subtracts from the
clock it read before starting this interpreter.
"""

import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime

from workloads import WORKLOADS

if __name__ == "__main__":
    name, work = sys.argv[1], Path(sys.argv[2])
    WORKLOADS[name](seed=0, tiny=False, work=work).first_calls()
    print(clock_gettime(CLOCK_MONOTONIC))
