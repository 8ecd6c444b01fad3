"""Set up one workload in a fresh interpreter and print when it was ready.

    python3 bench/ready.py <workload> <seed>

``run.py`` starts this script to time set-up from process start: it imports
lbk from the checkout's ``src`` directory and builds the workload's inputs.
It then prints the ``perf_counter`` reading taken at that moment, which on
Linux is the system-wide monotonic clock, so the parent can subtract its own
reading taken just before it started the process; and the median time of
the host-speed probe, run here afterwards, by which the parent corrects it.
"""
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lbk  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](lbk, int(sys.argv[2]))
ready = perf_counter()

import statistics  # noqa: E402

from run import PROBES_AFTER_SET_UP, probe  # noqa: E402

took = []
for _ in range(PROBES_AFTER_SET_UP):
    start = perf_counter()
    probe()
    took.append(perf_counter() - start)
print(ready, statistics.median(took))
