"""Set-up of one workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <spawn time>

Imports ``spsqkd.cli``, loads the workload's fixtures and prints the
seconds since ``<spawn time>``, a CLOCK_MONOTONIC reading the parent took
just before starting this interpreter.  The clock is shared by all
processes, so the figure covers interpreter start-up, imports and loads,
but neither teardown nor the parent's wake-up.  The generated inputs
must already exist (run.py writes them first).
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spsqkd.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.load_fixtures(sys.argv[1], int(sys.argv[2]))
print(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[3]), flush=True)
os._exit(0)
