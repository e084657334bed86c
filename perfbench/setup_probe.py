"""Set-up probe: what every ``wnd`` invocation pays before it solves.

A fresh interpreter imports ``wnd``, resolves the parameters of a
workload's first instance and builds its inputs, then exits.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import wnd  # noqa: F401
import wnd.cli  # noqa: F401

import workloads

workloads.prepare(workloads.draw(sys.argv[1], int(sys.argv[2]), 0))
