"""Set-up time of one workload, measured in a fresh interpreter.

Prints the wall seconds from before ``import logint`` (``logint.cli`` for
cli_cold) to the end of the workload's first op, so that work done eagerly
at import and work done lazily on the first call both count, and then the
calibration loop's best time in nanoseconds, measured before the clock
starts.  The first op's input arrives as JSON on stdin.  Run by ``run.py``.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

import calibration
import workloads as wl

workload = sys.argv[1]
item = json.load(sys.stdin)
calibration_ns = calibration.best_ns()
start = perf_counter()
if workload == "cli_cold":
    import logint.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            logint.cli.main(wl.cli_args(item))
        except Exception:  # the op failed; its set-up time still counts
            pass
else:
    import logint.routes

    try:
        wl.build_op(workload, logint.routes)(item)
    except Exception:
        pass
print(perf_counter() - start, calibration_ns)
