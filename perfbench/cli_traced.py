"""Start the logint CLI under the tracer, in place of ``python -m logint``.

The traced cli_cold run starts each CLI process through this file.  It
imports ``logint.cli``, wraps the layers, runs ``cli.main`` on its
arguments and ends as the CLI would: an exception that escapes ``main``
prints a traceback and exits 1.  The trace goes to stderr as one last
line, after a marker, so stdout stays the CLI's own payload.
"""

from time import perf_counter_ns

started = perf_counter_ns()

import json
import sys
import traceback

from tracer import TRACE_MARK, Tracer

import_start = perf_counter_ns()
from logint import cli, quadrature, routes, specfun

import_ns = perf_counter_ns() - import_start

tracer = Tracer()
tracer.install(specfun, quadrature, routes, cli)
tracer.recording = True
try:
    code = cli.main(sys.argv[1:])
except Exception:
    traceback.print_exc()
    code = 1
tracer.uninstall()
sys.stdout.flush()
report = {
    "import_ns": import_ns,
    "times": tracer.times(),
    "counts": tracer.counts(),
    "records": tracer.records,
    "spans": tracer.spans,
    "elapsed_ns": perf_counter_ns() - started,
}
print(TRACE_MARK + json.dumps(report), file=sys.stderr)
sys.exit(code)
