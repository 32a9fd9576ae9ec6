"""Host-speed calibration: op times and set-up time are scaled to a
reference speed.

On a shared virtual machine the speed of the same code moves by 20-60% for
seconds to minutes at a time, with the load of the other tenants.  So the
measuring process times a fixed pure-Python loop, the same kind of work
logint does, right after every block of ops, and scales each op by the loop
time next to it, to the speed at which the loop takes ``REFERENCE_NS``:

    reported time = measured time * REFERENCE_NS / (the loop's time next to it)

A slower host slows both and the ratio holds; a slower logint slows only
the ops.  Each input keeps the median of its scaled times over the passes.
In five 8-second runs of verify_chain on one seed, on a loaded host, that
median moved by 3.5%, where the fastest op time scaled by the loop's
fastest time moved by 14%.  The report line keeps the measured times as
well.

A cli_cold op is mostly the start of a process, which the loop tracks
poorly, so each one is scaled instead by the start and exit of a bare
``python -c pass`` run right after it, to the speed at which that takes
``START_REFERENCE_NS``.  Over fifteen 20-second windows the median of these
ratios spread by 0.005, where the best raw op time spread by 0.15.  Nothing
logint does changes that bare start.

This module imports nothing but the standard library, so the set-up probe
can use it before it starts its clock.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

# About the loop's best time on an unloaded 2-vCPU Xeon virtual machine
# under Python 3.11; a fixed constant, it only sets the scale.
REFERENCE_NS = 800_000
REPEATS = 5
# About a bare interpreter's start and exit on the same machine.
START_REFERENCE_NS = 40_000_000
# In process, the loop runs after each block of ops that took this long:
# long enough that the loop adds a tenth to the run, short enough that
# the ops and the loop see the same host speed.
BLOCK_NS = 10_000_000


def loop() -> float:
    """A tanh-sinh style node ladder: a list of (node, weight) tuples built
    with sinh, cosh and tanh, then summed."""
    h = 0.05 / 64
    nodes = []
    for k in range(-1200, 1200):
        u = 0.5 * math.pi * math.sinh(k * h)
        c = math.cosh(u)
        nodes.append((math.tanh(u), 0.5 * math.pi * math.cosh(k * h) / (c * c)))
    total = 0.0
    for x, w in nodes:
        total += w * (1.0 - x * x)
    return total


def loop_ns() -> int:
    start = perf_counter_ns()
    loop()
    return perf_counter_ns() - start


def best_ns(repeats: int = REPEATS) -> int:
    """The loop's fastest time over ``repeats`` runs."""
    return min(loop_ns() for _ in range(repeats))


def start_ns(env: dict) -> int:
    """The time a bare interpreter takes to start and exit."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return perf_counter_ns() - start


@dataclass(frozen=True)
class Calibrator:
    """A timed reference, the time it takes at the reference speed, and the
    op time after which it runs again (0: after every op)."""

    sample_ns: Callable[[], int]
    reference_ns: int
    block_ns: int


IN_PROCESS = Calibrator(loop_ns, REFERENCE_NS, BLOCK_NS)


def interpreter_start(env: dict) -> Calibrator:
    return Calibrator(lambda: start_ns(env), START_REFERENCE_NS, 0)
