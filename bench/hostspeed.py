"""Host-speed reference: a fixed pure-Python loop timed next to the program.

The benchmark runs on a share of a busy machine.  There one pass of
collapse-short takes anywhere from 2.2 s to 3.7 s from one pass to the next,
and whole minutes run about a third faster or slower.  The process is on a
CPU all the time (its CPU time equals its wall time and steal is near zero):
the CPU itself gets slower, and this loop slows with it.

The benchmark times the loop before the first program call of a pass and
after each call, and scales the pass's wall time by REF_LOOP_S over the
loop's median duration.  The median, not the mean, so that one loop sample
hit by an interrupt does not rescale a whole pass.  Over 30 s windows of
ten minutes of passes, that cut the spread of the median between windows
from 0.25 to 0.06 (collapse-short) and from 0.26 to 0.06 (spectral).  The
loop does not touch the program, so a change to the program moves only the
wall time and shows in full.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 40_000

# A nominal loop duration: on the host the benchmark was tuned on (2-vCPU KVM
# guest of an Intel Xeon, family 6 model 143, Python 3.11.7) the loop's
# median over ten-minute spells was 3.6 to 4.2 ms.  Scaled times are seconds
# on a host where the loop takes this long.
REF_LOOP_S = 0.004


def loop_s():
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scale(loop_samples):
    """Factor that turns seconds measured beside these loop samples into
    seconds at the reference speed."""
    return REF_LOOP_S / statistics.median(loop_samples)
