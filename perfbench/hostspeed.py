"""Host-speed reference for the end-to-end timings.

A shared host's CPU speed drifts by up to about 1.8x over seconds to
minutes (other tenants on the same cores), which is as large as the
regressions the benchmark must catch.  So every timed op and every
set-up sample is followed by a fixed pure-Python loop that calls no
vknot code, and the reported times are scaled to a host on which that
loop takes ``REF_S`` seconds: ``time * REF_S / loop time``.  A change
to the program moves the scaled time as it moves the raw time; a change
of host speed moves both the op and the loop, and cancels.  The loop
allocates no tracked objects, so the program's heap and garbage
collector do not slow it.

The loop is timed on two clocks at once: wall time, to scale wall
times, and the thread's CPU time, to scale CPU times.  The host also
takes the CPU away for about 10 ms now and then; CPU time leaves those
stalls out, which is what keeps the latency tail steady.

Nothing here imports vknot; the set-up subprocess imports this module
after it has stopped its set-up clock.
"""

from __future__ import annotations

from time import perf_counter, thread_time

REF_ITERS = 50_000
# Loop time on the host the benchmark was tuned on (2-vCPU x86-64 VM,
# CPython 3.11), so scaled times read close to the raw ones there.
REF_S = 0.004


def reference_seconds() -> tuple[float, float]:
    """Wall and thread CPU seconds of one run of the fixed reference loop."""
    t0, c0 = perf_counter(), thread_time()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return perf_counter() - t0, thread_time() - c0
