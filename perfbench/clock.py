"""Host-speed scaling of measured times.

The shared host this benchmark was built on changes speed by about +-15%
over tens of seconds, so raw wall-time medians of identical runs spread by
15-30%.  Every timed step is therefore bracketed by two fixed reference
kernels, a pure-Python loop and a numpy pass over mid-sized arrays (the two
kinds of work the solver does), and its wall time is divided by how much
slower than at reference the host ran them: the seconds the step would take
on the host at its reference speed.
"""

import time

LOOP_ITERATIONS = 1_000_000
ARRAY_ITERATIONS = 200
ARRAY_SIZE = 24_576  # 192 KiB of float64, the size of the kernel arrays at n = 2048
# Median times of the two kernels on a 2-vCPU Intel Xeon (2.0 GHz) VM with
# Python 3.11.7 and numpy 2.4.6.
LOOP_REF_S = 0.071
ARRAY_REF_S = 0.058


def slowness() -> float:
    """Mean ratio of the reference kernels' times now to their reference times."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        acc += i * 0.5
    t1 = time.perf_counter()
    x = np.linspace(0.01, 0.99, ARRAY_SIZE)
    for _ in range(ARRAY_ITERATIONS):
        y = np.power(x * (1.0 - x), 0.6) - np.expm1(0.6 * np.log1p(-x))
        acc += float(np.dot(y, x))
    t2 = time.perf_counter()
    return 0.5 * ((t1 - t0) / LOOP_REF_S + (t2 - t1) / ARRAY_REF_S)


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` at the reference speed, from the slowness just before and after."""
    return wall_s * 2.0 / (before + after)
