"""Timings scaled to a nominal machine speed.

The speed of a shared CPU drifts by a third within a minute.  A fixed
pure-Python loop, timed next to each measurement, tracks that drift, so a
timing is reported as wall seconds * REF_SECONDS / (the loop's time then):
the seconds it would have taken at the speed where the loop takes
REF_SECONDS.  Raw wall times are kept next to the scaled ones.
"""

import time
from fractions import Fraction

REF_LOOP = 1000
REF_SECONDS = 0.004


def reference_loop() -> float:
    """Seconds this machine takes right now for the fixed loop.

    The loop does what the program spends its time on: tuple keys, dict
    updates and Fraction arithmetic, then a sort."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(REF_LOOP):
        key = (i % 61, i * 7 % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 + 1, 3)
    sorted(acc.items())
    return time.perf_counter() - start


def scaled(seconds: float, ref: float) -> float:
    return seconds * REF_SECONDS / ref
