"""A fixed CPU probe: how fast the machine runs at this moment.

On a shared host the same Python code runs up to 1.5x slower for seconds or
minutes at a time, depending on what else the host runs. The probe is a
fixed pure-Python loop that takes about REF_S at full speed. A latency
measured between two probes is scaled to that speed:

    scaled = latency * REF_S / mean(probe before, probe after)

so a benchmark run in a slow phase reads about what it reads in a fast one.
Half of the probe's time is small-integer arithmetic and half is Fraction
arithmetic, which allocates and takes gcds as syzcx's exact code does; slow
phases slow the second kind more. The probe touches nothing of syzcx, and no
change to the program moves it.
"""

from fractions import Fraction
from time import perf_counter

REF_S = 0.001   # nominal probe time; scaled times are seconds at this speed


def probe() -> float:
    t = perf_counter()
    s = 0
    for i in range(7500):
        s += i * i % 7
    for _ in range(4):
        x = Fraction(0)
        for k in range(1, 60):
            x += Fraction(k, 2 * k + 1)
    return perf_counter() - t


def scaled(latency: float, before: float, after: float) -> float:
    return latency * REF_S / ((before + after) / 2)
