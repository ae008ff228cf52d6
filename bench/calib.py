"""Fixed reference work that tells run.py how fast the machine is right now.

    python calib.py

A fresh interpreter does the same kinds of work as the operations, with
none of stirlingexp's code: it imports mpmath, runs a power-series
recurrence over Fractions, sums mpmath functions at 256 bits and writes
large ints in decimal.  It takes about 0.2 s.  On a shared virtual machine
one vCPU's speed wanders by half over tens of seconds, so run.py times
this next to every operation and reports each operation's time at the
speed at which this work takes CALIB_REF_S (see run.py).  Change nothing
here: every recorded result is scaled by it.
"""

from fractions import Fraction

import mpmath

N = 44
a = [Fraction((-1) ** k, (k + 1) * (k + 2)) for k in range(N)]
b = [Fraction(1)] + [Fraction(0)] * (N - 1)
for n in range(1, N):
    b[n] = sum(k * a[k - 1] * b[n - k] for k in range(1, n + 1)) / n

mpmath.mp.prec = 256
s = mpmath.mpf(0)
for i in range(1, 2500):
    s += mpmath.sqrt(i) * mpmath.exp(-mpmath.mpf(i) / 1000)

x = 7**4700
for i in range(100):
    str(x * (i + 1) + i)
