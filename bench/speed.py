"""Machine-speed gauge: a fixed computation timed next to the measured work.

The benchmark runs on shared hosts whose speed drifts, by up to ~1.8x for
seconds to minutes at a time (seen on a 2-vCPU VM with a bare Python loop,
whose CPU time follows its wall time).  Run-to-run spread is then mostly
the host's.  So the benchmark times ``reference_s`` (a fixed, builtins-only
computation of the same kind as dvrfilt's: integer and polynomial
arithmetic in interpreted Python) before and after every ~50 ms of measured
work, and scales each measured time by ``REF_S`` over the mean of those two
reference times.  Every time the benchmark reports is therefore the time on
a machine where the reference takes ``REF_S``.  A change to dvrfilt moves
the measured times and not the reference, so it shows in full.

This module imports nothing but ``time``, so that the worker can gauge the
machine before it imports dvrfilt without importing anything for it.
"""

import time

# The reference's time, in seconds, on the machine the metrics are scaled
# to (about its time on a 2-vCPU Xeon VM with CPython 3.11).
REF_S = 0.0015
# Measured work between two reference timings.
EVERY_S = 0.05


def _poly_mul(a: list, b: list, p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _rational_det(n: int) -> "tuple[int, int]":
    """Determinant of a fixed n x n integer matrix by Gaussian elimination
    over the rationals, kept as reduced (num, den) pairs."""
    m = [[((i * 7 + j * 3) % 11 - 5 + (i == j) * 13, 1) for j in range(n)] for i in range(n)]
    num, den = 1, 1
    for c in range(n):
        pn, pd = m[c][c]
        num, den = num * pn, den * pd
        for r in range(c + 1, n):
            fn, fd = m[r][c][0] * pd, m[r][c][1] * pn
            row = []
            for j in range(n):
                an, ad = m[r][j]
                bn, bd = m[c][j]
                sn, sd = an * fd * bd - fn * bn * ad, ad * fd * bd
                g = _gcd(abs(sn), sd)
                row.append((sn // g, sd // g))
            m[r] = row
    g = _gcd(abs(num), den)
    return num // g, den // g


def _kernel() -> int:
    acc = 0
    p = 1_000_003
    a = [(7 * i + 3) % p for i in range(24)]
    for k in range(3):
        a = _poly_mul(a[:24], [k + 1, 5, 11, 2, 9, 4, 1], p)
        acc += sum(a)
    x, y = 3 ** 90 + 1, 2 ** 120 + 7
    for i in range(60):
        acc += _gcd(x * (i + 1), y + i)
    acc += sum(_rational_det(7))
    seen = {}
    for i in range(600):
        key = (i % 37, str(i % 11))
        seen[key] = seen.get(key, 0) + i
    return acc + len(seen)


def reference_s() -> float:
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Gauge:
    """Scales measured times by the machine speed around them.

    ``add`` queues one measured item; once ``EVERY_S`` of measured time is
    queued, it times the reference and returns the queued items with their
    scaled times.  ``flush`` does the same for what is left at the end.
    """

    def __init__(self, every_s: float = EVERY_S) -> None:
        reference_s()  # warm-up
        self.every_s = every_s
        self.last = reference_s()
        self.samples = [self.last]
        self.pending: list = []
        self.pending_s = 0.0

    def add(self, item, seconds: float) -> list:
        self.pending.append((item, seconds))
        self.pending_s += seconds
        return self.flush() if self.pending_s >= self.every_s else []

    def flush(self) -> list:
        if not self.pending:
            return []
        now = reference_s()
        scale = 2 * REF_S / (self.last + now)
        self.last = now
        self.samples.append(now)
        out = [(item, seconds * scale) for item, seconds in self.pending]
        self.pending, self.pending_s = [], 0.0
        return out
