"""A fixed pure-Python chunk of work that gauges how fast the CPU runs right now.

On a shared host the speed of one vCPU changes by a quarter or more from
one second to the next, as other guests come and go on its sibling
thread.  So while a pass runs, the benchmark stops the pass's process
every few tenths of a second and runs one chunk on the same CPU; a pass
time divided by the mean chunk time of its own stops reads the same on a
fast and on a slow stretch.  The chunk is the kind of work capelli does: a
sparse product of two multivariate polynomials with Fraction coefficients,
kept in a dict keyed by exponent tuples.  It never imports capelli, so a
change to the program cannot move it; only the machine can.

    python3 perfbench/reference.py      # prints the CPU and wall time of a few chunks
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

NVARS = 6
DEG_P, DEG_Q = 3, 2        # 84 x 28 terms: about 20 ms


def _poly(deg, a, b):
    """All monomials in NVARS variables of total degree <= deg, with fixed rational coefficients."""
    terms = {}
    for i, e in enumerate(x for x in product(range(deg + 1), repeat=NVARS) if sum(x) <= deg):
        terms[e] = Fraction((i * a) % 11 - 5 or 1, (i * b) % 7 + 1)
    return terms


def chunk():
    """One fixed amount of work; returns the number of terms of the product."""
    p, q = _poly(DEG_P, 3, 5), _poly(DEG_Q, 7, 2)
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


def gauge():
    """(start, cpu_s, wall_s) of one chunk; start is on the perf_counter clock."""
    c0, w0 = time.process_time(), time.perf_counter()
    chunk()
    return w0, time.process_time() - c0, time.perf_counter() - w0


if __name__ == "__main__":
    for _ in range(10):
        print("cpu %.4f s  wall %.4f s" % gauge()[1:])
