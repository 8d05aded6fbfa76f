"""Host-speed calibration: a fixed pure-Python kernel timed next to the requests.

The CPU speed that a virtual machine on a shared host gives a single thread
drifts by about +-30% over tens of seconds, as other tenants load the same
cores and memory.  Wall times of the library's requests drift with it, so
runs of the same code disagree by more than any useful bound.

The kernel below does a fixed amount of work of the same kinds the library
does: small-function calls over generators, partition stacking with a
union-find into a dict of Fraction-coefficient polynomials, and text
formatting.  It uses no code of the library, so a change to the library
cannot change it.  Timed between requests, its speed tracks the host's:
over 2 to 5 s windows on the 2-vCPU build host, request time divided by
kernel time spread 4 to 10 times less than request time alone.

A request's time at reference speed is its measured time multiplied by
REFERENCE_S over the kernel's time measured around it.  REFERENCE_S is
near the kernel's time on the build host in its slower stretches, so the
reported figures read as that host's milliseconds.

Set-up time is mostly process start and imports, which the kernel does not
track: on the build host it barely slowed when the kernel ran 1.6 times
slower.  So set-up is scaled instead by REFERENCE_SPAWN_S over the time of
a process that starts the same interpreter and imports the standard
modules the benchmark's children import (SPAWN_PROBE), spawned just before.
"""

from fractions import Fraction
import gc
import statistics
import time

# kernel time on the build host (2-vCPU Intel Xeon VM, Python 3.11.7),
# where it took 2.3 to 4.9 ms
REFERENCE_S = 0.0040
# SPAWN_PROBE's median time there; it took 0.06 to 0.12 s
REFERENCE_SPAWN_S = 0.075
SPAWN_PROBE = "import argparse, contextlib, fractions, hashlib, importlib, io, json, math, random, resource, statistics, types"
# the kernel's return value; a different value means the kernel is broken
CHECKSUM = 3367


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _is_partition(p):
    return all(isinstance(x, int) for x in p) and not any(a < b for a, b in zip(p, p[1:]))


def _multiplicities(p):
    out = {}
    for x in p:
        out[x] = out.get(x, 0) + 1
    return out


def _binom(n, r):
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= n - i
        den *= i + 1
    return num // den


def _calls(n=7):
    total = 0
    parts = list(_partitions(n))
    for p in parts:
        if not _is_partition(p):
            continue
        mult = _multiplicities(p)
        for q in parts[:25]:
            if _is_partition(q):
                total += sum(_binom(a + b, b) for a, b in zip(p, q)) % 7
                total += sum(1 for x in mult if x in q)
    return total


def _stacking(rounds=50, k=5):
    acc = {}
    for j in range(rounds):
        top = tuple((i % (2 * k) + 1, (3 * i + j) % (2 * k) + 1) for i in range(0, 2 * k, 2))
        bottom = tuple((i % (2 * k) + 1, (5 * i + j + 1) % (2 * k) + 1) for i in range(1, 2 * k, 3))
        parent = list(range(3 * k + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for block in top:
            for v in block[1:]:
                parent[find(v)] = find(block[0])
        for block in bottom:
            shifted = [v + k for v in block]
            for v in shifted[1:]:
                parent[find(v)] = find(shifted[0])
        groups = {}
        for v in range(1, 3 * k + 1):
            groups.setdefault(find(v), []).append(v)
        blocks, deleted = [], 0
        for members in groups.values():
            outer = [v if v <= k else v - k for v in members if v <= k or v > 2 * k]
            if outer:
                blocks.append(tuple(outer))
            else:
                deleted += 1
        poly = acc.setdefault(tuple(sorted(blocks)), {})
        for e, c in ((deleted, Fraction(j + 1, 7)), (deleted - 1, Fraction(3))):
            s = poly.get(e, Fraction(0)) + c
            if s:
                poly[e] = s
            else:
                poly.pop(e, None)
    return len(acc)


def _text(n=80):
    rows = [[(i * j) % 17 - 8 for j in range(12)] for i in range(n)]
    return len("\n".join(" ".join("%d" % x for x in row) for row in rows))


def kernel():
    """The fixed work; returns CHECKSUM."""
    return _calls() + _stacking() + _text()


def time_kernel():
    """Seconds one kernel() call takes now.  The kernel's garbage is
    acyclic, so the cycle collector is paused while it runs: otherwise its
    time would grow with the heap the library has built."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if value != CHECKSUM:
        raise RuntimeError("calibration kernel returned %r, expected %r" % (value, CHECKSUM))
    return elapsed


def speed_scale(samples):
    """Factor that turns a time measured while the kernel took `samples`
    into a time at reference speed."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(kernel_times, window):
    """Per-request factors for requests 0..n-1, where kernel_times[i] was
    measured just before request i and kernel_times[n] just after the last:
    each request uses the median of the 2 * window kernel times nearest it."""
    n = len(kernel_times) - 1
    scales = []
    for i in range(n):
        lo = max(0, min(i + 1 - window, n + 1 - 2 * window))
        scales.append(speed_scale(kernel_times[lo:lo + 2 * window]))
    return scales
