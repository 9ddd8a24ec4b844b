"""A fixed computation that measures how fast the machine runs right now.

The benchmark's reference host is shared with other tenants.  How fast it runs
one process drifts by up to a factor of two over minutes, and runs of 15
seconds cannot average that out.  So the benchmark times this kernel before and after
every command and set-up, and scales each measured time by

    REFERENCE_S / (mean of the kernel's two times around it)

giving seconds at the speed the reference host had when REFERENCE_S was
measured.  Raw seconds are kept beside the scaled ones in the result file.

The kernel uses none of simreg's code, so no change to simreg can move it.  Its
parts mirror the work simreg does: random lookups in a dict far larger than the
caches, interpreted Python on strings and dicts, many numpy calls on small
arrays, streaming a few megabytes through memory, dense updates of a table
larger than a core's L2 cache, and encoding floats as JSON.  Each part alone
tracked the drift of some workloads and not of others; together they tracked
all four.  The dict adds about 40 MB to every workload's peak RSS.
"""

from __future__ import annotations

import json
import re
from time import perf_counter

import numpy as np

# Kernel time on the reference host (2-core x86_64 VM, Python 3.11, numpy 2.4,
# one BLAS thread) in a quiet spell: the lower quartile of 340 timings taken
# between commands.  It only sets the scale of the scaled seconds.
REFERENCE_S = 0.055

_WORD = re.compile(r"\w+")
_TEXT = " ".join(f"tok{i % 120:03d}" for i in range(200))
_ROWS = np.array([1, 5, 7, 9, 11, 3, 2, 8, 40])


def make_heap():
    """A dict too big for the caches and its keys in a random order."""
    keys = [f"key{i}" for i in range(200_000)]
    heap = {k: i for i, k in enumerate(keys)}
    order = [keys[i] for i in np.random.default_rng(0).permutation(len(keys))[:30_000]]
    return heap, order


def kernel_seconds(heap) -> float:
    start = perf_counter()
    table, order = heap
    total = 0
    for key in order:
        total += table[key]
    counts: dict[str, int] = {}
    for i in range(280):
        for word in _WORD.findall(_TEXT[: (i % 40) * 8]):
            counts[word] = counts.get(word, 0) + 1
        sorted(counts.items())
    head = np.arange(32.0)
    small = np.zeros((120, 32))
    for _ in range(300):
        u = small[_ROWS].mean(axis=0)
        float(head @ u)
        np.add.at(small, _ROWS, u / 9.0)
    stream = np.ones(1_000_000)
    for _ in range(8):
        stream *= 1.0000001
    dense = np.zeros((5000, 128))  # 5 MB, more than a core's L2
    for _ in range(5):
        grads = np.zeros_like(dense)
        grads[::7] += 1e-3
        dense -= 0.01 * grads
    json.dumps((np.arange(22000) * 1.0001).tolist())
    return perf_counter() - start


class Clock:
    """Times blocks of work and scales them to the reference host's speed."""

    def __init__(self):
        self._heap = make_heap()
        self._before = kernel_seconds(self._heap)

    def scale(self) -> float:
        """Factor for the block that ended just now; also starts the next one."""
        after = kernel_seconds(self._heap)
        factor = REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
        return factor
