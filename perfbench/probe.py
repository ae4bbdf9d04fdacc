"""A fixed piece of work that does not call melworld, timed between rounds
to read the machine's speed at the time.

The speed of the VM the reference figures come from drifts by 10-40% over
seconds to minutes, and every leg of a run moves with it. The benchmark
therefore reports each timing scaled by ``REF_MS / median probe time of the
run``: the time the operation would take on a machine on which the probe
takes ``REF_MS``.

The probe has the program's two kinds of cost in about equal parts: fresh
memory, touched and transformed in place (page faults and memory traffic,
as the batch-200 graph's temporaries), and a chain of numpy calls on one
8-wide row with a Python object per call (per-call overhead, as a graph at
batch 1). The memory is sixteen 1 MiB anonymous mappings, each made and
unmapped in turn, so neither the heap's state nor the program's earlier
allocations change its cost, and it adds at most 1 MiB to the peak RSS.
Arrays from numpy's allocator were tried first: through glibc they read 3 ms
or 12 ms depending on the heap's state, and at 36 MiB (or as one 4 MiB
mapping) they raised the benchmark's peak RSS above the program's own.
"""

import mmap
import time

import numpy as np

# the probe's median inside a benchmark run on the reference VM (2 vCPUs,
# Xeon 2.1 GHz) at its usual speed
REF_MS = 27.0

_BYTES = 2 ** 20
_ROW = np.random.default_rng(0).standard_normal((1, 8))


def probe_ms() -> float:
    start = time.perf_counter()
    for _ in range(16):
        mapping = mmap.mmap(-1, _BYTES)
        fresh = np.frombuffer(mapping, dtype=np.float64)
        fresh.fill(1.0)
        np.tanh(fresh, out=fresh)
        del fresh
        mapping.close()
    y, nodes = _ROW, []
    for i in range(3000):
        y = np.tanh(0.5 * y + 0.1)
        nodes.append((y, i, nodes[-1:]))
    return 1000.0 * (time.perf_counter() - start)
