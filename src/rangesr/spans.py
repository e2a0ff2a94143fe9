"""Row spans on a thread pool for the scene front end.

The front-end passes (synthesis, beamforming, the chirp-z slow-time
transform, the range FFT and CFAR) each split into independent fast-time
rows or beams. numpy, scipy.fft and scipy.ndimage release the GIL on large
arrays, so threads over contiguous row spans use every core the process may
run on. The rule:

- workers come from the CPU affinity of the process (`os.sched_getaffinity`),
  and the pool is created on first use;
- span bounds depend only on the row count and the worker count, and every
  output element is computed by the same code whatever span it falls in, so
  outputs are bit-identical for any worker count;
- inputs below `_CHUNK_BUDGET` complex entries run inline on the calling
  thread, so small cubes (the Monte Carlo grid's) never start a thread.

The first span runs on the calling thread and the others on the pool; every
span finishes before `run` returns or raises. Span functions call numpy,
scipy and private helpers only, never a public stage function such as
`range_ft` or `ca_cfar`: the benchmark's tracer wraps those names and keeps
one span stack, for the calling thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

# cap on the convolution workspace of the chirp-z transform, in complex
# entries (~64 MB complex128), and the input size below which a pass runs
# inline
_CHUNK_BUDGET = 4_000_000

WORKERS = len(os.sched_getaffinity(0))

_pool: ThreadPoolExecutor | None = None


def workers(entries: int) -> int:
    """Worker count for a pass over `entries` elements: 1 when small."""
    return 1 if entries < _CHUNK_BUDGET else WORKERS


def split(n: int, entries: int) -> list[tuple[int, int]]:
    """Contiguous spans covering range(n), at most `workers(entries)` of them."""
    parts = min(workers(entries), n) if n > 0 else 1
    edges = [n * i // parts for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _executor() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(
            max_workers=max(1, WORKERS - 1),
            thread_name_prefix="rangesr-span",
        )
    return _pool


def run(fn, bounds: list[tuple[int, int]]) -> list:
    """`fn(a, b)` for each span, results in span order.

    A lone span runs inline. Otherwise the spans after the first go to the
    pool; an exception from any span reaches the caller once all have ended.
    """
    if len(bounds) == 1:
        return [fn(*bounds[0])]
    futures = [_executor().submit(fn, a, b) for a, b in bounds[1:]]
    try:
        first = fn(*bounds[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]
