"""Row spans on a thread pool for the scene front end.

The front-end passes (synthesis, beamforming, the chirp-z slow-time
transform, the range FFT and CFAR) each split into independent fast-time
rows or beams. numpy, scipy.fft and scipy.ndimage release the GIL on large
arrays, so threads over contiguous row spans use every core the process may
run on. The rule:

- workers come from the CPU affinity of the process (the CPU count where the
  platform has no affinity call), and the pool is created on first use;
- span bounds depend only on the row count and the worker count, and every
  output element is computed by the same code whatever span it falls in, so
  outputs are bit-identical for any worker count;
- inputs below `_CHUNK_BUDGET` (2^20) complex entries run inline on the
  calling thread, so small cubes (the Monte Carlo grid's 512 x 64 x 16
  trial cube, 2^19 entries) never start a thread, while a dwell window of
  the table radar (256 chirps, 2^21 entries at 5.12 MHz; `pipeline`) uses
  every worker.

No workspace is sized from the gate: the chirp-z workspace (`integrate`) and
the CFAR's tile of range rows (`cfar`) have budgets of their own. The
smaller working blocks share one size, `_BLOCK_ENTRIES` (2^16 entries, 1 MB
of complex128): the row blocks of the synthesis product and of the noise
draws (`synth`, 512 KB of float64, which a grid trial's unit noise also
goes through), the row blocks of the CFAR's beam forming (`cfar`), and a
grid trial's chirp windows (`bench`).

The first span runs on the calling thread and the others on the pool; every
span finishes before `run` returns or raises. Span functions call numpy,
scipy and private helpers only, never a public stage function such as
`range_ft` or `ca_cfar`: the benchmark's tracer wraps those names and keeps
one span stack, for the calling thread. The loop over a dwell's windows
runs on the calling thread for the same reason.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

# the input size, in entries, below which a pass runs inline (16 MB of
# complex128)
_CHUNK_BUDGET = 1 << 20
# entries per working block (1 MB of complex128, so a block stays in cache
# while it is written)
_BLOCK_ENTRIES = 1 << 16

_affinity = getattr(os, "sched_getaffinity", None)   # absent on macOS and Windows
WORKERS = len(_affinity(0)) if _affinity else os.cpu_count() or 1

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

    The spans after the first go to the pool, so a lone span runs inline
    and starts no thread; an exception from any span reaches the caller
    once all have ended.
    """
    futures = [_executor().submit(fn, a, b) for a, b in bounds[1:]]
    try:
        first = fn(*bounds[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]
