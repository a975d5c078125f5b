"""Work split into interleaved shares, one per thread, results in item order,
and rows split into consecutive blocks under a budget.

`betweenness` spreads its source batches and `diversity_all` its groups of
partner-row blocks this way.  Each share is a fixed set of items (every
`workers`-th), so the result of every item, and the order in which the
caller reduces them, do not depend on the thread count.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np


def run_shares(
    work: Callable[[Sequence, threading.Event], list], items: Sequence, workers: int
) -> list:
    """`work(items[w::workers], stop)` for each share w, one result per item,
    put back in item order.

    Share 0 runs in the calling thread and a pool thread each further share,
    so a one-share run starts no thread.  `work` checks `stop` before each
    item and returns early once it is set: when one share fails, or the
    calling thread is interrupted, the other shares stop before their next
    item, and the exception propagates.
    """
    workers = max(1, min(workers, len(items)))
    stop = threading.Event()

    def stop_if_failed(share: Future) -> None:
        if share.exception() is not None:
            stop.set()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, items[w::workers], stop) for w in range(1, workers)]
        for future in futures:
            future.add_done_callback(stop_if_failed)
        try:
            shares = [work(items[::workers], stop)]
            shares += [future.result() for future in futures]
        finally:
            # a no-op once every share is done; otherwise a share failed, or
            # this thread was interrupted, and the rest stop at their next item
            stop.set()
    return [shares[i % workers][i // workers] for i in range(len(items))]


def row_blocks(counts: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive row ranges [start, stop) whose `counts` sum to at most
    `budget`; a row over it is a range of its own."""
    ends = np.cumsum(counts)
    blocks = []
    start = 0
    while start < len(counts):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + budget, side="right")))
        blocks.append((start, stop))
        start = stop
    return blocks
