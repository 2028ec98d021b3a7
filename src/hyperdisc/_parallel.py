"""Order-preserving parallel mapping over batches of corpus lines.

This is the package's only concurrency. It serves the tagged-corpus scan
(normalize and extract), which hands it batches of lines joined into one
string each, so that a worker process receives one string and returns one
result per batch; every other stage runs serially. Workers are separate
processes (the map functions are pure and picklable), at most
``os.cpu_count()`` of them (one when the count is unknown); results are
yielded in input order regardless of worker count, so any stage built on this
produces byte-identical output for every ``workers`` setting. The workers
ignore SIGINT, so a Ctrl-C raises `KeyboardInterrupt` in this process
alone, and leaving the pool's block terminates them. With one process the
function runs in this process and `multiprocessing` is never imported."""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_lines(
    func: Callable[[T], R], items: Iterable[T], workers: int = 1
) -> Iterator[R]:
    processes = min(workers, os.cpu_count() or 1)
    if processes <= 1:
        yield from map(func, items)
        return
    import multiprocessing
    import signal

    initargs = (signal.SIGINT, signal.SIG_IGN)
    with multiprocessing.Pool(processes, initializer=signal.signal, initargs=initargs) as pool:
        yield from pool.imap(func, items)
