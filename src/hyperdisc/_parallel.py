"""Order-preserving parallel mapping over corpus lines.

This is the package's only concurrency. It serves the tagged-corpus scan
(normalize and extract), whose per-line work gains from a second process; every
other stage runs serially. Workers are separate processes (the map
functions are pure and picklable); results are yielded in input order
regardless of worker count, so any stage built on this produces
byte-identical output for every ``workers`` setting."""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

CHUNK_SIZE = 512


def map_lines(
    func: Callable[[T], R], items: Iterable[T], workers: int = 1
) -> Iterator[R]:
    if workers <= 1:
        for item in items:
            yield func(item)
        return
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(func, items, chunksize=CHUNK_SIZE)
