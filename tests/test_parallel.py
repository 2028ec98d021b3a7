import multiprocessing
import os

import pytest

from hyperdisc._parallel import map_lines


class RecordingPool:
    """Stands in for `multiprocessing.Pool`: records the process count it is
    asked for and maps in this process, so no process is started."""

    built: list[int] = []

    def __init__(self, processes):
        RecordingPool.built.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, items):
        return map(func, items)


@pytest.mark.parametrize("cpus, workers, pools", [
    (2, 10**6, [2]), (1, 10**6, []), (None, 10**6, []), (8, 1, []),
], ids=["2-cpus", "1-cpu", "unknown-cpus", "1-worker"])
def test_workers_are_capped_at_the_cpu_count(monkeypatch, cpus, workers, pools):
    """At most ``os.cpu_count()`` processes, one for an unknown count; one
    process maps in this process, and every count keeps the batch order."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "built", [])
    batches = [f"batch {i}" for i in range(50)]
    assert list(map_lines(str.upper, batches, workers)) == [b.upper() for b in batches]
    assert RecordingPool.built == pools
