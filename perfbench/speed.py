"""Machine-speed probes: scale measured times to a fixed reference speed.

The recorded machine is a shared host whose CPUs change speed with other
tenants' load, by up to about 1.9x, from one second to the next and for
phases of over a minute, each CPU on its own. A probe is a fixed piece of
work shaped like the program's hot path. How much a slowdown hurts depends
on that shape, so there are two:

* ``mixed`` -- tokenising tagged text into a dict (normalize, patterns),
  small-vector numpy updates in a Python loop (CBOW training), and a
  gather, distance and sort over a few hundred rows (answering); ten units
  of about 1 ms each.
* ``retrieval`` -- projection retrieval over a ten-thousand-term
  vocabulary: look every term up in a dict, gather the rows, take their
  distances and sort them all (``embedding.candidates_from_phi``).

A time measured with a probe, on the same CPU, is reported as

    scaled seconds = measured seconds * REFERENCE_S[kind] / probe seconds

that is, in seconds at the speed at which the probe takes REFERENCE_S.
The probes are benchmark code, so a change to the program cannot move them.

A probe run next to a child process samples the speed at two instants, and
the speed changes within a second. So a child is timed with a ``Sampler``
instead: a process per CPU at the lowest priority (nice 19) that runs
``mixed`` units for as long as the child runs. The scheduler gives it about
1.4% of a busy CPU in short slices spread over the child's whole run, and
its CPU time per unit is the speed the child saw. The child must be in the
sampler's session (its scheduling group), or the two share the CPU evenly.
Over 84 runs of ``hyperdisc pipeline``, the sampler cut the run-to-run
variation (standard deviation / mean) from 0.147 to 0.049, and before/after
probes only to 0.131.

Run as a sampler (started by ``Sampler``):

    python perfbench/speed.py CPU

It reads ``start`` and ``stop`` lines on stdin and answers each ``stop``
with ``UNITS CPU_SECONDS``, counting at least one unit; it ends at EOF.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np

# Probe times on the recorded machine (2 Intel Xeon vCPUs at 2.0 GHz) when
# it is not slowed down; scaled times are seconds at that speed. "sampled" is
# the ``mixed`` probe as a Sampler measures it next to a busy child, which
# leaves its caches cold.
REFERENCE_S = {"mixed": 0.006, "retrieval": 0.020, "sampled": 0.0095}
MIXED_UNITS = 10  # units in one ``mixed`` probe

_rng = np.random.default_rng(20181)
_ROWS = _rng.random((10_000, 16))
_ORDER = _rng.permutation(10_000)
_WORDS = [f"w{i:05d}" for i in _rng.permutation(10_000)]
_LINE = " ".join(f"{w}_NN the_DT" for w in _WORDS[:40])
_SMALL = _rng.random((64, 32))
_TERMS = [f"term {i:05d}" for i in _rng.permutation(10_000)]
_INDEX = {t.replace(" ", "_"): i for i, t in enumerate(_rng.permutation(_TERMS))}


def _mixed_unit(part: int) -> None:
    counts: dict[str, int] = {}
    for _ in range(10):
        for token in _LINE.split():
            word, _, tag = token.rpartition("_")
            if tag == "NN":
                counts[word] = counts.get(word, 0) + 1
    vec = np.zeros(32)
    for i in range(80):
        row = _SMALL[i & 63]
        grad = 0.05 * (1.0 / (1.0 + np.exp(-row.dot(vec))) - 0.5)
        vec -= grad * row
    rows = _ORDER[part * 1000:(part + 1) * 1000]
    dists = np.linalg.norm(_ROWS[rows] - vec[:16], axis=1)
    words = _WORDS[part * 300:(part + 1) * 300]
    sorted(((dists[i], w) for i, w in enumerate(words)), key=lambda it: (it[0], it[1]))


def _mixed() -> None:
    for part in range(MIXED_UNITS):
        _mixed_unit(part)


def _retrieval() -> None:
    pool = []
    for term in _TERMS:
        token = term.replace(" ", "_")
        row = _INDEX.get(token)
        if row is not None:
            pool.append((token, row))
    rows = np.fromiter((row for _, row in pool), dtype=np.intp, count=len(pool))
    dists = np.linalg.norm(_ROWS[rows] - _ROWS[0], axis=1)
    sorted(((dists[i], token.replace("_", " ")) for i, (token, _) in enumerate(pool)),
           key=lambda it: (it[0], it[1]))


PROBES = {"mixed": _mixed, "retrieval": _retrieval}


def probe_once(kind: str) -> float:
    """Seconds the probe ``kind`` takes once."""
    start = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - start


def scale(seconds: float, kind: str, probe_s: float) -> float:
    """``seconds`` measured at the speed ``probe_s`` shows, in reference seconds."""
    return seconds * REFERENCE_S[kind] / probe_s


class Sampler:
    """Low-priority ``mixed`` sampler processes, one per CPU, that stay up
    between samples. ``start`` and ``stop`` bracket one sample; ``stop``
    returns the ``mixed`` probe time the sample shows, averaged over the
    CPUs sampled."""

    def __init__(self) -> None:
        self.procs: dict[int, subprocess.Popen] = {}

    def start(self, cpus: set[int]) -> None:
        self.active = sorted(cpus)
        for cpu in self.active:
            if cpu not in self.procs:
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                self.procs[cpu].stdout.readline()  # ready
        for cpu in self.active:
            self._send(cpu, "start")

    def stop(self) -> float:
        for cpu in self.active:
            self._send(cpu, "stop")
        per_unit = []
        for cpu in self.active:
            units, cpu_s = self.procs[cpu].stdout.readline().split()
            per_unit.append(float(cpu_s) / int(units))
        return MIXED_UNITS * sum(per_unit) / len(per_unit)

    def close(self) -> None:
        for proc in self.procs.values():
            proc.stdin.close()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()

    def _send(self, cpu: int, command: str) -> None:
        self.procs[cpu].stdin.write(command + "\n")
        self.procs[cpu].stdin.flush()


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    running, stopping = threading.Event(), threading.Event()
    state = {"exit": False}

    def read_commands() -> None:
        for line in sys.stdin:
            if line.strip() == "start":
                running.set()
            elif line.strip() == "stop":
                stopping.set()
        state["exit"] = True
        running.set()
        stopping.set()

    _mixed()  # warm up
    threading.Thread(target=read_commands, daemon=True).start()
    print("ready", flush=True)
    part = 0
    while True:
        running.wait()
        if state["exit"]:
            return
        units, cpu_s = 0, 0.0
        while not units or not stopping.is_set():
            start = time.thread_time()
            _mixed_unit(part)
            cpu_s += time.thread_time() - start
            units += 1
            part = (part + 1) % MIXED_UNITS
        running.clear()
        stopping.clear()
        if state["exit"]:
            return
        print(units, cpu_s, flush=True)


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
