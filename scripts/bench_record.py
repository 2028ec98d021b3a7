#!/usr/bin/env python3
"""Record every benchmark workload of a checkout in one ``BENCH_<label>.json``.

    python3 scripts/bench_record.py LABEL [--checkout DIR]

Runs ``perfbench/run.py`` in ``DIR`` (default: the checkout holding this
script) for every workload, once at ``--trace 0`` and once at ``--trace 1``,
each as its own process, one after the other, all on one seed and for the
benchmark's run length. The file records the machine, the git revision of
``DIR``, the line counts of its ``src/hyperdisc`` and ``scripts`` and, per
workload and trace mode, the result object that the run printed as its last
line (with every metric and unit). It is written to the root of the
checkout holding this script, so that files from successive revisions sit
side by side and compare metric by metric. Exits 1 if any run failed or
reported a failed check; its entry then holds the error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "scan", "query")
SEED = 801  # one seed for every file, so that the files compare


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def py_lines(directory: Path) -> int:
    """Newlines in the ``*.py`` files of ``directory``, counted as
    ``perfbench/run.py`` counts the package sources."""
    return sum(path.read_text(encoding="utf-8").count("\n") for path in directory.glob("*.py"))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run(checkout: Path, workload: str, trace: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout)[-2000:]
        return {"error": f"exit code {proc.returncode}, no result line", "output": tail}
    if proc.returncode != 0 or not result.get("correct"):
        result["error"] = f"exit code {proc.returncode}, failed {result.get('failed')}"
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose perfbench/ and src/ are run (default: this one)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py under {checkout}", file=sys.stderr)
        return 2
    seconds = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    record = {
        "label": args.label,
        "machine": machine(),
        "revision": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--",
                          "src", "scripts", "perfbench")),
        "src_lines": py_lines(checkout / "src" / "hyperdisc"),
        "scripts_lines": py_lines(checkout / "scripts"),
        "seed": SEED,
        "seconds": seconds,
        "runs": {},
    }
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(checkout, workload, trace, seconds)
            record["runs"][f"{workload}/trace{trace}"] = result
            failed |= "error" in result
            print(f"{workload} trace {trace}: {result.get('error', 'ok')}", file=sys.stderr)

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
