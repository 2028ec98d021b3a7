"""Smoke test of the benchmark itself, at a tiny input size.

    python -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed for each
workload, traced and untraced, along with the fail ratio and the query
metrics printed outside the result, that the seed program passes every output
check, that a corrupted output makes ``failed`` (the fail ratio) non-zero,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "build": dict(n_hypernyms=4, n_hyponyms=12, noise_lines=40, distractor_vocab=10,
                  dim=8, epochs=1, window=3, min_count=3, workers=1),
    "scan": dict(n_hypernyms=4, n_hyponyms=12, noise_lines=40, distractor_vocab=10,
                 workers=2),
    "query": dict(n_hypernyms=4, n_hyponyms=12, noise_lines=200, distractor_vocab=300,
                  dim=8, epochs=1, window=3, min_count=3, workers=1),
}


def _spec() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "QUERY_MIN_SAMPLES", 20)


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed(tiny, capsys, workload, trace):
    spec = _spec()
    result, out = _run(capsys, workload, trace)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        if not trace:
            assert metric["value"] > 0, name
    if not trace:
        printed = {line.split()[0] for line in out.splitlines()}
        assert {"fail_ratio", "query_p50_ms", "query_p99_ms", "wall_raw_s"} <= printed


@pytest.mark.parametrize("workload", ["build", "scan", "query"])
def test_corrupted_output_is_counted(tiny, capsys, monkeypatch, workload):
    spawn_cli = run.Bench.cli

    def corrupting_cli(self, config, stage, **kwargs):
        proc = spawn_cli(self, config, stage, **kwargs)
        cfg = run.load_cfg(config)
        if config.parent.name == "art" and stage in ("pipeline", "normalize"):
            target = cfg.predictions if stage == "pipeline" else cfg.normalized
            with open(target, "a", encoding="utf-8") as fh:
                fh.write("corrupt\n")
        return proc

    monkeypatch.setattr(run.Bench, "cli", corrupting_cli)
    result, _ = _run(capsys, workload, 0)
    assert result["failed"] > 0
    assert not result["correct"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
