"""The command-line scripts under scripts/, run as `python scripts/<name>.py`
would run them."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_make_planted_corpus_counts_the_corpus_lines(tmp_path, monkeypatch, capsys):
    out = tmp_path / "data"
    monkeypatch.setattr(sys, "argv", [
        "make_planted_corpus.py", str(out), "--hypernyms", "2", "--hyponyms", "4",
        "--noise-lines", "5",
    ])
    runpy.run_path(str(SCRIPTS / "make_planted_corpus.py"), run_name="__main__")
    first = capsys.readouterr().out.splitlines()[0]
    corpus = out / "corpus.pos.txt"
    lines = corpus.read_bytes().count(b"\n")
    assert lines > 0 and first == f"corpus:        {corpus} ({lines} paragraphs)"


def test_planted_benchmark_prints_each_seed_and_their_mean(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on it
    monkeypatch.setattr(sys, "argv", [
        "run_planted_benchmark.py", str(tmp_path), "--hypernyms", "4", "--hyponyms", "12",
        "--epochs", "1", "--seeds", "3-4",
    ])
    runpy.run_path(str(SCRIPTS / "run_planted_benchmark.py"), run_name="__main__")
    tables = {}  # title -> {row name: (MRR, MAP, P@1)}
    for block in capsys.readouterr().out.strip().split("\n\n"):
        title, head, *rows = block.splitlines()
        assert head.split() == ["module", "MRR", "MAP", "P@1"]
        tables[title] = {name: tuple(map(float, values))
                         for name, *values in map(str.split, rows)}
    assert list(tables) == ["seed 3", "seed 4", "mean of 2 seeds"]
    for table in tables.values():
        assert list(table) == ["Cooc", "Hearst", "IsA", "Phi", "merged"]
    seeds = [tables["seed 3"], tables["seed 4"]]
    for name, means in tables["mean of 2 seeds"].items():
        # each printed value is rounded to 4 decimals, the mean among them
        assert means == pytest.approx([sum(col) / 2 for col in zip(*(s[name] for s in seeds))],
                                      abs=1e-4)
    for seed, table in zip((3, 4), seeds):
        metrics = dict(line.split("\t") for line in
                       (tmp_path / str(seed) / "metrics.tsv").read_text().splitlines()
                       if not line.startswith("#"))
        # metrics.tsv holds 3 decimals, the table 4, of the same mean
        assert table["merged"][0] == pytest.approx(float(metrics["mrr"]), abs=5.5e-4)


@pytest.mark.parametrize("script, flags, name", [
    ("make_planted_corpus.py", ["--hypernyms", "1"], "n_hypernyms"),
    ("make_planted_corpus.py", ["--hyponyms", "1"], "n_hyponyms"),
    ("make_planted_corpus.py", ["--noise-lines", "-5"], "noise_lines"),
    ("make_planted_corpus.py", ["--distractor-vocab", "-1"], "distractor_vocab"),
    ("run_planted_benchmark.py", ["--hypernyms", "1"], "n_hypernyms"),
    ("run_planted_benchmark.py", ["--epochs", "0"], "epochs"),
    ("run_planted_benchmark.py", ["--dim", "1"], "dim"),
])
def test_bad_size_is_a_usage_error(tmp_path, script, flags, name):
    """A size or training setting out of range ends the script with a usage
    error naming it, before any file is written."""
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), str(out), *flags],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {name} must be at least" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
