"""The command-line scripts under scripts/, run as `python scripts/<name>.py`
would run them."""

import runpy
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
