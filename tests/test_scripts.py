"""The command-line scripts under scripts/, run as `python scripts/<name>.py`
would run them."""

import runpy
import sys
from pathlib import Path

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
