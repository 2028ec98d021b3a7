"""The ``normalize`` stage's entry: the normalized corpus from the corpus
pass, with no grammar run. The rules, POS filtering and noun-phrase
chunking, are `patterns.normalize_columns`.
"""

from __future__ import annotations

import os

from .patterns import ScanStats, scan_corpus


def normalize_corpus(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    workers: int = 1,
    header: dict[str, str] | None = None,
) -> ScanStats:
    """Normalize a tagged corpus file line by line, preserving input order
    at any ``workers``; paragraphs that filter to zero tokens are skipped.
    `perfbench/trace.py` times it by name; ROADMAP item 9 removes it."""
    return scan_corpus(in_path, out_path, None, None, workers, header)
