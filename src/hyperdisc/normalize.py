"""Produce the normalized corpus: lowercase, POS-filter, append noun phrases.

Tag classes are mapped by Penn Treebank prefix (`corpus_io.TAG_CODES`): noun
``NN*``, verb ``VB*``, adjective ``JJ*``, adverb ``RB*``. Only those four
classes survive the filter, which also drops punctuation, prepositions and
conjunctions. Every contiguous 2- or 3-token window of adjectives/nouns
ending in a noun is a noun phrase; all overlapping windows are kept and
appended to the filtered line as underscore-joined tokens.
"""

from __future__ import annotations

import os
import re
from itertools import compress

from .corpus_io import Outputs, ScanStats, scan_tagged_corpus

PHRASE_LENGTHS = (2, 3)
_CHUNK_RUN = re.compile(r"[NJ]{%d,}" % min(PHRASE_LENGTHS))  # over `corpus_io.TAG_CODES` codes
_KEPT_CODES = frozenset("NJK")  # the codes of the `corpus_io.KEEP_PREFIXES` tags


def normalize_columns(words: tuple[str, ...], codes: str, outs: Outputs) -> int:
    """Append a paragraph's normalized line to ``outs[0]``, none when nothing
    is kept: its lowercased kept-class ``words`` in order, then its noun
    phrases; return the number of phrases. A noun phrase is a 2- or 3-token
    window of chunk ``codes`` that ends in a noun, underscore-joined. Windows
    may overlap; enumeration is position-major (both windows starting at
    token i come before any window starting at i+1), shorter first. A window
    that runs past its run of chunk codes ends the windows of its start; one
    that ends on a non-noun is skipped. The `scan_tagged_corpus` work of a
    normalize pass."""
    kept = list(compress(words, map(_KEPT_CODES.__contains__, codes)))
    n_kept = len(kept)
    for run in _CHUNK_RUN.finditer(codes):
        run_start, run_end = run.span()
        for start in range(run_start, run_end - 1):
            for length in PHRASE_LENGTHS:
                end = start + length
                if end > run_end:
                    break
                if codes[end - 1] == "N":
                    kept.append("_".join(words[start:end]))
    if kept:
        outs[0].append(" ".join(kept))
    return len(kept) - n_kept


def normalize_corpus(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    workers: int = 1,
    header: dict[str, str] | None = None,
) -> ScanStats:
    """Normalize a tagged corpus file line by line, preserving input order
    at any ``workers``; paragraphs that filter to zero tokens are skipped."""
    outputs = (out_path, None, None)
    return scan_tagged_corpus(in_path, normalize_columns, outputs, workers, header)
