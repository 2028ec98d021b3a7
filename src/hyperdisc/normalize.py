"""Produce the normalized corpus: lowercase, POS-filter, append noun phrases.

Tag classes are mapped by Penn Treebank prefix: noun ``NN*``, verb ``VB*``,
adjective ``JJ*``, adverb ``RB*``. Only those four classes survive the
filter, which also drops punctuation, prepositions and conjunctions. Every
contiguous 2- or 3-token window of adjectives/nouns ending in a noun is a
noun phrase; all overlapping windows are kept and appended to the filtered
line as underscore-joined tokens.
"""

from __future__ import annotations

import os
import re
from itertools import compress

from .corpus_io import ParagraphScan, ScanStats, TaggedParagraph, scan_tagged_corpus

KEEP_PREFIXES = ("NN", "VB", "JJ", "RB")
CHUNK_PREFIXES = ("NN", "JJ")
PHRASE_LENGTHS = (2, 3)
_CHUNK_RUN = re.compile(r"[NJ]{%d,}" % min(PHRASE_LENGTHS))  # over `_TagCodes` codes


def is_noun_tag(pos: str) -> bool:
    return pos.startswith("NN")


def is_chunk_tag(pos: str) -> bool:
    return pos.startswith(CHUNK_PREFIXES)


def is_kept_tag(pos: str) -> bool:
    return pos.startswith(KEEP_PREFIXES)


class _TagCodes(dict):
    """One code per tag, worked out the first time the tag is seen: ``D``
    the determiner tag ``DT`` (exactly; not ``PDT``, ``WDT`` or ``dt``),
    ``N`` noun, ``J`` other chunk tag, ``K`` other kept tag, ``-`` dropped
    (every chunk tag is a kept tag, and ``D`` is neither). This is the one
    place tags are classified: the chunker and the grammars read codes. A
    code depends on the tag alone, so one table serves every caller; it
    keeps at most 4096 tags, against junk tags."""

    def __missing__(self, pos: str) -> str:
        code = (
            "D" if pos == "DT" else "N" if is_noun_tag(pos) else "J" if is_chunk_tag(pos)
            else "K" if is_kept_tag(pos) else "-"
        )
        if len(self) < 4096:
            self[pos] = code
        return code


_TAG_CODES = _TagCodes()
_KEPT_CODES = frozenset("NJK")


def columns(paragraph: TaggedParagraph) -> tuple[tuple[str, ...], str]:
    """Every surface lowercased, each on its own, as `str.lower` lowercases
    a final sigma by context, and the `_TagCodes` code of every tag; one
    pass serves the normalizer, the chunker and the grammar scanners alike."""
    return (
        tuple(map(str.lower, paragraph.surfaces)),
        "".join(map(_TAG_CODES.__getitem__, paragraph.tags)),
    )


def noun_phrases(words: tuple[str, ...], codes: str) -> list[str]:
    """Every 2- and 3-token window of chunk codes that ends in a noun,
    underscore-joined. Windows may overlap; enumeration is position-major
    (both windows starting at token i come before any window starting at
    i+1), shorter first. A window that runs past its run of chunk codes
    ends the windows of its start; one that ends on a non-noun is skipped."""
    phrases = []
    for run in _CHUNK_RUN.finditer(codes):
        run_start, run_end = run.span()
        for start in range(run_start, run_end - 1):
            for length in PHRASE_LENGTHS:
                end = start + length
                if end > run_end:
                    break
                if codes[end - 1] == "N":
                    phrases.append("_".join(words[start:end]))
    return phrases


def normalize_paragraph(paragraph: TaggedParagraph) -> ParagraphScan:
    """The normalized line, none when nothing is kept: lowercased kept-class
    surfaces in order, then the chunked phrases."""
    return normalize_columns(*columns(paragraph))


def normalize_columns(words: tuple[str, ...], codes: str) -> ParagraphScan:
    """`normalize_paragraph`, given the `columns` of the paragraph."""
    kept = list(compress(words, map(_KEPT_CODES.__contains__, codes)))
    phrases = noun_phrases(words, codes)
    kept.extend(phrases)
    if not kept:
        return ParagraphScan()
    return ParagraphScan(normalized=(" ".join(kept),), phrases=len(phrases))


def normalize_corpus(
    in_path: str | os.PathLike,
    out_path: str | os.PathLike,
    workers: int = 1,
    header: dict[str, str] | None = None,
) -> ScanStats:
    """Normalize a tagged corpus file line by line, preserving input order
    at any ``workers``; paragraphs that filter to zero tokens are skipped."""
    outputs = (out_path, None, None)
    return scan_tagged_corpus(in_path, normalize_paragraph, outputs, workers, header)
