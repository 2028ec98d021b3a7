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
from typing import NamedTuple

from .corpus_io import ParagraphScan, ScanStats, TaggedParagraph, scan_tagged_corpus

KEEP_PREFIXES = ("NN", "VB", "JJ", "RB")
CHUNK_PREFIXES = ("NN", "JJ")
PHRASE_LENGTHS = (2, 3)


def is_noun_tag(pos: str) -> bool:
    return pos.startswith("NN")


def is_chunk_tag(pos: str) -> bool:
    return pos.startswith(CHUNK_PREFIXES)


def is_kept_tag(pos: str) -> bool:
    return pos.startswith(KEEP_PREFIXES)


class NounPhrase(NamedTuple):
    words: tuple[str, ...]
    head_index: int

    @property
    def token(self) -> str:
        return "_".join(self.words)


def chunk_noun_phrases(paragraph: TaggedParagraph) -> list[NounPhrase]:
    """All 2- and 3-token adjective/noun windows whose last token is a noun.

    Windows may overlap; enumeration is position-major (both windows starting
    at token i come before any window starting at i+1), shorter first.
    """
    tokens = paragraph.tokens
    phrases = []
    for start in range(len(tokens)):
        for length in PHRASE_LENGTHS:
            window = tokens[start : start + length]
            if len(window) < length:
                break
            if not all(is_chunk_tag(tok.pos) for tok in window):
                break
            if not is_noun_tag(window[-1].pos):
                continue
            words = tuple(tok.surface.lower() for tok in window)
            phrases.append(NounPhrase(words, head_index=length - 1))
    return phrases


def normalize_paragraph(paragraph: TaggedParagraph) -> ParagraphScan:
    """The normalized line, none when nothing is kept: lowercased kept-class
    surfaces in order, then the chunked phrases."""
    kept = [
        tok.surface.lower() for tok in paragraph.tokens if is_kept_tag(tok.pos)
    ]
    phrases = chunk_noun_phrases(paragraph)
    kept.extend(phrase.token for phrase in phrases)
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
