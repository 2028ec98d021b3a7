"""Hearst-pattern and IS-A extraction over tagged paragraphs.

The six Hearst grammars and the IS-A grammar, with NP = optional determiner
followed by adjectives/nouns ending in a noun head (1-3 content words,
determiner stripped from the emitted phrase):

1. NP ``such as`` NP-list
2. ``such`` NP ``as`` NP-list
3. NP ``,``? ``including`` NP-list
4. NP ``,``? ``especially`` NP-list
5. NP-list ``or other`` NP
6. NP-list ``and other`` NP
7. (IS-A) NP ``is`` (``a``|``an``|``the``) NP

NP-list = NP (``,`` NP)* ((``,``)? (``and``|``or``) NP)?. In grammars 1-4 the
standalone NP is the hypernym and the list holds hyponyms; in 5-6 the roles
flip; IS-A reads left as hyponym, right as hypernym. Trigger words are
matched on the lowercase surface regardless of POS tag, which tolerates
tagger noise on words like "such". Matches of one grammar never overlap
each other; different grammars scan independently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

from .corpus_io import (
    ReadStats,
    TaggedParagraph,
    TaggedToken,
    format_header,
    iter_data_lines,
    parse_tagged_line,
)
from .normalize import NounPhrase, is_chunk_tag, is_noun_tag
from ._parallel import map_lines

MAX_NP_WORDS = 3

ISA_DETERMINERS = ("a", "an", "the")


class PatternId(Enum):
    SUCH_AS = "SuchAs"
    SUCH_NP_AS = "SuchNPAs"
    INCLUDING = "Including"
    ESPECIALLY = "Especially"
    OR_OTHER = "OrOther"
    AND_OTHER = "AndOther"
    IS_A = "IsA"


@dataclass(frozen=True)
class PatternMatch:
    pattern_id: PatternId
    hypernym: str                # lowercase, underscore-joined if multiword
    hyponyms: tuple[str, ...]


def _surface(tokens: tuple[TaggedToken, ...], i: int) -> str | None:
    if 0 <= i < len(tokens):
        return tokens[i].surface.lower()
    return None


def match_np(
    tokens: tuple[TaggedToken, ...], start: int
) -> tuple[NounPhrase, int] | None:
    """Greedy left-anchored NP at ``start``: optional DT, then up to three
    adjective/noun tokens, shrunk from the right until the last is a noun.

    Returns the phrase (determiner stripped) and the index just past it.
    """
    i = start
    if i < len(tokens) and tokens[i].pos == "DT":
        i += 1
    end = i
    while end < len(tokens) and end - i < MAX_NP_WORDS and is_chunk_tag(tokens[end].pos):
        end += 1
    while end > i and not is_noun_tag(tokens[end - 1].pos):
        end -= 1
    if end == i:
        return None
    words = tuple(tok.surface.lower() for tok in tokens[i:end])
    return NounPhrase(words, head_index=len(words) - 1), end


def _match_np_before(
    tokens: tuple[TaggedToken, ...], end: int
) -> tuple[NounPhrase, int] | None:
    """Greedy right-anchored NP whose last token is ``tokens[end - 1]``.

    Returns the phrase and its start index, or None when ``tokens[end - 1]``
    is not a noun.
    """
    if end <= 0 or not is_noun_tag(tokens[end - 1].pos):
        return None
    start = end - 1
    while start > 0 and end - start < MAX_NP_WORDS and is_chunk_tag(tokens[start - 1].pos):
        start -= 1
    words = tuple(tok.surface.lower() for tok in tokens[start:end])
    return NounPhrase(words, head_index=len(words) - 1), start


def _match_np_list(
    tokens: tuple[TaggedToken, ...], start: int
) -> tuple[list[NounPhrase], int] | None:
    """Forward NP-list: NP ("," NP)* ((",")? ("and"|"or") NP)?"""
    first = match_np(tokens, start)
    if first is None:
        return None
    phrase, pos = first
    phrases = [phrase]
    while True:
        here = _surface(tokens, pos)
        if here == ",":
            nxt = _surface(tokens, pos + 1)
            if nxt in ("and", "or"):
                tail = match_np(tokens, pos + 2)
                if tail is not None:
                    phrases.append(tail[0])
                    pos = tail[1]
                break
            more = match_np(tokens, pos + 1)
            if more is None:
                break
            phrases.append(more[0])
            pos = more[1]
        elif here in ("and", "or"):
            tail = match_np(tokens, pos + 1)
            if tail is not None:
                phrases.append(tail[0])
                pos = tail[1]
            break
        else:
            break
    return phrases, pos


def _match_np_list_before(
    tokens: tuple[TaggedToken, ...], end: int
) -> tuple[list[NounPhrase], int] | None:
    """Backward NP-list ending just before ``end``: NP ("," NP)* (",")?"""
    pos = end
    if _surface(tokens, pos - 1) == ",":
        pos -= 1
    anchor = _match_np_before(tokens, pos)
    if anchor is None:
        return None
    phrase, pos = anchor
    phrases = [phrase]
    while pos >= 2 and _surface(tokens, pos - 1) == ",":
        more = _match_np_before(tokens, pos - 1)
        if more is None:
            break
        phrases.insert(0, more[0])
        pos = more[1]
    return phrases, pos


def _emit(
    pattern_id: PatternId, hypernym: NounPhrase, hyponyms: list[NounPhrase]
) -> PatternMatch | None:
    hyper = hypernym.token
    hypos = tuple(np.token for np in hyponyms if np.token != hyper)
    if not hypos:
        return None
    return PatternMatch(pattern_id, hyper, hypos)


# one scanner per grammar; each returns (match, span_start, span_end) or None


def _scan_such_as(tokens, i):
    if _surface(tokens, i) != "such" or _surface(tokens, i + 1) != "as":
        return None
    left = _match_np_before(tokens, i)
    if left is None:
        return None
    rest = _match_np_list(tokens, i + 2)
    if rest is None:
        return None
    match = _emit(PatternId.SUCH_AS, left[0], rest[0])
    return (match, left[1], rest[1]) if match else None


def _scan_such_np_as(tokens, i):
    if _surface(tokens, i) != "such" or _surface(tokens, i + 1) == "as":
        return None
    mid = match_np(tokens, i + 1)
    if mid is None or _surface(tokens, mid[1]) != "as":
        return None
    rest = _match_np_list(tokens, mid[1] + 1)
    if rest is None:
        return None
    match = _emit(PatternId.SUCH_NP_AS, mid[0], rest[0])
    return (match, i, rest[1]) if match else None


def _scan_trigger_word(tokens, i, word, pattern_id):
    if _surface(tokens, i) != word:
        return None
    before = i - 1 if _surface(tokens, i - 1) == "," else i
    left = _match_np_before(tokens, before)
    if left is None:
        return None
    rest = _match_np_list(tokens, i + 1)
    if rest is None:
        return None
    match = _emit(pattern_id, left[0], rest[0])
    return (match, left[1], rest[1]) if match else None


def _scan_including(tokens, i):
    return _scan_trigger_word(tokens, i, "including", PatternId.INCLUDING)


def _scan_especially(tokens, i):
    return _scan_trigger_word(tokens, i, "especially", PatternId.ESPECIALLY)


def _scan_other(tokens, i, conj, pattern_id):
    if _surface(tokens, i) != conj or _surface(tokens, i + 1) != "other":
        return None
    left = _match_np_list_before(tokens, i)
    if left is None:
        return None
    right = match_np(tokens, i + 2)
    if right is None:
        return None
    match = _emit(pattern_id, right[0], left[0])
    return (match, left[1], right[1]) if match else None


def _scan_or_other(tokens, i):
    return _scan_other(tokens, i, "or", PatternId.OR_OTHER)


def _scan_and_other(tokens, i):
    return _scan_other(tokens, i, "and", PatternId.AND_OTHER)


def _scan_isa(tokens, i):
    if _surface(tokens, i) != "is" or _surface(tokens, i + 1) not in ISA_DETERMINERS:
        return None
    left = _match_np_before(tokens, i)
    if left is None:
        return None
    right = match_np(tokens, i + 2)
    if right is None:
        return None
    hyper = right[0].token
    hypo = left[0].token
    if hyper == hypo:
        return None
    return PatternMatch(PatternId.IS_A, hyper, (hypo,)), left[1], right[1]


_HEARST_SCANNERS: list[Callable] = [
    _scan_such_as,
    _scan_such_np_as,
    _scan_including,
    _scan_especially,
    _scan_or_other,
    _scan_and_other,
]


def _run_scan(paragraph: TaggedParagraph, scanner: Callable) -> list[PatternMatch]:
    """Left-to-right scan; matches of one grammar never overlap each other."""
    tokens = paragraph.tokens
    matches = []
    floor = 0
    i = 0
    while i < len(tokens):
        hit = scanner(tokens, i)
        if hit is None or hit[1] < floor:
            i += 1
            continue
        match, _, span_end = hit
        matches.append(match)
        floor = span_end
        i = max(span_end, i + 1)
    return matches


def extract_hearst(paragraph: TaggedParagraph) -> list[PatternMatch]:
    """All matches of the six Hearst grammars, grammar-major then left-to-right."""
    matches = []
    for scanner in _HEARST_SCANNERS:
        matches.extend(_run_scan(paragraph, scanner))
    return matches


def extract_isa(paragraph: TaggedParagraph) -> list[PatternMatch]:
    """All matches of NP ``is`` (``a``|``an``|``the``) NP, left-to-right."""
    return _run_scan(paragraph, _scan_isa)


# ---------------------------------------------------------------------------
# corpus-scale extraction


@dataclass
class ExtractStats:
    hearst_matches: int = 0
    isa_matches: int = 0
    bad_tokens: int = 0


def format_hearst_line(match: PatternMatch) -> str:
    return f"{match.hypernym}\t{','.join(match.hyponyms)}"


def format_isa_line(match: PatternMatch) -> str:
    return f"{match.hyponyms[0]}\t{match.hypernym}"


def _extract_line(line: str, hearst: bool, isa: bool) -> tuple[list[str], list[str], int]:
    stats = ReadStats()
    paragraph = parse_tagged_line(line, stats)
    if paragraph is None:
        return [], [], stats.bad_tokens
    hearst_lines: list[str] = []
    isa_lines: list[str] = []
    if hearst:
        hearst_lines = [format_hearst_line(m) for m in extract_hearst(paragraph)]
    if isa:
        isa_lines = [format_isa_line(m) for m in extract_isa(paragraph)]
    return hearst_lines, isa_lines, stats.bad_tokens


def extract_corpus(
    in_path: str | os.PathLike,
    hearst_out: str | os.PathLike | None = None,
    isa_out: str | os.PathLike | None = None,
    workers: int = 1,
    header: dict[str, str] | None = None,
) -> ExtractStats:
    """Scan a tagged corpus and write pattern-corpus files in corpus order.

    Hearst lines are ``hypernym<TAB>hyponym1,hyponym2,...``; IS-A lines are
    ``hyponym<TAB>hypernym``. Either output may be omitted; only the
    grammars of the requested outputs run, and an omitted output's match
    count stays 0.
    """
    stats = ExtractStats()
    lines = (line for line in iter_data_lines(in_path) if line.strip())
    scan = partial(_extract_line, hearst=hearst_out is not None, isa=isa_out is not None)

    def _open(path):
        if path is None:
            return None
        fh = open(path, "w", encoding="utf-8")
        if header:
            fh.write(format_header(header))
        return fh

    hearst_fh = _open(hearst_out)
    isa_fh = _open(isa_out)
    try:
        for hearst_lines, isa_lines, bad in map_lines(scan, lines, workers):
            stats.bad_tokens += bad
            stats.hearst_matches += len(hearst_lines)
            stats.isa_matches += len(isa_lines)
            if hearst_fh is not None:
                for out in hearst_lines:
                    hearst_fh.write(out + "\n")
            if isa_fh is not None:
                for out in isa_lines:
                    isa_fh.write(out + "\n")
    finally:
        if hearst_fh is not None:
            hearst_fh.close()
        if isa_fh is not None:
            isa_fh.close()
    return stats
