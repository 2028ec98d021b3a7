"""Hearst-pattern and IS-A extraction over tagged paragraphs.

The six Hearst grammars and the IS-A grammar, with NP = optional determiner
(the tag ``DT``) followed by adjectives/nouns ending in a noun head (1-3
content words, determiner stripped from the emitted phrase). The grammars
read a paragraph as its lowercased surfaces and one tag code per token
(`corpus_io.parse_tagged_line`); a phrase is its words joined by underscores:

1. NP ``such as`` NP-list
2. ``such`` NP ``as`` NP-list
3. NP ``,``? ``including`` NP-list
4. NP ``,``? ``especially`` NP-list
5. NP-list ``or other`` NP
6. NP-list ``and other`` NP
7. (IS-A) NP ``is`` (``a``|``an``|``the``) NP

NP-list = NP (``,`` NP)* ((``,``)? (``and``|``or``) NP)?, read one step at a
time: an optional comma, an optional conjunction, one NP; the NP after a
conjunction ends the list. In grammars 1-4 the standalone NP is the hypernym
and the list holds hyponyms; in 5-6 the roles flip; IS-A reads left as
hyponym, right as hypernym. Grammars 1, 3 and 4 are one scanner over their
trigger words (`_scan_trigger`). Trigger words are matched on the lowercase
surface regardless of POS tag, which tolerates tagger noise on words like
"such". Matches of one grammar never overlap each other; different grammars
scan independently, each only where its trigger word (``such``,
``including``, ``especially``, ``or``, ``and``, ``is``) occurs.

A corpus pass that writes no normalized corpus (``extract-hearst``,
``extract-isa``) parses only the lines that may hold a trigger word of the
grammars it runs; the gate is built from the grammar tables, so a new
grammar's trigger is gated in with it. A line the gate rejects cannot hold
a match, so the pass writes the same bytes and counts the same matches as
parsing every line; its ``paragraphs_in`` and ``bad_tokens`` count only the
lines it parses.
"""

from __future__ import annotations

import os
import re
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from .corpus_io import Outputs, ScanStats, scan_tagged_corpus
from .normalize import normalize_columns

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


class PatternMatch(NamedTuple):
    pattern_id: PatternId
    hypernym: str                # lowercase, underscore-joined if multiword
    hyponyms: tuple[str, ...]


def _word(words: tuple[str, ...], i: int) -> str | None:
    if 0 <= i < len(words):
        return words[i]
    return None


# over `corpus_io.TAG_CODES` codes: an optional determiner, then up to three
# adjective/noun codes, backtracked from the right to end in a noun
_NP = re.compile(r"D?([NJ]{0,%d}N)" % (MAX_NP_WORDS - 1))


def _match_np(words: tuple[str, ...], codes: str, start: int) -> tuple[str, int] | None:
    """Greedy left-anchored NP at ``start``: optional ``DT``, then up to three
    adjective/noun tokens, shrunk from the right until the last is a noun.

    Returns the phrase (determiner stripped) and the index just past it.
    """
    np_match = _NP.match(codes, start)
    if np_match is None:
        return None
    i, end = np_match.span(1)
    return "_".join(words[i:end]), end


def _match_np_before(words: tuple[str, ...], codes: str, end: int) -> tuple[str, int] | None:
    """Greedy right-anchored NP whose last token is ``words[end - 1]``.

    Returns the phrase and its start index, or None when that token is not
    a noun.
    """
    if end <= 0 or codes[end - 1] != "N":
        return None
    start = end - 1
    while start > 0 and end - start < MAX_NP_WORDS and codes[start - 1] in "NJ":
        start -= 1
    return "_".join(words[start:end]), start


def _match_np_list(
    words: tuple[str, ...], codes: str, start: int
) -> tuple[list[str], int] | None:
    """Forward NP-list: NP ("," NP)* ((",")? ("and"|"or") NP)?"""
    first = _match_np(words, codes, start)
    if first is None:
        return None
    phrase, pos = first
    phrases = [phrase]
    while True:  # one step: an optional comma, an optional conjunction, one NP
        i = pos + (_word(words, pos) == ",")
        conj = _word(words, i) in ("and", "or")
        more = _match_np(words, codes, i + conj) if i + conj > pos else None
        if more is None:
            break
        phrase, pos = more
        phrases.append(phrase)
        if conj:
            break
    return phrases, pos


def _match_np_list_before(
    words: tuple[str, ...], codes: str, end: int
) -> tuple[list[str], int] | None:
    """Backward NP-list ending just before ``end``: NP ("," NP)* (",")?"""
    pos = end
    if _word(words, pos - 1) == ",":
        pos -= 1
    anchor = _match_np_before(words, codes, pos)
    if anchor is None:
        return None
    phrase, pos = anchor
    phrases = [phrase]
    while pos >= 2 and _word(words, pos - 1) == ",":
        more = _match_np_before(words, codes, pos - 1)
        if more is None:
            break
        phrases.insert(0, more[0])
        pos = more[1]
    return phrases, pos


def _emit(pattern_id: PatternId, hypernym: str, hyponyms: list[str]) -> PatternMatch | None:
    hypos = tuple(np for np in hyponyms if np != hypernym)
    if not hypos:
        return None
    return PatternMatch(pattern_id, hypernym, hypos)


# the grammars' scanners, called with the lowercased surfaces, the tag codes
# (`corpus_io.parse_tagged_line`) and a position; each returns (match,
# span_start, span_end) or None


def _scan_such_np_as(words, codes, i):
    if _word(words, i) != "such" or _word(words, i + 1) == "as":
        return None
    mid = _match_np(words, codes, i + 1)
    if mid is None or _word(words, mid[1]) != "as":
        return None
    rest = _match_np_list(words, codes, mid[1] + 1)
    if rest is None:
        return None
    match = _emit(PatternId.SUCH_NP_AS, mid[0], rest[0])
    return (match, i, rest[1]) if match else None


def _scan_trigger(trigger, pattern_id, words, codes, i):
    """NP, then the words of ``trigger``, then an NP-list; only a one-word
    trigger may have a comma before it."""
    end = i + len(trigger)
    if words[i:end] != trigger:
        return None
    before = i - 1 if len(trigger) == 1 and _word(words, i - 1) == "," else i
    left = _match_np_before(words, codes, before)
    if left is None:
        return None
    rest = _match_np_list(words, codes, end)
    if rest is None:
        return None
    match = _emit(pattern_id, left[0], rest[0])
    return (match, left[1], rest[1]) if match else None


def _scan_other(conj, pattern_id, words, codes, i):
    if _word(words, i) != conj or _word(words, i + 1) != "other":
        return None
    left = _match_np_list_before(words, codes, i)
    if left is None:
        return None
    right = _match_np(words, codes, i + 2)
    if right is None:
        return None
    match = _emit(pattern_id, right[0], left[0])
    return (match, left[1], right[1]) if match else None


def _scan_isa(words, codes, i):
    if _word(words, i) != "is" or _word(words, i + 1) not in ISA_DETERMINERS:
        return None
    left = _match_np_before(words, codes, i)
    if left is None:
        return None
    right = _match_np(words, codes, i + 2)
    if right is None:
        return None
    hyper, hypo = right[0], left[0]
    if hyper == hypo:
        return None
    return PatternMatch(PatternId.IS_A, hyper, (hypo,)), left[1], right[1]


# (trigger word, scanner) per grammar, in output order; a scanner checks its
# trigger itself, so only trigger positions can match.
_HEARST_GRAMMARS: tuple[tuple[str, Callable], ...] = (
    ("such", partial(_scan_trigger, ("such", "as"), PatternId.SUCH_AS)),
    ("such", _scan_such_np_as),
    ("including", partial(_scan_trigger, ("including",), PatternId.INCLUDING)),
    ("especially", partial(_scan_trigger, ("especially",), PatternId.ESPECIALLY)),
    ("or", partial(_scan_other, "or", PatternId.OR_OTHER)),
    ("and", partial(_scan_other, "and", PatternId.AND_OTHER)),
)
_ISA_GRAMMARS: tuple[tuple[str, Callable], ...] = (("is", _scan_isa),)


def _run_scan(words, codes, scanner, positions: list[int]) -> list[PatternMatch]:
    """Left-to-right scan over ``positions``; matches of one grammar never
    overlap each other: a match must start at or after the end of the
    previous one, and the scan resumes at that end."""
    matches = []
    floor = 0
    for i in positions:
        if i < floor:
            continue
        hit = scanner(words, codes, i)
        if hit is None or hit[1] < floor:
            continue
        match, _, floor = hit
        matches.append(match)
    return matches


def _scan(words, codes, grammars) -> list[PatternMatch]:
    """All matches of ``grammars``, grammar-major then left-to-right, each
    tried only where its trigger word occurs."""
    matches = []
    for trigger, scanner in grammars:
        if trigger in words:
            positions = [i for i, word in enumerate(words) if word == trigger]
            matches.extend(_run_scan(words, codes, scanner, positions))
    return matches


def extract_hearst(paragraph: tuple[tuple[str, ...], str]) -> list[PatternMatch]:
    """All matches of the six Hearst grammars in a paragraph's columns
    (`corpus_io.parse_tagged_line`), grammar-major then left-to-right."""
    return _scan(*paragraph, _HEARST_GRAMMARS)


def extract_isa(paragraph: tuple[tuple[str, ...], str]) -> list[PatternMatch]:
    """All matches of NP ``is`` (``a``|``an``|``the``) NP in a paragraph's
    columns (`corpus_io.parse_tagged_line`), left-to-right."""
    return _scan(*paragraph, _ISA_GRAMMARS)


# ---------------------------------------------------------------------------
# corpus-scale extraction


def format_match_line(match: PatternMatch) -> str:
    """A pattern-corpus line: the match's hyponyms and then its hypernym,
    tab-separated; a phrase holds no whitespace, so each field is a phrase."""
    return "\t".join((*match.hyponyms, match.hypernym))


def _scan_columns(
    normalized: bool, hearst: bool, isa: bool,
    words: tuple[str, ...], codes: str, outs: Outputs,
) -> int:
    """The `scan_tagged_corpus` work of an extract pass: append a paragraph's
    normalized line and pattern-corpus lines to ``outs``, each only when
    asked for; return the number of noun phrases appended."""
    if hearst:
        outs[1].extend(map(format_match_line, _scan(words, codes, _HEARST_GRAMMARS)))
    if isa:
        outs[2].extend(map(format_match_line, _scan(words, codes, _ISA_GRAMMARS)))
    return normalize_columns(words, codes, outs) if normalized else 0


def _may_hold_trigger(needles: tuple[str, ...], pattern: re.Pattern, line: str) -> bool:
    """Whether some token of the raw ``line`` may have a trigger word as its
    lowercased surface: ``pattern`` finds a ``trigger_`` needle at a token
    start of the lowercased line, after a cheap substring test for the
    needles. `str.lower` maps each character of the line as it maps it in a
    surface alone, except a capital sigma, whose form depends on its
    neighbours; no trigger holds a sigma, and whitespace (the same set for
    ``\\s`` as for `str.split`) and ``_`` lowercase to themselves. So a
    token whose lowercased surface is a trigger always passes."""
    low = line.lower()
    return any(map(low.__contains__, needles)) and pattern.search(low) is not None


def _trigger_gate(grammars) -> Callable[[str], bool]:
    """The line gate of an extract-only pass, from the trigger words of the
    grammars it runs: no other line can hold a match."""
    needles = tuple(sorted({f"{trigger}_" for trigger, _ in grammars}))
    pattern = re.compile(r"(?:^|\s)(?:%s)" % "|".join(map(re.escape, needles)))
    return partial(_may_hold_trigger, needles, pattern)


def extract_corpus(
    in_path: str | os.PathLike,
    hearst_out: str | os.PathLike | None = None,
    isa_out: str | os.PathLike | None = None,
    workers: int = 1,
    header: dict[str, str] | None = None,
    normalized_out: str | os.PathLike | None = None,
) -> ScanStats:
    """Scan a tagged corpus and write pattern-corpus files in corpus order.

    Both corpora hold one match per line, its hyponyms and then its
    hypernym, tab-separated (`format_match_line`), so an IS-A line is
    ``hyponym<TAB>hypernym``. Either output may be omitted; only the
    grammars of the requested outputs run, and an omitted output's match
    count stays 0. ``normalized_out`` adds the normalized corpus to the pass.
    Without it, only lines that may hold a trigger word of those grammars
    are parsed (`_trigger_gate`), and only those count in ``paragraphs_in``
    and ``bad_tokens``.
    """
    outputs = (normalized_out, hearst_out, isa_out)
    normalized, hearst, isa = (path is not None for path in outputs)
    work = partial(_scan_columns, normalized, hearst, isa)
    grammars = (_HEARST_GRAMMARS if hearst else ()) + (_ISA_GRAMMARS if isa else ())
    gate = None if normalized else _trigger_gate(grammars)
    return scan_tagged_corpus(in_path, work, outputs, workers, header, gate)
