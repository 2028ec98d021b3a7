"""The tagged-corpus pass and its line rules: normalization, and Hearst-
pattern and IS-A extraction. The rules read a paragraph as its lowercased
surfaces and one tag code per token (`corpus_io.parse_tagged_line`); a
phrase is its words joined by underscores.

Normalization (`normalize_columns`) keeps the tokens of the classes of
`corpus_io.KEEP_PREFIXES` (noun, verb, adjective, adverb) and appends every
2- or 3-token adjective/noun window ending in a noun as a noun phrase.

The six Hearst grammars and the IS-A grammar, with NP = optional determiner
(the tag ``DT``) followed by adjectives/nouns ending in a noun head (1-3
content words, determiner stripped from the emitted phrase):

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
trigger words (`_scan_trigger`); grammars 5-7 are another (`_scan_before`),
with an NP-list left of the trigger in 5-6 and one NP in IS-A. Trigger
words are matched on the lowercase surface regardless of POS tag, which
tolerates tagger noise on words like "such". Matches of one grammar never
overlap each other; different grammars scan independently, each only where
its trigger word (``such``, ``including``, ``especially``, ``or``, ``and``,
``is``) occurs.

One pass (`scan_corpus`) splits each corpus line once and hands its columns
to the normalizer and the grammars of the outputs it writes. A pass that
writes no normalized corpus (``extract-hearst``, ``extract-isa``) parses
only the lines that may hold a trigger word of the grammars it runs; the
gate is built from the grammar tables, so a new grammar's trigger is gated
in with it. A line the gate rejects cannot hold a match, so the pass writes
the same bytes and counts the same matches as parsing every line; its
``paragraphs_in`` and ``bad_tokens`` count only the lines it parses.
"""

from __future__ import annotations

import itertools
import os
import re
from contextlib import ExitStack
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from ._parallel import map_lines
from .corpus_io import TAG_CODES, iter_data_lines, parse_tagged_line, write_artifact

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


def _match_np_before(words: tuple[str, ...], codes: str, end: int) -> tuple[list[str], int] | None:
    """Greedy right-anchored NP whose last token is ``words[end - 1]``.

    Returns a list of the one phrase, as `_match_np_list_before` returns its
    phrases, and its start index, or None when that token is not a noun.
    """
    if end <= 0 or codes[end - 1] != "N":
        return None
    start = end - 1
    while start > 0 and end - start < MAX_NP_WORDS and codes[start - 1] in "NJ":
        start -= 1
    return ["_".join(words[start:end])], start


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
    phrases, pos = anchor
    while pos >= 2 and _word(words, pos - 1) == ",":
        more = _match_np_before(words, codes, pos - 1)
        if more is None:
            break
        phrases[:0] = more[0]
        pos = more[1]
    return phrases, pos


def _emit(pattern_id: PatternId, hypernym: str, hyponyms: list[str]) -> PatternMatch | None:
    if hypernym in hyponyms:  # a phrase is not its own hypernym
        hyponyms = [np for np in hyponyms if np != hypernym]
        if not hyponyms:
            return None
    # what PatternMatch(...) runs, less a Python-level call
    return tuple.__new__(PatternMatch, (pattern_id, hypernym, tuple(hyponyms)))


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
    match = _emit(pattern_id, left[0][0], rest[0])
    return (match, left[1], rest[1]) if match else None


def _scan_before(trigger, seconds, left_rule, pattern_id, words, codes, i):
    """The hyponym phrase(s) that ``left_rule`` finds ending just before
    ``i``, then ``trigger``, a word of ``seconds``, and the hypernym NP."""
    if words[i] != trigger or i + 1 == len(words) or words[i + 1] not in seconds:
        return None
    left = left_rule(words, codes, i)
    if left is None:
        return None
    right = _match_np(words, codes, i + 2)
    if right is None:
        return None
    match = _emit(pattern_id, right[0], left[0])
    return (match, left[1], right[1]) if match else None


# (trigger word, scanner) per grammar, in output order; a scanner checks its
# trigger itself, so only trigger positions can match.
_HEARST_GRAMMARS: tuple[tuple[str, Callable], ...] = (
    ("such", partial(_scan_trigger, ("such", "as"), PatternId.SUCH_AS)),
    ("such", _scan_such_np_as),
    ("including", partial(_scan_trigger, ("including",), PatternId.INCLUDING)),
    ("especially", partial(_scan_trigger, ("especially",), PatternId.ESPECIALLY)),
    ("or", partial(_scan_before, "or", ("other",), _match_np_list_before, PatternId.OR_OTHER)),
    ("and", partial(_scan_before, "and", ("other",), _match_np_list_before, PatternId.AND_OTHER)),
)
_ISA_GRAMMARS: tuple[tuple[str, Callable], ...] = (
    ("is", partial(_scan_before, "is", ISA_DETERMINERS, _match_np_before, PatternId.IS_A)),
)


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


PHRASE_LENGTHS = (2, 3)
_CHUNK_RUN = re.compile(r"[NJ]{%d,}" % min(PHRASE_LENGTHS))  # over `corpus_io.TAG_CODES` codes
_KEPT_CODES = frozenset("NJK")  # the codes of the `corpus_io.KEEP_PREFIXES` tags


def normalize_columns(words: tuple[str, ...], codes: str, out: list[str]) -> int:
    """Append a paragraph's normalized line to ``out``, none when nothing is
    kept: its lowercased kept-class ``words`` in order, then its noun
    phrases; return the number of phrases. A noun phrase is a 2- or 3-token
    window of chunk ``codes`` that ends in a noun, underscore-joined. Windows
    may overlap; enumeration is position-major (both windows starting at
    token i come before any window starting at i+1), shorter first. A window
    that runs past its run of chunk codes ends the windows of its start; one
    that ends on a non-noun is skipped."""
    kept = list(itertools.compress(words, map(_KEPT_CODES.__contains__, codes)))
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
        out.append(" ".join(kept))
    return len(kept) - n_kept


class ScanStats(NamedTuple):
    """Counts from one pass over a tagged corpus (`scan_corpus`).
    ``paragraphs_in`` and ``bad_tokens`` count only the lines the pass
    parses: all of them unless it is gated."""

    paragraphs_in: int = 0      # parsed lines with at least one valid token
    paragraphs_out: int = 0     # normalized lines written
    phrases_appended: int = 0   # noun phrases appended to those lines
    hearst_matches: int = 0
    isa_matches: int = 0
    bad_tokens: int = 0


BATCH_LINES = 2048  # corpus lines per unit of work handed to `map_lines`

# a line of ``word_TAG`` tokens with one underscore each, single-spaced: every
# token valid by the `parse_tagged_line` rule, one more than there are spaces
_PLAIN_LINE = re.compile(r"[^\s_]+_[^\s_]+(?: [^\s_]+_[^\s_]+)*")


def _scan_batch(
    text: str, normalized: bool, hearst: bool, isa: bool, gate: Callable[[str], bool] | None,
) -> tuple[ScanStats, list[str]]:
    """Split each line of ``text`` (lines joined by ``\\n``) that ``gate``
    passes into its columns, skip the others, and run on them the rules of
    the outputs asked for: `normalize_columns`, the Hearst grammars, the
    IS-A grammar. Return the batch's counts and the text of each output,
    normalized, Hearst and IS-A. A plain line (`_PLAIN_LINE`) is split in
    one pass, with the result `parse_tagged_line` gives it; any other line
    is split by `parse_tagged_line`."""
    paragraphs = phrases = bad = 0
    outs = norm_lines, hearst_lines, isa_lines = [], [], []
    plain, lower, code = _PLAIN_LINE.fullmatch, str.lower, TAG_CODES.__getitem__
    for line in text.split("\n"):
        if gate is not None and not gate(line):
            continue
        if plain(line):
            parts = line.replace("_", " ").split(" ")
            words, codes = tuple(map(lower, parts[0::2])), "".join(map(code, parts[1::2]))
        else:
            columns = parse_tagged_line(line)
            bad += len(line.split()) - (len(columns[0]) if columns else 0)
            if columns is None:
                continue
            words, codes = columns
        paragraphs += 1
        if hearst:
            hearst_lines.extend(map(format_match_line, _scan(words, codes, _HEARST_GRAMMARS)))
        if isa:
            isa_lines.extend(map(format_match_line, _scan(words, codes, _ISA_GRAMMARS)))
        if normalized:
            phrases += normalize_columns(words, codes, norm_lines)
    stats = ScanStats(paragraphs_in=paragraphs, paragraphs_out=len(norm_lines),
                      phrases_appended=phrases, hearst_matches=len(hearst_lines),
                      isa_matches=len(isa_lines), bad_tokens=bad)
    return stats, ["".join(f"{line}\n" for line in out) for out in outs]


def scan_corpus(
    in_path: str | os.PathLike, normalized_out: str | os.PathLike | None,
    hearst_out: str | os.PathLike | None, isa_out: str | os.PathLike | None,
    workers: int, header: dict[str, str] | None,
) -> ScanStats:
    """Split each data line of a tagged corpus with a valid token into its
    columns once, and write the normalized, Hearst and IS-A lines of each
    output given a path, after ``header``, in corpus order; only the rules
    of those outputs run, and an omitted output's counts stay 0. Without
    ``normalized_out``, only the lines that `_trigger_gate` passes are
    parsed (see the module's docstring); with it, every line is, as nearly
    every line yields a normalized line.

    The lines go out in batches of `BATCH_LINES`, each joined into one
    string; `map_lines` spreads the batches over ``workers`` processes and
    returns, per batch, its `ScanStats` and one text per output, so no line
    and no per-line result crosses a process boundary. Here the lines are
    only read, the counts summed and the texts written in batch order."""
    outputs = (normalized_out, hearst_out, isa_out)
    normalized, hearst, isa = (path is not None for path in outputs)
    grammars = (_HEARST_GRAMMARS if hearst else ()) + (_ISA_GRAMMARS if isa else ())
    gate = None if normalized else _trigger_gate(grammars)
    scan = partial(_scan_batch, normalized=normalized, hearst=hearst, isa=isa, gate=gate)
    stats = ScanStats()
    lines = iter_data_lines(in_path)
    batches = map("\n".join, iter(lambda: list(itertools.islice(lines, BATCH_LINES)), []))
    with ExitStack() as stack:
        files = [
            None if path is None else stack.enter_context(write_artifact(path, header))
            for path in outputs
        ]
        for part, texts in map_lines(scan, batches, workers):
            stats = ScanStats(*map(sum, zip(stats, part)))
            for fh, text in zip(files, texts):
                if text:
                    fh.write(text)
    return stats


def extract_corpus(
    in_path: str | os.PathLike,
    hearst_out: str | os.PathLike | None = None,
    isa_out: str | os.PathLike | None = None,
    workers: int = 1,
    header: dict[str, str] | None = None,
    normalized_out: str | os.PathLike | None = None,
) -> ScanStats:
    """Scan a tagged corpus (`scan_corpus`) and write pattern-corpus files
    in corpus order, each only when given a path; ``normalized_out`` adds
    the normalized corpus to the pass. Both corpora hold one match per line,
    its hyponyms and then its hypernym, tab-separated (`format_match_line`),
    so an IS-A line is ``hyponym<TAB>hypernym``. `perfbench/trace.py` times
    it by name, ``pipeline``'s pass too, through ``normalized_out``; ROADMAP
    item 9 removes both."""
    return scan_corpus(in_path, normalized_out, hearst_out, isa_out, workers, header)
