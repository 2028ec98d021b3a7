"""Co-occurrence evidence: paragraph-context counts and pattern-pair counts.

A paragraph (one normalized-corpus line) is the context window. For every
registered query term appearing in a line, each other token instance in
that line adds one co-occurrence; the query term's own multiplicity does
not matter and self pairs are never counted (a term is not its own
hypernym). Pattern corpora count (hyponym, hypernym) pairs, one per match
line.

Candidate lists are ranked by count descending with lexicographic
tie-breaking, vocabulary-filtered, and truncated to the top 15. The index
snapshot goes through `corpus_io`'s artifact layer: written whole or not at
all, and rejected when its last row is cut short. It holds only the counts
at or above its floor, the smallest count a candidate list can use.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .corpus_io import (
    CandidateVocabulary,
    FormatError,
    Query,
    QueryKind,
    ReadStats,
    read_artifact,
    term_to_token,
    token_to_term,
    write_artifact,
)

DEFAULT_THRESHOLD = 5
TOP_K = 15

COOC_INDEX_MAGIC = ("cooc-index", "v1")
COOC_FLOOR_KEY = "cooc-floor"


class Source(Enum):
    """Evidence modules, in fixed tie-break order."""

    COOC = "Cooc"
    HEARST = "Hearst"
    ISA = "IsA"
    PHI = "Phi"


class ScoredCandidate(NamedTuple):
    term: str              # external form, spaces between words
    score: float
    source: Source


@dataclass
class CoocIndex:
    """query token -> context token -> co-occurrence count. A snapshot keeps
    only the counts >= ``floor``, so it answers every ``threshold >= floor - 1``."""

    counts: dict[str, dict[str, int]]
    floor: int = 1


@dataclass
class PairIndex:
    """hyponym token -> hypernym token -> pair count (all counts >= 1)."""

    counts: dict[str, dict[str, int]]
    kind: Source = Source.HEARST


def build_cooc_index(
    normalized_corpus_path: str | os.PathLike,
    query_terms: Iterable[str],
) -> CoocIndex:
    """Count paragraph co-occurrences for the given query tokens.

    ``query_terms`` must be in underscore-joined internal form. Counting is
    one serial pass; indexes of corpus shards combine with
    ``merge_cooc_indexes``. A corpus whose last line is cut short is a
    `FormatError`.
    """
    query_tokens = frozenset(query_terms)
    counts: dict[str, dict[str, int]] = {q: {} for q in sorted(query_tokens)}
    for line in read_artifact(normalized_corpus_path)[1]:
        tokens = line.split()
        present = query_tokens.intersection(tokens)
        if not present:
            continue
        token_counts = Counter(tokens)
        for q in present:
            row = counts[q]
            for token, n in token_counts.items():
                if token != q:
                    row[token] = row.get(token, 0) + n
    return CoocIndex(counts)


def merge_cooc_indexes(parts: Sequence[CoocIndex]) -> CoocIndex:
    """Combine shard indexes by adding their counts; equals the index of
    the concatenated corpus."""
    counts: dict[str, dict[str, int]] = {}
    for part in parts:
        for term, row in part.counts.items():
            mine = counts.setdefault(term, {})
            for token, count in row.items():
                mine[token] = mine.get(token, 0) + count
    return CoocIndex(counts)


def _ranked(
    row: dict[str, int],
    vocab: CandidateVocabulary | None,
    source: Source,
    min_count: int,
    k: int,
) -> list[ScoredCandidate]:
    items = []
    for token, count in row.items():
        if count < min_count:
            continue
        term = token_to_term(token)
        if vocab is not None and term not in vocab:
            continue
        items.append((term, count))
    items.sort(key=lambda it: (-it[1], it[0]))
    return [ScoredCandidate(term, float(count), source) for term, count in items[:k]]


def candidates_from_cooc(
    index: CoocIndex,
    q: str,
    vocab: CandidateVocabulary | None,
    threshold: int = DEFAULT_THRESHOLD,
    k: int = TOP_K,
) -> list[ScoredCandidate]:
    """Context tokens co-occurring strictly more than ``threshold`` times."""
    row = index.counts.get(term_to_token(q))
    if row is None:
        return []
    return _ranked(row, vocab, Source.COOC, threshold + 1, k)


def candidates_from_pairs(
    index: PairIndex,
    q: str,
    vocab: CandidateVocabulary | None,
    k: int = TOP_K,
) -> list[ScoredCandidate]:
    """Hypernyms paired at least once with ``q`` in the pattern corpus."""
    row = index.counts.get(term_to_token(q))
    if row is None:
        return []
    return _ranked(row, vocab, index.kind, 1, k)


def head_word_heuristic(q: Query) -> ScoredCandidate | None:
    """For multiword concepts, the head (last) word is itself a candidate.

    Scored 0.5 so it ranks below every count-based candidate; entities and
    unigram queries get nothing.
    """
    if q.kind is not QueryKind.CONCEPT:
        return None
    words = q.term.split()
    if len(words) < 2 or len(words) > 3:
        return None
    return ScoredCandidate(words[-1], 0.5, Source.ISA)


# ---------------------------------------------------------------------------
# pattern-corpus pair counting


def build_pair_index(
    pattern_corpus_path: str | os.PathLike,
    kind: Source,
    stats: ReadStats | None = None,
) -> PairIndex:
    """Count pairs from a Hearst or IS-A corpus file.

    Hearst lines (``hypernym<TAB>h1,h2,...``) add one count per listed
    hyponym; IS-A lines (``hyponym<TAB>hypernym``) add one count. Malformed
    lines are skipped and counted in ``stats``; a cut-short last line is a FormatError.
    """
    if kind not in (Source.HEARST, Source.ISA):
        raise ValueError(f"pair index kind must be Hearst or IsA, got {kind}")
    counts: dict[str, dict[str, int]] = {}

    def bump(hypo: str, hyper: str) -> None:
        row = counts.setdefault(hypo, {})
        row[hyper] = row.get(hyper, 0) + 1

    for line in read_artifact(pattern_corpus_path)[1]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            if stats is not None:
                stats.malformed_lines += 1
            continue
        if kind is Source.HEARST:
            hyper = parts[0]
            hypos = [h for h in parts[1].split(",") if h]
            if not hypos:
                if stats is not None:
                    stats.malformed_lines += 1
                continue
            for hypo in hypos:
                bump(hypo, hyper)
        else:
            bump(parts[0], parts[1])
    return PairIndex(counts, kind)


# ---------------------------------------------------------------------------
# index snapshot file


def save_cooc_index(
    path: str | os.PathLike,
    index: CoocIndex,
    header: dict[str, str] | None = None,
    floor: int = 1,
) -> None:
    """Write the snapshot: ``#cooc-index v1``, then ``#cooc-floor N`` when
    ``floor`` is above 1, then sorted term/candidate/count rows for the
    counts >= ``floor``. `candidates_from_cooc` at ``threshold`` reads only
    counts above it, so ``floor = threshold + 1`` drops nothing it reads."""
    meta = {COOC_INDEX_MAGIC[0]: COOC_INDEX_MAGIC[1]}
    if floor > 1:
        meta[COOC_FLOOR_KEY] = str(floor)
    with write_artifact(path, meta | (header or {})) as fh:
        for term in sorted(index.counts):
            row = index.counts[term]
            fh.write("".join(
                f"{term}\t{token}\t{row[token]}\n" for token in sorted(row) if row[token] >= floor
            ))


def load_cooc_index(path: str | os.PathLike) -> CoocIndex:
    """Read a snapshot back, with its floor (1 when the header names none).
    A floor or count that is not ASCII decimal digits, a malformed or
    cut-short row, or a count below the floor is a `FormatError`."""
    meta, lines = read_artifact(path)
    if meta.get(COOC_INDEX_MAGIC[0]) != COOC_INDEX_MAGIC[1]:
        raise FormatError(f"{path}: not a {COOC_INDEX_MAGIC[0]} {COOC_INDEX_MAGIC[1]} file")
    floor_text = meta.get(COOC_FLOOR_KEY, "1")
    if not (floor_text.isascii() and floor_text.isdigit() and int(floor_text) >= 1):
        raise FormatError(f"{path}: #{COOC_FLOOR_KEY} {floor_text!r} is not a positive integer")
    floor = int(floor_text)
    counts: dict[str, dict[str, int]] = {}
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        # int() alone would also take signs, underscores and non-ASCII digits
        if len(parts) != 3 or not (parts[2].isascii() and parts[2].isdigit()):
            raise FormatError(
                f"{path}: line {lineno} is not term<TAB>candidate<TAB>count: {line!r}"
            )
        count = int(parts[2])
        if count < floor:
            raise FormatError(
                f"{path}: line {lineno} has count {count}; counts are at least {floor}"
            )
        counts.setdefault(parts[0], {})[parts[1]] = count
    return CoocIndex(counts, floor)
