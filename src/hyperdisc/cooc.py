"""Co-occurrence evidence: paragraph-context counts and pattern-pair counts.

A paragraph (one normalized-corpus line) is the context window. For every
registered query term appearing in a line, each other token instance in
that line adds one co-occurrence; the query term's own multiplicity does
not matter and self pairs are never counted (a term is not its own
hypernym). Pattern corpora count (hyponym, hypernym) pairs, one per match
line.

Candidate lists are ranked by count descending with lexicographic
tie-breaking, vocabulary-filtered, and truncated to the top 15.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .corpus_io import (
    CandidateVocabulary,
    Query,
    QueryKind,
    ReadStats,
    format_header,
    iter_data_lines,
    read_header,
    term_to_token,
    token_to_term,
)

DEFAULT_THRESHOLD = 5
TOP_K = 15

COOC_INDEX_MAGIC = ("cooc-index", "v1")


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
    """query token -> context token -> co-occurrence count (all counts >= 1)."""

    counts: dict[str, dict[str, int]]

    def merge(self, other: "CoocIndex") -> None:
        """Add another shard's counts in place; addition is the shard merge."""
        for term, row in other.counts.items():
            mine = self.counts.setdefault(term, {})
            for token, count in row.items():
                mine[token] = mine.get(token, 0) + count


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
    ``merge_cooc_indexes``.
    """
    query_tokens = frozenset(query_terms)
    counts: dict[str, dict[str, int]] = {q: {} for q in sorted(query_tokens)}
    for line in iter_data_lines(normalized_corpus_path):
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
    """Combine shard indexes; equals the index of the concatenated corpus."""
    merged = CoocIndex({})
    for part in parts:
        merged.merge(part)
    return merged


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
    lines are skipped and counted in ``stats``.
    """
    if kind not in (Source.HEARST, Source.ISA):
        raise ValueError(f"pair index kind must be Hearst or IsA, got {kind}")
    counts: dict[str, dict[str, int]] = {}

    def bump(hypo: str, hyper: str) -> None:
        row = counts.setdefault(hypo, {})
        row[hyper] = row.get(hyper, 0) + 1

    for line in iter_data_lines(pattern_corpus_path):
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
) -> None:
    """Write the snapshot: ``#cooc-index v1`` then sorted term/candidate/count."""
    meta = {COOC_INDEX_MAGIC[0]: COOC_INDEX_MAGIC[1]}
    if header:
        meta.update(header)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_header(meta))
        for term in sorted(index.counts):
            row = index.counts[term]
            for token in sorted(row):
                fh.write(f"{term}\t{token}\t{row[token]}\n")


def load_cooc_index(path: str | os.PathLike) -> CoocIndex:
    meta = read_header(path)
    if meta.get(COOC_INDEX_MAGIC[0]) != COOC_INDEX_MAGIC[1]:
        raise ValueError(f"{path}: not a {COOC_INDEX_MAGIC[0]} {COOC_INDEX_MAGIC[1]} file")
    counts: dict[str, dict[str, int]] = {}
    for line in iter_data_lines(path):
        if not line:
            continue
        term, token, count = line.split("\t")
        counts.setdefault(term, {})[token] = int(count)
    return CoocIndex(counts)
