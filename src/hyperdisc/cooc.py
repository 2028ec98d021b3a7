"""Co-occurrence evidence: paragraph-context counts and pattern-pair counts.

A paragraph (one normalized-corpus line) is the context window. For every
registered query term appearing in a line, each other token instance in
that line adds one co-occurrence; the query term's own multiplicity does
not matter and self pairs are never counted (a term is not its own
hypernym). Pattern corpora count (hyponym, hypernym) pairs, one per
hyponym of each match line.

Candidate lists are ranked by count descending with lexicographic
tie-breaking, vocabulary-filtered, and truncated to the top 15. The index
snapshot goes through `corpus_io`'s artifact layer: written whole or not at
all, and rejected when its last row is cut short. It holds only the counts
at or above its floor, the smallest count a candidate list can use.
"""

from __future__ import annotations

import os
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .corpus_io import (
    MAX_PREDICTIONS,
    MAX_TERM_WORDS,
    FormatError,
    Query,
    QueryKind,
    file_line,
    read_artifact,
    term_to_token,
    write_artifact,
)

DEFAULT_THRESHOLD = 5

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


class CoocIndex(NamedTuple):
    """query token -> context token -> co-occurrence count. A snapshot keeps
    only the counts >= ``floor``, so it answers every ``threshold >= floor - 1``."""

    counts: dict[str, dict[str, int]]
    floor: int = 1


class PairIndex(NamedTuple):
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
        if query_tokens.isdisjoint(tokens):
            continue
        for q in query_tokens.intersection(tokens):
            row = counts[q]
            for token in tokens:
                row[token] = row.get(token, 0) + 1
            del row[q]  # its own instances: a term is not its own hypernym
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
    counts: dict[str, dict[str, int]],
    q: str,
    vocab: frozenset[str],
    source: Source,
    min_count: int,
    k: int,
) -> list[ScoredCandidate]:
    row = counts.get(term_to_token(q))
    if row is None or k <= 0:
        return []
    # (-count, term) sorts by count descending, then by term; a token's term
    # is token_to_term(token), inlined
    ranked = sorted([
        (-count, term) for token, count in row.items()
        if count >= min_count and (term := token.replace("_", " ")) in vocab
    ])
    new = tuple.__new__  # what ScoredCandidate(...) runs, less a Python-level call
    return [new(ScoredCandidate, (term, float(-neg), source)) for neg, term in ranked[:k]]


def candidates_from_cooc(
    index: CoocIndex,
    q: str,
    vocab: frozenset[str],
    threshold: int = DEFAULT_THRESHOLD,
    k: int = MAX_PREDICTIONS,
) -> list[ScoredCandidate]:
    """The ``k`` context tokens co-occurring most often, and strictly more
    than ``threshold`` times, whose terms are in ``vocab``."""
    return _ranked(index.counts, q, vocab, Source.COOC, threshold + 1, k)


def candidates_from_pairs(
    index: PairIndex,
    q: str,
    vocab: frozenset[str],
    k: int = MAX_PREDICTIONS,
) -> list[ScoredCandidate]:
    """The ``k`` hypernyms paired most often with ``q`` in the pattern
    corpus whose terms are in ``vocab``."""
    return _ranked(index.counts, q, vocab, index.kind, 1, k)


def head_word_heuristic(q: Query) -> ScoredCandidate | None:
    """For multiword concepts, the head (last) word is itself a candidate.

    Scored 0.5 so it ranks below every count-based candidate; entities and
    unigram queries get nothing.
    """
    if q.kind is not QueryKind.CONCEPT:
        return None
    words = q.term.split()
    if len(words) < 2 or len(words) > MAX_TERM_WORDS:
        return None
    return tuple.__new__(ScoredCandidate, (words[-1], 0.5, Source.ISA))


# ---------------------------------------------------------------------------
# pattern-corpus pair counting


def build_pair_index(pattern_corpus_path: str | os.PathLike, kind: Source) -> PairIndex:
    """Count pairs from a Hearst or IS-A corpus file; ``kind`` labels the index.

    Each line is one match, its hyponyms and then its hypernym,
    tab-separated (`patterns.format_match_line`), and adds one count per
    hyponym. A line with fewer than two fields or an empty field, and a
    cut-short last line, is a `FormatError` naming the file and the line.
    """
    if kind not in (Source.HEARST, Source.ISA):
        raise ValueError(f"pair index kind must be Hearst or IsA, got {kind}")
    counts: dict[str, dict[str, int]] = {}
    for n, line in enumerate(read_artifact(pattern_corpus_path)[1], start=1):
        *hypos, hyper = line.split("\t")
        if not (hypos and all(hypos) and hyper):
            raise FormatError(f"{pattern_corpus_path}: line {file_line(pattern_corpus_path, n)} "
                              f"is not hyponym<TAB>...<TAB>hypernym: {line!r}")
        for hypo in hypos:
            row = counts.setdefault(hypo, {})
            row[hyper] = row.get(hyper, 0) + 1
    return PairIndex(counts, kind)


# ---------------------------------------------------------------------------
# index snapshot file


def save_cooc_index(
    path: str | os.PathLike,
    index: CoocIndex,
    header: dict[str, str] | None = None,
    floor: int = 1,
) -> int:
    """Write the snapshot: ``#cooc-index v1``, then ``#cooc-floor N`` when
    ``floor`` is above 1, then sorted term/candidate/count rows for the
    counts >= ``floor``; return the number of rows. `candidates_from_cooc`
    at ``threshold`` reads only counts above it, so ``floor = threshold + 1``
    drops nothing it reads."""
    meta = {COOC_INDEX_MAGIC[0]: COOC_INDEX_MAGIC[1]}
    if floor > 1:
        meta[COOC_FLOOR_KEY] = str(floor)
    n_rows = 0
    with write_artifact(path, meta | (header or {})) as fh:
        for term in sorted(index.counts):
            row = index.counts[term]
            kept = [token for token in sorted(row) if row[token] >= floor]
            fh.write("".join(f"{term}\t{token}\t{row[token]}\n" for token in kept))
            n_rows += len(kept)
    return n_rows


def load_cooc_index(path: str | os.PathLike) -> CoocIndex:
    """Read a snapshot back, with its floor (1 when the header names none).
    A floor or count that is not ASCII decimal digits, a malformed or
    cut-short row, or a count below the floor is a `FormatError`, naming a
    bad row by its line in the whole file."""
    meta, lines = read_artifact(path)
    if meta.get(COOC_INDEX_MAGIC[0]) != COOC_INDEX_MAGIC[1]:
        raise FormatError(f"{path}: not a {COOC_INDEX_MAGIC[0]} {COOC_INDEX_MAGIC[1]} file")
    floor_text = meta.get(COOC_FLOOR_KEY, "1")
    if not (floor_text.isascii() and floor_text.isdigit() and int(floor_text) >= 1):
        raise FormatError(f"{path}: #{COOC_FLOOR_KEY} {floor_text!r} is not a positive integer")
    floor = int(floor_text)
    counts: dict[str, dict[str, int]] = {}
    for n, line in enumerate(lines, start=1):
        parts = line.split("\t")
        # int() alone would also take signs, underscores and non-ASCII digits
        if len(parts) != 3 or not (parts[2].isascii() and parts[2].isdigit()):
            raise FormatError(
                f"{path}: line {file_line(path, n)} is not term<TAB>candidate<TAB>count: "
                f"{line!r}"
            )
        count = int(parts[2])
        if count < floor:
            raise FormatError(
                f"{path}: line {file_line(path, n)} has count {count}; "
                f"counts are at least {floor}"
            )
        counts.setdefault(parts[0], {})[parts[1]] = count
    return CoocIndex(counts, floor)
