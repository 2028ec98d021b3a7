"""Readers and writers for every file format in the pipeline.

Formats (all UTF-8, ``\\n`` line endings):

* tagged corpus: one paragraph per line, space-separated ``surface_POS``
  tokens; the split is on the LAST underscore, so surfaces may contain
  underscores or hyphens.
* vocabulary: one candidate hypernym term per line (1-3 words).
* queries: ``term<TAB>kind`` per line, kind is ``Concept`` or ``Entity``.
* gold: line i holds the tab-separated gold hypernyms for query i.
* predictions: line i holds the tab-separated predicted hypernyms for
  query i (at most 15; empty line when there are none).

Any file may begin with ``#key value`` comment lines; readers skip this
leading block and the pipeline uses it to stamp artifacts with the config
hash that produced them.

Multiword terms are written with single spaces externally and joined with
underscores internally so that phrase tokens stay atomic in indexes and
embeddings; `term_to_token` / `token_to_term` convert between the forms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_PREDICTIONS = 15
MAX_TERM_WORDS = 3


class TaggedToken(NamedTuple):
    surface: str
    pos: str


@dataclass(frozen=True)
class TaggedParagraph:
    tokens: tuple[TaggedToken, ...]

    def __len__(self) -> int:
        return len(self.tokens)


class QueryKind(Enum):
    CONCEPT = "Concept"
    ENTITY = "Entity"


class Query(NamedTuple):
    term: str
    kind: QueryKind


class GoldSet(NamedTuple):
    query: Query
    hypernyms: tuple[str, ...]


@dataclass(frozen=True)
class CandidateVocabulary:
    """The fixed set of terms a candidate hypernym may come from."""

    terms: frozenset[str]

    def __contains__(self, term: str) -> bool:
        return term in self.terms

    def __len__(self) -> int:
        return len(self.terms)


@dataclass
class ReadStats:
    """Counts of skipped input recorded by the lenient readers."""

    bad_tokens: int = 0
    empty_lines: int = 0
    rejected_terms: int = 0
    malformed_lines: int = 0


class FormatError(ValueError):
    """Raised on input that violates a file-format contract."""


def term_to_token(term: str) -> str:
    """External multiword term -> internal phrase token (``oil plant`` -> ``oil_plant``)."""
    return term.strip().replace(" ", "_")


def token_to_term(token: str) -> str:
    """Internal phrase token -> external term (``oil_plant`` -> ``oil plant``)."""
    return token.replace("_", " ")


def normalize_term(term: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(term.lower().split())


# ---------------------------------------------------------------------------
# header comments


def format_header(meta: dict[str, str]) -> str:
    return "".join(f"#{key} {value}\n" for key, value in meta.items())


def read_header(path: str | os.PathLike) -> dict[str, str]:
    """Parse the leading ``#key value`` comment block of a file."""
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].rstrip("\n")
            key, _, value = body.partition(" ")
            meta[key] = value
    return meta


def iter_data_lines(
    path: str | os.PathLike, keep_newline: bool = False
) -> Iterator[str]:
    """Yield lines with the trailing newline stripped (or kept, so a caller
    can tell a line cut short), skipping the leading comment block."""
    with open(path, encoding="utf-8") as fh:
        in_header = True
        for line in fh:
            if in_header:
                if line.startswith("#"):
                    continue
                in_header = False
            yield line if keep_newline else line.rstrip("\n")


# ---------------------------------------------------------------------------
# tagged corpus


def parse_tagged_line(line: str, stats: ReadStats | None = None) -> TaggedParagraph | None:
    """Parse one ``surface_POS ...`` line; None for lines with no valid token.

    Tokens are split on the last underscore. A token without an underscore
    (or with an empty surface or tag) is skipped and counted in ``stats``.
    """
    tokens = []
    for raw in line.split():
        surface, sep, pos = raw.rpartition("_")
        if not sep or not surface or not pos:
            if stats is not None:
                stats.bad_tokens += 1
            continue
        tokens.append(TaggedToken(surface, pos))
    if not tokens:
        return None
    return TaggedParagraph(tuple(tokens))


def read_tagged_corpus(
    path: str | os.PathLike, stats: ReadStats | None = None
) -> Iterator[TaggedParagraph]:
    """Stream paragraphs from a tagged corpus file in file order."""
    for line in iter_data_lines(path):
        if not line.strip():
            if stats is not None:
                stats.empty_lines += 1
            continue
        paragraph = parse_tagged_line(line, stats)
        if paragraph is not None:
            yield paragraph


def format_tagged_paragraph(paragraph: TaggedParagraph) -> str:
    return " ".join(f"{tok.surface}_{tok.pos}" for tok in paragraph.tokens)


def write_tagged_corpus(
    path: str | os.PathLike, paragraphs: Iterable[TaggedParagraph]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for paragraph in paragraphs:
            fh.write(format_tagged_paragraph(paragraph) + "\n")


# ---------------------------------------------------------------------------
# vocabulary / queries / gold


def load_vocabulary(
    path: str | os.PathLike, stats: ReadStats | None = None
) -> CandidateVocabulary:
    """Load the candidate-hypernym vocabulary, lowercased and deduplicated.

    Lines with more than three words are rejected and counted.
    """
    terms = set()
    for line in iter_data_lines(path):
        term = normalize_term(line)
        if not term:
            continue
        if term.count(" ") >= MAX_TERM_WORDS:
            if stats is not None:
                stats.rejected_terms += 1
            continue
        terms.add(term)
    return CandidateVocabulary(frozenset(terms))


def load_queries(path: str | os.PathLike) -> list[Query]:
    """Load ``term<TAB>kind`` queries, preserving line order."""
    queries = []
    for lineno, line in enumerate(iter_data_lines(path), start=1):
        if not line.strip():
            continue
        term, _, kind_text = line.partition("\t")
        kind_text = kind_text.strip()
        try:
            kind = QueryKind(kind_text)
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: unknown query kind {kind_text!r} "
                f"(expected Concept or Entity)"
            ) from None
        queries.append(Query(normalize_term(term), kind))
    return queries


def load_gold(path: str | os.PathLike, queries: Sequence[Query]) -> list[GoldSet]:
    """Load gold hypernym lists aligned 1:1 with ``queries``."""
    lines = [line for line in iter_data_lines(path)]
    # trailing blank lines are tolerated, interior ones are data
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != len(queries):
        raise FormatError(
            f"{path}: {len(lines)} gold lines for {len(queries)} queries"
        )
    gold_sets = []
    for query, line in zip(queries, lines):
        hypernyms = tuple(
            normalize_term(part) for part in line.split("\t") if part.strip()
        )
        gold_sets.append(GoldSet(query, hypernyms))
    return gold_sets


# ---------------------------------------------------------------------------
# predictions


def write_predictions(
    path: str | os.PathLike,
    predictions: Iterable[Sequence[str]],
    header: dict[str, str] | None = None,
) -> None:
    """Write one tab-separated candidate line per query.

    Each row is the ordered candidate terms for one query (at most 15,
    multiword candidates with spaces); an empty row writes an empty line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(format_header(header))
        for row in predictions:
            row = list(row)
            if len(row) > MAX_PREDICTIONS:
                raise FormatError(
                    f"prediction row has {len(row)} candidates (max {MAX_PREDICTIONS})"
                )
            fh.write("\t".join(row) + "\n")


def read_predictions(path: str | os.PathLike) -> list[list[str]]:
    """Read candidate lines back; the inverse of `write_predictions`."""
    rows = []
    for line in iter_data_lines(path):
        rows.append([part for part in line.split("\t") if part])
    return rows
