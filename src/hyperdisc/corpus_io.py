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

Any file may begin with ``#key value`` comment lines, where the key is a
lowercase identifier (``[a-z][a-z0-9-]*``); readers skip this leading block
and the pipeline uses it to stamp artifacts with the config hash that
produced them. The first line that is not of that form is data, even one
that starts with ``#`` (a ``#_#`` token, a ``#tag`` query), and the
``#config-hash`` stamp closes the header: any line after it is data.

Artifacts are written whole or not at all by `write_artifact`, and read by
`read_artifact`, which rejects a last row cut short by truncation. Every
reader takes its lines from `iter_data_lines`.

Multiword terms are written with single spaces externally and joined with
underscores internally so that phrase tokens stay atomic in indexes and
embeddings; `term_to_token` / `token_to_term` convert between the forms.
"""

from __future__ import annotations

import itertools
import os
import re
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from ._parallel import map_lines

MAX_PREDICTIONS = 15
MAX_TERM_WORDS = 3
CONFIG_HASH_KEY = "config-hash"
HEADER_LINE = re.compile(r"#([a-z][a-z0-9-]*)(?: |$)(.*)")  # `#key value`, key lowercase
READ_CHUNK = 1 << 13  # characters of whole lines per read of `iter_data_lines`


@dataclass(frozen=True)
class TaggedParagraph:
    """One tagged line as two columns: the surface and the tag of each valid
    token, in order."""

    surfaces: tuple[str, ...]
    tags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.surfaces)


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


def iter_data_lines(
    path: str | os.PathLike, _header: dict[str, str] | None = None
) -> Iterator[str]:
    """Yield lines with the trailing newline stripped, skipping the header
    comment block; lines are read `READ_CHUNK` characters at a time. Bytes
    that are not UTF-8 are a `FormatError` naming the file and the line
    (`decode_error`). `read_artifact` passes ``_header``, which receives the
    header and makes a last row cut short (no newline) a `FormatError`."""
    meta = {} if _header is None else _header
    try:
        with open(path, encoding="utf-8") as fh:
            first, _ = _read_header(fh, meta)
            chunks = iter(partial(fh.readlines, READ_CHUNK), [])
            n = 0  # data lines read so far
            for chunk in itertools.chain([[first]] if first else (), chunks):
                n += len(chunk)
                if chunk[-1].endswith("\n"):
                    yield from [line[:-1] for line in chunk]
                    continue
                # only the last line of a file can lack its newline
                yield from [line[:-1] for line in chunk[:-1]]
                if _header is not None:
                    raise FormatError(
                        f"{path}: last row cut short at data line {n}; the file is truncated"
                    )
                yield chunk[-1]
    except UnicodeDecodeError as exc:
        raise decode_error(path, exc) from None


def _read_header(fh: TextIO, meta: dict[str, str]) -> tuple[str, int]:
    """Read the header block of an open file into ``meta``: the line after
    it (empty at the end of the file) and the number of header lines."""
    line, count = fh.readline(), 0
    while CONFIG_HASH_KEY not in meta and (m := HEADER_LINE.fullmatch(line.rstrip("\n"))):
        meta[m[1]] = m[2]  # the stamp ends the header
        line, count = fh.readline(), count + 1
    return line, count


def decode_error(path: str | os.PathLike, exc: UnicodeDecodeError) -> FormatError:
    """The `FormatError` for a file that failed to decode as UTF-8, naming
    the first line (counted from 1 over every line of the file) that holds a
    bad byte. A text read decodes in chunks, so the file is read again in
    binary and decoded line by line; a newline byte never occurs inside a
    UTF-8 sequence, so the lines fail where the whole file did."""
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return FormatError(f"{path}: not UTF-8 text at line {n} ({line_exc.reason})")
    return FormatError(f"{path}: not UTF-8 text ({exc.reason})")


def read_artifact(path: str | os.PathLike) -> tuple[dict[str, str], Iterator[str]]:
    """The header and the data lines of an artifact, from one open of the
    file. Iterating the lines raises `FormatError` at a last row cut short
    by truncation, naming the file and the data line."""
    header: dict[str, str] = {}
    lines = iter_data_lines(path, header)
    first = next(lines, None)  # opens the file and reads the header
    return header, itertools.chain(() if first is None else (first,), lines)


@contextmanager
def write_artifact(path: str | os.PathLike, header: dict[str, str] | None) -> Iterator[TextIO]:
    """Write an artifact whole or not at all: the header and what the block
    writes go to a temporary file beside ``path`` that replaces it on a clean
    exit. On an exception the temporary file is deleted; ``path`` is kept."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(format_header(header or {}))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# tagged corpus


# a line of ``word_TAG`` tokens with one underscore each, single-spaced: every
# token valid by the `split_tokens` rule, one more than there are spaces
_PLAIN_LINE = re.compile(r"[^\s_]+_[^\s_]+(?: [^\s_]+_[^\s_]+)*")


def split_tokens(line: str) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """The surfaces and the tags of the valid tokens of a tagged line, in
    order, and the number of bad tokens. A token splits on its last
    underscore and is valid when both the surface and the tag are non-empty,
    so a token without an underscore is bad. A plain line is split in one
    pass, with the same result."""
    if _PLAIN_LINE.fullmatch(line):
        parts = line.replace("_", " ").split(" ")
        return tuple(parts[0::2]), tuple(parts[1::2]), 0
    raws = line.split()
    pairs = [(surface, pos) for surface, _, pos in [raw.rpartition("_") for raw in raws]
             if surface and pos]
    surfaces, tags = tuple(zip(*pairs)) or ((), ())
    return surfaces, tags, len(raws) - len(pairs)


def count_tokens(line: str) -> tuple[int, int]:
    """The numbers of valid and of bad tokens of a tagged line, as
    `split_tokens` counts them; a plain line is counted without a split."""
    if _PLAIN_LINE.fullmatch(line):
        return line.count(" ") + 1, 0
    surfaces, _, bad = split_tokens(line)
    return len(surfaces), bad


def parse_tagged_line(line: str, stats: ReadStats | None = None) -> TaggedParagraph | None:
    """Parse one ``surface_POS ...`` line; None for lines with no valid token.

    Bad tokens (`split_tokens`) are skipped and counted in ``stats``."""
    surfaces, tags, bad = split_tokens(line)
    if stats is not None:
        stats.bad_tokens += bad
    return TaggedParagraph(surfaces, tags) if surfaces else None


@dataclass
class ScanStats:
    """Counts from one pass over a tagged corpus (`scan_tagged_corpus`)."""

    paragraphs_in: int = 0      # lines with at least one valid token
    paragraphs_out: int = 0     # normalized lines written
    phrases_appended: int = 0   # noun phrases appended to those lines
    hearst_matches: int = 0
    isa_matches: int = 0
    bad_tokens: int = 0


class ParagraphScan(NamedTuple):
    """One paragraph's lines per output of a scan, and its appended phrases."""

    normalized: tuple[str, ...] = ()
    hearst: tuple[str, ...] = ()
    isa: tuple[str, ...] = ()
    phrases: int = 0


BATCH_LINES = 2048  # corpus lines per unit of work handed to `map_lines`


def _scan_batch(
    text: str, work: Callable[[TaggedParagraph], ParagraphScan],
    gate: Callable[[str], bool] | None,
) -> tuple[ScanStats, list[str]]:
    """Parse and ``work`` each line of ``text`` (lines joined by ``\\n``)
    that ``gate`` passes, and only count the tokens of the others; the
    batch's counts and, per output, the text of its lines."""
    stats, read = ScanStats(), ReadStats()
    outs: tuple[list[str], ...] = ([], [], [])
    for line in text.split("\n"):
        if gate is not None and not gate(line):
            valid, bad = count_tokens(line)
            read.bad_tokens += bad
            stats.paragraphs_in += 1 if valid else 0
            continue
        paragraph = parse_tagged_line(line, read)
        if paragraph is None:
            continue
        scan = work(paragraph)
        stats.paragraphs_in += 1
        stats.phrases_appended += scan.phrases
        for out, lines in zip(outs, (scan.normalized, scan.hearst, scan.isa)):
            out.extend(lines)
    stats.bad_tokens = read.bad_tokens
    stats.paragraphs_out, stats.hearst_matches, stats.isa_matches = map(len, outs)
    return stats, ["".join(f"{line}\n" for line in out) for out in outs]


def scan_tagged_corpus(
    in_path: str | os.PathLike, work: Callable[[TaggedParagraph], ParagraphScan],
    outputs: Sequence[str | os.PathLike | None], workers: int = 1,
    header: dict[str, str] | None = None, gate: Callable[[str], bool] | None = None,
) -> ScanStats:
    """Parse each non-blank data line of a tagged corpus once, apply the
    picklable ``work`` and write the normalized, Hearst and IS-A lines it
    returns to ``outputs`` (a path or None each), after ``header``, in corpus
    order.

    ``gate``, when given, is a picklable test on the raw line that passes
    every line ``work`` could return a line for. A line it rejects is not
    parsed, only its tokens counted (`count_tokens`, by the rule
    `parse_tagged_line` applies), so the returned counts, ``bad_tokens`` and
    ``paragraphs_in`` included, are those of the ungated scan. A pass that
    writes the normalized corpus takes no gate: nearly every line yields a
    normalized line.

    The lines go out in batches of `BATCH_LINES`, each joined into one
    string; `map_lines` spreads the batches over ``workers`` processes and
    returns, per batch, its `ScanStats` and one text per output, so no line
    and no per-line result crosses a process boundary. Here the lines are
    only read, the counts summed and the texts written in batch order."""
    stats = ScanStats()
    lines = iter_data_lines(in_path)
    batches = map("\n".join, iter(lambda: list(itertools.islice(lines, BATCH_LINES)), []))
    with ExitStack() as stack:
        files = [
            None if path is None else stack.enter_context(write_artifact(path, header))
            for path in outputs
        ]
        scan = partial(_scan_batch, work=work, gate=gate)
        for part, texts in map_lines(scan, batches, workers):
            for name, value in vars(part).items():
                setattr(stats, name, getattr(stats, name) + value)
            for fh, text in zip(files, texts):
                if text:
                    fh.write(text)
    return stats


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
    for n, line in enumerate(iter_data_lines(path), start=1):
        if not line.strip():
            continue
        term, _, kind_text = line.partition("\t")
        kind_text = kind_text.strip()
        try:
            kind = QueryKind(kind_text)
        except ValueError:
            with open(path, encoding="utf-8") as fh:  # number the line in the whole file
                lineno = n + _read_header(fh, {})[1]
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
    with write_artifact(path, header) as fh:
        for i, row in enumerate(predictions, 1):
            row = list(row)
            if len(row) > MAX_PREDICTIONS:
                raise FormatError(
                    f"{path}: prediction row {i} has {len(row)} candidates (max {MAX_PREDICTIONS})"
                )
            fh.write("\t".join(row) + "\n")


def read_predictions(path: str | os.PathLike) -> list[list[str]]:
    """Read candidate lines back; the inverse of `write_predictions`."""
    return [[part for part in line.split("\t") if part] for line in read_artifact(path)[1]]
