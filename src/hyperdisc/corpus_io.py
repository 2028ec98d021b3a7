"""Readers and writers for every file format in the pipeline.

Formats (all UTF-8 lines, but for the vector block of the embedding and phi
files; a line ends at ``\\n``, and the ``\\r``s just before it are dropped, so
CRLF files read as LF ones and a lone ``\\r`` stays inside its line):

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
text reader, the config's included, takes its lines from `iter_data_lines`,
which reads in binary. `read_header` is the one header rule:
`iter_data_lines`, the vector files' reader (`embedding`) and every stamp
check take the header from it.

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
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from ._parallel import map_lines

MAX_PREDICTIONS = 15  # hypernyms scored per query: the cap of every candidate list
MAX_TERM_WORDS = 3
CONFIG_HASH_KEY = "config-hash"
HEADER_LINE = re.compile(r"#([a-z][a-z0-9-]*)(?: |$)(.*)")  # `#key value`, key lowercase
READ_CHUNK = 1 << 13  # bytes per read of `iter_data_lines`, made up to whole lines


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
    """Yield the data lines of ``path``, read in binary after its header
    (`read_header`): a line ends at ``\\n``, and the ``\\r``s just before it
    are dropped, so a lone ``\\r`` stays inside its line. Whole lines are read
    about `READ_CHUNK` bytes at a time and each chunk is decoded once; bytes
    that are not UTF-8 are a `FormatError` naming the file and the line.
    `read_artifact` passes ``_header``, which receives the header and makes a
    last row cut short (no ``\\n``) a `FormatError`."""
    meta = {} if _header is None else _header
    with open(path, "rb") as fh:
        meta.update(read_header(fh, path))
        n = 0  # data lines read so far
        for chunk in iter(partial(fh.read, READ_CHUNK), b""):
            if not chunk.endswith(b"\n"):
                chunk += fh.readline()  # to the end of its line
            try:
                lines = chunk.decode("utf-8").split("\n")
            except UnicodeDecodeError as exc:
                bad = file_line(path, n + chunk.count(b"\n", 0, exc.start) + 1)
                raise FormatError(f"{path}: not UTF-8 text at line {bad} ({exc.reason})") from None
            if b"\r" in chunk:
                lines = [line.rstrip("\r") for line in lines]
            last = lines.pop()  # "" after a final newline
            n += len(lines)
            yield from lines
            if not chunk.endswith(b"\n"):  # only the last line of a file lacks its newline
                if _header is not None:
                    raise FormatError(f"{path}: last row cut short at line "
                                      f"{file_line(path, n + 1)}; the file is truncated")
                yield last


def read_header(fh: BinaryIO, path: str | os.PathLike) -> dict[str, str]:
    """The header block of ``fh``, a file open in binary at its start: the
    leading ``#key value`` lines (`HEADER_LINE`) up to and including the
    ``#config-hash`` stamp, each ending as a data line ends
    (`iter_data_lines`). Lines are decoded one at a time and nothing past
    the block is: ``fh`` is left at the first data line. A line that is not
    UTF-8 is a `FormatError` naming the file and the line."""
    meta: dict[str, str] = {}
    n = 0  # lines read so far
    while CONFIG_HASH_KEY not in meta:  # the stamp ends the header
        start, raw = fh.tell(), fh.readline()
        n += 1
        try:
            m = HEADER_LINE.fullmatch(raw.decode("utf-8").rstrip("\r\n"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text at line {n} ({exc.reason})") from None
        if not m:
            fh.seek(start)
            break
        meta[m[1]] = m[2]
    return meta


def file_line(path: str | os.PathLike, n: int) -> int:
    """The number, counted over every line of the file, of data line ``n``
    (from 1) of ``path``: ``n`` plus its header lines. For error messages."""
    with open(path, "rb") as fh:
        read_header(fh, path)
        end = fh.tell()
        fh.seek(0)
        return n + fh.read(end).count(b"\n")


def read_artifact(path: str | os.PathLike) -> tuple[dict[str, str], Iterator[str]]:
    """The header and the data lines of an artifact, from one open of the
    file. Iterating the lines raises `FormatError` at a last row cut short
    by truncation, naming the file and the line."""
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


def parse_tagged_line(line: str) -> TaggedParagraph | None:
    """Parse one ``surface_POS ...`` line; None for lines with no valid token.

    Bad tokens (`split_tokens`) are skipped."""
    surfaces, tags, _ = split_tokens(line)
    return TaggedParagraph(surfaces, tags) if surfaces else None


@dataclass
class ScanStats:
    """Counts from one pass over a tagged corpus (`scan_tagged_corpus`).
    ``paragraphs_in`` and ``bad_tokens`` count only the lines the pass
    parses: all of them unless it has a gate."""

    paragraphs_in: int = 0      # parsed lines with at least one valid token
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
    that ``gate`` passes, and skip the others; the batch's counts and, per
    output, the text of its lines."""
    stats = ScanStats()
    outs: tuple[list[str], ...] = ([], [], [])
    for line in text.split("\n"):
        if gate is not None and not gate(line):
            continue
        surfaces, tags, bad = split_tokens(line)
        stats.bad_tokens += bad
        if not surfaces:
            continue
        scan = work(TaggedParagraph(surfaces, tags))
        stats.paragraphs_in += 1
        stats.phrases_appended += scan.phrases
        for out, lines in zip(outs, (scan.normalized, scan.hearst, scan.isa)):
            out.extend(lines)
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
    parsed: the outputs and their counts are those of the ungated scan, and
    ``paragraphs_in`` and ``bad_tokens`` count only the lines it passes. A
    pass that writes the normalized corpus takes no gate: nearly every line
    yields a normalized line.

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


def load_vocabulary(path: str | os.PathLike) -> frozenset[str]:
    """Load the candidate-hypernym vocabulary, lowercased and deduplicated:
    the terms every module filters its candidates by.

    Lines with more than `MAX_TERM_WORDS` words are skipped.
    """
    terms = set()
    for line in iter_data_lines(path):
        term = normalize_term(line)
        if term and term.count(" ") < MAX_TERM_WORDS:
            terms.add(term)
    return frozenset(terms)


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
            raise FormatError(
                f"{path}: line {file_line(path, n)}: unknown query kind {kind_text!r} "
                f"(expected Concept or Entity)"
            ) from None
        queries.append(Query(normalize_term(term), kind))
    return queries


def load_gold(path: str | os.PathLike, queries: Sequence[Query]) -> list[GoldSet]:
    """Load gold hypernym lists aligned 1:1 with ``queries``. A line with no
    hypernym is a `FormatError` naming the file and the line."""
    lines = list(iter_data_lines(path))
    # trailing blank lines are tolerated, interior ones are data
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != len(queries):
        raise FormatError(
            f"{path}: {len(lines)} gold lines for {len(queries)} queries"
        )
    gold_sets = []
    for n, (query, line) in enumerate(zip(queries, lines), start=1):
        hypernyms = tuple(
            normalize_term(part) for part in line.split("\t") if part.strip()
        )
        if not hypernyms:
            raise FormatError(f"{path}: line {file_line(path, n)}: "
                              f"no gold hypernym for query {query.term!r}")
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
