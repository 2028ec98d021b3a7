"""Readers and writers for every file format in the pipeline.

Formats (all UTF-8 lines, but for the vector block of the embedding and phi
files; a line ends at ``\\n``, and the ``\\r``s just before it are dropped, so
CRLF files read as LF ones and a lone ``\\r`` stays inside its line; a UTF-8
byte-order mark at the start of a file is not part of its first line):

* tagged corpus: one paragraph per line, space-separated ``surface_POS``
  tokens; the split is on the LAST underscore, so surfaces may contain
  underscores or hyphens. A corpus pass reads a line as two columns, its
  lowercased surfaces and one code per tag (`TAG_CODES`), as
  `parse_tagged_line` splits it (the pass, `patterns.scan_corpus`, splits
  a plain line itself).
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
from codecs import BOM_UTF8
from contextlib import contextmanager, suppress
from enum import Enum
from functools import partial
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO

MAX_PREDICTIONS = 15  # hypernyms scored per query: the cap of every candidate list
MAX_TERM_WORDS = 3
CONFIG_HASH_KEY = "config-hash"
HEADER_LINE = re.compile(r"#([a-z][a-z0-9-]*)(?: |$)(.*)")  # `#key value`, key lowercase
READ_CHUNK = 1 << 13  # bytes per read of `iter_data_lines`, made up to whole lines


def checked(cls):
    """Make the NamedTuple ``cls`` run its ``_check()`` on every new record.

    A NamedTuple's body cannot define ``__new__`` or ``_make``, and the
    ``_make`` it gets, which ``_replace`` calls, builds the tuple without
    ``__new__``. So this wraps ``__new__`` to call ``_check`` and sends
    ``_make`` through ``__new__``; copies and unpickled records go
    through ``__new__`` too."""
    new = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


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
    (`iter_data_lines`), after a UTF-8 byte-order mark, which is skipped.
    Lines are decoded one at a time and nothing past the block is: ``fh``
    is left at the first data line. A line that is not UTF-8 is a
    `FormatError` naming the file and the line."""
    if fh.read(len(BOM_UTF8)) != BOM_UTF8:
        fh.seek(0)
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
    exit. On an exception the temporary file is deleted; ``path`` is kept.
    An `OSError` on the temporary file is raised naming ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(format_header(header or {}))
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


# ---------------------------------------------------------------------------
# tagged corpus


# Penn Treebank tag classes, by prefix: the four classes `normalize` keeps,
# and the two that noun phrases are made of
KEEP_PREFIXES = ("NN", "VB", "JJ", "RB")
CHUNK_PREFIXES = ("NN", "JJ")


class _TagCodes(dict):
    """One code per tag, worked out the first time the tag is seen: ``D``
    the determiner tag ``DT`` (exactly; not ``PDT``, ``WDT`` or ``dt``),
    ``N`` noun, ``J`` other chunk tag, ``K`` other kept tag, ``-`` dropped
    (every chunk tag is a kept tag, and ``D`` is neither). This is the one
    place tags are classified: the chunker and the grammars read codes. A
    code depends on the tag alone, so one table serves every caller; it
    keeps at most 4096 tags, against junk tags."""

    def __missing__(self, pos: str) -> str:
        code = (
            "D" if pos == "DT" else "N" if pos.startswith("NN")
            else "J" if pos.startswith(CHUNK_PREFIXES)
            else "K" if pos.startswith(KEEP_PREFIXES) else "-"
        )
        if len(self) < 4096:
            self[pos] = code
        return code


TAG_CODES = _TagCodes()


def parse_tagged_line(line: str) -> tuple[tuple[str, ...], str] | None:
    """The columns of one ``surface_POS ...`` line, None when no token is
    valid: every surface lowercased, each on its own, as `str.lower`
    lowercases a final sigma by context, and the `TAG_CODES` code of every
    tag. A token splits on its last underscore and is valid when both the
    surface and the tag are non-empty; bad tokens are skipped. The corpus
    pass (`patterns._scan_batch`) splits every line here but a plain one.

    >>> parse_tagged_line("The_DT New_York_NNP bad_ CATS_NNS")
    (('the', 'new_york', 'cats'), 'DNN')
    """
    pairs = [(surface, pos) for surface, _, pos in (raw.rpartition("_") for raw in line.split())
             if surface and pos]
    if not pairs:
        return None
    surfaces, tags = zip(*pairs)
    return tuple(map(str.lower, surfaces)), "".join(map(TAG_CODES.__getitem__, tags))


# ---------------------------------------------------------------------------
# vocabulary / queries / gold


def load_vocabulary(path: str | os.PathLike) -> frozenset[str]:
    """Load the candidate-hypernym vocabulary, lowercased and deduplicated:
    the terms every module filters its candidates by.

    Each line is lowercased and split on whitespace once; a line of 1 to
    `MAX_TERM_WORDS` words is kept, its words joined by single spaces (what
    `normalize_term` makes of it), and any other line is skipped.
    """
    terms = set()
    for line in iter_data_lines(path):
        words = line.lower().split()
        if 0 < len(words) <= MAX_TERM_WORDS:
            terms.add(" ".join(words))
    return frozenset(terms)


def load_queries(path: str | os.PathLike) -> list[Query]:
    """Load ``term<TAB>kind`` queries, preserving line order. A line whose
    term is empty or all whitespace is a `FormatError` naming the line, and
    so is a kind that is not a `QueryKind` value, looked up in a dict of
    them."""
    queries, kinds = [], {kind.value: kind for kind in QueryKind}
    for n, line in enumerate(iter_data_lines(path), start=1):
        if not line.strip():
            continue
        term, _, kind_text = line.partition("\t")
        term, kind_text = normalize_term(term), kind_text.strip()
        if not term:
            raise FormatError(f"{path}: line {file_line(path, n)}: empty query term")
        kind = kinds.get(kind_text)
        if kind is None:
            raise FormatError(
                f"{path}: line {file_line(path, n)}: unknown query kind {kind_text!r} "
                f"(expected Concept or Entity)"
            )
        queries.append(Query(term, kind))
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
