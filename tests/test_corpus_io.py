import copy
import os
import pickle
from codecs import BOM_UTF8
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc import corpus_io, patterns
from hyperdisc.corpus_io import (
    TAG_CODES,
    FormatError,
    Query,
    QueryKind,
    ScanStats,
    checked,
    file_line,
    iter_data_lines,
    load_gold,
    load_queries,
    load_vocabulary,
    parse_tagged_line,
    read_artifact,
    read_header,
    read_predictions,
    term_to_token,
    token_to_term,
    write_artifact,
    write_predictions,
)
from hyperdisc.normalize import normalize_corpus
from hyperdisc.patterns import extract_corpus

# `#` included, so a paragraph, the first one too, may open with it
surfaces = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz-_'#"), min_size=1, max_size=8
)
pos_tags = st.sampled_from(["NN", "NNS", "VB", "VBD", "JJ", "RB", "DT", "IN", ",", "."])
paragraphs = st.lists(st.tuples(surfaces, pos_tags), min_size=1, max_size=12)


def read_paragraphs(path):
    """A tagged corpus's paragraphs as the scan reads them, (words, codes)
    each: each data line through `parse_tagged_line`, lines without a valid
    token dropped."""
    return [p for line in iter_data_lines(path) if (p := parse_tagged_line(line)) is not None]


def scan_columns(line):
    """The columns `_scan_batch` hands its work for each line of ``line``,
    and its count of bad tokens."""
    seen = []

    def work(words, codes, outs):
        seen.append((words, codes))
        return 0

    return seen, corpus_io._scan_batch(line, work, None)[0].bad_tokens


@checked
class Interval(NamedTuple):
    low: int = 0
    high: int = 1

    def _check(self) -> None:
        if self.low > self.high:
            raise ValueError(f"low {self.low} is above high {self.high}")


def unchecked(*values):
    """An `Interval` built past its checks, as only `tuple.__new__` can."""
    return tuple.__new__(Interval, values)


@pytest.mark.parametrize("build", [
    lambda: Interval(2, 1),
    lambda: Interval(high=1, low=2),
    lambda: Interval(0, 1)._replace(low=2),
    lambda: Interval._make((2, 1)),
    lambda: copy.copy(unchecked(2, 1)),
    lambda: pickle.loads(pickle.dumps(unchecked(2, 1))),
], ids=["construct", "keywords", "replace", "make", "copy", "pickle"])
def test_checked_runs_the_checks_on_every_new_record(build):
    with pytest.raises(ValueError, match="^low 2 is above high 1$"):
        build()


def test_checked_keeps_a_valid_record_a_namedtuple():
    record = Interval(1, 2)
    assert record == (1, 2) and type(record) is Interval
    assert record._replace(high=3) == Interval._make((1, 3)) == Interval(1, 3)
    assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
    assert Interval() == (0, 1) and Interval._fields == ("low", "high")
    assert Interval.__annotations__ == {"low": int, "high": int}


def test_parse_simple_line():
    assert parse_tagged_line("The_DT cat_NN sat_VBD") == (("the", "cat", "sat"), "DNK")


def test_empty_line_yields_nothing(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("\n\nThe_DT cat_NN\n\n")
    paragraphs = read_paragraphs(path)
    assert len(paragraphs) == 1


def test_surface_with_hyphen_splits_on_last_underscore(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("loved-ones_NNS such_JJ as_IN family_NN\n")
    (paragraph,) = read_paragraphs(path)
    assert paragraph == (("loved-ones", "such", "as", "family"), "NJ-N")


def test_underscore_in_surface():
    assert parse_tagged_line("a_b_NN") == (("a_b",), "N")


def test_bad_token_skipped_and_counted():
    line = "ok_NN broken also_bad_ _VB x"
    # "broken" has no underscore, "also_bad_" has an empty tag, "_VB" an
    # empty surface, "x" no underscore
    assert parse_tagged_line(line) == (("ok",), "N")
    assert scan_columns(line) == ([(("ok",), "N")], 4)


@given(st.lists(paragraphs, max_size=8))
def test_tagged_corpus_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("rt") / "c.txt"
    path.write_text("".join(" ".join(map("{}_{}".format, *zip(*p))) + "\n" for p in corpus))
    # the surfaces are lowercase already, so the words are the surfaces
    expected = [(tuple(s for s, _ in p), "".join(TAG_CODES[t] for _, t in p)) for p in corpus]
    assert read_paragraphs(path) == expected


def test_vocabulary_case_folds_and_dedups(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("Herb\noil  plant\nherb\n")
    vocab = load_vocabulary(path)
    assert vocab == frozenset({"herb", "oil plant"})
    assert "herb" in vocab and "grass" not in vocab


def test_vocabulary_empty_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("")
    assert len(load_vocabulary(path)) == 0


def test_vocabulary_rejects_long_terms(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("one two three four\nok term\n")
    assert load_vocabulary(path) == frozenset({"ok term"})


def test_load_queries(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("lemongrass\tConcept\nHurricane\tEntity\n")
    queries = load_queries(path)
    assert queries == [
        Query("lemongrass", QueryKind.CONCEPT),
        Query("hurricane", QueryKind.ENTITY),
    ]


def test_load_queries_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("lemongrass\tConcept\n\n \t \nHurricane\tEntity\nx\tThing\n")
    with pytest.raises(FormatError) as info:
        load_queries(path)
    assert str(info.value).startswith(f"{path}: line 5: unknown query kind 'Thing'")
    path.write_text("lemongrass\tConcept\n\n \t \nHurricane\tEntity\n")
    assert load_queries(path) == [
        Query("lemongrass", QueryKind.CONCEPT),
        Query("hurricane", QueryKind.ENTITY),
    ]


def test_load_queries_unknown_kind_names_line(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("x\tThing\n")
    with pytest.raises(FormatError, match="line 1"):
        load_queries(path)


@pytest.mark.parametrize("text, line", [
    ("#config-hash abc\nherb\tConcept\nx\tThing\n", 3),
    ("#source a\n#source b\nherb\tConcept\nx\tThing\n", 4),  # a repeated key is two lines
    ("#source a\n#config-hash abc\n#tag\tConcept\nx\tThing\n", 4),  # `#tag` is data
], ids=["stamp", "repeated-key", "hash-after-stamp"])
def test_load_queries_unknown_kind_counts_header_lines(tmp_path, text, line):
    path = tmp_path / "q.tsv"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load_queries(path)
    assert str(info.value).startswith(f"{path}: line {line}: unknown query kind 'Thing'")


@pytest.mark.parametrize("term", ["", "   "], ids=["empty", "blank"])
def test_load_queries_empty_term_names_line(tmp_path, term):
    path = tmp_path / "q.tsv"
    path.write_text(f"#config-hash abc\nherb\tConcept\n{term}\tEntity\n")
    with pytest.raises(FormatError) as info:
        load_queries(path)
    assert str(info.value) == f"{path}: line 3: empty query term"


def test_load_gold(tmp_path):
    qpath = tmp_path / "q.tsv"
    qpath.write_text("lemongrass\tConcept\nliberalism\tConcept\n")
    gpath = tmp_path / "g.tsv"
    gpath.write_text("grass\toil plant\therb\ntheory\teconomic theory\n")
    queries = load_queries(qpath)
    gold = load_gold(gpath, queries)
    assert gold[0].hypernyms == ("grass", "oil plant", "herb")
    assert gold[1].hypernyms == ("theory", "economic theory")
    assert gold[0].query.term == "lemongrass"


def test_load_gold_rejects_a_line_without_hypernym(tmp_path):
    qpath = tmp_path / "q.tsv"
    qpath.write_text("a\tConcept\nb\tConcept\nc\tEntity\n")
    gpath = tmp_path / "g.tsv"
    gpath.write_text("#config-hash cafe\nx\n \t\nz\n\n\n")
    with pytest.raises(FormatError) as info:
        load_gold(gpath, load_queries(qpath))
    assert str(info.value) == f"{gpath}: line 3: no gold hypernym for query 'b'"
    gpath.write_text("#config-hash cafe\nx\ny\nz\n\n\n")  # trailing blank lines
    assert [g.hypernyms for g in load_gold(gpath, load_queries(qpath))] == [("x",), ("y",), ("z",)]


def test_load_gold_count_mismatch(tmp_path):
    qpath = tmp_path / "q.tsv"
    qpath.write_text("a\tConcept\nb\tConcept\nc\tConcept\n")
    gpath = tmp_path / "g.tsv"
    gpath.write_text("x\ny\n")
    with pytest.raises(FormatError, match="2 gold lines for 3 queries"):
        load_gold(gpath, load_queries(qpath))


def test_write_predictions_format(tmp_path):
    path = tmp_path / "p.tsv"
    write_predictions(path, [["storm", "windstorm", "typhoon"], []])
    assert path.read_text() == "storm\twindstorm\ttyphoon\n\n"


def test_predictions_round_trip(tmp_path):
    rows = [["storm", "wind storm"], [], ["a"]]
    path = tmp_path / "p.tsv"
    write_predictions(path, rows, header={"config-hash": "abc"})
    assert read_predictions(path) == rows


def test_write_predictions_rejects_overlong_row(tmp_path):
    path = tmp_path / "p.tsv"
    write_predictions(path, [["storm"]], header={"config-hash": "abc"})
    before = path.read_bytes()
    with pytest.raises(FormatError, match="prediction row 3 has 16 candidates"):
        write_predictions(path, [["a"], ["b"], [f"t{i}" for i in range(16)]])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["p.tsv"]


@pytest.mark.parametrize("existing", [None, b"old\n"])
def test_write_artifact_is_all_or_nothing(tmp_path, existing):
    path = tmp_path / "artifact.txt"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(RuntimeError):
        with write_artifact(path, {"config-hash": "abc"}) as fh:
            fh.write("row\n")
            raise RuntimeError("stop")
    assert os.listdir(tmp_path) == ([] if existing is None else ["artifact.txt"])
    if existing is not None:
        assert path.read_bytes() == existing
    with write_artifact(path, {"config-hash": "abc"}) as fh:
        fh.write("row\n")
    assert path.read_text() == "#config-hash abc\nrow\n"
    assert os.listdir(tmp_path) == ["artifact.txt"]


@pytest.mark.parametrize("name, error", [
    ("no-such-dir/artifact.txt", FileNotFoundError),  # the temporary file is not made
    ("a-directory", IsADirectoryError),  # it cannot replace the path
])
def test_write_artifact_error_names_the_artifact(tmp_path, name, error):
    """An error on the temporary file is reported with the artifact's path,
    and the temporary file is gone."""
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    with pytest.raises(error) as info:
        with write_artifact(path, None):
            pass
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert str(info.value).endswith(f": '{path}'")
    assert sorted(os.listdir(tmp_path)) == ["a-directory"]


def test_header_round_trip(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("#cooc-index v1\n#config-hash deadbeef\ndata line\n")
    assert read_artifact(path)[0] == {"cooc-index": "v1", "config-hash": "deadbeef"}
    assert list(iter_data_lines(path)) == ["data line"]


def test_stamp_closes_the_header(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("#cooc-index v1\n#config-hash deadbeef\n#hashtag\ttopic\n#x\n")
    assert read_artifact(path)[0] == {"cooc-index": "v1", "config-hash": "deadbeef"}
    assert list(iter_data_lines(path)) == ["#hashtag\ttopic", "#x"]


def test_unstamped_file_skips_leading_comments(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("#note a\n#more b\ndata\n#later\n")
    assert read_artifact(path)[0] == {"note": "a", "more": "b"}
    assert list(iter_data_lines(path)) == ["data", "#later"]


@given(st.lists(st.sampled_from(["#note a", "#more b", "#config-hash cafe", "#Note a", "#x",
                                 "#_# 1_CD herb_NN", "data", "#note a\r", "#note a\rb"]),
                max_size=5))
def test_binary_header_reader_equals_text_reader(tmp_path_factory, lines):
    """`read_header` finds the header `read_artifact` finds, a CRLF line end
    read as a newline and a lone CR kept in its line, and leaves the file at
    the first data line, from which the data lines end by the same rule."""
    path = tmp_path_factory.mktemp("header") / "f.txt"
    path.write_bytes("".join(line + "\n" for line in lines + ["end"]).encode())
    with open(path, "rb") as fh:
        header = read_header(fh, path)
        rest = fh.read().decode("utf-8")
    assert header == read_artifact(path)[0]
    data = [line.rstrip("\r") for line in rest.split("\n")[:-1]]
    assert data == list(iter_data_lines(path))


@pytest.mark.parametrize("header", [b"", b"#note a\n#config-hash cafe\n"], ids=["bare", "stamped"])
def test_byte_order_mark_is_not_part_of_the_first_line(tmp_path, header):
    """A vocabulary, queries or gold file that starts with a UTF-8
    byte-order mark reads as the file without it: the same header, terms,
    queries and gold, and an error names the same line."""
    texts = {"vocab": b"plant\noil plant\n", "queries": b"basil\tConcept\nrose\tEntity\n",
             "gold": b"herb\nflower\tplant\n", "bad": b"basil\tBogus\n"}
    reads = []
    for mark in (b"", BOM_UTF8):
        path = {}
        for name, text in texts.items():
            path[name] = tmp_path / f"{name}{len(mark)}.txt"
            path[name].write_bytes(mark + header + text)
        queries = load_queries(path["queries"])
        with pytest.raises(FormatError) as info:
            load_queries(path["bad"])
        reads.append((read_artifact(path["vocab"])[0], load_vocabulary(path["vocab"]), queries,
                      load_gold(path["gold"], queries),
                      str(info.value).replace(str(path["bad"]), "bad")))
    assert reads[1] == reads[0]
    assert reads[0][1] == {"plant", "oil plant"}


def test_lone_cr_stays_inside_a_header_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"#note a\rb\n#config-hash x\ndata\n")
    header, lines = read_artifact(path)
    assert (header, list(lines)) == ({"note": "a\rb", "config-hash": "x"}, ["data"])


def test_data_lines_end_at_newline_alone(tmp_path):
    """A data line ends at LF, the CRs just before it dropped, as a header
    line does: a lone CR stays inside its line."""
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\rb\nc\r\nd\r\r\ne")
    assert list(iter_data_lines(path)) == ["a\rb", "c", "d", "e"]


def test_query_error_names_the_line_by_the_one_rule(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_bytes(b"x\ry\tConcept\nz\tBogus\n")
    with pytest.raises(FormatError) as info:
        load_queries(path)
    assert str(info.value) == (
        f"{path}: line 2: unknown query kind 'Bogus' (expected Concept or Entity)"
    )


def test_binary_header_reader_decodes_nothing_past_the_stamp(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"#note a\n#config-hash cafe\n\xff\xfe\x00")
    with open(path, "rb") as fh:
        assert read_header(fh, path) == {"note": "a", "config-hash": "cafe"}
        assert fh.read() == b"\xff\xfe\x00"
    path.write_bytes(b"#note a\n#config-hash \xff\n")
    with open(path, "rb") as fh, pytest.raises(FormatError) as info:
        read_header(fh, path)
    assert str(info.value) == f"{path}: not UTF-8 text at line 2 (invalid start byte)"
    with pytest.raises(FormatError) as text_info:
        read_artifact(path)
    assert str(text_info.value) == str(info.value)


@pytest.mark.parametrize("first", ["#_# 1_CD herb_NN", "#Note a", "#note\ta", "#", "#1st x"])
def test_leading_line_without_lowercase_key_is_data(tmp_path, first):
    path = tmp_path / "f.txt"
    path.write_text(f"#note a\n{first}\ndata\n")
    assert read_artifact(path)[0] == {"note": "a"}
    assert list(iter_data_lines(path)) == [first, "data"]


def test_corpus_opening_with_hash_token_keeps_that_paragraph(tmp_path):
    path = tmp_path / "corpus.pos.txt"
    path.write_text("#_# 1_CD herb_NN basil_NN\nbasil_NN is_VBZ a_DT herb_NN\n")
    (words, codes), _ = read_paragraphs(path)
    assert (words, codes) == (("#", "1", "herb", "basil"), "--NN")
    stats = extract_corpus(path, None, None, 1, None, normalized_out=tmp_path / "n.txt")
    assert stats.paragraphs_in == 2


def test_queries_opening_with_hash_term_keep_that_query(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("#tag\tConcept\nherb\tConcept\n")
    assert load_queries(path) == [
        Query("#tag", QueryKind.CONCEPT), Query("herb", QueryKind.CONCEPT)
    ]


@pytest.mark.parametrize("header", [b"", b"#config-hash f00d\n"])
def test_bad_byte_is_located_by_line(tmp_path, header):
    lines = [f"herb_NN basil_NN is_VBZ a_DT plant_NN {i}_CD ._.\n".encode() for i in range(600)]
    lines.insert(300, b"herb_NN \xff_NN\n")
    path = tmp_path / "corpus.pos.txt"
    path.write_bytes(header + b"".join(lines))
    line = 301 + header.count(b"\n")  # lines of the file, the header's included
    for read in (iter_data_lines, read_paragraphs, lambda p: read_artifact(p)[1]):
        with pytest.raises(FormatError) as info:
            list(read(path))
        assert str(info.value) == f"{path}: not UTF-8 text at line {line} (invalid start byte)"


def unchunked_reference(path, artifact):
    """The per-line reader that `iter_data_lines` reads in chunks: the lines
    it yields, and the text of the `FormatError` it stops at (None if none).
    Each line is read in binary up to its ``\\n``, decoded, and stripped of
    the ``\\r``s before it."""
    lines = []
    try:
        with open(path, "rb") as fh:
            read_header(fh, path)
            for n, raw in enumerate(fh, 1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{path}: not UTF-8 text at line {file_line(path, n)} "
                                      f"({exc.reason})") from None
                if artifact and not raw.endswith(b"\n"):
                    raise FormatError(f"{path}: last row cut short at line {file_line(path, n)}; "
                                      f"the file is truncated")
                lines.append(line.rstrip("\r\n"))
    except FormatError as exc:
        return lines, str(exc)
    return lines, None


def chunked_read(path, artifact):
    lines = []
    try:
        lines.extend(read_artifact(path)[1] if artifact else iter_data_lines(path))
    except FormatError as exc:
        return lines, str(exc)
    return lines, None


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["", "#note a\n", "#cooc-index v1\n#config-hash cafe\n"]),
    st.lists(st.text(alphabet="ab#\t \xe9\u20ac\r", max_size=6), max_size=8),
    st.booleans(),
)
def test_chunked_reader_equals_per_line_reference(tmp_path_factory, chunk, header, lines, newline):
    """With chunks of a few characters, so that chunk boundaries fall all
    over the file: the same lines as the per-line reader with and without a
    final newline, and for a cut at every byte (inside a UTF-8 sequence, at
    a chunk boundary) the same `FormatError` text. Lines before a bad byte
    are not compared: both readers decode ahead of the lines they yield."""
    data = (header + "\n".join(lines) + ("\n" if newline else "")).encode("utf-8")
    path = tmp_path_factory.mktemp("chunks") / "f.txt"
    with mock.patch.object(corpus_io, "READ_CHUNK", chunk):
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            for artifact in (False, True):
                got, want = chunked_read(path, artifact), unchunked_reference(path, artifact)
                assert got[1] == want[1]
                if "not UTF-8" not in str(want[1]):
                    assert got[0] == want[0]


def test_term_token_round_trip():
    assert term_to_token("oil plant") == "oil_plant"
    assert token_to_term("oil_plant") == "oil plant"
    assert term_to_token("herb") == "herb"


def test_loaders_are_deterministic(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("B\na\nb\n")
    assert load_vocabulary(path) == load_vocabulary(path)


@given(st.lists(st.sampled_from(["herb", "Herb", "oil plant", "grass", "x y z"])))
def test_vocabulary_never_larger_than_line_count(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("v") / "v.txt"
    path.write_text("".join(line + "\n" for line in lines))
    assert len(load_vocabulary(path)) <= len(lines)


# tokens that fire every grammar and the phrase chunker, plus bad tokens, triggers
# in capitals and lookalikes that a line gate must tell from triggers
SCAN_TOKENS = [
    "herb_NN", "herbs_NNS", "basil_NN", "green_JJ", "mint_NN", "such_JJ", "as_IN",
    "including_VBG", "especially_RB", "is_VBZ", "a_DT", "the_DT", "and_CC", "or_CC",
    "other_JJ", ",_,", "._.", "#x_NN", "nounderscore", "_NN", "tag_",
    "Such_JJ", "IS_VBZ", "Or_CC", "this_DT", "island_NN", "for_IN", "is__X", "is_",
    "xis_VBZ", "İs_VBZ", "ΟΔΟΣ_NN", "Σ_NNS",
]
scan_tokens = st.lists(st.sampled_from(SCAN_TOKENS), max_size=10)
scan_lines = scan_tokens.map(" ".join) | scan_tokens.map("\t".join) | st.sampled_from([
    "", " ", "\t", "herb_NN\tbasil_NN ", "#note", "#config-hash 0",
    "such_JJ herbs_NNS as_IN basil_NN and_CC mint_NN",
    "basil_NN is_VBZ a_DT green_JJ herb_NN",
    "basil_NN ,_, mint_NN and_CC other_JJ herbs_NNS",
    "Basil_NN IS_VBZ the_DT herb_NN",
    "basil_NN\tOr_CC\tother_JJ herbs_NNS",
])
scan_corpora = st.tuples(
    st.lists(st.sampled_from(["#source x", "#tagger y"]), max_size=2),
    st.booleans(),  # stamped: a `#` line after the stamp is data
    st.lists(scan_lines, max_size=14),
)


@settings(max_examples=300)
@given(scan_lines)
def test_scan_columns_equal_last_underscore_rule(line):
    """`_scan_batch` splits a plain line in one pass; the columns it hands
    its work and its bad-token count are those of splitting each token on
    its last underscore, then lowercasing each surface on its own, on plain
    lines and all others alike."""
    pairs = [raw.rpartition("_") for raw in line.split()]
    valid = [(surface, tag) for surface, _, tag in pairs if surface and tag]
    words = tuple(surface.lower() for surface, _ in valid)
    codes = "".join(TAG_CODES[tag] for _, tag in valid)
    assert scan_columns(line) == ([(words, codes)] if valid else [], len(pairs) - len(valid))


def write_scan_corpus(root, corpus):
    meta, stamped, lines = corpus
    src = root / "corpus.pos.txt"
    head = "".join(f"{m}\n" for m in meta) + ("#config-hash abc\n" if stamped else "")
    src.write_text(head + "".join(f"{line}\n" for line in lines), encoding="utf-8")
    return src


def per_line_reference(path, normalized=True, hearst=True, isa=True, gate=None):
    """The scan of the requested outputs one data line at a time, every
    line that ``gate`` passes parsed: its counts and the text of each output."""
    paragraphs = phrases = bad = 0
    outs = ([], [], [])
    for line in iter_data_lines(path):
        if not line.strip() or (gate is not None and not gate(line)):
            continue
        paragraph = parse_tagged_line(line)
        bad += len(line.split()) - (0 if paragraph is None else len(paragraph[0]))
        if paragraph is None:
            continue
        local = ([], [], [])
        phrases += patterns._scan_columns(normalized, hearst, isa, *paragraph, local)
        paragraphs += 1
        for out, lines in zip(outs, local):
            out.extend(lines)
    stats = ScanStats(paragraphs_in=paragraphs, paragraphs_out=len(outs[0]),
                      phrases_appended=phrases, hearst_matches=len(outs[1]),
                      isa_matches=len(outs[2]), bad_tokens=bad)
    return stats, ["".join(line + "\n" for line in out) for out in outs]


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=30, deadline=None)
@given(corpus=scan_corpora)
def test_batched_scan_equals_per_line_reference(tmp_path_factory, workers, corpus):
    root = tmp_path_factory.mktemp("scan")
    src = write_scan_corpus(root, corpus)
    expected_stats, expected = per_line_reference(src)
    normalized, hearst, isa = (root / name for name in ("norm.txt", "hearst.tsv", "isa.tsv"))
    for batch in (1, 2, 3):
        with mock.patch.object(corpus_io, "BATCH_LINES", batch):
            stats = extract_corpus(
                src, hearst, isa, workers, {"config-hash": "s"}, normalized_out=normalized
            )
        assert stats == expected_stats, batch
        written = [p.read_text(encoding="utf-8") for p in (normalized, hearst, isa)]
        assert written == ["#config-hash s\n" + text for text in expected], batch


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=30, deadline=None)
@given(corpus=scan_corpora)
def test_normalize_pass_equals_per_line_reference(tmp_path_factory, workers, corpus):
    root = tmp_path_factory.mktemp("norm")
    src = write_scan_corpus(root, corpus)
    expected_stats, expected = per_line_reference(src, True, False, False)
    out = root / "norm.txt"
    for batch in (1, 2, 3):
        with mock.patch.object(corpus_io, "BATCH_LINES", batch):
            stats = normalize_corpus(src, out, workers, {"config-hash": "s"})
        assert stats == expected_stats, batch
        assert out.read_text(encoding="utf-8") == "#config-hash s\n" + expected[0], batch


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("hearst, isa", [(True, False), (False, True), (True, True)],
                         ids=["hearst", "isa", "hearst+isa"])
@settings(max_examples=20, deadline=None)
@given(corpus=scan_corpora)
def test_gated_extract_equals_ungated_reference(tmp_path_factory, workers, hearst, isa, corpus):
    """An extract-only pass parses only the lines its trigger gate passes.
    Its bytes and its match counts are those of parsing every line; its
    ``paragraphs_in`` and ``bad_tokens`` are those of the lines it parses."""
    root = tmp_path_factory.mktemp("gated")
    src = write_scan_corpus(root, corpus)
    expected_stats, expected = per_line_reference(src, normalized=False, hearst=hearst, isa=isa)
    grammars = (patterns._HEARST_GRAMMARS if hearst else ()) + (
        patterns._ISA_GRAMMARS if isa else ())
    gated, _ = per_line_reference(src, False, hearst, isa, patterns._trigger_gate(grammars))
    expected_stats = expected_stats._replace(
        paragraphs_in=gated.paragraphs_in, bad_tokens=gated.bad_tokens)
    paths = (root / "hearst.tsv" if hearst else None, root / "isa.tsv" if isa else None)
    for batch in (1, 2, 3):
        with mock.patch.object(corpus_io, "BATCH_LINES", batch):
            stats = extract_corpus(src, *paths, workers, {"config-hash": "s"})
        assert stats == expected_stats, batch
        for path, text in zip(paths, expected[1:]):
            if path is not None:
                assert path.read_text(encoding="utf-8") == "#config-hash s\n" + text, batch
