import dataclasses
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc import corpus_io, patterns
from hyperdisc.corpus_io import (
    FormatError,
    Query,
    QueryKind,
    ScanStats,
    TaggedParagraph,
    file_line,
    iter_data_lines,
    load_gold,
    load_queries,
    load_vocabulary,
    parse_tagged_line,
    read_artifact,
    read_header,
    read_predictions,
    split_tokens,
    term_to_token,
    token_to_term,
    write_artifact,
    write_predictions,
)
from hyperdisc.patterns import extract_corpus, scan_paragraph

# `#` included, so a paragraph, the first one too, may open with it
surfaces = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz-_'#"), min_size=1, max_size=8
)
pos_tags = st.sampled_from(["NN", "NNS", "VB", "VBD", "JJ", "RB", "DT", "IN", ",", "."])
paragraphs = st.lists(st.tuples(surfaces, pos_tags), min_size=1, max_size=12).map(
    lambda pairs: TaggedParagraph(*map(tuple, zip(*pairs)))
)


def read_paragraphs(path):
    """A tagged corpus's paragraphs as the scan reads them: each data line
    through `parse_tagged_line`, lines without a valid token dropped."""
    return [p for line in iter_data_lines(path) if (p := parse_tagged_line(line)) is not None]


def test_parse_simple_line():
    paragraph = parse_tagged_line("The_DT cat_NN sat_VBD")
    assert paragraph.surfaces == ("The", "cat", "sat")
    assert paragraph.tags == ("DT", "NN", "VBD")


def test_empty_line_yields_nothing(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("\n\nThe_DT cat_NN\n\n")
    paragraphs = read_paragraphs(path)
    assert len(paragraphs) == 1


def test_surface_with_hyphen_splits_on_last_underscore(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("loved-ones_NNS such_JJ as_IN family_NN\n")
    (paragraph,) = read_paragraphs(path)
    assert len(paragraph) == 4
    assert paragraph.surfaces[0] == "loved-ones"
    assert paragraph.tags[0] == "NNS"


def test_underscore_in_surface():
    paragraph = parse_tagged_line("a_b_NN")
    assert paragraph == TaggedParagraph(("a_b",), ("NN",))


def test_bad_token_skipped_and_counted():
    line = "ok_NN broken also_bad_ _VB x"
    paragraph = parse_tagged_line(line)
    # "broken" has no underscore, "also_bad_" has an empty tag, "_VB" an
    # empty surface, "x" no underscore
    assert paragraph.surfaces == ("ok",)
    assert split_tokens(line)[2] == 4


@given(st.lists(paragraphs, max_size=8))
def test_tagged_corpus_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("rt") / "c.txt"
    path.write_text(
        "".join(" ".join(map("{}_{}".format, p.surfaces, p.tags)) + "\n" for p in corpus)
    )
    assert read_paragraphs(path) == corpus


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
    first, _ = read_paragraphs(path)
    assert (first.surfaces[:2], first.tags[:2]) == (("#", "1"), ("#", "CD"))
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
    "xis_VBZ", "İs_VBZ",
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
def test_split_tokens_equals_last_underscore_rule(line):
    """`split_tokens` splits a plain line in one pass; its columns and its
    bad-token count are those of splitting each token on its last
    underscore, on plain lines and all others alike."""
    pairs = [raw.rpartition("_") for raw in line.split()]
    valid = [(surface, tag) for surface, _, tag in pairs if surface and tag]
    surfaces, tags, bad = split_tokens(line)
    assert surfaces == tuple(surface for surface, _ in valid)
    assert tags == tuple(tag for _, tag in valid)
    assert bad == len(pairs) - len(valid)


def write_scan_corpus(root, corpus):
    meta, stamped, lines = corpus
    src = root / "corpus.pos.txt"
    head = "".join(f"{m}\n" for m in meta) + ("#config-hash abc\n" if stamped else "")
    src.write_text(head + "".join(f"{line}\n" for line in lines), encoding="utf-8")
    return src


def per_line_reference(path, normalized=True, hearst=True, isa=True, gate=None):
    """The scan of the requested outputs one data line at a time, every
    line that ``gate`` passes parsed: its counts and the text of each output."""
    stats = ScanStats()
    outs = ([], [], [])
    for line in iter_data_lines(path):
        if not line.strip() or (gate is not None and not gate(line)):
            continue
        stats.bad_tokens += split_tokens(line)[2]
        paragraph = parse_tagged_line(line)
        if paragraph is None:
            continue
        scan = scan_paragraph(paragraph, normalized=normalized, hearst=hearst, isa=isa)
        stats.paragraphs_in += 1
        stats.paragraphs_out += len(scan.normalized)
        stats.phrases_appended += scan.phrases
        stats.hearst_matches += len(scan.hearst)
        stats.isa_matches += len(scan.isa)
        for out, lines in zip(outs, (scan.normalized, scan.hearst, scan.isa)):
            out.extend(lines)
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
    expected_stats = dataclasses.replace(
        expected_stats, paragraphs_in=gated.paragraphs_in, bad_tokens=gated.bad_tokens)
    paths = (root / "hearst.tsv" if hearst else None, root / "isa.tsv" if isa else None)
    for batch in (1, 2, 3):
        with mock.patch.object(corpus_io, "BATCH_LINES", batch):
            stats = extract_corpus(src, *paths, workers, {"config-hash": "s"})
        assert stats == expected_stats, batch
        for path, text in zip(paths, expected[1:]):
            if path is not None:
                assert path.read_text(encoding="utf-8") == "#config-hash s\n" + text, batch
