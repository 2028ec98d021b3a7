import re

from hypothesis import given
from hypothesis import strategies as st

from hyperdisc.corpus_io import TaggedParagraph, parse_tagged_line
from hyperdisc.normalize import (
    _TAG_CODES,
    columns,
    is_chunk_tag,
    is_kept_tag,
    is_noun_tag,
    normalize_corpus,
    normalize_paragraph,
    noun_phrases,
)


def paragraph_of(line):
    return parse_tagged_line(line)


def phrases_of(line):
    return noun_phrases(*columns(paragraph_of(line)))


def normalized_tokens(paragraph):
    return " ".join(normalize_paragraph(paragraph).normalized).split()


def test_chunk_skips_determiner_windows():
    assert phrases_of("the_DT red_JJ car_NN") == ["red_car"]


def test_chunk_all_nouns_overlapping_windows():
    assert phrases_of("web_NN base_NN corpus_NN") == ["web_base", "web_base_corpus", "base_corpus"]


def test_chunk_requires_noun_head():
    assert phrases_of("run_VB walk_VB swim_VB") == []
    # adjective-final window is not a phrase
    assert phrases_of("red_JJ big_JJ") == []


def test_normalize_filters_to_four_classes():
    assert normalized_tokens(paragraph_of("The_DT cat_NN sat_VBD ._.")) == ["cat", "sat"]


def test_normalize_appends_phrases():
    normalized = normalize_paragraph(paragraph_of("A_DT red_JJ car_NN"))
    assert normalized.normalized == ("red car red_car",)
    assert normalized.phrases == 1


def test_normalize_punctuation_only():
    assert normalize_paragraph(paragraph_of("!_. ;_:")).normalized == ()


def brute_force_windows(paragraph: TaggedParagraph) -> list[str]:
    """Independent window enumerator: every 2-3 window of chunk-class tags
    whose last tag is a noun, position-major then shorter-first."""
    out = []
    for start in range(len(paragraph)):
        for length in (2, 3):
            tags = paragraph.tags[start : start + length]
            if len(tags) != length:
                continue
            if all(t.startswith(("JJ", "NN")) for t in tags) and tags[-1].startswith("NN"):
                surfaces = paragraph.surfaces[start : start + length]
                out.append("_".join(s.lower() for s in surfaces))
    return out


tag_pool = ["NN", "NNS", "NNP", "VB", "VBZ", "JJ", "JJR", "RB", "DT", "IN", "CC", ",", "."]
letters = "abcdefghijklmnopqrstuvwxyz"
words = st.text(alphabet=st.sampled_from(letters), min_size=1, max_size=6)
# capitals and non-ASCII letters: `str.lower` maps a capital sigma by its
# neighbours (final `ς` or `σ`) and `İ` to two characters
cased_words = st.text(alphabet=st.sampled_from(letters + "ABXYZΣσςİı'"), min_size=1, max_size=6)


def paragraphs_of(surfaces):
    return st.lists(
        st.tuples(surfaces, st.sampled_from(tag_pool)), min_size=1, max_size=20
    ).map(lambda pairs: TaggedParagraph(*map(tuple, zip(*pairs))))


random_paragraphs = paragraphs_of(cased_words)
ascii_paragraphs = paragraphs_of(words)


@given(random_paragraphs)
def test_output_is_filtered_surfaces_then_chunks(paragraph):
    kept = [s.lower() for s, t in zip(paragraph.surfaces, paragraph.tags) if is_kept_tag(t)]
    assert normalized_tokens(paragraph) == kept + brute_force_windows(paragraph)


@given(ascii_paragraphs)
def test_no_whitespace_and_charset(paragraph):
    for line in normalize_paragraph(paragraph).normalized:
        assert re.fullmatch(r"[a-z0-9'_-]+( [a-z0-9'_-]+)*", line)
    # punctuation-class tokens never survive
    assert not any(t in {",", "."} for t in normalized_tokens(paragraph))


def test_normalize_corpus_fixture(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text(
        "The_DT red_JJ car_NN sped_VBD ._.\n"
        "a_DT web_NN base_NN corpus_NN helps_VBZ\n"
    )
    out = tmp_path / "out.txt"
    stats = normalize_corpus(src, out)
    lines = out.read_text().splitlines()
    assert lines == [
        "red car sped red_car",
        "web base corpus helps web_base web_base_corpus base_corpus",
    ]
    assert stats.paragraphs_in == 2
    assert stats.paragraphs_out == 2
    assert stats.phrases_appended == 4


def test_normalize_corpus_empty_input(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("")
    out = tmp_path / "out.txt"
    stats = normalize_corpus(src, out)
    assert out.read_text() == ""
    assert (stats.paragraphs_in, stats.paragraphs_out, stats.phrases_appended) == (0, 0, 0)


def test_renormalizing_all_nn_output_preserves_single_words(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("The_DT red_JJ car_NN sped_VBD quickly_RB\n")
    first = tmp_path / "first.txt"
    normalize_corpus(src, first)
    # retag the normalized output as all-NN and run again
    retagged = tmp_path / "retagged.txt"
    retagged.write_text(
        "".join(
            " ".join(f"{tok}_NN" for tok in line.split()) + "\n"
            for line in first.read_text().splitlines()
        )
    )
    second = tmp_path / "second.txt"
    normalize_corpus(retagged, second)
    for line_in, line_out in zip(
        first.read_text().splitlines(), second.read_text().splitlines()
    ):
        singles = [t for t in line_in.split() if "_" not in t]
        assert set(singles) <= set(line_out.split())


def test_worker_count_does_not_change_bytes(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text(
        "".join(
            f"w{i}_NN x{i}_JJ y{i}_NN sped_VBD ._.\n" for i in range(200)
        )
    )
    out1 = tmp_path / "out1.txt"
    out2 = tmp_path / "out2.txt"
    stats1 = normalize_corpus(src, out1, workers=1)
    stats2 = normalize_corpus(src, out2, workers=3)
    assert out1.read_bytes() == out2.read_bytes()
    assert stats1 == stats2


def test_tag_classes():
    assert is_noun_tag("NNS") and not is_noun_tag("VB")
    assert is_chunk_tag("JJR") and not is_chunk_tag("RB")
    assert is_kept_tag("RBR") and not is_kept_tag("IN")
    # the determiner code is the exact tag `DT`; the grammars strip only it
    codes = {"DT": "D", "NNS": "N", "JJR": "J", "RB": "K", "IN": "-", "PDT": "-",
             "WDT": "-", "dt": "-"}
    assert {tag: _TAG_CODES[tag] for tag in codes} == codes
