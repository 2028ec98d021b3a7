import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdisc.corpus_io import ReadStats, TaggedParagraph, parse_tagged_line
from hyperdisc.cooc import Source, build_pair_index
from hyperdisc.normalize import columns
from hyperdisc.patterns import (
    _HEARST_GRAMMARS,
    _ISA_GRAMMARS,
    _match_np,
    PatternId,
    PatternMatch,
    extract_corpus,
    extract_hearst,
    extract_isa,
    format_hearst_line,
    format_isa_line,
    scan_paragraph,
)

from pattern_fixture import SENTENCES


def match_np(line, start):
    return _match_np(*columns(parse_tagged_line(line)), start)


class TestMatchNp:
    def test_strips_determiner(self):
        np_match = match_np("the_DT loved-ones_NNS such_JJ as_IN x_NN", 0)
        phrase, end = np_match
        assert phrase == "loved-ones"
        assert end == 2

    def test_single_noun_after_article(self):
        phrase, end = match_np("a_DT fennel_NN is_VBZ", 0)
        assert phrase == "fennel"
        assert end == 2

    def test_no_noun_is_no_match(self):
        assert match_np("run_VB fast_RB", 0) is None

    def test_caps_at_three_content_words(self):
        phrase, end = match_np("web_NN base_NN corpus_NN system_NN", 0)
        assert phrase == "web_base_corpus"
        assert end == 3

    def test_shrinks_to_noun_head(self):
        phrase, end = match_np("red_JJ car_NN fast_JJ thing_VB", 0)
        assert phrase == "red_car"
        assert end == 2

    def test_all_adjectives_no_match(self):
        assert match_np("nice_JJ big_JJ red_JJ car_NN", 0) is None

    @pytest.mark.parametrize("tag", ["PDT", "WDT", "dt"])
    def test_only_exact_dt_is_stripped(self, tag):
        # another determiner-like tag is neither stripped nor part of an NP
        assert match_np(f"all_{tag} storms_NNS", 0) is None
        assert match_np(f"all_{tag} storms_NNS", 1) == ("storms", 2)
        assert match_np(f"the_DT all_{tag} storms_NNS", 0) is None


@pytest.mark.parametrize("line,expected", SENTENCES)
def test_fixture_sentence(line, expected):
    paragraph = parse_tagged_line(line)
    found = [
        (m.pattern_id, m.hypernym, m.hyponyms)
        for m in extract_hearst(paragraph) + extract_isa(paragraph)
    ]
    assert sorted(found) == sorted(expected), line


def test_isa_ignores_hearst_sentences():
    paragraph = parse_tagged_line("dogs_NNS such_JJ as_IN poodles_NNS")
    assert extract_isa(paragraph) == []


def test_hypernym_never_among_hyponyms():
    # "a noun is a noun" collapses to nothing
    paragraph = parse_tagged_line("a_DT plant_NN is_VBZ a_DT plant_NN")
    assert extract_isa(paragraph) == []


def test_matches_do_not_overlap_within_one_grammar():
    line = (
        "herbs_NNS such_JJ as_IN basil_NN and_CC trees_NNS "
        "such_JJ as_IN oaks_NNS"
    )
    matches = extract_hearst(parse_tagged_line(line))
    such_as = [m for m in matches if m.pattern_id is PatternId.SUCH_AS]
    # the second trigger's left NP ("trees") is inside the first match's
    # hyponym list span, so only the first match is emitted
    assert such_as == [
        PatternMatch(PatternId.SUCH_AS, "herbs", ("basil", "trees"))
    ]


def test_self_consistency_on_fixture():
    # re-running the responsible grammar alone reproduces each match
    for line, expected in SENTENCES:
        paragraph = parse_tagged_line(line)
        for pattern_id, hypernym, hyponyms in expected:
            if pattern_id is PatternId.IS_A:
                again = extract_isa(paragraph)
            else:
                again = [
                    m
                    for m in extract_hearst(paragraph)
                    if m.pattern_id is pattern_id
                ]
            assert PatternMatch(pattern_id, hypernym, hyponyms) in again


def test_extract_corpus_files(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text(
        "the_DT loved-ones_NNS such_JJ as_IN family_NN and_CC friends_NNS\n"
        "a_DT fennel_NN is_VBZ a_DT plant_NN\n"
    )
    hearst_out = tmp_path / "hearst.tsv"
    isa_out = tmp_path / "isa.tsv"
    stats = extract_corpus(src, hearst_out, isa_out)
    assert stats.hearst_matches == 1
    assert stats.isa_matches == 1
    assert hearst_out.read_text() == "loved-ones\tfamily,friends\n"
    assert isa_out.read_text() == "fennel\tplant\n"


def test_extract_corpus_runs_only_requested_grammars(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("".join(line + "\n" for line, _ in SENTENCES) * 2)
    both = (tmp_path / "h.tsv", tmp_path / "i.tsv")
    full = extract_corpus(src, *both)
    hearst_only = extract_corpus(src, hearst_out=tmp_path / "h2.tsv")
    isa_only = extract_corpus(src, isa_out=tmp_path / "i2.tsv")
    assert (hearst_only.hearst_matches, hearst_only.isa_matches) == (full.hearst_matches, 0)
    assert (isa_only.hearst_matches, isa_only.isa_matches) == (0, full.isa_matches)
    assert (tmp_path / "h2.tsv").read_bytes() == both[0].read_bytes()
    assert (tmp_path / "i2.tsv").read_bytes() == both[1].read_bytes()


def test_extract_corpus_empty(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("")
    hearst_out = tmp_path / "hearst.tsv"
    isa_out = tmp_path / "isa.tsv"
    stats = extract_corpus(src, hearst_out, isa_out)
    assert (stats.hearst_matches, stats.isa_matches) == (0, 0)
    assert hearst_out.read_text() == "" and isa_out.read_text() == ""


def test_pattern_files_round_trip_through_pair_loader(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text(
        "herbs_NNS such_JJ as_IN lemongrass_NN and_CC basil_NN\n"
        "a_DT fennel_NN is_VBZ a_DT plant_NN\n"
        "lemongrass_NN is_VBZ a_DT herb_NN\n"
    )
    hearst_out = tmp_path / "hearst.tsv"
    isa_out = tmp_path / "isa.tsv"
    extract_corpus(src, hearst_out, isa_out)
    stats = ReadStats()
    hearst_index = build_pair_index(hearst_out, Source.HEARST, stats)
    isa_index = build_pair_index(isa_out, Source.ISA, stats)
    assert stats.malformed_lines == 0
    assert hearst_index.counts == {"lemongrass": {"herbs": 1}, "basil": {"herbs": 1}}
    assert isa_index.counts == {"fennel": {"plant": 1}, "lemongrass": {"herb": 1}}


def test_terms_are_short_and_lowercase():
    for line, _ in SENTENCES:
        paragraph = parse_tagged_line(line)
        for match in extract_hearst(paragraph) + extract_isa(paragraph):
            terms = (match.hypernym, *match.hyponyms)
            for term in terms:
                assert term == term.lower()
                assert 1 <= len(term.split("_")) <= 3
            assert match.hypernym not in match.hyponyms
            if match.pattern_id is PatternId.IS_A:
                assert len(match.hyponyms) == 1


def test_workers_do_not_change_extraction(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("".join(line + "\n" for line, _ in SENTENCES) * 5)
    out_a = (tmp_path / "h1.tsv", tmp_path / "i1.tsv")
    out_b = (tmp_path / "h2.tsv", tmp_path / "i2.tsv")
    extract_corpus(src, *out_a, workers=1)
    extract_corpus(src, *out_b, workers=3)
    assert out_a[0].read_bytes() == out_b[0].read_bytes()
    assert out_a[1].read_bytes() == out_b[1].read_bytes()


def all_positions_scan(paragraph, grammars):
    """Reference: every scanner tried at every token position, with the
    non-overlap rule of one grammar's left-to-right scan."""
    words, codes = columns(paragraph)
    matches = []
    for _, scanner in grammars:
        floor = 0
        i = 0
        while i < len(words):
            hit = scanner(words, codes, i)
            if hit is None or hit[1] < floor:
                i += 1
                continue
            match, _, span_end = hit
            matches.append(match)
            floor = span_end
            i = max(span_end, i + 1)
    return matches


def assert_dispatch_matches_reference(paragraph):
    hearst = all_positions_scan(paragraph, _HEARST_GRAMMARS)
    isa = all_positions_scan(paragraph, _ISA_GRAMMARS)
    assert extract_hearst(paragraph) == hearst
    assert extract_isa(paragraph) == isa
    scan = scan_paragraph(paragraph, normalized=False, hearst=True, isa=True)
    assert scan.hearst == tuple(format_hearst_line(m) for m in hearst)
    assert scan.isa == tuple(format_isa_line(m) for m in isa)


grammar_words = ["herb", "Basil", "tree", "oak", "red", "such", "is"]
noun_phrases = st.tuples(
    st.lists(st.sampled_from([("a", "DT"), ("the", "DT")]), max_size=1),
    st.lists(st.tuples(st.sampled_from(grammar_words), st.just("JJ")), max_size=2),
    st.lists(
        st.tuples(st.sampled_from(grammar_words), st.sampled_from(["NN", "NNS"])),
        min_size=1,
        max_size=2,
    ),
).map(lambda parts: parts[0] + parts[1] + parts[2])
grammar_pieces = st.one_of(
    noun_phrases,
    st.sampled_from([
        [("such", "JJ"), ("as", "IN")], [("Such", "JJ")], [("as", "IN")],
        [("including", "VBG")], [("especially", "RB")], [("or", "CC")],
        [("and", "CC")], [("other", "JJ")], [("or", "CC"), ("other", "JJ")],
        [("and", "CC"), ("other", "JJ")], [("is", "VBZ"), ("a", "DT")],
        [("Is", "VBZ"), ("an", "DT")], [("is", "VBZ")], [(",", ",")],
    ]),
    st.tuples(st.sampled_from(grammar_words), st.sampled_from(["VB", "JJ", "DT"])).map(
        lambda pair: [pair]
    ),
)
grammar_paragraphs = st.lists(grammar_pieces, min_size=1, max_size=12).map(
    lambda pieces: TaggedParagraph(*map(tuple, zip(*(pair for piece in pieces for pair in piece))))
)


@settings(max_examples=400)
@given(grammar_paragraphs)
def test_trigger_dispatch_equals_all_positions_scan(paragraph):
    assert_dispatch_matches_reference(paragraph)


def test_trigger_dispatch_on_fixture():
    for line, _ in SENTENCES:
        assert_dispatch_matches_reference(parse_tagged_line(line))
